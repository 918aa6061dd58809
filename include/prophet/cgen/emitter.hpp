// Emission of a specialized C++ evaluator from a lower::ModelProgram.
//
// This is the paper's transformation thesis completed in-process: the
// model's executable form (the shared lowering every backend consumes)
// is translated into one C++ translation unit that drives the same
// workload runtime and simulation engine as the interpreter — but with
// every per-node decision made at emission time:
//
//   * the model-wide slot space becomes a fixed-size pointer frame and
//     thread_local global storage (concurrent estimates stay race-free),
//   * each diagram becomes a coroutine state machine (`switch` over node
//     indices) emitted from the lowered control-flow table
//     (ModelProgram::diagrams(): each node's operation, successors and
//     defects, each diagram's entry and step limit), so it replays the
//     interpreter's walk exactly — decisions, fork/join discovery, loop
//     trips, step limits and error messages included,
//   * every expression tag, guard, initializer, fragment assignment and
//     cost-function body is transliterated from its slot-resolved
//     bytecode into straight-line C++ statements that reproduce the VM's
//     arithmetic operation for operation (the compile-cache and the
//     three-way differential tests pin bit-identical predictions),
//   * the guard::Budget contract survives: generated loops charge
//     loop trips (stage "cgen-loop") and the engine charges events, so
//     runaway models trip limits instead of hanging.
//
// The unit includes one header, cgen/prelude.hpp, and holds only what
// is specific to the model: its helpers for raising errors, labelling
// them by site, spawning fork branches and charging loop trips are
// compiled once into the estimator archive.
//
// Invariant: generated evaluators are produced from lower::ModelProgram,
// never from the AST (codegen/transformer, the paper's out-of-process
// output, prints the same program).  The emitted unit's only interface
// is its entry point, which returns the cgen::Evaluator hooks the host
// simulates (cgen/prelude.hpp).
#pragma once

#include <string>

#include "prophet/lower/lower.hpp"

namespace prophet::cgen {

/// Emits the complete C++ translation unit of a specialized evaluator
/// for `program`.  Deterministic: the same program emits byte-identical
/// source (the toolchain's compile cache keys on the source hash).
[[nodiscard]] std::string emit_evaluator(const lower::ModelProgram& program);

}  // namespace prophet::cgen
