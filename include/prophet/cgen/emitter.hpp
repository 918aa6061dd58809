// The evaluator the codegen engine compiles for a lowered model: the
// paper's transformer output (codegen/transformer.hpp), printed from
// lower::ModelProgram, never from the AST.  The unit includes one
// header, cgen/prelude.hpp, keeps its run state thread_local and exports
// one entry point, which returns the cgen::Evaluator hooks the host
// simulates.
#pragma once

#include <string>

#include "prophet/lower/lower.hpp"

namespace prophet::cgen {

/// The C++ translation unit of `program`'s evaluator:
/// codegen::Transformer().transform(program).  Deterministic: the same
/// program prints byte-identical source (the toolchain's compile cache
/// keys on the source hash).
[[nodiscard]] std::string emit_evaluator(const lower::ModelProgram& program);

}  // namespace prophet::cgen
