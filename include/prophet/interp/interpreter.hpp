// Direct interpreter of UML performance models.
//
// This is the *human-usable* evaluation path the paper contrasts with the
// machine-efficient generated C++: it walks the lowered model
// (lower::ModelProgram's control-flow table) at simulation time,
// re-evaluating guards, cost expressions and code fragments through the
// expression VM.  Its semantics define the
// reference behaviour the code generator must reproduce; differential
// tests (tests/integration) pit the two against each other, and
// bench/bench_fig8_evaluation.cpp measures the efficiency gap that
// motivates the paper's transformation.
//
// Semantics (matched exactly by generated code):
//  * global variables are shared by all modeled processes of a run
//    (generated code holds them in file-scope variables);
//  * local variables live per process (function-scope variables);
//  * loop variables are scoped to their loop statement;
//  * guards are evaluated in edge insertion order, first truthy guard
//    wins, the "else" edge fires when none holds;
//  * code fragments are lists of `name = expression;` assignments
//    executed before the element's execute() call (Fig. 8b lines 72-76).
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "prophet/estimator/estimator.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/uml/model.hpp"
#include "prophet/workload/runtime.hpp"

namespace prophet::interp {

/// Error thrown when a model cannot be interpreted: lowering failures
/// (unparseable expressions, ...) and malformed structure a walk reaches.
/// Evaluation errors (an unknown variable at run time, ...) surface as
/// expr::EvalError, labeled with their site as in every engine.  Running
/// the model checker first catches nearly all of these statically.
class InterpretError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Executes a lowered UML model.  All per-model work — expression
/// parsing, slot-space construction, bytecode compilation — lives in the
/// shared lowering layer (lower::lower); the interpreter is a *consumer*
/// of a lower::ModelProgram and holds only its per-run state, so the
/// per-run cost is bytecode evaluation only — no string lookups on the
/// hot path.
///
/// The lowered form is immutable and shareable: any number of
/// interpreters (on any number of threads) can run the same program
/// concurrently.  This is what the simulation backend's PreparedModel
/// hands out: lower once, then per estimate() construct a cheap
/// interpreter over the shared program.
class Interpreter final : public estimator::ProgramModel {
 public:
  /// The immutable lowered form of a model (see lower::ModelProgram):
  /// every expression in slot-resolved bytecode, uids assigned, diagram
  /// references, operations and successors resolved.  Obtain one from
  /// lower::lower() and pass it to the sharing constructor.
  using Program = lower::ModelProgram;

  /// Borrows `model`; it must outlive the interpreter.  Throws
  /// InterpretError when any expression fails to parse or a referenced
  /// diagram is missing.
  explicit Interpreter(const uml::Model& model);

  /// Takes ownership of `model` (safe with temporaries).
  explicit Interpreter(uml::Model&& model);

  /// Shares a pre-compiled program: construction is O(1) — all parsed
  /// state is reused, the interpreter allocates only its per-run state.
  explicit Interpreter(std::shared_ptr<const Program> program);
  ~Interpreter() override;

  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  // --- estimator::ProgramModel ---------------------------------------------
  void on_run_start(const machine::SystemParameters& params) override;
  [[nodiscard]] sim::Process process_main(
      workload::ModelContext ctx) override;
  /// Routes VM activity of every subsequent expression evaluation (tags,
  /// guards, fragments, cost-function bodies) into `counters`; null
  /// disables.  The block must outlive its installation.
  void set_expr_counters(obs::ExprCounters* counters) override;
  /// Charges subsequent evaluation — loop iterations and expression-VM
  /// instructions — against `budget`; null disables.  Guard errors
  /// (guard::ResourceExhausted / guard::Cancelled) propagate out of the
  /// simulation run.  Loops are charged per iteration, so a zero-cost
  /// spin loop (which never yields an engine event) still trips.
  void set_budget(guard::Budget* budget) override;

  // --- Introspection ---------------------------------------------------------

  /// Value of a global variable after/during a run.
  [[nodiscard]] double global(const std::string& name) const;

  /// Evaluates a named cost function with the given arguments under the
  /// current global state, by the VM's call rule (used by tests and by
  /// cost-function benches).
  [[nodiscard]] double call_cost_function(
      const std::string& name, const std::vector<double>& args) const;

  /// The numeric uid assigned to a node (tag `id` if present, otherwise a
  /// stable 1-based index).
  [[nodiscard]] int uid_of(const std::string& node_id) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace prophet::interp
