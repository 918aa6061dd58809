// The one header every generated evaluator includes.
//
// The paper's transformer (codegen/transformer.hpp) prints a translation
// unit per model, and the codegen engine compiles it on prepare(), so
// whatever this header pulls in is parsed once per model.  It therefore
// declares only what the printed code names: sim::Process
// (sim/process.hpp), the workload elements (workload/elements.hpp), the
// helpers below and the evaluator's one entry point.  The helpers are
// compiled once into the estimator archive
// (src/estimator/cgen_prelude.cpp), which every evaluator links.
//
// The entry point hands the host the evaluator's hooks, and the host
// runs them as the program model of its own simulation (cgen/
// backend.hpp): the engine, machine model and budget an evaluator acts
// on are the host's.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>

#include "prophet/sim/process.hpp"
#include "prophet/workload/elements.hpp"

namespace prophet::guard {
class Budget;
}  // namespace prophet::guard

namespace prophet::cgen {

/// What a printed expression raises where the VM raises an
/// expr::EvalError (an unbound name, a lazily compiled error, a call too
/// deep), before at_site labels it.  `message` must be a literal.
class EvalFault : public std::exception {
 public:
  explicit EvalFault(const char* message) noexcept : message_(message) {}
  [[nodiscard]] const char* what() const noexcept override { return message_; }

 private:
  const char* message_;
};

/// Throws EvalFault(`message`); typed as a value so that an expression
/// can raise in place of one.
[[noreturn]] double throw_eval(const char* message);

/// Throws std::runtime_error(`message`): a structural error the walk
/// reached (a lowered defect, a step limit, a fork without a join).
[[noreturn]] void throw_error(const char* message);

/// Throws std::runtime_error("<site>: <message>"), expr::Compiled::eval's
/// label for an error raised while evaluating the program at `site`.
[[noreturn]] void throw_at_site(const char* site, const char* message);

/// Throws fork `fork`'s std::runtime_error for branches that reached
/// the joins `first` and `other` (lower::fork_join_error's text).
[[noreturn]] void throw_different_joins(const char* fork, const char* first,
                                        const char* other);

/// Evaluates `program` (the printed program at `site`), labelling the
/// EvalFault it raises with the site.
template <class Program>
double at_site(const char* site, Program program) {
  try {
    return program();
  } catch (const EvalFault& fault) {
    throw_at_site(site, fault.what());
  }
}

/// Charges one trip of a <<loop+>> to `budget` at check site `stage`.
void charge_loop_trips(guard::Budget& budget, const char* stage);

/// Spawns a fork branch as an independent process of `ctx`'s engine.
[[nodiscard]] sim::ProcessRef spawn(const workload::ModelContext& ctx,
                                    sim::Process branch);

/// The hooks of a generated evaluator: what estimator::ProgramModel
/// asks of the program model the host simulates.
struct Evaluator {
  /// Resets the model's run state and binds np/nt/nn/ppn.
  void (*start_run)(int processes, int threads_per_process, int nodes,
                    int processors_per_node);
  /// The behaviour of one modeled process.
  sim::Process (*run_process)(workload::ModelContext ctx);
  /// Installs (or with null, removes) the run's budget.
  void (*set_budget)(guard::Budget* budget);
};

/// The one symbol a generated evaluator exports, and its type: it
/// returns the evaluator's hooks.
inline constexpr const char* kEvaluatorSymbol = "prophet_cgen_evaluator";
using EvaluatorEntry = const Evaluator* (*)();

}  // namespace prophet::cgen
