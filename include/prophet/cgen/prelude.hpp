// The one header every generated evaluator includes.
//
// The cgen emitter (emitter.hpp) prints a translation unit per model and
// compiles it on prepare(), so whatever this header pulls in is parsed
// once per model.  It therefore declares only what the emitted code
// names: the C ABI (abi.hpp), sim::Process (sim/process.hpp), the
// workload elements (workload/elements.hpp) and the helpers below.
// Everything else the evaluator runs — the simulation manager, the
// budget, the machine model and the ABI glue that drives them — is
// compiled once into the estimator archive (src/estimator/
// cgen_prelude.cpp), which every evaluator links.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>

#include "prophet/cgen/abi.hpp"
#include "prophet/sim/process.hpp"
#include "prophet/workload/elements.hpp"

namespace prophet::guard {
class Budget;
}  // namespace prophet::guard

namespace prophet::cgen {

/// What transliterated bytecode raises where the VM raises an
/// expr::EvalError (an unbound name, a Throw instruction, a call too
/// deep), before at_site labels it.  `message` must be a literal.
class EvalFault : public std::exception {
 public:
  explicit EvalFault(const char* message) noexcept : message_(message) {}
  [[nodiscard]] const char* what() const noexcept override { return message_; }

 private:
  const char* message_;
};

/// Throws EvalFault(`message`).
[[noreturn]] void throw_eval(const char* message);

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

/// Evaluates `program` (the transliteration of the program at `site`),
/// labelling the EvalFault it raises with the site.
template <class Program>
double at_site(const char* site, Program program) {
  try {
    return program();
  } catch (const EvalFault& fault) {
    throw_at_site(site, fault.what());
  }
}

/// The value bound at a slot, or EvalFault(`message`) when it is unbound.
inline double load_slot(const double* bound, const char* message) {
  if (bound == nullptr) {
    throw_eval(message);
  }
  return *bound;
}

/// Charges one trip of a <<loop+>> to `budget` at check site `stage`.
void charge_loop_trips(guard::Budget& budget, const char* stage);

/// Spawns a fork branch as an independent process of `ctx`'s engine.
[[nodiscard]] sim::ProcessRef spawn(const workload::ModelContext& ctx,
                                    sim::Process branch);

/// The three hooks a generated evaluator hands run_evaluator.
struct Evaluator {
  /// Resets the model's run state and binds np/nt/nn/ppn.
  void (*start_run)(const CgenParams& params);
  /// The behaviour of one modeled process.
  sim::Process (*run_process)(workload::ModelContext ctx);
  /// Installs (or with null, removes) the run's budget.
  void (*set_budget)(guard::Budget* budget);
};

/// prophet_cgen_run's body: simulates `evaluator` under `params` with
/// the budget they ask for and fills `result`, mapping guard trips and
/// errors onto CgenRunStatus.  Never throws.
std::int32_t run_evaluator(const Evaluator& evaluator, const CgenParams* params,
                           CgenResult* result);

/// prophet_cgen_free's body: releases the storage behind `result`.
void free_result(CgenResult* result);

}  // namespace prophet::cgen
