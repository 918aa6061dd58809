// The library half of every generated evaluator: the definitions behind
// prophet/cgen/prelude.hpp.  They live in the estimator archive, which
// each evaluator links, so they compile once per build rather than once
// per model.
#include "prophet/cgen/prelude.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "prophet/guard/guard.hpp"
#include "prophet/sim/engine.hpp"

namespace prophet::cgen {

void throw_eval(const char* message) { throw EvalFault(message); }

void throw_error(const char* message) { throw std::runtime_error(message); }

void throw_at_site(const char* site, const char* message) {
  throw std::runtime_error(std::string(site) + ": " + message);
}

void throw_different_joins(const char* fork, const char* first,
                           const char* other) {
  throw std::runtime_error(std::string("fork ") + fork +
                           ": branches reach different joins ('" + first +
                           "' vs '" + other + "')");
}

void charge_loop_trips(guard::Budget& budget, const char* stage) {
  budget.charge_loop_trips(1, stage);
}

sim::ProcessRef spawn(const workload::ModelContext& ctx, sim::Process branch) {
  return ctx.engine->spawn(std::move(branch));
}

}  // namespace prophet::cgen
