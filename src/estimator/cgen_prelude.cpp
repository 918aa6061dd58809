// The library half of every generated evaluator: the definitions behind
// prophet/cgen/prelude.hpp, and estimator::EvaluatorModel, which runs an
// evaluator's hooks.  They live in the estimator archive, which each
// evaluator links, so they compile once per build rather than once per
// model.
#include "prophet/cgen/prelude.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "prophet/estimator/estimator.hpp"
#include "prophet/guard/guard.hpp"
#include "prophet/sim/engine.hpp"

namespace prophet::cgen {

double throw_eval(const char* message) { throw EvalFault(message); }

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

namespace prophet::estimator {

EvaluatorModel::EvaluatorModel(const cgen::Evaluator& hooks) : hooks_(hooks) {}

void EvaluatorModel::on_run_start(const machine::SystemParameters& params) {
  hooks_.start_run(params.processes, params.threads_per_process,
                   params.nodes, params.processors_per_node);
}

sim::Process EvaluatorModel::process_main(workload::ModelContext ctx) {
  return hooks_.run_process(ctx);
}

void EvaluatorModel::set_budget(guard::Budget* budget) {
  hooks_.set_budget(budget);
}

}  // namespace prophet::estimator
