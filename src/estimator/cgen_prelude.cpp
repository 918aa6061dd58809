// The library half of every generated evaluator: the definitions behind
// prophet/cgen/prelude.hpp.  They live in the estimator archive, which
// each evaluator links, so they compile once per build rather than once
// per model.
#include "prophet/cgen/prelude.hpp"

#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "prophet/estimator/estimator.hpp"
#include "prophet/guard/guard.hpp"

namespace prophet::cgen {
namespace {

/// The generated evaluator behind the ProgramModel the simulation
/// manager runs.
class GeneratedModel final : public estimator::ProgramModel {
 public:
  GeneratedModel(const Evaluator& evaluator, const CgenParams& params)
      : evaluator_(evaluator), params_(params) {}

  void on_run_start(const machine::SystemParameters& params) override {
    (void)params;  // the same numbers as params_, which the hook takes
    evaluator_.start_run(params_);
  }

  [[nodiscard]] sim::Process process_main(workload::ModelContext ctx) override {
    return evaluator_.run_process(ctx);
  }

  void set_budget(guard::Budget* budget) override {
    evaluator_.set_budget(budget);
  }

 private:
  const Evaluator& evaluator_;
  const CgenParams& params_;
};

/// Heap storage behind CgenResult's pointers; freed by free_result.
struct ResultStorage {
  std::vector<std::int32_t> pids;
  std::vector<double> times;
  std::string machine_report;
  std::string message;
  std::string stage;
};

void fill_usage(CgenResult* result, const guard::Usage& usage) {
  result->usage_sim_events = usage.sim_events;
  result->usage_vm_instructions = usage.vm_instructions;
  result->usage_replay_events = usage.replay_events;
  result->usage_loop_trips = usage.loop_trips;
  result->usage_elapsed_seconds = usage.elapsed_seconds;
}

}  // namespace

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

std::int32_t run_evaluator(const Evaluator& evaluator, const CgenParams* params,
                           CgenResult* result) {
  if (params == nullptr || result == nullptr) {
    return kCgenError;
  }
  *result = CgenResult{};
  auto* storage = new (std::nothrow) ResultStorage;
  if (storage == nullptr) {
    return kCgenError;
  }
  result->owner = storage;
  const auto fail = [&](std::int32_t status, const char* message) {
    storage->message = message;
    result->message = storage->message.c_str();
    result->stage = storage->stage.c_str();
    result->status = status;
    return status;
  };
  try {
    machine::SystemParameters system;
    system.nodes = params->nodes;
    system.processors_per_node = params->processors_per_node;
    system.processes = params->processes;
    system.threads_per_process = params->threads_per_process;
    system.cpu_speed = params->cpu_speed;
    system.network_latency = params->network_latency;
    system.network_bandwidth = params->network_bandwidth;
    system.network_overhead = params->network_overhead;
    system.memory_latency = params->memory_latency;
    system.memory_bandwidth = params->memory_bandwidth;
    system.barrier_latency = params->barrier_latency;

    guard::Limits limits;
    limits.wall_seconds = params->wall_seconds;
    limits.max_sim_events = params->max_sim_events;
    limits.max_vm_instructions = params->max_vm_instructions;
    limits.max_replay_events = params->max_replay_events;
    limits.max_loop_trips = params->max_loop_trips;

    std::optional<guard::Budget> budget;
    if (limits.any() || params->cancel_poll != nullptr ||
        params->cancel_at_sim_event != 0) {
      budget.emplace(limits);
      if (params->cancel_poll != nullptr) {
        budget->bind_external_cancel(params->cancel_poll,
                                     params->cancel_context);
      }
      if (params->cancel_at_sim_event != 0) {
        budget->cancel_at_sim_event(params->cancel_at_sim_event);
      }
    }

    estimator::EstimationOptions options;
    options.collect_trace = false;
    options.collect_machine_report = params->collect_machine_report != 0;
    if (budget.has_value()) {
      options.budget = &*budget;
    }

    GeneratedModel model(evaluator, *params);
    const estimator::SimulationManager manager(system, options);
    estimator::PredictionReport report = manager.run(model);

    storage->pids.reserve(report.per_process_finish.size());
    storage->times.reserve(report.per_process_finish.size());
    for (const auto& [pid, finish] : report.per_process_finish) {
      storage->pids.push_back(pid);
      storage->times.push_back(finish);
    }
    storage->machine_report = std::move(report.machine_report);
    result->predicted_time = report.predicted_time;
    result->events = report.events;
    result->processes = report.processes;
    result->finish_pids = storage->pids.data();
    result->finish_times = storage->times.data();
    result->finish_count = storage->pids.size();
    result->machine_report = storage->machine_report.c_str();
    result->message = "";
    result->status = kCgenOk;
    return result->status;
  } catch (const guard::ResourceExhausted& error) {
    result->limit = static_cast<std::int32_t>(error.limit());
    storage->stage = error.stage();
    fill_usage(result, error.usage());
    return fail(kCgenResourceExhausted, error.what());
  } catch (const guard::Cancelled& error) {
    result->limit = static_cast<std::int32_t>(error.limit());
    storage->stage = error.stage();
    fill_usage(result, error.usage());
    return fail(kCgenCancelled, error.what());
  } catch (const std::exception& error) {
    return fail(kCgenError, error.what());
  } catch (...) {
    return fail(kCgenError, "unknown error in generated evaluator");
  }
}

void free_result(CgenResult* result) {
  if (result != nullptr && result->owner != nullptr) {
    delete static_cast<ResultStorage*>(result->owner);
    result->owner = nullptr;
  }
}

}  // namespace prophet::cgen
