#include "prophet/estimator/estimator.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace prophet::estimator {

std::string PredictionReport::summary() const {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(12);
  out << "predicted time: " << predicted_time << " s\n";
  out << "processes:      " << processes << '\n';
  out << "engine events:  " << events << '\n';
  for (std::size_t pid = 0; pid < per_process_finish.size(); ++pid) {
    out << "  p" << pid << " finished at " << per_process_finish[pid]
        << " s\n";
  }
  if (!machine_report.empty()) {
    out << "-- machine --\n" << machine_report;
  }
  return out.str();
}

SimulationManager::SimulationManager(machine::SystemParameters params,
                                     EstimationOptions options)
    : params_(params), options_(options) {
  params_.validate();
}

PredictionReport SimulationManager::run(ProgramModel& model) const {
  sim::Engine engine;
  machine::MachineModel machine(engine, params_);
  workload::Communicator comm(engine, machine);
  PredictionReport report;
  report.processes = params_.processes;

  // Per-run counter blocks, folded into the registry at the end.  The
  // expr block and the caller's budget are installed on the model for
  // the run's duration; the guard detaches both even when the run throws
  // (the model outlives this call and must not keep a pointer into our
  // stack).  The budget also charges the engine's events.
  obs::SimCounters sim_counters;
  obs::ExprCounters expr_counters;
  const bool metrics = options_.metrics != nullptr;
  struct Detach {
    ProgramModel& model;
    ~Detach() {
      model.set_expr_counters(nullptr);
      model.set_budget(nullptr);
    }
  } detach{model};
  if (metrics) {
    model.set_expr_counters(&expr_counters);
  }
  if (options_.budget != nullptr) {
    engine.set_budget(options_.budget);
    model.set_budget(options_.budget);
  }

  model.on_run_start(params_);

  // One wrapper process per modeled process records its finish time; a
  // process that never finishes keeps NaN until the check below.
  std::vector<double> finish(static_cast<std::size_t>(params_.processes),
                             std::numeric_limits<double>::quiet_NaN());
  auto wrapper = [&model, &finish](workload::ModelContext ctx)
      -> sim::Process {
    const auto pid = static_cast<std::size_t>(ctx.pid);
    co_await model.process_main(ctx);
    finish[pid] = ctx.engine->now();
  };

  for (int pid = 0; pid < params_.processes; ++pid) {
    workload::ModelContext ctx;
    ctx.engine = &engine;
    ctx.machine = &machine;
    ctx.comm = &comm;
    ctx.trace = options_.collect_trace ? &report.trace : nullptr;
    ctx.counters = metrics ? &sim_counters : nullptr;
    ctx.pid = pid;
    ctx.tid = 0;
    engine.spawn(wrapper(ctx));
  }

  engine.run();

  // Out of events with a process still blocked: nothing can wake it.
  std::string unfinished;
  for (std::size_t pid = 0; pid < finish.size(); ++pid) {
    if (std::isnan(finish[pid])) {
      unfinished += " p" + std::to_string(pid) + " did not finish;";
    }
  }
  if (!unfinished.empty()) {
    throw std::runtime_error("communication deadlock during simulation:" +
                             unfinished);
  }

  report.predicted_time = engine.now();
  report.per_process_finish = std::move(finish);
  report.events = engine.events_processed();
  if (options_.collect_machine_report) {
    report.machine_report = machine.utilization_report();
  }
  if (metrics) {
    // Every engine event is one coroutine resumption — the simulated
    // analogue of a context switch.
    sim_counters.context_switches = engine.events_processed();
    options_.metrics->fold("sim.", sim_counters);
    options_.metrics->counter("sim.runs").add(1);
    options_.metrics->fold("expr.", expr_counters);
  }
  return report;
}

}  // namespace prophet::estimator
