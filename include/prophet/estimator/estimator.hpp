// The Performance Estimator — Fig. 2's right-hand column.
//
// "The Performance Estimator estimates the performance of a parallel and
// distributed program on a target computer architecture. As input ...
// serve the program model and architectural parameters... The program
// model is integrated with the machine model to create the model of the
// whole computer system." (Sec. 2.2)
//
// The program model arrives in one of two forms, both implementing
// ProgramModel:
//   * the C++ representation generated by the transformer (the paper's
//     PMP element) — compiled code calling the workload runtime, whose
//     hooks EvaluatorModel runs; or
//   * the UML representation evaluated directly by prophet::interp — the
//     human-usable form, used for differential testing and the
//     machine-efficiency benchmarks.
//
// The SimulationManager builds the machine model from the system
// parameters (SP), spawns one simulation process per modeled process,
// runs the CSIM-substitute engine, and produces the prediction report and
// trace file (TF).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "prophet/guard/guard.hpp"
#include "prophet/machine/machine.hpp"
#include "prophet/obs/obs.hpp"
#include "prophet/sim/engine.hpp"
#include "prophet/trace/trace.hpp"
#include "prophet/workload/runtime.hpp"

namespace prophet::cgen {
struct Evaluator;
}  // namespace prophet::cgen

/// The Performance Estimator: program + machine models evaluated into
/// prediction reports (simulation engine, backend abstraction).
namespace prophet::estimator {

/// A program performance model, evaluable by simulation.
class ProgramModel {
 public:
  /// Virtual: program models are evaluated polymorphically.
  virtual ~ProgramModel() = default;

  /// Called once before each estimation run: (re)initialize global model
  /// state and bind system parameters (np/nn/ppn/nt).
  virtual void on_run_start(const machine::SystemParameters& params) {
    (void)params;
  }

  /// The behaviour of one modeled process; called once per pid.
  [[nodiscard]] virtual sim::Process process_main(
      workload::ModelContext ctx) = 0;

  /// Installs (or with null, removes) a VM activity counter block for
  /// subsequent expression evaluations.  Models that evaluate no
  /// expressions (generated code) keep the default no-op.  The pointer
  /// must stay valid until reset; the SimulationManager installs one per
  /// run and always resets it before returning.
  virtual void set_expr_counters(obs::ExprCounters* counters) {
    (void)counters;
  }

  /// Installs (or with null, removes) an execution budget for subsequent
  /// evaluation.  Models charge loop trips and expression-VM
  /// instructions against it and let guard errors propagate; the default
  /// no-op suits models with no internal loops (generated code is
  /// bounded by the engine's own event charge).  Like set_expr_counters,
  /// the SimulationManager installs one per run and resets it before
  /// returning.
  virtual void set_budget(guard::Budget* budget) { (void)budget; }
};

/// A generated evaluator's hooks (cgen/prelude.hpp) as the program model
/// a simulation manager runs: the codegen engine's, and the `main` that
/// `prophetc generate --main` appends.
class EvaluatorModel final : public ProgramModel {
 public:
  /// Runs `hooks`, which must outlive the model.
  explicit EvaluatorModel(const cgen::Evaluator& hooks);

  /// Resets the evaluator's run state and binds np/nt/nn/ppn.
  void on_run_start(const machine::SystemParameters& params) override;
  /// The evaluator's behaviour of one modeled process.
  [[nodiscard]] sim::Process process_main(
      workload::ModelContext ctx) override;
  /// Installs the run's budget in the evaluator.
  void set_budget(guard::Budget* budget) override;

 private:
  const cgen::Evaluator& hooks_;
};

/// The result of one estimation run.
struct PredictionReport {
  /// Makespan (seconds of simulated time).
  double predicted_time = 0;
  /// Finish time of every modeled process, indexed by pid (0..np-1).
  std::vector<double> per_process_finish;
  /// Engine events processed (0 for analytic evaluations).
  std::uint64_t events = 0;
  /// Number of modeled processes.
  int processes = 0;
  /// Event trace; empty unless tracing was enabled.
  trace::Trace trace;
  /// Per-node facility statistics (utilization report).
  std::string machine_report;

  /// Human-readable multi-line report.
  [[nodiscard]] std::string summary() const;
};

/// Options for one estimation.
struct EstimationOptions {
  /// Record the event trace (TF element of Fig. 2).
  bool collect_trace = true;
  /// Format the per-node utilization report.  Batch sweeps that only
  /// keep the numeric predictions turn this off: string formatting per
  /// scenario would otherwise rival the (microsecond) analytic
  /// evaluation itself.
  bool collect_machine_report = true;
  /// When non-null, the run folds its activity counters (sim.*, expr.*,
  /// analytic.*) into this registry.  Metrics never feed back into the
  /// evaluation: predictions are bit-identical with or without them.
  /// The registry is not thread-safe — concurrent estimates need one
  /// registry each (merge afterwards).
  obs::Registry* metrics = nullptr;
  /// When non-null, the run charges this caller-owned budget — its
  /// limits, deadline and cancellation chain; that is how a sweep ties
  /// every job to one cancellation token.  Tripping raises
  /// guard::ResourceExhausted / guard::Cancelled out of estimate().  A
  /// null budget — the default — adds no checks, and a budget that never
  /// trips leaves predictions bit-identical.
  guard::Budget* budget = nullptr;
};

/// Builds the system model (machine + program) and evaluates it.
class SimulationManager {
 public:
  /// Captures the system parameters and estimation options.
  explicit SimulationManager(machine::SystemParameters params,
                             EstimationOptions options = {});

  /// The system parameters this manager evaluates under.
  [[nodiscard]] const machine::SystemParameters& params() const {
    return params_;
  }

  /// Runs one estimation.  Deterministic: same model + parameters give
  /// the same report.  Throws std::runtime_error naming each process
  /// still blocked when the engine runs out of events (a deadlock).
  [[nodiscard]] PredictionReport run(ProgramModel& model) const;

 private:
  machine::SystemParameters params_;
  EstimationOptions options_;
};

}  // namespace prophet::estimator
