#include "prophet/analytic/backend.hpp"

#include <cstddef>
#include <utility>
#include <vector>

#include "prophet/analytic/analytic.hpp"
#include "prophet/interp/interpreter.hpp"
#include "prophet/obs/obs.hpp"

namespace prophet::analytic {

namespace {

/// Simulation, prepared: a handle on the shared lowering.  Every
/// estimate() call constructs its own interpreter (per-run state only —
/// O(1) over the shared program) and its own engine inside the
/// SimulationManager, so concurrent calls share nothing mutable.
class SimulationPrepared final : public estimator::PreparedModel {
 public:
  explicit SimulationPrepared(lower::ModelProgramPtr program)
      : program_(std::move(program)) {
    if (program_ == nullptr) {
      throw interp::InterpretError("null model program");
    }
  }

  [[nodiscard]] estimator::PredictionReport estimate(
      const machine::SystemParameters& params,
      const estimator::EstimationOptions& options) const override {
    interp::Interpreter interpreter(program_);
    const estimator::SimulationManager manager(params, options);
    return manager.run(interpreter);
  }

  [[nodiscard]] lower::ModelProgramPtr lowering() const override {
    return program_;
  }

 private:
  lower::ModelProgramPtr program_;
};

/// The engine-neutral report of one analytic evaluation; counts its
/// evaluated elements when metrics are on.
estimator::PredictionReport to_prediction(
    AnalyticReport&& analytic, const estimator::EstimationOptions& options) {
  estimator::PredictionReport report;
  report.predicted_time = analytic.predicted_time;
  report.per_process_finish = std::move(analytic.per_process_finish);
  report.processes = analytic.processes;
  if (options.collect_machine_report) {
    report.machine_report = analytic.machine_report();
  }
  if (options.metrics != nullptr) {
    options.metrics->counter("analytic.elements")
        .add(analytic.evaluated_elements);
  }
  return report;
}

/// Folds the counters of `runs` analytic evaluations into the metrics.
void fold_runs(const estimator::EstimationOptions& options,
               const obs::AnalyticCounters& counters, std::size_t runs) {
  options.metrics->fold("analytic.", counters);
  options.metrics->counter("analytic.runs").add(runs);
  options.metrics->fold("expr.", counters.expr);
}

/// Analytic, prepared: an AnalyticEstimator over the shared lowering.
/// Its evaluate() is const and keeps its per-evaluation buffers in the
/// calling thread's workspace, so concurrent estimate() calls are
/// race-free by construction.
class AnalyticPrepared final : public estimator::PreparedModel {
 public:
  explicit AnalyticPrepared(lower::ModelProgramPtr program)
      : estimator_(std::move(program)) {}

  [[nodiscard]] estimator::PredictionReport estimate(
      const machine::SystemParameters& params,
      const estimator::EstimationOptions& options) const override {
    // No trace to collect: nothing is simulated.
    obs::AnalyticCounters counters;
    const bool metrics = options.metrics != nullptr;
    estimator::PredictionReport report = to_prediction(
        estimator_.evaluate(params, metrics ? &counters : nullptr,
                            options.budget),
        options);
    if (metrics) {
      fold_runs(options, counters, 1);
    }
    return report;
  }

  [[nodiscard]] std::vector<estimator::PredictionReport> estimate_batch(
      std::span<const machine::SystemParameters> params,
      const estimator::EstimationOptions& options) const override {
    obs::AnalyticCounters counters;
    const bool metrics = options.metrics != nullptr;
    std::vector<AnalyticReport> analytic = estimator_.evaluate_batch(
        params, metrics ? &counters : nullptr, options.budget);
    std::vector<estimator::PredictionReport> reports;
    reports.reserve(analytic.size());
    for (auto& lane : analytic) {
      reports.push_back(to_prediction(std::move(lane), options));
    }
    if (metrics) {
      fold_runs(options, counters, params.size());
    }
    return reports;
  }

  [[nodiscard]] lower::ModelProgramPtr lowering() const override {
    return estimator_.lowering();
  }

 private:
  AnalyticEstimator estimator_;
};

}  // namespace

std::unique_ptr<estimator::PreparedModel> SimulationBackend::prepare(
    lower::ModelProgramPtr program) const {
  return std::make_unique<SimulationPrepared>(std::move(program));
}

std::unique_ptr<estimator::PreparedModel> AnalyticBackend::prepare(
    lower::ModelProgramPtr program) const {
  return std::make_unique<AnalyticPrepared>(std::move(program));
}

}  // namespace prophet::analytic
