// Shared declarations of the sweep benchmark (perfbench).
//
// The benchmark drives the Performance Prophet libraries only through
// their public headers: pipeline::BatchRunner for the end-to-end sweeps,
// and the per-module entry points (registry, XMI, checker, transformer,
// lowering, backends, cgen toolchain) for the traced per-layer run.
// Nothing under src/ is instrumented; every span is recorded here.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "prophet/estimator/backend.hpp"
#include "prophet/pipeline/batch.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
[[nodiscard]] double seconds_since(Clock::time_point start);

/// One sweep: what a user hands to one BatchRunner — one model over its
/// scenario grid.  `label` names the sweep in per-model metrics.
struct Sweep {
  std::string label;
  std::string reference;  ///< "@kernel6", "@kernel6-detailed(n=8,m=2)"
  std::string grid;       ///< pipeline::ScenarioGrid spec
};

/// A workload: a list of sweeps evaluated by one engine selection.
struct Workload {
  prophet::estimator::BackendKind backend =
      prophet::estimator::BackendKind::Analytic;
  std::vector<Sweep> sweeps;
};

/// The workload names the benchmark accepts.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds workload `name` (the seed only orders the sweeps of each round,
/// see SweepBench::round_order).  Throws std::invalid_argument for
/// unknown names.
[[nodiscard]] Workload make_workload(const std::string& name);

/// The ten registry sweeps of the wide workloads, one per model, on the
/// wide grid (the per-model layer probes run on these in every workload).
[[nodiscard]] std::vector<Sweep> registry_sweeps();

/// SplitMix64 step: deterministic seed derivation.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t value);

/// One pass of the host calibration loop, Livermore kernel 6 at n=256,
/// m=8 (arrays set up and the recurrence run), in seconds of the calling
/// thread's CPU time.  The benchmark keeps its own copy of the loop
/// instead of calling prophet::kernels, so no change to the program can
/// move the yardstick its rates are scaled by.
[[nodiscard]] double calibration_seconds();

/// \name Statistics over samples
///@{
[[nodiscard]] double median(std::vector<double> values);
/// The smallest sample: on a shared host, contention only ever adds
/// time, so the fastest of many short samples tracks the uncontended
/// cost far more steadily than the median does.
[[nodiscard]] double fastest(const std::vector<double>& values);
[[nodiscard]] double geomean(const std::vector<double>& values);
///@}

/// One reported metric: value and unit, in report order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Metrics in report order.
using MetricSet = std::vector<Metric>;

/// Run-wide settings from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for cgen caches and other scratch files (inside the
  /// checkout the benchmark runs from).
  std::string work_dir = ".bench_build/work";
  /// Where the traced run writes its Chrome/Perfetto trace ("" skips).
  std::string trace_out;
  /// Self-test hook: flips one bit of one timed prediction before it is
  /// checked, so the check must report a failure.
  bool perturb = false;
};

/// What a run checked: jobs attempted and how many failed (failed jobs
/// plus predictions that failed the check).
struct CheckTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Pins the calling thread — and the threads and processes it starts
/// later — to the allowed CPU that runs the calibration loop fastest
/// right now, by wall time.  On a shared host the neighbours load some
/// cores more than others.
void pin_to_quietest_cpu();

/// Points the cgen compile cache at `dir` (PROPHET_CGEN_CACHE, read by
/// the toolchain on every compile), creating it.
void use_cgen_cache(const std::string& dir);

/// Runs one sweep of a timed round.
using SweepStep = std::function<void(std::size_t sweep)>;

/// The end-to-end half of the benchmark: set-up, the scalar reference
/// and the closed-loop timed sweeps of one workload, with every timed
/// prediction checked against the reference.
class SweepBench {
 public:
  SweepBench(RunConfig config, Workload workload);

  [[nodiscard]] const RunConfig& config() const { return config_; }
  [[nodiscard]] const Workload& workload() const { return workload_; }
  [[nodiscard]] const CheckTally& tally() const { return tally_; }

  /// The run's compile cache (PROPHET_CGEN_CACHE).
  [[nodiscard]] std::string cgen_cache() const;

  /// Times one set-up of sweep `sweep`'s model: references to its first
  /// prediction, one scenario through a fresh runner.
  void time_setup(std::size_t sweep);

  /// Times one set-up of every model, in round `rep`'s order.  On
  /// crossval_wide it first empties the compile cache, so each set-up
  /// includes the model's cold native compile and the cache ends warm.
  void time_setups(int rep);

  /// setup_s: the sum over models of each one's fastest timed set-up.
  [[nodiscard]] double setup_seconds() const;

  /// Runs every sweep once at one lane (scalar) together with the
  /// simulator, keeping the predictions every timed job is checked
  /// against and the analytic-vs-simulator relative errors.
  void compute_references();

  /// Options of a timed sweep: one worker, the workload's engines, the
  /// default lane width.
  [[nodiscard]] prophet::pipeline::BatchOptions sweep_options() const;

  /// One timed sweep through a fresh BatchRunner (constructor,
  /// add_model_reference, add_sweep, run); checks its predictions and
  /// returns its wall seconds.  `report` (nullable) receives the report.
  double run_sweep(std::size_t sweep,
                   const prophet::pipeline::BatchOptions& options,
                   prophet::pipeline::BatchReport* report = nullptr);

  /// Jobs in sweep `sweep`.
  [[nodiscard]] std::size_t jobs_in(std::size_t sweep) const {
    return references_[sweep].size();
  }

  /// The seed-shuffled order of the sweeps in round `round`.
  [[nodiscard]] std::vector<std::size_t> round_order(int round) const;

  /// Closed loop: whole rounds, each calling `step` once per sweep in the
  /// round's order (each sweep starts after the previous one completed),
  /// until `seconds` have passed and at least three rounds ran.  One
  /// calibration loop runs before every step.
  void run_rounds(double seconds, const SweepStep& step);

  /// Seconds of every calibration loop the rounds ran.
  [[nodiscard]] const std::vector<double>& calibrations() const {
    return calibrations_;
  }

  /// The fastest calibration loop of the rounds over the reference
  /// host's: below 1 when this host ran faster than the reference.
  [[nodiscard]] double host_scale() const;

  /// Geometric mean over sweeps of jobs / fastest wall seconds, so every
  /// sweep weighs the same whatever its size, times host_scale(): the
  /// rate the reference host would reach.
  [[nodiscard]] double jobs_per_second(
      const std::vector<std::vector<double>>& walls) const;

  [[nodiscard]] double rel_error_max() const { return rel_error_max_; }
  [[nodiscard]] double rel_error_mean() const { return rel_error_mean_; }

 private:
  struct JobReference {
    double predicted = 0;  // the timed engine's scalar prediction
    double analytic = 0;   // analytic prediction (crossval check)
  };

  void check(std::size_t sweep, const prophet::pipeline::BatchReport& report);

  RunConfig config_;
  Workload workload_;
  CheckTally tally_;
  std::vector<double> fastest_setup_;  // per sweep, seconds
  std::vector<double> calibrations_;   // seconds, one per timed step
  std::vector<std::vector<JobReference>> references_;
  double rel_error_max_ = 0;
  double rel_error_mean_ = 0;
  bool perturb_pending_ = false;
};

/// Spans recorded around calls into the library: name, start, end and
/// the enclosing span.  Kept in memory; exported at exit through
/// obs::TraceLog as a Perfetto-loadable Chrome trace.
class SpanLog {
 public:
  SpanLog();

  /// Opens a span nested in the innermost open one; `subject` names what
  /// it worked on (a model), `count` how many calls it wraps.
  int open(std::string name, std::string subject = {},
           std::uint64_t count = 1);
  /// Closes span `id` (the innermost open one); returns its seconds.
  double close(int id);

  /// RAII span.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, std::string subject = {},
          std::uint64_t count = 1)
        : log_(log), id_(log.open(std::move(name), std::move(subject), count)) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (id_ >= 0) {
        log_.close(id_);
      }
    }
    /// Closes early; returns the span's seconds.
    double close() {
      const double seconds = log_.close(id_);
      id_ = -1;
      return seconds;
    }

   private:
    SpanLog& log_;
    int id_;
  };

  /// Self time (duration minus the time covered by child spans) and
  /// wrapped-call count summed over every span named `name`, optionally
  /// only those on `subject`.
  struct Totals {
    double self_seconds = 0;
    std::uint64_t calls = 0;
  };
  [[nodiscard]] Totals totals(std::string_view name,
                              std::string_view subject = {}) const;

  /// Chrome trace-event JSON of every closed span.
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  struct Span {
    std::string name;
    std::string subject;
    std::uint64_t count = 1;
    double start_us = 0;
    double end_us = -1;
    int parent = -1;
    double child_us = 0;  // time covered by direct children
  };
  [[nodiscard]] double now_us() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// The traced run: timed rounds alternating untraced and traced sweeps,
/// and per-layer probes calling each module's public functions inside
/// spans.  Returns the per-layer metrics.
[[nodiscard]] MetricSet run_traced(SweepBench& bench, SpanLog& spans);

}  // namespace perfbench
