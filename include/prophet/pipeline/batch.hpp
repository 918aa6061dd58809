// Batch scenario sweeps — the pipeline of Fig. 2, prepared once per
// model and evaluated many times over.
//
// The BatchRunner expands (model, SystemParameters) scenarios into jobs
// and fans them out over a worker-thread pool.  It runs the per-model
// half of the chain — model check, lowering, Backend::prepare — exactly
// once per registered model (the compiled-model cache), shares the
// immutable result read-only across the pool, and turns each job into a
// parameter-only evaluation.  That is the source paper's own structure:
// the transformation is automatic and per-model, only the estimation
// depends on the system parameters.  Registered models are held in
// memory; XMI text is parsed once, when it is registered.
//
// Every job runs through one path: consecutive same-model jobs form lane
// chunks evaluated by one PreparedModel::estimate_batch call, and a
// singleton is a chunk of one evaluated by the scalar
// PreparedModel::estimate.  Predictions are bit-identical at any thread
// count and lane width, and one failing model cannot poison the batch.
//
//   pipeline::BatchRunner runner;
//   const int m = runner.add_model("sample", prophet::models::sample_model());
//   runner.add_sweep(m, pipeline::ScenarioGrid::parse("np=1..8:*2"));
//   const auto report = runner.run();
//   report.summary();  // per-scenario predictions + aggregate stats
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "prophet/estimator/backend.hpp"
#include "prophet/guard/guard.hpp"
#include "prophet/machine/machine.hpp"
#include "prophet/obs/obs.hpp"
#include "prophet/pipeline/scenario.hpp"
#include "prophet/uml/model.hpp"

/// Batch scenario sweeps: grids, the worker pool and result aggregation.
namespace prophet::pipeline {

/// One unit of work: a registered model evaluated under one parameter
/// configuration.
struct BatchJob {
  /// Dense id in assignment order; results keep this order.
  int id = 0;
  /// Index into the runner's registered models.
  int model_index = 0;
  /// Display name of the referenced model.
  std::string model_name;
  /// The scenario's system parameters.
  machine::SystemParameters params;
};

/// Outcome of one job.  `ok` is false when any pipeline stage failed; the
/// remaining fields are valid only when it is true.
struct ScenarioResult {
  /// Id of the job this result answers.
  int job_id = 0;
  /// Index of the evaluated model.
  int model_index = 0;
  /// Display name of the evaluated model.
  std::string model_name;
  /// The scenario's system parameters.
  machine::SystemParameters params;

  /// True when every pipeline stage succeeded.
  bool ok = false;
  /// Stage-prefixed failure message, e.g. "check: 2 error(s)".
  std::string error;
  /// Name of the guard bound that failed the job — "wall_clock",
  /// "sim_events", "vm_instructions", "replay_events", "loop_trips", or
  /// "cancelled" — empty for successes and non-guard failures.
  std::string tripped_limit;

  /// Which engines evaluated the job.  Cross-validating selections
  /// (Both, SimCodegen, AnalyticCodegen, All) put the reference engine's
  /// prediction in `predicted_time` and the worst candidate-vs-reference
  /// estimator::relative_error() in `relative_error`.
  estimator::BackendKind backend = estimator::BackendKind::Simulation;
  /// Predicted seconds (makespan) of the reference engine.
  double predicted_time = 0;
  /// The analytic prediction; valid whenever the analytic engine ran,
  /// as reference or candidate.
  double analytic_predicted = 0;
  /// The generated-code prediction; valid whenever the codegen engine
  /// ran, as reference or candidate (bit-identical to the simulator's by
  /// contract).
  double codegen_predicted = 0;
  /// Worst |candidate - reference| / reference across the candidates;
  /// valid for cross-validating kinds.
  double relative_error = 0;
  /// Engine events processed by the reference engine (0 when it is the
  /// analytic estimator).
  std::uint64_t events = 0;
  /// Number of modeled processes.
  int processes = 0;
  /// Checker findings (errors fail the job).
  std::size_t check_warnings = 0;
  /// Host time this job's evaluation took (a lane chunk's time is split
  /// evenly over its lanes).  The per-model prepare is paid once, in
  /// BatchReport::prepare_seconds.
  double wall_seconds = 0;
};

/// Aggregate statistics over the successful results of a batch.
struct BatchStats {
  std::size_t total = 0;         ///< Number of jobs in the batch.
  std::size_t ok = 0;            ///< Jobs whose every stage succeeded.
  std::size_t failed = 0;        ///< Jobs with a failed stage.
  std::size_t timed_out = 0;     ///< Failed jobs that tripped a wall clock.
  std::size_t cancelled = 0;     ///< Failed jobs that were cancelled.
  double min_predicted = 0;      ///< Smallest successful prediction.
  double max_predicted = 0;      ///< Largest successful prediction.
  double mean_predicted = 0;     ///< Mean successful prediction.
  std::uint64_t total_events = 0;  ///< Engine events across all jobs.
  double total_job_seconds = 0;  ///< Sum of per-job wall times.
  /// \name Cross-validation (jobs run with a cross-validating kind)
  ///@{
  std::size_t compared = 0;      ///< Jobs carrying a relative error.
  double max_rel_error = 0;      ///< Worst candidate-vs-reference deviation.
  double mean_rel_error = 0;     ///< Mean candidate-vs-reference deviation.
  ///@}
};

/// The collected outcome of one BatchRunner::run().
struct BatchReport {
  /// Per-scenario outcomes, ordered by job id.
  std::vector<ScenarioResult> results;
  /// Worker threads the batch actually used.
  int threads_used = 1;
  /// End-to-end host time for the batch.
  double wall_seconds = 0;
  /// Compiled-model cache: how many models made it through the whole
  /// compile chain — check, lowering, Backend::prepare.
  int models_prepared = 0;
  /// One-time prepare-phase host time; includes models whose compile
  /// failed.
  double prepare_seconds = 0;
  /// The batch metric document: batch.* counts/timers derived from the
  /// results (always), plus lower.* lowering stats and engine counters —
  /// expr.*, sim.*, analytic.* — when the run had
  /// BatchOptions::collect_metrics on.  summary() formats its aggregate
  /// line from this registry, so the printed counts and the exported
  /// JSON (`--metrics`) can never disagree.
  obs::Registry metrics;
  /// Host worker spans (and one representative simulated timeline per
  /// model); populated when BatchOptions::collect_trace is on.
  obs::TraceLog trace;

  [[nodiscard]] BatchStats stats() const;

  /// Wall-clock throughput of the whole batch.
  [[nodiscard]] double jobs_per_second() const;

  /// The batch.* cells of `metrics`, re-derived from the results — what
  /// run() merges into `metrics`, exposed so hand-built reports (tests)
  /// can populate theirs the same way.
  [[nodiscard]] obs::Registry derived_metrics() const;

  /// Human-readable table: one line per scenario plus the aggregate
  /// (read from `metrics`).
  [[nodiscard]] std::string summary() const;

  /// Machine-readable CSV (header + one row per scenario).
  [[nodiscard]] std::string to_csv() const;
};

/// One progress heartbeat of a running batch (BatchOptions::on_progress).
struct BatchProgress {
  std::size_t done = 0;        ///< Jobs finished so far.
  std::size_t total = 0;       ///< Jobs in the batch.
  double elapsed_seconds = 0;  ///< Since run() started.
  double jobs_per_second = 0;  ///< done / elapsed.
  double eta_seconds = 0;      ///< (total - done) / jobs_per_second.
  /// Worst candidate-vs-reference deviation over the finished jobs of
  /// any cross-validating backend kind (0 until one finishes).
  double worst_rel_error = 0;
  /// True for the one guaranteed callback after the last job.
  bool final = false;
};

/// Knobs for one batch run.
struct BatchOptions {
  /// Worker threads; <= 0 uses std::thread::hardware_concurrency().
  int threads = 0;
  /// Model-check each model once; checker errors fail its jobs.
  bool run_checker = true;
  /// Evaluation engine(s) per job: any single engine (simulation — the
  /// paper's estimator —, analytic, codegen) or a cross-validating
  /// selection (both, sim+codegen, analytic+codegen, all) that runs
  /// several engines and records the worst candidate-vs-reference
  /// relative error per scenario (estimator::engines() gives the order,
  /// reference first).
  estimator::BackendKind backend = estimator::BackendKind::Simulation;
  /// Lane width for batched estimation: consecutive same-model jobs are
  /// grouped into chunks of up to this many lanes and evaluated through
  /// one PreparedModel::estimate_batch call — one analytic walk per
  /// distinct walk input of the chunk instead of one walk per lane.  0
  /// picks PreparedModel::kDefaultBatchLanes (8); 1 disables
  /// batching.  Batching engages only on the unlimited fast
  /// path (no per-job limits or timeout, no fault plan); a chunk that
  /// fails or is cancelled falls back to per-job evaluation (counted in
  /// `batch.lanes_fallback`), so per-job error isolation, budgets and
  /// tripped_limit reporting are unchanged.  Predictions are
  /// bit-identical at any lane width.
  int batch_lanes = 0;
  /// Collect engine counters (expr.*, sim.*, analytic.*, lower.*) into
  /// BatchReport::metrics.  Each worker counts into its own registry and
  /// the registries are merged after the pool joins, so the hot path
  /// never synchronizes.  Predictions are bit-identical either way.
  bool collect_metrics = false;
  /// Record host spans — per-model compile stages and per-job estimates,
  /// one lane per worker thread — plus one representative simulated
  /// timeline per model (selections that run sim) into BatchReport::trace.
  /// Predictions are bit-identical either way.
  bool collect_trace = false;
  /// Progress heartbeat, called from a monitor thread roughly every
  /// `progress_interval_seconds` while jobs run, plus one guaranteed
  /// final call after the last job.  The callback must be thread-safe
  /// with respect to the caller; it never runs concurrently with itself.
  std::function<void(const BatchProgress&)> on_progress = nullptr;
  /// Heartbeat period in seconds (used only when on_progress is set).
  double progress_interval_seconds = 0.5;
  /// Per-job resource limits (guard::Limits).  A job that trips a bound
  /// is marked failed with ScenarioResult::tripped_limit naming it; the
  /// rest of the sweep completes.  Default bounds nothing and the
  /// evaluation path stays bit-identical.
  guard::Limits limits;
  /// Per-job wall-clock timeout in seconds (0: none).  Composed with
  /// `limits.wall_seconds` — the tighter bound wins.  Timed-out jobs
  /// count into the `batch.jobs_timed_out` metric.
  double job_timeout_seconds = 0;
  /// Whole-sweep deadline in seconds measured from run() (0: none).
  /// When it passes, running jobs are cancelled cooperatively, unclaimed
  /// jobs are marked failed, and the report — partial CSV, metrics, the
  /// guaranteed final progress callback — is still produced.
  double deadline_seconds = 0;
  /// Caller-owned sweep-wide cancellation token (nullable).  cancel() —
  /// e.g. from a SIGINT handler — drains the pool like a passed
  /// deadline: cooperative, partial results preserved.  Outlives run().
  guard::Budget* sweep_budget = nullptr;
  /// Deterministic fault plan (nullable, caller-owned, see
  /// guard::FaultPlan).  Sites visited: "parse" (XMI inputs, at
  /// registration), "check", "lower", "prepare" (once per model) and
  /// "estimate" (per job); a "cancel@E" rule arms a mid-simulation
  /// cancellation after E engine events.
  guard::FaultPlan* fault_plan = nullptr;
};

/// Expands sweeps into jobs and runs them on a worker pool.
class BatchRunner {
 public:
  /// Captures the batch options; models and scenarios are added next.
  explicit BatchRunner(BatchOptions options = {});

  /// The options this runner was constructed with.
  [[nodiscard]] const BatchOptions& options() const { return options_; }

  /// Registers a model, taking ownership of it.  Returns the model
  /// index.
  int add_model(std::string name, uml::Model model);

  /// Registers a model from XMI text, parsed here, once.  A parse
  /// failure does not throw: it fails every job of the model with a
  /// "parse: ..." error.
  int add_model_xml(std::string name, std::string xmi_text);

  /// Registers a model from an XMI file (read eagerly; throws on I/O
  /// errors, parse errors fail the model's jobs).  The name is the file
  /// path.
  int add_model_file(const std::string& path);

  /// Registers a built-in workload by registry reference ("@kernel6",
  /// "@stencil2d(n=256)").  Throws std::invalid_argument on unknown
  /// models or knobs, naming the valid ones.  The name is the reference.
  int add_model_reference(const std::string& reference);

  /// Number of registered models.
  [[nodiscard]] std::size_t model_count() const { return models_.size(); }

  /// Queues one scenario for a registered model.
  void add_scenario(int model_index, machine::SystemParameters params);

  /// Queues every scenario in `grid` for a registered model.
  void add_sweep(int model_index, const ScenarioGrid& grid);

  /// Queues every scenario in `grid` for every registered model.
  void add_sweep_all(const ScenarioGrid& grid);

  /// Number of queued jobs.
  [[nodiscard]] std::size_t job_count() const { return jobs_.size(); }
  /// The queued jobs, in assignment order.
  [[nodiscard]] const std::vector<BatchJob>& jobs() const { return jobs_; }

  /// Runs all queued jobs.  Results arrive in job order regardless of the
  /// thread count; jobs that fail are reported, never thrown.
  [[nodiscard]] BatchReport run() const;

 private:
  // A registered model, or the parse error of its XMI text.
  struct ModelEntry {
    std::string name;
    // Null when parsing failed; heap-held so lowerings can borrow it.
    std::unique_ptr<const uml::Model> model;
    std::string error;  // "parse: ..." when model is null
  };
  // One compiled model: a PreparedModel handle per selected engine,
  // reference first; defined in the implementation file.
  struct CompiledEntry;

  /// Evaluates `count` consecutive same-model jobs (`jobs[0..count)`)
  /// against the shared compiled entry of their model, writing
  /// `results[0..count)`.  A chunk of one calls the scalar
  /// PreparedModel::estimate; a wider chunk calls estimate_batch once,
  /// and any failure abandons it and re-runs every lane as a chunk of
  /// one for exact per-job error attribution.  `metrics` (nullable)
  /// receives the engine counters; `sim_trace` (nullable, chunks of one
  /// only) receives the simulated timeline.
  void run_chunk(const BatchJob* jobs, std::size_t count,
                 const CompiledEntry& entry, obs::Registry* metrics,
                 trace::Trace* sim_trace, const guard::Budget* sweep,
                 ScenarioResult* results) const;

  /// Compiles every model referenced by at least one job (check ->
  /// lower -> prepare) on up to `threads` workers; per-model failures
  /// land in the entry, not as exceptions.  `compiled` counts the
  /// models that compiled successfully.  `trace_log` (nullable)
  /// receives one "compile <model>" span per model on the compiling
  /// worker's lane.
  [[nodiscard]] std::vector<CompiledEntry> compile_models(
      int threads, int* compiled, obs::TraceLog* trace_log) const;

  /// One model's compile chain; writes the outcome into *out.
  void compile_one(std::size_t m, CompiledEntry* out) const;

  BatchOptions options_;
  std::vector<ModelEntry> models_;
  std::vector<BatchJob> jobs_;
};

}  // namespace prophet::pipeline
