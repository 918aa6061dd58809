#include "prophet/pipeline/batch.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "prophet/cgen/backend.hpp"
#include "prophet/check/checker.hpp"
#include "prophet/estimator/estimator.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/xmi/xmi.hpp"

namespace prophet::pipeline {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Simulated lanes get pid `base + rank` per model; 1000 keeps models'
// rank groups apart and clear of the host lane (pid 0) for any
// realistic process count.
constexpr int kSimPidStride = 1000;

int sim_pid_base(int model_index) {
  return kSimPidStride * (model_index + 1);
}

/// One selected engine's prepared handle.
struct PreparedEngine {
  estimator::BackendKind kind;
  std::unique_ptr<estimator::PreparedModel> model;
};

/// The ScenarioResult field holding `engine`'s prediction whenever it
/// ran; null for the simulator, which is the reference whenever it runs.
double ScenarioResult::*prediction_field(estimator::BackendKind engine) {
  switch (engine) {
    case estimator::BackendKind::Analytic:
      return &ScenarioResult::analytic_predicted;
    case estimator::BackendKind::Codegen:
      return &ScenarioResult::codegen_predicted;
    default:
      return nullptr;
  }
}

/// Folds a codegen handle's prepare cost (emit + compile + dlopen) and
/// compile-cache hit under "codegen.".  No-op for other backends.
void fold_codegen(obs::Registry* metrics,
                  const estimator::PreparedModel* prepared) {
  const auto* handle = dynamic_cast<const cgen::CodegenPrepared*>(prepared);
  if (handle == nullptr) {
    return;
  }
  metrics->timer("codegen.prepare_seconds")
      .add_seconds(handle->prepare_seconds());
  if (handle->cache_hit()) {
    metrics->counter("codegen.cache_hits").add(1);
  }
}

}  // namespace

// --- BatchReport -------------------------------------------------------------

BatchStats BatchReport::stats() const {
  BatchStats stats;
  stats.total = results.size();
  for (const auto& result : results) {
    stats.total_job_seconds += result.wall_seconds;
    if (!result.ok) {
      ++stats.failed;
      if (result.tripped_limit == "wall_clock") {
        ++stats.timed_out;
      } else if (result.tripped_limit == "cancelled") {
        ++stats.cancelled;
      }
      continue;
    }
    if (stats.ok == 0) {
      stats.min_predicted = result.predicted_time;
      stats.max_predicted = result.predicted_time;
    } else {
      stats.min_predicted = std::min(stats.min_predicted,
                                     result.predicted_time);
      stats.max_predicted = std::max(stats.max_predicted,
                                     result.predicted_time);
    }
    stats.mean_predicted += result.predicted_time;
    stats.total_events += result.events;
    if (estimator::engines(result.backend).size() > 1) {
      ++stats.compared;
      stats.max_rel_error = std::max(stats.max_rel_error,
                                     result.relative_error);
      stats.mean_rel_error += result.relative_error;
    }
    ++stats.ok;
  }
  if (stats.ok > 0) {
    stats.mean_predicted /= static_cast<double>(stats.ok);
  }
  if (stats.compared > 0) {
    stats.mean_rel_error /= static_cast<double>(stats.compared);
  }
  return stats;
}

double BatchReport::jobs_per_second() const {
  if (wall_seconds <= 0) {
    return 0;
  }
  return static_cast<double>(results.size()) / wall_seconds;
}

obs::Registry BatchReport::derived_metrics() const {
  obs::Registry reg;
  const BatchStats stats = this->stats();
  reg.counter("batch.jobs").add(stats.total);
  reg.counter("batch.jobs_ok").add(stats.ok);
  reg.counter("batch.jobs_failed").add(stats.failed);
  reg.counter("batch.jobs_timed_out").add(stats.timed_out);
  reg.counter("batch.jobs_cancelled").add(stats.cancelled);
  reg.counter("batch.compared").add(stats.compared);
  reg.counter("batch.events").add(stats.total_events);
  reg.counter("batch.models_prepared")
      .add(static_cast<std::uint64_t>(std::max(models_prepared, 0)));
  reg.gauge("batch.threads").set(threads_used);
  reg.gauge("batch.jobs_per_second").set(jobs_per_second());
  reg.gauge("batch.predicted_min_s").set(stats.min_predicted);
  reg.gauge("batch.predicted_mean_s").set(stats.mean_predicted);
  reg.gauge("batch.predicted_max_s").set(stats.max_predicted);
  reg.gauge("batch.rel_error_mean").set(stats.mean_rel_error);
  reg.gauge("batch.rel_error_max").set(stats.max_rel_error);
  reg.timer("batch.wall_seconds").add_seconds(wall_seconds);
  reg.timer("batch.prepare_seconds").add_seconds(prepare_seconds);
  reg.timer("batch.job_seconds").add_seconds(stats.total_job_seconds);
  return reg;
}

std::string BatchReport::summary() const {
  // The aggregate lines read from the metric registry — the same cells
  // `--metrics` exports — so the printed counts and the JSON document
  // cannot drift apart.  Hand-built reports (tests) that never ran run()
  // get the registry re-derived on the fly.
  obs::Registry local;
  const obs::Registry* m = &metrics;
  if (metrics.empty()) {
    local = derived_metrics();
    m = &local;
  }
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(6);
  out << "scenario sweep: " << m->counter_value("batch.jobs") << " job(s), "
      << static_cast<int>(m->gauge_value("batch.threads")) << " thread(s), "
      << m->timer_seconds("batch.wall_seconds") << " s wall ("
      << m->gauge_value("batch.jobs_per_second") << " jobs/s)\n";
  // prepare_seconds > 0 identifies a run() report even when every model
  // failed to compile (models_prepared == 0); hand-built reports have
  // neither.
  if (m->counter_value("batch.models_prepared") > 0 ||
      m->timer_seconds("batch.prepare_seconds") > 0) {
    out << "compiled-model cache: prepared "
        << m->counter_value("batch.models_prepared") << " model(s) in "
        << m->timer_seconds("batch.prepare_seconds") << " s\n";
  }
  for (const auto& result : results) {
    out << "  [" << result.job_id << "] " << result.model_name << " np="
        << result.params.processes << " nn=" << result.params.nodes
        << " ppn=" << result.params.processors_per_node << " nt="
        << result.params.threads_per_process;
    if (result.ok) {
      out << " -> " << result.predicted_time << " s";
      const auto engines = estimator::engines(result.backend);
      if (engines.size() > 1) {
        // Candidates (every engine after the reference) then the worst
        // deviation, e.g. "(analytic 1.5 s, rel err 0.02)".
        out << " (";
        for (const estimator::BackendKind candidate : engines.subspan(1)) {
          out << estimator::to_string(candidate) << ' '
              << result.*prediction_field(candidate) << " s, ";
        }
        out << "rel err " << result.relative_error << ")";
      } else if (result.backend == estimator::BackendKind::Analytic) {
        out << " (analytic)";
      } else if (result.backend == estimator::BackendKind::Codegen) {
        out << " (codegen, " << result.events << " events)";
      } else {
        out << " (" << result.events << " events)";
      }
      if (result.check_warnings > 0) {
        out << " [" << result.check_warnings << " warning(s)]";
      }
    } else {
      out << " -> FAILED: " << result.error;
    }
    out << '\n';
  }
  out << "ok " << m->counter_value("batch.jobs_ok") << " / failed "
      << m->counter_value("batch.jobs_failed");
  if (m->counter_value("batch.jobs_timed_out") > 0) {
    out << " (" << m->counter_value("batch.jobs_timed_out") << " timed out)";
  }
  if (m->counter_value("batch.jobs_cancelled") > 0) {
    out << " (" << m->counter_value("batch.jobs_cancelled") << " cancelled)";
  }
  if (m->counter_value("batch.jobs_ok") > 0) {
    out << "; predicted min " << m->gauge_value("batch.predicted_min_s")
        << " s, mean " << m->gauge_value("batch.predicted_mean_s")
        << " s, max " << m->gauge_value("batch.predicted_max_s") << " s; "
        << m->counter_value("batch.events") << " events";
  }
  if (m->counter_value("batch.compared") > 0) {
    out << "; cross-validation rel err mean "
        << m->gauge_value("batch.rel_error_mean") << ", max "
        << m->gauge_value("batch.rel_error_max");
  }
  out << '\n';
  return out.str();
}

std::string BatchReport::to_csv() const {
  std::ostringstream out;
  out.precision(12);
  // Columns 1-15 are deterministic (CI diffs them across thread counts
  // and lane widths); wall_s is host time, error is free text and stays
  // last.
  out << "job,model,np,nn,ppn,nt,cpu_speed,backend,ok,predicted_s,"
         "analytic_s,codegen_s,rel_error,events,warnings,wall_s,"
         "tripped_limit,error\n";
  // Free-text fields (the model name may be a file path; error messages
  // quote model content) are escaped per RFC 4180: a field containing a
  // comma, quote or line break is wrapped in quotes with embedded quotes
  // doubled.  Clean fields pass through byte-identical, so determinism
  // diffs over the fixed-format columns are unaffected.
  const auto field = [](const std::string& text) {
    if (text.find_first_of(",\"\r\n") == std::string::npos) {
      return text;
    }
    std::string quoted;
    quoted.reserve(text.size() + 2);
    quoted += '"';
    for (const char c : text) {
      if (c == '"') {
        quoted += '"';
      }
      quoted += c;
    }
    quoted += '"';
    return quoted;
  };
  for (const auto& result : results) {
    const std::string error = field(result.error);
    out << result.job_id << ',' << field(result.model_name) << ','
        << result.params.processes << ',' << result.params.nodes << ','
        << result.params.processors_per_node << ','
        << result.params.threads_per_process << ','
        << result.params.cpu_speed << ','
        << estimator::to_string(result.backend) << ','
        << (result.ok ? 1 : 0) << ',' << result.predicted_time << ','
        << result.analytic_predicted << ',' << result.codegen_predicted << ','
        << result.relative_error << ','
        << result.events << ',' << result.check_warnings << ','
        << result.wall_seconds << ',' << result.tripped_limit << ',' << error
        << '\n';
  }
  return out.str();
}

// --- BatchRunner -------------------------------------------------------------

BatchRunner::BatchRunner(BatchOptions options) : options_(options) {}

int BatchRunner::add_model(std::string name, uml::Model model) {
  models_.push_back(ModelEntry{
      std::move(name), std::make_unique<const uml::Model>(std::move(model)),
      ""});
  return static_cast<int>(models_.size()) - 1;
}

int BatchRunner::add_model_xml(std::string name, std::string xmi_text) {
  ModelEntry entry{std::move(name), nullptr, ""};
  try {
    if (options_.fault_plan != nullptr) {
      options_.fault_plan->visit("parse");
    }
    entry.model = std::make_unique<const uml::Model>(xmi::from_xml(xmi_text));
  } catch (const std::exception& error) {
    entry.error = std::string("parse: ") + error.what();
  }
  models_.push_back(std::move(entry));
  return static_cast<int>(models_.size()) - 1;
}

int BatchRunner::add_model_reference(const std::string& reference) {
  return add_model(reference, models::Registry::builtin().make(reference));
}

int BatchRunner::add_model_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read model file: " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return add_model_xml(path, text.str());
}

void BatchRunner::add_scenario(int model_index,
                               machine::SystemParameters params) {
  if (model_index < 0 ||
      model_index >= static_cast<int>(models_.size())) {
    throw std::out_of_range("model index out of range");
  }
  BatchJob job;
  job.id = static_cast<int>(jobs_.size());
  job.model_index = model_index;
  job.model_name = models_[static_cast<std::size_t>(model_index)].name;
  job.params = params;
  jobs_.push_back(std::move(job));
}

void BatchRunner::add_sweep(int model_index, const ScenarioGrid& grid) {
  for (const auto& params : grid.expand()) {
    add_scenario(model_index, params);
  }
}

void BatchRunner::add_sweep_all(const ScenarioGrid& grid) {
  const auto scenarios = grid.expand();
  for (int m = 0; m < static_cast<int>(models_.size()); ++m) {
    for (const auto& params : scenarios) {
      add_scenario(m, params);
    }
  }
}

// One compiled model.  Built once during the prepare phase, then shared
// read-only by every worker: the PreparedModel handles guarantee
// concurrent estimate() safety, so no locking is needed on the hot path.
// They borrow the runner's registered model, which outlives the run.
struct BatchRunner::CompiledEntry {
  bool ok = false;
  std::string error;  // stage-prefixed, e.g. "check: 2 error(s): ..."
  std::size_t check_warnings = 0;
  // The selected engines' handles, in estimator::engines() order:
  // reference first.
  std::vector<PreparedEngine> engines;
};

std::vector<BatchRunner::CompiledEntry> BatchRunner::compile_models(
    int threads, int* compiled, obs::TraceLog* trace_log) const {
  std::vector<CompiledEntry> entries(models_.size());
  std::vector<char> referenced(models_.size(), 0);
  for (const auto& job : jobs_) {
    referenced[static_cast<std::size_t>(job.model_index)] = 1;
  }
  std::vector<std::size_t> to_compile;
  for (std::size_t m = 0; m < models_.size(); ++m) {
    if (referenced[m] != 0) {
      to_compile.push_back(m);
    }
    // Unreferenced entries stay empty; no job ever reads them.
  }

  threads = std::max(
      1, std::min<int>(threads, static_cast<int>(to_compile.size())));

  // TraceLog is not thread-safe: each compile worker records into its own
  // log (sharing the parent's epoch) and the logs merge after the join.
  std::vector<obs::TraceLog> worker_logs;
  if (trace_log != nullptr) {
    worker_logs.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      worker_logs.emplace_back(trace_log->epoch());
    }
  }

  // Models compile independently (each entry is written by exactly one
  // worker), so the prepare phase parallelizes like the jobs do — a
  // many-model sweep is not serialized behind one compiling thread.
  std::atomic<std::size_t> next{0};
  const auto compile_worker = [this, &entries, &to_compile, &next,
                               &worker_logs](int worker_id) {
    obs::TraceLog* log =
        worker_logs.empty()
            ? nullptr
            : &worker_logs[static_cast<std::size_t>(worker_id)];
    for (;;) {
      const std::size_t ticket = next.fetch_add(1);
      if (ticket >= to_compile.size()) {
        return;
      }
      const std::size_t m = to_compile[ticket];
      const obs::TraceLog::HostSpan span(log, 0, worker_id,
                                         "compile " + models_[m].name,
                                         "host.compile");
      compile_one(m, &entries[m]);
    }
  };
  if (threads == 1) {
    compile_worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back(compile_worker, t);
    }
    for (auto& thread : pool) {
      thread.join();
    }
  }
  if (trace_log != nullptr) {
    for (auto& log : worker_logs) {
      trace_log->merge(std::move(log));
    }
  }
  *compiled = static_cast<int>(
      std::count_if(to_compile.begin(), to_compile.end(),
                    [&entries](std::size_t m) { return entries[m].ok; }));
  return entries;
}

namespace {

/// Stable stage prefix of each engine, used by prepare and estimate
/// failures alike so a model defect reports the same stage wherever it
/// surfaces.
const char* engine_stage(estimator::BackendKind kind) {
  switch (kind) {
    case estimator::BackendKind::Simulation:
      return "simulate: ";
    case estimator::BackendKind::Codegen:
      return "cgen: ";
    default:
      return "analytic: ";
  }
}

/// CSV/metrics name of the bound a guard error tripped.
std::string limit_name(const guard::GuardError& error) {
  if (dynamic_cast<const guard::Cancelled*>(&error) != nullptr) {
    return "cancelled";
  }
  return std::string(guard::to_string(error.limit()));
}

/// The estimate stage: run the prepared engines over `params` and fill
/// each lane's prediction fields.  One lane calls the scalar
/// PreparedModel::estimate — the lanes=1 bit-identity reference and the
/// only call that carries the simulated trace; a wider span calls
/// estimate_batch once per engine.  The reference engine (first in the
/// list) fills `predicted_time`; every engine that ran fills its own
/// prediction field, and each candidate the worst-case
/// `relative_error`.  Returns a stage-prefixed error ("" on success).
/// `metrics` (nullable) receives the engines' activity counters;
/// `sim_trace` (nullable) receives the simulated timeline.  Neither
/// feeds back into the prediction.
std::string estimate_stage(std::span<const PreparedEngine> engines,
                           std::span<const machine::SystemParameters> params,
                           obs::Registry* metrics, trace::Trace* sim_trace,
                           guard::Budget* budget, guard::FaultPlan* fault_plan,
                           ScenarioResult* results) {
  estimator::EstimationOptions estimation;
  estimation.collect_trace = false;
  estimation.collect_machine_report = false;
  estimation.metrics = metrics;
  estimation.budget = budget;

  if (fault_plan != nullptr) {
    try {
      fault_plan->visit("estimate");
    } catch (const std::exception& error) {
      return std::string(engine_stage(engines.front().kind)) + error.what();
    }
  }
  for (const PreparedEngine& engine : engines) {
    const bool is_reference = &engine == &engines.front();
    const char* stage = engine_stage(engine.kind);
    double ScenarioResult::*field = prediction_field(engine.kind);
    const auto fill = [is_reference, field](
                          ScenarioResult& result,
                          const estimator::PredictionReport& report) {
      if (field != nullptr) {
        result.*field = report.predicted_time;
      }
      if (is_reference) {
        result.predicted_time = report.predicted_time;
        result.processes = report.processes;
        result.events = report.events;
      } else {
        result.relative_error = std::max(
            result.relative_error,
            estimator::relative_error(report.predicted_time,
                                      result.predicted_time));
      }
    };
    try {
      if (params.size() == 1) {
        estimator::EstimationOptions options = estimation;
        options.collect_trace = engine.kind ==
                                    estimator::BackendKind::Simulation &&
                                sim_trace != nullptr;
        estimator::PredictionReport report =
            engine.model->estimate(params[0], options);
        fill(results[0], report);
        if (options.collect_trace) {
          *sim_trace = std::move(report.trace);
        }
        continue;
      }
      const std::vector<estimator::PredictionReport> reports =
          engine.model->estimate_batch(params, estimation);
      if (reports.size() != params.size()) {
        return std::string(stage) +
               "estimate_batch returned a wrong lane count";
      }
      for (std::size_t lane = 0; lane < reports.size(); ++lane) {
        fill(results[lane], reports[lane]);
      }
    } catch (const guard::GuardError& error) {
      // A failed chunk re-runs lane by lane, which re-attributes this.
      results[0].tripped_limit = limit_name(error);
      return std::string(stage) + error.what();
    } catch (const std::exception& error) {
      return std::string(stage) + error.what();
    }
  }
  return "";
}

/// The per-job limit set: options.limits with `--job-timeout` folded
/// into the wall clock (the tighter bound wins).
guard::Limits job_limits(const BatchOptions& options) {
  guard::Limits limits = options.limits;
  if (options.job_timeout_seconds > 0 &&
      (limits.wall_seconds <= 0 ||
       options.job_timeout_seconds < limits.wall_seconds)) {
    limits.wall_seconds = options.job_timeout_seconds;
  }
  return limits;
}

ScenarioResult result_for(const BatchJob& job) {
  ScenarioResult result;
  result.job_id = job.id;
  result.model_index = job.model_index;
  result.model_name = job.model_name;
  result.params = job.params;
  return result;
}

}  // namespace

void BatchRunner::compile_one(std::size_t m, CompiledEntry* out) const {
  CompiledEntry& entry = *out;
  const ModelEntry& source = models_[m];
  if (source.model == nullptr) {
    entry.error = source.error;
    return;
  }
  // One lowering, which the checker reads and every engine (reference
  // first) prepares from.  Lowering and prepare failures carry the stage
  // names estimate failures use (lowering: the reference's).
  const auto engines = estimator::engines(options_.backend);
  const std::string stage = engine_stage(engines.front());
  lower::ModelProgramPtr program;
  try {
    if (options_.fault_plan != nullptr) {
      options_.fault_plan->visit("lower");
    }
    program = std::make_shared<const lower::ModelProgram>(*source.model);
  } catch (const std::exception& error) {
    entry.error = stage + error.what();
    return;
  }
  if (options_.run_checker) {
    try {
      if (options_.fault_plan != nullptr) {
        options_.fault_plan->visit("check");
      }
      const check::ModelChecker checker;
      const check::Diagnostics diagnostics = checker.check(*program);
      entry.check_warnings = diagnostics.warning_count();
      if (!diagnostics.ok()) {
        entry.error = "check: " + std::to_string(diagnostics.error_count()) +
                      " error(s): " + diagnostics.to_string();
        return;
      }
    } catch (const std::exception& error) {
      entry.error = std::string("check: ") + error.what();
      return;
    }
  }
  if (!program->problems().empty()) {
    entry.error = stage + program->problems().front().message;
    return;
  }
  cgen::CodegenOptions cgen_options;
  cgen_options.toolchain.fault_plan = options_.fault_plan;
  for (const estimator::BackendKind engine : engines) {
    try {
      // One "prepare" fault visit per model, however many engines ride it.
      if (options_.fault_plan != nullptr && engine == engines.front()) {
        options_.fault_plan->visit("prepare");
      }
      entry.engines.push_back(
          {engine,
           cgen::make_backend(engine, cgen_options)->prepare(program)});
    } catch (const std::exception& error) {
      entry.error = std::string(engine_stage(engine)) + error.what();
      return;
    }
  }
  entry.ok = true;
}

void BatchRunner::run_chunk(const BatchJob* jobs, std::size_t count,
                            const CompiledEntry& entry,
                            obs::Registry* metrics, trace::Trace* sim_trace,
                            const guard::Budget* sweep,
                            ScenarioResult* results) const {
  // The chunk's budget: its deadline starts here, so `--job-timeout`
  // covers the job's evaluation; chaining to the sweep budget makes a
  // sweep deadline / SIGINT cancel it at its next check site.  It is
  // only passed down when something actually bounds the run, so
  // unguarded sweeps keep the engines' zero-check fast path.  Wider
  // chunks form only without per-job limits and fault plans, so there
  // its only duty is sweep cancellation, which is safe to share across
  // the lanes.
  const guard::Limits limits = job_limits(options_);
  guard::Budget budget(limits, sweep);
  bool armed = false;
  if (options_.fault_plan != nullptr) {
    if (const auto event = options_.fault_plan->cancel_at_event()) {
      budget.cancel_at_sim_event(*event);
      armed = true;
    }
  }
  guard::Budget* job_budget =
      limits.any() || sweep != nullptr || armed ? &budget : nullptr;

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t lane = 0; lane < count; ++lane) {
    results[lane] = result_for(jobs[lane]);
    results[lane].backend = options_.backend;
    results[lane].check_warnings = entry.check_warnings;
  }
  // A wider chunk counts into its own registry, merged only if the chunk
  // succeeds: a failed chunk re-runs lane by lane, which counts every
  // job once.
  obs::Registry chunk_metrics;
  obs::Registry* stage_metrics =
      count > 1 && metrics != nullptr ? &chunk_metrics : metrics;
  // A failed compile fails every job of its model with the same
  // stage-prefixed error; other models are unaffected.
  std::string error = entry.error;
  if (entry.ok) {
    std::vector<machine::SystemParameters> lane_params;
    std::span<const machine::SystemParameters> params(&jobs[0].params, 1);
    if (count > 1) {
      lane_params.reserve(count);
      for (std::size_t lane = 0; lane < count; ++lane) {
        lane_params.push_back(jobs[lane].params);
      }
      params = lane_params;
    }
    error = estimate_stage(entry.engines, params, stage_metrics, sim_trace,
                           job_budget, options_.fault_plan, results);
  }
  if (!error.empty() && count > 1) {
    // Any lane failure (or a sweep cancellation) abandons the chunk:
    // every lane re-runs as a chunk of one, which reports errors,
    // budgets and tripped_limit for exactly the right job.
    if (metrics != nullptr) {
      metrics->counter("batch.lanes_fallback").add(count);
    }
    for (std::size_t lane = 0; lane < count; ++lane) {
      run_chunk(&jobs[lane], 1, entry, metrics, nullptr, sweep,
                &results[lane]);
    }
    return;
  }
  if (stage_metrics != metrics) {
    metrics->merge(chunk_metrics);
  }
  // A chunk's lanes were evaluated together, so its host time is split
  // evenly — the non-deterministic CSV column; predictions are per lane.
  const double share = seconds_since(start) / static_cast<double>(count);
  for (std::size_t lane = 0; lane < count; ++lane) {
    results[lane].ok = error.empty();
    results[lane].error = error;
    results[lane].wall_seconds = share;
  }
}

BatchReport BatchRunner::run() const {
  BatchReport report;
  report.results.resize(jobs_.size());

  int threads = options_.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) {
      threads = 1;
    }
  }
  threads = std::min<int>(threads, static_cast<int>(jobs_.size()));
  threads = std::max(threads, 1);
  report.threads_used = threads;

  const bool collect_metrics = options_.collect_metrics;
  const bool collect_trace = options_.collect_trace;
  if (collect_trace) {
    report.trace.name_process(0, "batch host");
    for (int t = 0; t < threads; ++t) {
      report.trace.name_thread(0, t, "worker " + std::to_string(t));
    }
  }

  const auto start = std::chrono::steady_clock::now();

  // Sweep-wide guard: a `--deadline` becomes a run-local budget chained
  // to the caller's sweep_budget (the SIGINT token), so either signal
  // drains the pool — workers stop claiming tickets, running jobs are
  // cancelled at their next check site, and the partial report is still
  // assembled and flushed below.
  guard::Limits sweep_limits;
  sweep_limits.wall_seconds = options_.deadline_seconds;
  const guard::Budget deadline_budget(sweep_limits, options_.sweep_budget);
  const guard::Budget* sweep =
      options_.deadline_seconds > 0
          ? &deadline_budget
          : static_cast<const guard::Budget*>(options_.sweep_budget);

  // Prepare phase: compile every referenced model once — check, lower,
  // Backend::prepare — before the pool starts.  The entries are
  // immutable from here on; workers only read them.
  const std::vector<CompiledEntry> cache = compile_models(
      threads, &report.models_prepared, collect_trace ? &report.trace : nullptr);
  report.prepare_seconds = seconds_since(start);
  if (collect_metrics) {
    // The lowering (and any codegen compile) is paid once per model.
    for (const auto& entry : cache) {
      if (!entry.ok) {
        continue;
      }
      lower::fold(report.metrics,
                  entry.engines.front().model->lowering()->stats());
      for (const PreparedEngine& engine : entry.engines) {
        fold_codegen(&report.metrics, engine.model.get());
      }
    }
  }

  // The first job of each model doubles as that model's representative
  // simulated timeline when tracing is on (one timeline per model keeps
  // the trace readable; every further job would repeat the same shape).
  std::vector<char> trace_job(jobs_.size(), 0);
  if (collect_trace && estimator::engines(options_.backend).front() ==
                           estimator::BackendKind::Simulation) {
    std::vector<char> seen(models_.size(), 0);
    for (std::size_t index = 0; index < jobs_.size(); ++index) {
      const auto m = static_cast<std::size_t>(jobs_[index].model_index);
      if (seen[m] == 0) {
        seen[m] = 1;
        trace_job[index] = 1;
      }
    }
  }

  // Lane chunking: consecutive same-model jobs grouped up to the batch
  // width evaluate through one PreparedModel::estimate_batch call per
  // chunk.  Chunks form only on the unlimited fast path — per-job
  // limits, timeouts and fault plans need per-job budgets, and a model's
  // representative trace job needs its own estimate call — everything
  // else stays a chunk of one.  A sweep deadline/cancellation does NOT
  // disable chunking: it is checked between chunks, and a mid-chunk trip
  // falls back to the per-lane path.
  struct Chunk {
    std::size_t begin = 0;
    std::size_t size = 1;
  };
  const int lanes =
      options_.batch_lanes == 0
          ? static_cast<int>(estimator::PreparedModel::kDefaultBatchLanes)
          : options_.batch_lanes;
  const bool batching = lanes >= 2 && !job_limits(options_).any() &&
                        options_.fault_plan == nullptr;
  std::vector<Chunk> chunks;
  chunks.reserve(jobs_.size());
  for (std::size_t index = 0; index < jobs_.size();) {
    Chunk chunk{index, 1};
    if (batching && trace_job[index] == 0 &&
        cache[static_cast<std::size_t>(jobs_[index].model_index)].ok) {
      while (chunk.size < static_cast<std::size_t>(lanes) &&
             index + chunk.size < jobs_.size() &&
             jobs_[index + chunk.size].model_index ==
                 jobs_[index].model_index &&
             trace_job[index + chunk.size] == 0) {
        ++chunk.size;
      }
    }
    chunks.push_back(chunk);
    index += chunk.size;
  }

  // Neither Registry nor TraceLog is thread-safe: each worker owns one
  // of each (trace logs share the report's epoch) and they merge after
  // the join — the hot path never synchronizes on instrumentation.
  std::vector<obs::Registry> worker_metrics(
      collect_metrics ? static_cast<std::size_t>(threads) : 0);
  std::vector<obs::TraceLog> worker_traces;
  if (collect_trace) {
    worker_traces.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      worker_traces.emplace_back(report.trace.epoch());
    }
  }

  // Progress state: plain atomics the workers bump and a monitor thread
  // samples — heartbeats never block the pool.  The worst relative
  // error maxes via CAS on the double's bit pattern (rel errors are
  // non-negative, so the integer order matches the double order).
  std::atomic<std::size_t> done{0};
  std::atomic<std::uint64_t> worst_rel_bits{0};

  // Work-stealing by atomic ticket: results land at their job's slot, so
  // the report order is job order no matter which worker ran what.
  // `claimed` marks slots a worker actually ran (each written by exactly
  // one worker); jobs left unclaimed by a sweep deadline/cancellation
  // are marked failed after the join.
  std::vector<char> claimed(jobs_.size(), 0);
  std::atomic<std::size_t> next{0};
  const auto worker = [this, &next, &report, &cache, &worker_metrics,
                       &worker_traces, &trace_job, &done, &worst_rel_bits,
                       &claimed, &chunks, sweep](int worker_id) {
    obs::Registry* metrics =
        worker_metrics.empty()
            ? nullptr
            : &worker_metrics[static_cast<std::size_t>(worker_id)];
    obs::TraceLog* log =
        worker_traces.empty()
            ? nullptr
            : &worker_traces[static_cast<std::size_t>(worker_id)];
    const auto note_result = [&worst_rel_bits](const ScenarioResult& result) {
      if (!result.ok || estimator::engines(result.backend).size() < 2) {
        return;
      }
      const double rel = result.relative_error;
      std::uint64_t seen = worst_rel_bits.load(std::memory_order_relaxed);
      while (std::bit_cast<double>(seen) < rel &&
             !worst_rel_bits.compare_exchange_weak(
                 seen, std::bit_cast<std::uint64_t>(rel),
                 std::memory_order_relaxed)) {
      }
    };
    for (;;) {
      // Stop claiming work once the sweep is cancelled or past its
      // deadline; already-claimed jobs finish (or trip) on their own.
      if (sweep != nullptr && sweep->exhausted()) {
        return;
      }
      const std::size_t ticket = next.fetch_add(1);
      if (ticket >= chunks.size()) {
        return;
      }
      const Chunk chunk = chunks[ticket];
      for (std::size_t k = 0; k < chunk.size; ++k) {
        claimed[chunk.begin + k] = 1;
      }
      const BatchJob& first = jobs_[chunk.begin];
      trace::Trace sim_trace;
      trace::Trace* sim_trace_out =
          (log != nullptr && trace_job[chunk.begin] != 0) ? &sim_trace
                                                          : nullptr;
      {
        std::string name =
            "estimate " + first.model_name + " #" + std::to_string(first.id);
        if (chunk.size > 1) {
          name += "-#" +
                  std::to_string(jobs_[chunk.begin + chunk.size - 1].id);
        }
        const obs::TraceLog::HostSpan span(log, 0, worker_id,
                                           std::move(name), "host.estimate");
        run_chunk(&first, chunk.size,
                  cache[static_cast<std::size_t>(first.model_index)],
                  metrics, sim_trace_out, sweep,
                  &report.results[chunk.begin]);
      }
      if (sim_trace_out != nullptr) {
        log->append_simulated(sim_trace, sim_pid_base(first.model_index),
                              first.model_name);
      }
      for (std::size_t k = 0; k < chunk.size; ++k) {
        note_result(report.results[chunk.begin + k]);
      }
      done.fetch_add(chunk.size, std::memory_order_release);
    }
  };

  const auto make_progress = [this, &done, &worst_rel_bits,
                              start](bool final) {
    BatchProgress progress;
    progress.done = done.load(std::memory_order_acquire);
    progress.total = jobs_.size();
    progress.elapsed_seconds = seconds_since(start);
    progress.jobs_per_second =
        progress.elapsed_seconds > 0
            ? static_cast<double>(progress.done) / progress.elapsed_seconds
            : 0;
    progress.eta_seconds =
        progress.jobs_per_second > 0
            ? static_cast<double>(progress.total - progress.done) /
                  progress.jobs_per_second
            : 0;
    progress.worst_rel_error =
        std::bit_cast<double>(worst_rel_bits.load(std::memory_order_relaxed));
    progress.final = final;
    return progress;
  };

  // Heartbeat monitor: wakes every interval until the pool finishes, then
  // stops so the guaranteed final callback never overlaps a periodic one.
  std::thread monitor;
  std::mutex monitor_mutex;
  std::condition_variable monitor_cv;
  bool monitor_stop = false;
  if (options_.on_progress) {
    const auto interval = std::chrono::duration<double>(
        std::max(options_.progress_interval_seconds, 0.01));
    monitor = std::thread([this, &monitor_mutex, &monitor_cv, &monitor_stop,
                           &make_progress, interval] {
      std::unique_lock<std::mutex> lock(monitor_mutex);
      while (!monitor_cv.wait_for(lock, interval,
                                  [&monitor_stop] { return monitor_stop; })) {
        options_.on_progress(make_progress(false));
      }
    });
  }

  if (threads == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back(worker, t);
    }
    for (auto& thread : pool) {
      thread.join();
    }
  }
  if (monitor.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(monitor_mutex);
      monitor_stop = true;
    }
    monitor_cv.notify_all();
    monitor.join();
  }

  // Jobs the drained pool never claimed still get a structured row —
  // the report keeps one result per job under every outcome.
  if (sweep != nullptr) {
    const bool was_cancelled = sweep->cancel_requested();
    for (std::size_t index = 0; index < jobs_.size(); ++index) {
      if (claimed[index] != 0) {
        continue;
      }
      ScenarioResult& result = report.results[index];
      result = result_for(jobs_[index]);
      result.backend = options_.backend;
      result.ok = false;
      result.error = was_cancelled
                         ? "sweep: cancelled before the job started"
                         : "sweep: deadline exceeded before the job started";
      result.tripped_limit = was_cancelled ? "cancelled" : "wall_clock";
    }
  }
  report.wall_seconds = seconds_since(start);

  for (const auto& registry : worker_metrics) {
    report.metrics.merge(registry);
  }
  if (collect_metrics && batching) {
    // The configured lane width; `expr.batch_evals` (folded from the
    // engine counters above) tells whether the vectorized VM actually
    // ran, `batch.lanes_fallback` how many lanes dropped to scalar.
    report.metrics.gauge("expr.batch_width").set(static_cast<double>(lanes));
  }
  for (auto& log : worker_traces) {
    report.trace.merge(std::move(log));
  }
  // A cache hit is a job answered from a successfully compiled shared
  // entry (its model's one-time compile served it).
  std::uint64_t hits = 0;
  for (const auto& job : jobs_) {
    if (cache[static_cast<std::size_t>(job.model_index)].ok) {
      ++hits;
    }
  }
  report.metrics.counter("batch.cache_hits").add(hits);
  report.metrics.merge(report.derived_metrics());

  if (options_.on_progress) {
    options_.on_progress(make_progress(true));
  }
  return report;
}

}  // namespace prophet::pipeline
