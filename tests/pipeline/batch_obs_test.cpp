// Observability contract of the batch pipeline: instrumentation must
// never change predictions (bit-identity), metrics must agree with the
// results they summarize, and the progress heartbeat must account for
// every job.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "../obs/mini_json.hpp"

#include "prophet/estimator/backend.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/pipeline/batch.hpp"

namespace {

using prophet::estimator::BackendKind;
using prophet::pipeline::BatchOptions;
using prophet::pipeline::BatchProgress;
using prophet::pipeline::BatchReport;
using prophet::pipeline::BatchRunner;
using prophet::pipeline::ScenarioGrid;

BatchReport run_registry_sweep(BackendKind backend, bool collect_metrics,
                               bool collect_trace) {
  BatchOptions options;
  options.threads = 2;
  options.backend = backend;
  options.collect_metrics = collect_metrics;
  options.collect_trace = collect_trace;
  BatchRunner runner(options);
  for (const auto& name : prophet::models::Registry::builtin().names()) {
    const int index = runner.add_model_reference("@" + name);
    const auto base =
        prophet::models::Registry::builtin().at(name).default_params;
    runner.add_sweep(index, ScenarioGrid::parse("nodes=1,2", base));
  }
  return runner.run();
}

TEST(BatchObservability, InstrumentationOffBitIdentity) {
  // The tentpole contract: enabling metrics + tracing must not move a
  // single bit of any prediction, for every registered model, with both
  // backends live.
  const BatchReport plain = run_registry_sweep(BackendKind::Both, false, false);
  const BatchReport instrumented =
      run_registry_sweep(BackendKind::Both, true, true);
  ASSERT_EQ(plain.results.size(), instrumented.results.size());
  ASSERT_GT(plain.results.size(), 0U);
  for (std::size_t i = 0; i < plain.results.size(); ++i) {
    const auto& a = plain.results[i];
    const auto& b = instrumented.results[i];
    ASSERT_EQ(a.ok, b.ok) << a.model_name;
    // Bit-exact, not approximately equal.
    EXPECT_EQ(a.predicted_time, b.predicted_time) << a.model_name;
    EXPECT_EQ(a.analytic_predicted, b.analytic_predicted) << a.model_name;
    EXPECT_EQ(a.relative_error, b.relative_error) << a.model_name;
    EXPECT_EQ(a.events, b.events) << a.model_name;
  }
}

TEST(BatchObservability, MetricsAgreeWithResults) {
  const BatchReport report = run_registry_sweep(BackendKind::Both, true, false);
  const auto stats = report.stats();
  const auto& m = report.metrics;
  EXPECT_EQ(m.counter_value("batch.jobs"), stats.total);
  EXPECT_EQ(m.counter_value("batch.jobs_ok"), stats.ok);
  EXPECT_EQ(m.counter_value("batch.jobs_failed"), stats.failed);
  EXPECT_EQ(m.counter_value("batch.events"), stats.total_events);
  EXPECT_EQ(m.counter_value("batch.compared"), stats.compared);
  EXPECT_DOUBLE_EQ(m.gauge_value("batch.rel_error_max"), stats.max_rel_error);
  // Every ok job was served from the compiled-model cache.
  EXPECT_EQ(m.counter_value("batch.cache_hits"), stats.total);
  EXPECT_EQ(m.counter_value("batch.models_prepared"),
            static_cast<std::uint64_t>(report.models_prepared));
  // Engine counters flowed in from both backends, and lowering stats
  // from the prepare phase.
  EXPECT_GT(m.counter_value("expr.instructions"), 0U);
  EXPECT_GT(m.counter_value("expr.evals"), 0U);
  EXPECT_GT(m.counter_value("sim.runs"), 0U);
  EXPECT_GT(m.counter_value("sim.context_switches"), 0U);
  EXPECT_GT(m.counter_value("analytic.runs"), 0U);
  EXPECT_GT(m.counter_value("analytic.events_replayed"), 0U);
  EXPECT_GT(m.counter_value("lower.nodes"), 0U);
  EXPECT_GT(m.counter_value("lower.expr_programs"), 0U);
  // The three makespan bounds partition the analytic runs.
  EXPECT_EQ(m.counter_value("analytic.schedule_wins") +
                m.counter_value("analytic.capacity_wins") +
                m.counter_value("analytic.critical_wins"),
            m.counter_value("analytic.runs"));
}

TEST(BatchObservability, ChunkFallbackCountsEachJobOnce) {
  // @pingpong cannot run at np=1, so the 8-lane chunk fails and every
  // lane re-runs as a chunk of one.  The abandoned attempt's engine
  // counters must not stay in the registry: each job counts once, as in
  // the unchunked sweep.
  const auto engine_counters = [](int batch_lanes) {
    BatchOptions options;
    options.threads = 1;
    options.batch_lanes = batch_lanes;
    options.backend = BackendKind::Both;
    options.collect_metrics = true;
    BatchRunner runner(options);
    const int index = runner.add_model_reference("@pingpong");
    runner.add_sweep(index, ScenarioGrid::parse("np=1..4 nodes=1,2"));
    const BatchReport report = runner.run();
    const mini_json::Value doc = mini_json::parse(report.metrics.to_json());
    std::map<std::string, double> engine;
    for (const auto& [name, value] : doc.at("counters").object()) {
      if (name.rfind("sim.", 0) == 0 || name.rfind("analytic.", 0) == 0 ||
          name.rfind("expr.", 0) == 0) {
        engine[name] = value.number();
      }
    }
    return std::pair(engine,
                     report.metrics.counter_value("batch.lanes_fallback"));
  };
  const auto [singletons, singleton_fallback] = engine_counters(1);
  const auto [chunked, chunk_fallback] = engine_counters(8);
  ASSERT_GT(singletons.count("sim.runs"), 0U);
  EXPECT_EQ(chunked, singletons);
  EXPECT_EQ(singleton_fallback, 0U);
  EXPECT_EQ(chunk_fallback, 8U);  // the abandoned lanes are still counted
}

TEST(BatchObservability, MetricsOffStillDerivesBatchCells) {
  // Without collect_metrics the registry carries no engine counters, but
  // the batch.* summary cells are always there (summary() reads them).
  const BatchReport report =
      run_registry_sweep(BackendKind::Analytic, false, false);
  EXPECT_EQ(report.metrics.counter_value("batch.jobs"),
            report.results.size());
  EXPECT_EQ(report.metrics.counter_value("expr.instructions"), 0U);
  EXPECT_EQ(report.metrics.counter_value("sim.runs"), 0U);
}

TEST(BatchObservability, TraceCollectsHostAndSimulatedLanes) {
  const BatchReport report = run_registry_sweep(BackendKind::Both, false, true);
  EXPECT_GT(report.trace.span_count(), 0U);
  const std::string json = report.trace.to_chrome_json();
  // Host lanes: the compile spans and per-job estimate spans.
  EXPECT_NE(json.find("host.compile"), std::string::npos);
  EXPECT_NE(json.find("host.estimate"), std::string::npos);
  // Simulated lanes: one representative timeline per model.
  EXPECT_NE(json.find("(simulated)"), std::string::npos);
  EXPECT_NE(json.find("\"sim."), std::string::npos);
}

TEST(BatchObservability, SummaryNumbersComeFromTheRegistry) {
  const BatchReport report =
      run_registry_sweep(BackendKind::Analytic, false, false);
  const std::string summary = report.summary();
  const std::string jobs =
      std::to_string(report.metrics.counter_value("batch.jobs"));
  EXPECT_NE(summary.find("scenario sweep: " + jobs + " job(s)"),
            std::string::npos)
      << summary;
  const std::string ok =
      std::to_string(report.metrics.counter_value("batch.jobs_ok"));
  EXPECT_NE(summary.find("ok " + ok + " / failed"), std::string::npos)
      << summary;
}

TEST(BatchObservability, ProgressHeartbeatAccountsForEveryJob) {
  BatchOptions options;
  options.threads = 2;
  options.backend = BackendKind::Analytic;
  options.progress_interval_seconds = 0.01;
  std::atomic<int> calls{0};
  std::atomic<int> finals{0};
  std::atomic<std::size_t> last_done{0};
  std::atomic<std::size_t> last_total{0};
  options.on_progress = [&](const BatchProgress& progress) {
    ++calls;
    if (progress.final) {
      ++finals;
      last_done = progress.done;
      last_total = progress.total;
    }
    EXPECT_LE(progress.done, progress.total);
  };
  BatchRunner runner(options);
  const int index = runner.add_model_reference("@kernel6");
  runner.add_sweep(index, ScenarioGrid::parse("np=1..4"));
  const BatchReport report = runner.run();
  EXPECT_EQ(report.results.size(), 4U);
  // Exactly one final callback, reporting every job done.
  EXPECT_EQ(finals.load(), 1);
  EXPECT_GE(calls.load(), 1);
  EXPECT_EQ(last_done.load(), 4U);
  EXPECT_EQ(last_total.load(), 4U);
}

}  // namespace
