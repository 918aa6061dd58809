// Guardrails in the batch pipeline: per-job timeouts and resource
// limits, sweep-wide deadlines and cancellation, deterministic fault
// injection, and the RFC 4180 escaping of the CSV free-text columns.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "prophet/estimator/backend.hpp"
#include "prophet/guard/guard.hpp"
#include "prophet/models/builtins.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/pipeline/batch.hpp"
#include "prophet/xmi/xmi.hpp"

namespace {

namespace guard = prophet::guard;
using prophet::estimator::BackendKind;
using prophet::pipeline::BatchOptions;
using prophet::pipeline::BatchReport;
using prophet::pipeline::BatchRunner;
using prophet::pipeline::ScenarioGrid;
using prophet::pipeline::ScenarioResult;

TEST(BatchCsv, QuotesErrorAndModelFieldsPerRfc4180) {
  BatchReport report;
  ScenarioResult bad;
  bad.job_id = 0;
  bad.model_name = "models/weird,name.xmi";
  bad.ok = false;
  bad.error = "check: unknown variable \"GV\", line 3\nsecond line";
  bad.tripped_limit = "";
  ScenarioResult good;
  good.job_id = 1;
  good.model_name = "clean";
  good.ok = true;
  good.predicted_time = 1.5;
  report.results = {bad, good};

  const std::string csv = report.to_csv();
  // The comma-bearing model name and the error with quotes, a comma and
  // a newline are wrapped; embedded quotes are doubled.
  EXPECT_NE(csv.find("\"models/weird,name.xmi\""), std::string::npos);
  EXPECT_NE(
      csv.find("\"check: unknown variable \"\"GV\"\", line 3\nsecond line\""),
      std::string::npos);
  // Clean fields stay unquoted, and the header carries the new column.
  EXPECT_NE(csv.find("1,clean,"), std::string::npos);
  EXPECT_EQ(csv.find("\"clean\""), std::string::npos);
  EXPECT_NE(csv.find(",tripped_limit,error\n"), std::string::npos);
}

TEST(BatchGuards, JobTimeoutFailsRunawayJobAndSpareTheRest) {
  BatchOptions options;
  options.threads = 1;
  options.job_timeout_seconds = 0.2;
  BatchRunner runner(options);
  const int sample = runner.add_model("sample", prophet::models::sample_model());
  const int spin = runner.add_model("spin", prophet::models::spin_model(1e12));
  runner.add_sweep(sample, ScenarioGrid::parse("np=1", {}));
  runner.add_sweep(spin, ScenarioGrid::parse("np=1", {}));

  const BatchReport report = runner.run();
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_TRUE(report.results[0].ok);
  EXPECT_FALSE(report.results[1].ok);
  EXPECT_EQ(report.results[1].tripped_limit, "wall_clock");
  EXPECT_NE(report.results[1].error.find("wall_clock"), std::string::npos);

  const auto stats = report.stats();
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_NE(report.summary().find("timed out"), std::string::npos);
  // The metric layer counts it too.
  const auto metrics = report.derived_metrics();
  EXPECT_EQ(metrics.counter_value("batch.jobs_timed_out"), 1);
}

TEST(BatchGuards, SimEventLimitNamesTheBound) {
  BatchOptions options;
  options.threads = 1;
  options.limits.max_sim_events = 50;
  BatchRunner runner(options);
  const int spin = runner.add_model("spin", prophet::models::spin_model(1e6));
  runner.add_sweep(spin, ScenarioGrid::parse("np=1", {}));

  const BatchReport report = runner.run();
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_FALSE(report.results[0].ok);
  EXPECT_EQ(report.results[0].tripped_limit, "sim_events");
}

TEST(BatchGuards, LoopTripLimitNamesTheBound) {
  BatchOptions options;
  options.threads = 1;
  options.limits.max_loop_trips = 100;
  BatchRunner runner(options);
  const int spin = runner.add_model("spin", prophet::models::spin_model(1e6));
  runner.add_sweep(spin, ScenarioGrid::parse("np=1", {}));

  const BatchReport report = runner.run();
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_FALSE(report.results[0].ok);
  EXPECT_EQ(report.results[0].tripped_limit, "loop_trips");
}

TEST(BatchGuards, LimitsDoNotChangeSuccessfulPredictions) {
  const auto run_once = [](bool limited) {
    BatchOptions options;
    options.threads = 1;
    if (limited) {
      options.limits.max_sim_events = 1000000;
      options.limits.max_loop_trips = 1000000;
      options.job_timeout_seconds = 600;
    }
    BatchRunner runner(options);
    const int sample =
        runner.add_model("sample", prophet::models::sample_model());
    runner.add_sweep(sample, ScenarioGrid::parse("np=1..4:+1", {}));
    return runner.run();
  };
  const BatchReport plain = run_once(false);
  const BatchReport guarded = run_once(true);
  ASSERT_EQ(plain.results.size(), guarded.results.size());
  for (std::size_t i = 0; i < plain.results.size(); ++i) {
    EXPECT_TRUE(guarded.results[i].ok);
    EXPECT_EQ(plain.results[i].predicted_time,
              guarded.results[i].predicted_time);
    EXPECT_EQ(plain.results[i].events, guarded.results[i].events);
  }
}

TEST(BatchGuards, PreCancelledSweepBudgetFailsEveryJobGracefully) {
  guard::Budget sweep;
  sweep.cancel();
  BatchOptions options;
  options.threads = 2;
  options.sweep_budget = &sweep;
  BatchRunner runner(options);
  const int sample = runner.add_model("sample", prophet::models::sample_model());
  runner.add_sweep(sample, ScenarioGrid::parse("np=1..4:+1", {}));

  const BatchReport report = runner.run();
  ASSERT_EQ(report.results.size(), 4u);
  for (const auto& result : report.results) {
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.tripped_limit, "cancelled");
  }
  const auto stats = report.stats();
  EXPECT_EQ(stats.cancelled, 4u);
  EXPECT_NE(report.summary().find("cancelled"), std::string::npos);
}

TEST(BatchGuards, SweepDeadlineDrainsRemainingJobs) {
  BatchOptions options;
  options.threads = 1;
  options.deadline_seconds = 0.3;
  BatchRunner runner(options);
  const int spin = runner.add_model("spin", prophet::models::spin_model(1e12));
  runner.add_sweep(spin, ScenarioGrid::parse("np=1..4:+1", {}));

  const BatchReport report = runner.run();
  ASSERT_EQ(report.results.size(), 4u);
  std::size_t failed = 0;
  for (const auto& result : report.results) {
    EXPECT_FALSE(result.ok);
    failed += result.ok ? 0 : 1;
    EXPECT_FALSE(result.tripped_limit.empty());
  }
  EXPECT_EQ(failed, 4u);
  // The report still aggregates: wall time bounded well under the
  // 4-job * runaway worst case.
  EXPECT_LT(report.wall_seconds, 5.0);
}

TEST(BatchFaults, InjectedEstimateFaultFailsJobsNotTheBatch) {
  guard::FaultPlan plan = guard::FaultPlan::parse("estimate@1");
  BatchOptions options;
  options.threads = 1;
  options.fault_plan = &plan;
  BatchRunner runner(options);
  const int sample = runner.add_model("sample", prophet::models::sample_model());
  runner.add_sweep(sample, ScenarioGrid::parse("np=1,2", {}));

  const BatchReport report = runner.run();
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_FALSE(report.results[0].ok);
  EXPECT_NE(report.results[0].error.find("injected fault"),
            std::string::npos);
  EXPECT_TRUE(report.results[0].tripped_limit.empty());
  EXPECT_TRUE(report.results[1].ok);
}

TEST(BatchFaults, CompileStageFaultReportsStage) {
  guard::FaultPlan plan = guard::FaultPlan::parse("lower");
  BatchOptions options;
  options.threads = 1;
  options.fault_plan = &plan;
  BatchRunner runner(options);
  const int sample = runner.add_model("sample", prophet::models::sample_model());
  runner.add_sweep(sample, ScenarioGrid::parse("np=1", {}));

  const BatchReport report = runner.run();
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_FALSE(report.results[0].ok);
  EXPECT_NE(report.results[0].error.find("injected fault at site 'lower'"),
            std::string::npos);
}

TEST(BatchFaults, ParseFaultFailsXmiModelAtRegistration) {
  // XMI text is parsed once, when it is registered: an injected parse
  // fault fails that model's jobs, while in-memory models never visit
  // the site.
  guard::FaultPlan plan = guard::FaultPlan::parse("parse@1");
  BatchOptions options;
  options.threads = 1;
  options.fault_plan = &plan;
  BatchRunner runner(options);
  const int sample = runner.add_model("sample", prophet::models::sample_model());
  const int xmi = runner.add_model_xml(
      "xmi", prophet::xmi::to_xml(prophet::models::sample_model()));
  runner.add_sweep(xmi, ScenarioGrid::parse("np=1,2", {}));
  runner.add_sweep(sample, ScenarioGrid::parse("np=1", {}));

  const BatchReport report = runner.run();
  ASSERT_EQ(report.results.size(), 3u);
  for (const std::size_t i : {std::size_t{0}, std::size_t{1}}) {
    EXPECT_FALSE(report.results[i].ok);
    EXPECT_EQ(report.results[i].error.rfind(
                  "parse: injected fault at site 'parse'", 0),
              0u)
        << report.results[i].error;
  }
  EXPECT_TRUE(report.results[2].ok) << report.results[2].error;
}

TEST(BatchFaults, MidSimulationCancelFault) {
  guard::FaultPlan plan = guard::FaultPlan::parse("cancel@100");
  BatchOptions options;
  options.threads = 1;
  options.fault_plan = &plan;
  BatchRunner runner(options);
  const int spin = runner.add_model("spin", prophet::models::spin_model(1e6));
  runner.add_sweep(spin, ScenarioGrid::parse("np=1", {}));

  const BatchReport report = runner.run();
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_FALSE(report.results[0].ok);
  EXPECT_EQ(report.results[0].tripped_limit, "cancelled");
}

TEST(BatchGuards, CodegenRunawayTripsWallClockNotHang) {
  // The generated native code charges the job's budget: a runaway model
  // it evaluates must trip the per-job wall clock from inside its
  // compiled loops — and the error carries the codegen stage prefix.
  BatchOptions options;
  options.threads = 1;
  options.backend = BackendKind::Codegen;
  options.job_timeout_seconds = 0.3;
  BatchRunner runner(options);
  const int spin = runner.add_model("spin", prophet::models::spin_model(1e12));
  runner.add_sweep(spin, ScenarioGrid::parse("np=1", {}));

  const BatchReport report = runner.run();
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_FALSE(report.results[0].ok);
  EXPECT_EQ(report.results[0].tripped_limit, "wall_clock");
  EXPECT_EQ(report.results[0].error.rfind("cgen: ", 0), 0u)
      << report.results[0].error;
  const auto stats = report.stats();
  EXPECT_EQ(stats.timed_out, 1u);
}

TEST(BatchGuards, EnginesChargeOneBudgetPerJob) {
  // Every engine charges the job's one budget.  Under analytic+codegen
  // the codegen reference runs first, so its 100 loop trips count
  // against the limit the analytic candidate then runs under, although
  // each engine alone stays inside it.
  const auto run = [](BackendKind backend) {
    BatchOptions options;
    options.threads = 1;
    options.backend = backend;
    options.limits.max_loop_trips = 150;
    BatchRunner runner(options);
    const int spin =
        runner.add_model("spin", prophet::models::spin_model(100));
    runner.add_sweep(spin, ScenarioGrid::parse("np=1", {}));
    return runner.run();
  };
  for (const BackendKind alone :
       {BackendKind::Codegen, BackendKind::Analytic}) {
    const BatchReport report = run(alone);
    ASSERT_EQ(report.results.size(), 1u);
    EXPECT_TRUE(report.results[0].ok) << report.results[0].error;
  }
  const BatchReport report = run(BackendKind::AnalyticCodegen);
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_FALSE(report.results[0].ok);
  EXPECT_EQ(report.results[0].tripped_limit, "loop_trips");
  EXPECT_EQ(report.results[0].error.rfind(
                "analytic: loop_trips limit (150) exceeded in analytic-loop",
                0),
            0u)
      << report.results[0].error;
}

TEST(BatchGuards, AnalyticRunawayTripsWallClock) {
  // The analytic step limit counts one diagram walk, as in the other
  // engines, so a loop whose body cannot collapse is stopped by the
  // per-job wall clock — not by a step count summed over every trip.
  BatchOptions options;
  options.threads = 1;
  options.backend = BackendKind::Analytic;
  options.job_timeout_seconds = 0.3;
  BatchRunner runner(options);
  const int spin = runner.add_model("spin", prophet::models::spin_model(1e12));
  runner.add_sweep(spin, ScenarioGrid::parse("np=1", {}));

  const BatchReport report = runner.run();
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_FALSE(report.results[0].ok);
  EXPECT_EQ(report.results[0].tripped_limit, "wall_clock")
      << report.results[0].error;
  EXPECT_EQ(report.results[0].error.rfind("analytic: ", 0), 0u)
      << report.results[0].error;
}

TEST(BatchFaults, CgenCompileFaultFailsOneModelNotTheBatch) {
  // A failing toolchain invocation is a per-model, stage-prefixed job
  // error; later models still compile and evaluate.  A fresh cache
  // directory guarantees the toolchain actually runs (cache hits skip
  // the fault site by design).
  const std::string cache =
      ::testing::TempDir() + "/cgen-fault-batch-cache";
  std::filesystem::remove_all(cache);
  const char* saved = std::getenv("PROPHET_CGEN_CACHE");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::setenv("PROPHET_CGEN_CACHE", cache.c_str(), 1);

  guard::FaultPlan plan = guard::FaultPlan::parse("cgen-compile@1");
  BatchOptions options;
  options.threads = 1;
  options.backend = BackendKind::Codegen;
  options.fault_plan = &plan;
  BatchRunner runner(options);
  const int sample =
      runner.add_model("sample", prophet::models::sample_model());
  const int kernel6 =
      runner.add_model("kernel6", prophet::models::kernel6_model(8, 1, 1e-8));
  runner.add_sweep(sample, ScenarioGrid::parse("np=1", {}));
  runner.add_sweep(kernel6, ScenarioGrid::parse("np=1", {}));

  const BatchReport report = runner.run();
  if (saved != nullptr) {
    ::setenv("PROPHET_CGEN_CACHE", saved_value.c_str(), 1);
  } else {
    ::unsetenv("PROPHET_CGEN_CACHE");
  }
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_FALSE(report.results[0].ok);
  EXPECT_NE(report.results[0].error.find(
                "cgen: injected fault at site 'cgen-compile'"),
            std::string::npos)
      << report.results[0].error;
  EXPECT_TRUE(report.results[0].tripped_limit.empty());
  EXPECT_TRUE(report.results[1].ok) << report.results[1].error;
  EXPECT_GT(report.results[1].codegen_predicted, 0.0);
}

TEST(BatchGuards, HiddenSpinModelResolvesButIsUnlisted) {
  const auto& registry = prophet::models::Registry::builtin();
  EXPECT_NE(registry.find("spin"), nullptr);
  for (const auto& name : registry.names()) {
    EXPECT_NE(name, "spin");
  }
  EXPECT_EQ(registry.available().find("@spin"), std::string::npos);
  EXPECT_EQ(registry.describe().find("@spin"), std::string::npos);
  // Resolvable by exact reference with knobs.
  const auto model = registry.make("@spin(trips=10)");
  EXPECT_EQ(model.name(), "Spin");
}

}  // namespace
