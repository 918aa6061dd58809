// BatchRunner: thread-count determinism, per-job error isolation,
// report aggregation, and the compiled-model cache (prepare-failure
// containment, prepare timing).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "prophet/pipeline/batch.hpp"
#include "prophet/pipeline/scenario.hpp"
#include "prophet/prophet.hpp"
#include "prophet/uml/builder.hpp"

namespace pipeline = prophet::pipeline;
namespace machine = prophet::machine;

namespace {

// --- BatchRunner -------------------------------------------------------------

pipeline::BatchRunner sweep_runner(int threads) {
  pipeline::BatchOptions options;
  options.threads = threads;
  pipeline::BatchRunner runner(options);
  const int sample =
      runner.add_model("sample", prophet::models::sample_model());
  const int kernel = runner.add_model(
      "kernel6", prophet::models::kernel6_model(64, 16, 1e-8));
  const auto grid = pipeline::ScenarioGrid::parse("np=1..4:*2 nodes=1,2");
  runner.add_sweep(sample, grid);
  runner.add_sweep(kernel, grid);
  return runner;
}

TEST(BatchRunner, AddModelReferenceResolvesTheRegistry) {
  pipeline::BatchRunner runner;
  const int index = runner.add_model_reference("@kernel6(n=8, m=1)");
  runner.add_scenario(index, {});
  const auto report = runner.run();
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_TRUE(report.results[0].ok) << report.results[0].error;
  EXPECT_EQ(report.results[0].model_name, "@kernel6(n=8, m=1)");
  // 8*7/2 * 1 sweep * 1e-8 s.
  EXPECT_NEAR(report.results[0].predicted_time, 28e-8, 1e-15);
  EXPECT_THROW((void)runner.add_model_reference("@nope"),
               std::invalid_argument);
}

TEST(BatchRunner, RunsEveryScenario) {
  auto runner = sweep_runner(1);
  EXPECT_EQ(runner.model_count(), 2u);
  ASSERT_EQ(runner.job_count(), 12u);

  const auto report = runner.run();
  ASSERT_EQ(report.results.size(), 12u);
  for (const auto& result : report.results) {
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_GT(result.predicted_time, 0.0) << result.model_name;
    EXPECT_GT(result.events, 0u);
  }
  const auto stats = report.stats();
  EXPECT_EQ(stats.ok, 12u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_LE(stats.min_predicted, stats.mean_predicted);
  EXPECT_LE(stats.mean_predicted, stats.max_predicted);
}

TEST(BatchRunner, ResultsAreIdenticalAcrossThreadCounts) {
  const auto serial = sweep_runner(1).run();
  for (const int threads : {2, 4, 8}) {
    const auto parallel = sweep_runner(threads).run();
    ASSERT_EQ(parallel.results.size(), serial.results.size());
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
      const auto& a = serial.results[i];
      const auto& b = parallel.results[i];
      EXPECT_EQ(a.job_id, b.job_id);
      EXPECT_EQ(a.model_name, b.model_name);
      EXPECT_EQ(a.ok, b.ok);
      // Bit-identical simulation results, not just approximately equal.
      EXPECT_EQ(a.predicted_time, b.predicted_time)
          << "job " << i << " at " << threads << " threads";
      EXPECT_EQ(a.events, b.events);
    }
  }
}

TEST(BatchRunner, OneBadModelDoesNotPoisonTheBatch) {
  pipeline::BatchOptions options;
  options.threads = 2;
  pipeline::BatchRunner runner(options);
  const int good = runner.add_model("good", prophet::models::sample_model());
  const int bad = runner.add_model_xml("bad", "<this is not xmi");
  runner.add_scenario(good, {});
  runner.add_scenario(bad, {});
  runner.add_scenario(good, {});

  const auto report = runner.run();
  ASSERT_EQ(report.results.size(), 3u);
  EXPECT_TRUE(report.results[0].ok);
  EXPECT_FALSE(report.results[1].ok);
  EXPECT_EQ(report.results[1].error.rfind("parse:", 0), 0u)
      << report.results[1].error;
  EXPECT_TRUE(report.results[2].ok);

  const auto stats = report.stats();
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST(BatchRunner, InvalidParametersFailOnlyTheirJob) {
  pipeline::BatchOptions options;
  options.threads = 2;
  pipeline::BatchRunner runner(options);
  const int m = runner.add_model("sample", prophet::models::sample_model());
  machine::SystemParameters broken;
  broken.network_bandwidth = -1;  // rejected by SystemParameters::validate
  runner.add_scenario(m, broken);
  runner.add_scenario(m, {});

  const auto report = runner.run();
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_FALSE(report.results[0].ok);
  EXPECT_EQ(report.results[0].error.rfind("simulate:", 0), 0u)
      << report.results[0].error;
  EXPECT_TRUE(report.results[1].ok);
}

TEST(BatchRunner, SweepAllCoversEveryModel) {
  pipeline::BatchRunner runner;
  runner.add_model("a", prophet::models::sample_model());
  runner.add_model("b", prophet::models::pingpong_model(1024, 4));
  runner.add_sweep_all(pipeline::ScenarioGrid::parse("np=2,4"));
  ASSERT_EQ(runner.job_count(), 4u);
  EXPECT_EQ(runner.jobs()[0].model_name, "a");
  EXPECT_EQ(runner.jobs()[2].model_name, "b");
}

TEST(BatchRunner, ReportFormatsSummaryAndCsv) {
  pipeline::BatchOptions options;
  options.threads = 1;
  pipeline::BatchRunner runner(options);
  const int m = runner.add_model("sample", prophet::models::sample_model());
  runner.add_sweep(m, pipeline::ScenarioGrid::parse("np=1,2"));
  const auto report = runner.run();

  const std::string summary = report.summary();
  EXPECT_NE(summary.find("2 job(s)"), std::string::npos) << summary;
  EXPECT_NE(summary.find("sample"), std::string::npos);
  EXPECT_NE(summary.find("ok 2 / failed 0"), std::string::npos) << summary;

  const std::string csv = report.to_csv();
  // Header + one row per scenario.
  EXPECT_EQ(static_cast<int>(std::count(csv.begin(), csv.end(), '\n')), 3);
  EXPECT_NE(csv.find("job,model,np"), std::string::npos);
}

TEST(BatchRunner, CsvQuotesModelNamesWithCommas) {
  pipeline::BatchOptions options;
  options.threads = 1;
  pipeline::BatchRunner runner(options);
  // File-registered models use the path as the name; a comma in it must
  // not shift the CSV columns.  Per RFC 4180 the field is quoted — the
  // name survives byte-exact instead of being rewritten.
  const int m =
      runner.add_model("models/v2,final.xml", prophet::models::sample_model());
  runner.add_scenario(m, {});
  const auto report = runner.run();

  const std::string csv = report.to_csv();
  EXPECT_NE(csv.find("\"models/v2,final.xml\""), std::string::npos) << csv;
  EXPECT_EQ(csv.find(';'), std::string::npos) << csv;
}

TEST(BatchRunner, AnalyticBackendRunsWithoutSimulation) {
  pipeline::BatchOptions options;
  options.threads = 1;
  options.backend = prophet::estimator::BackendKind::Analytic;
  pipeline::BatchRunner runner(options);
  const int m = runner.add_model(
      "kernel6", prophet::models::kernel6_model(64, 16, 1e-8));
  runner.add_sweep(m, pipeline::ScenarioGrid::parse("np=1..8:*2"));
  const auto report = runner.run();
  ASSERT_EQ(report.results.size(), 4u);
  for (const auto& result : report.results) {
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.backend, prophet::estimator::BackendKind::Analytic);
    EXPECT_GT(result.predicted_time, 0.0);
    EXPECT_EQ(result.analytic_predicted, result.predicted_time);
    EXPECT_EQ(result.events, 0u);  // nothing was simulated
  }
}

TEST(BatchRunner, BothBackendCrossValidates) {
  pipeline::BatchOptions options;
  options.threads = 2;
  options.backend = prophet::estimator::BackendKind::Both;
  pipeline::BatchRunner runner(options);
  const int m = runner.add_model(
      "kernel6", prophet::models::kernel6_model(64, 16, 1e-8));
  runner.add_sweep(m, pipeline::ScenarioGrid::parse("np=1..8:*2"));
  const auto report = runner.run();
  ASSERT_EQ(report.results.size(), 4u);
  for (const auto& result : report.results) {
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_GT(result.predicted_time, 0.0);   // simulator reference
    EXPECT_GT(result.analytic_predicted, 0.0);
    EXPECT_GT(result.events, 0u);            // the simulator did run
    // Deterministic compute-only model: the backends agree tightly.
    EXPECT_LT(result.relative_error, 0.01) << result.params.processes;
  }
  const auto stats = report.stats();
  EXPECT_EQ(stats.compared, 4u);
  EXPECT_LE(stats.mean_rel_error, stats.max_rel_error);
  EXPECT_LT(stats.max_rel_error, 0.01);
  // The summary and CSV carry the cross-validation columns.
  EXPECT_NE(report.summary().find("rel err"), std::string::npos);
  EXPECT_NE(report.to_csv().find(",both,"), std::string::npos);
}

TEST(BatchRunner, BackendSelectionIsDeterministicAcrossThreads) {
  const auto run_with = [](int threads) {
    pipeline::BatchOptions options;
    options.threads = threads;
    options.backend = prophet::estimator::BackendKind::Analytic;
    pipeline::BatchRunner runner(options);
    runner.add_model("sample", prophet::models::sample_model());
    runner.add_sweep_all(pipeline::ScenarioGrid::parse("np=1..4 nodes=1,2"));
    return runner.run();
  };
  const auto serial = run_with(1);
  const auto parallel = run_with(4);
  ASSERT_EQ(serial.results.size(), parallel.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.results[i].predicted_time,
              parallel.results[i].predicted_time)
        << "job " << i;
  }
}

// Every selection, in one table.  The reference engine — the simulator
// when selected, else codegen, else analytic — fills `predicted_time`
// and `events`; every engine that ran, reference included, fills its own
// prediction field; `relative_error` is the worst candidate's.  Each
// number matches the engine's own single-engine sweep bit for bit.
TEST(BatchRunner, EverySelectionFillsReferenceAndCandidates) {
  using prophet::estimator::BackendKind;
  const auto sweep = [](BackendKind backend) {
    pipeline::BatchOptions options;
    options.threads = 1;
    options.backend = backend;
    pipeline::BatchRunner runner(options);
    const int m = runner.add_model_reference("@sample");
    runner.add_sweep(m, pipeline::ScenarioGrid::parse("np=1..4"));
    return runner.run();
  };
  struct Selection {
    BackendKind backend;
    std::string spelling;
    BackendKind reference;
    std::vector<BackendKind> candidates;
  };
  const std::vector<Selection> selections = {
      {BackendKind::Simulation, "sim", BackendKind::Simulation, {}},
      {BackendKind::Analytic, "analytic", BackendKind::Analytic, {}},
      {BackendKind::Codegen, "codegen", BackendKind::Codegen, {}},
      {BackendKind::Both, "both", BackendKind::Simulation,
       {BackendKind::Analytic}},
      {BackendKind::SimCodegen, "sim+codegen", BackendKind::Simulation,
       {BackendKind::Codegen}},
      {BackendKind::AnalyticCodegen, "analytic+codegen", BackendKind::Codegen,
       {BackendKind::Analytic}},
      {BackendKind::All, "all", BackendKind::Simulation,
       {BackendKind::Analytic, BackendKind::Codegen}},
  };
  std::map<BackendKind, pipeline::BatchReport> alone;
  for (const BackendKind engine :
       {BackendKind::Simulation, BackendKind::Analytic, BackendKind::Codegen}) {
    alone.emplace(engine, sweep(engine));
  }
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  for (const Selection& selection : selections) {
    const pipeline::BatchReport report = sweep(selection.backend);
    ASSERT_EQ(report.results.size(), 4u) << selection.spelling;
    const auto ran = [&selection](BackendKind engine) {
      return engine == selection.reference ||
             std::count(selection.candidates.begin(),
                        selection.candidates.end(), engine) > 0;
    };
    for (std::size_t job = 0; job < report.results.size(); ++job) {
      const pipeline::ScenarioResult& result = report.results[job];
      const auto alone_predicted = [&alone, job](BackendKind engine) {
        return alone.at(engine).results[job].predicted_time;
      };
      const std::string where =
          selection.spelling + " job " + std::to_string(job);
      ASSERT_TRUE(result.ok) << where << ": " << result.error;
      EXPECT_EQ(result.backend, selection.backend) << where;
      EXPECT_EQ(bits(result.predicted_time),
                bits(alone_predicted(selection.reference)))
          << where;
      EXPECT_EQ(result.events,
                alone.at(selection.reference).results[job].events)
          << where;
      if (selection.reference == BackendKind::Analytic) {
        EXPECT_EQ(result.events, 0u) << where;
      }
      EXPECT_EQ(bits(result.analytic_predicted),
                bits(ran(BackendKind::Analytic)
                         ? alone_predicted(BackendKind::Analytic)
                         : 0.0))
          << where;
      EXPECT_EQ(bits(result.codegen_predicted),
                bits(ran(BackendKind::Codegen)
                         ? alone_predicted(BackendKind::Codegen)
                         : 0.0))
          << where;
      double worst = 0;
      for (const BackendKind candidate : selection.candidates) {
        worst = std::max(worst, std::abs(alone_predicted(candidate) -
                                         result.predicted_time) /
                                    result.predicted_time);
      }
      EXPECT_EQ(bits(result.relative_error), bits(worst)) << where;
    }
    // The CSV `backend` column (the 8th) keeps the selection's spelling.
    std::istringstream csv(report.to_csv());
    std::string row;
    std::getline(csv, row);  // header
    while (std::getline(csv, row)) {
      std::istringstream fields(row);
      std::string field;
      for (int column = 0; column < 8; ++column) {
        std::getline(fields, field, ',');
      }
      EXPECT_EQ(field, selection.spelling) << row;
    }
  }
}

// --- Compiled-model cache ----------------------------------------------------

// A model whose compile fails marks all of its jobs failed with the
// stage-prefixed error, without poisoning other models' jobs.
TEST(BatchRunner, PrepareFailureIsContainedPerModel) {
  pipeline::BatchOptions options;
  options.threads = 2;
  pipeline::BatchRunner runner(options);
  const int good = runner.add_model("good", prophet::models::sample_model());
  const int bad = runner.add_model_xml("bad", "<this is not xmi");
  runner.add_scenario(good, {});
  runner.add_scenario(bad, {});
  runner.add_scenario(bad, {});
  runner.add_scenario(good, {});

  const auto report = runner.run();
  ASSERT_EQ(report.results.size(), 4u);
  EXPECT_TRUE(report.results[0].ok) << report.results[0].error;
  EXPECT_TRUE(report.results[3].ok) << report.results[3].error;
  for (const std::size_t i : {std::size_t{1}, std::size_t{2}}) {
    EXPECT_FALSE(report.results[i].ok);
    EXPECT_EQ(report.results[i].error.rfind("parse:", 0), 0u)
        << report.results[i].error;
  }
  // Both failed jobs carry the same one-time compile error.
  EXPECT_EQ(report.results[1].error, report.results[2].error);
  EXPECT_EQ(report.stats().failed, 2u);
}

// A model that passes the checker but cannot be compiled by a backend
// fails its job with the backend's stage prefix.
TEST(BatchRunner, PrepareFailureMatchesIsolatedStageAndError) {
  pipeline::BatchOptions options;
  options.threads = 1;
  // Skip the checker so the defect reaches Backend::prepare.
  options.run_checker = false;
  pipeline::BatchRunner runner(options);
  prophet::uml::ModelBuilder mb("bad");
  prophet::uml::DiagramBuilder main = mb.diagram("main");
  prophet::uml::NodeRef init = main.initial();
  prophet::uml::NodeRef bad = main.action("Bad").cost("1 + ");
  prophet::uml::NodeRef fin = main.final_node();
  main.sequence({init, bad, fin});
  runner.add_model("bad", std::move(mb).build());
  runner.add_scenario(0, {});
  const auto report = runner.run();
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_FALSE(report.results[0].ok);
  EXPECT_EQ(report.results[0].error.rfind("simulate:", 0), 0u)
      << report.results[0].error;
  // A failed compile is not a prepared model.
  EXPECT_EQ(report.models_prepared, 0);
}

// Jobs land on the right cache entry even when earlier models have no
// jobs at all (entry indexing, not job order, selects the model).
TEST(BatchRunner, CacheEntriesFollowModelIndices) {
  pipeline::BatchRunner runner;
  runner.add_model("unused", prophet::models::pingpong_model(1024, 8));
  const int used =
      runner.add_model("kernel6", prophet::models::kernel6_model(64, 16, 1e-8));
  runner.add_scenario(used, {});
  const auto report = runner.run();
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_TRUE(report.results[0].ok) << report.results[0].error;
  // Only the referenced model was compiled.
  EXPECT_EQ(report.models_prepared, 1);
}

TEST(BatchRunner, StageTimingsFollowTheMode) {
  pipeline::BatchOptions options;
  options.threads = 1;
  pipeline::BatchRunner runner(options);
  const int m = runner.add_model("sample", prophet::models::sample_model());
  runner.add_sweep(m, pipeline::ScenarioGrid::parse("np=1,2"));
  const auto report = runner.run();
  // The per-model stages are paid once, in prepare_seconds.
  EXPECT_EQ(report.models_prepared, 1);
  EXPECT_GT(report.prepare_seconds, 0.0);
  EXPECT_NE(report.summary().find("compiled-model cache"),
            std::string::npos);
  for (const auto& result : report.results) {
    ASSERT_TRUE(result.ok) << result.error;
  }
}

TEST(BatchRunner, CsvCarriesStageTimingColumns) {
  pipeline::BatchOptions options;
  options.threads = 1;
  pipeline::BatchRunner runner(options);
  const int m = runner.add_model("sample", prophet::models::sample_model());
  runner.add_scenario(m, {});
  const std::string csv = runner.run().to_csv();
  EXPECT_EQ(csv.rfind("job,model,np,nn,ppn,nt,cpu_speed,backend,ok,"
                      "predicted_s,analytic_s,codegen_s,rel_error,events,"
                      "warnings,wall_s,tripped_limit,error\n",
                      0),
            0u)
      << csv;
}

TEST(BatchRunner, RejectsOutOfRangeModelIndex) {
  pipeline::BatchRunner runner;
  EXPECT_THROW(runner.add_scenario(0, {}), std::out_of_range);
  runner.add_model("sample", prophet::models::sample_model());
  EXPECT_THROW(runner.add_scenario(1, {}), std::out_of_range);
  EXPECT_THROW(runner.add_scenario(-1, {}), std::out_of_range);
}

}  // namespace
