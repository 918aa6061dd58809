// Batched sweep evaluation (BatchOptions::batch_lanes): scalar and
// batched runs must be bit-identical on every deterministic CSV column,
// for every registered model, at several lane widths and thread counts,
// on the suggested grids and on the benchmark's wide grid;
// chunking must respect the eligibility rules (per-job limits and fault
// plans fall back to singleton jobs); a failed chunk must give each job
// its own error; models registered as XMI text must predict exactly what
// their in-memory originals do; and the batch observability signals must
// fire.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "../obs/mini_json.hpp"

#include "prophet/estimator/backend.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/pipeline/batch.hpp"
#include "prophet/xmi/xmi.hpp"

namespace {

using prophet::estimator::BackendKind;
using prophet::pipeline::BatchOptions;
using prophet::pipeline::BatchReport;
using prophet::pipeline::BatchRunner;
using prophet::pipeline::ScenarioGrid;

/// The benchmark's wide grid: three quarters of it oversubscribes the
/// nodes, which the suggested grids barely do.  @pingpong is defined for
/// exactly two ranks.
ScenarioGrid wide_grid(const std::string& name) {
  return ScenarioGrid::parse(name == "pingpong"
                                 ? "np=2 nodes=1..4 ppn=1..4"
                                 : "np=1..16 nodes=1..4 ppn=1..4");
}

/// Runs every registered model over its suggested grid (or the wide
/// grid) with the given lane width and thread count.  `via_xmi`
/// registers each model as the XMI text of its registry instance instead
/// of by reference.
BatchReport run_registry_sweep(int batch_lanes, int threads,
                               BackendKind backend = BackendKind::Analytic,
                               bool via_xmi = false, bool wide = false) {
  BatchOptions options;
  options.threads = threads;
  options.batch_lanes = batch_lanes;
  options.backend = backend;
  BatchRunner runner(options);
  const auto& registry = prophet::models::Registry::builtin();
  for (const auto& name : registry.names()) {
    const std::string reference = "@" + name;
    const int index =
        via_xmi ? runner.add_model_xml(
                      reference, prophet::xmi::to_xml(registry.make(reference)))
                : runner.add_model_reference(reference);
    const auto& info = registry.at(name);
    runner.add_sweep(index, wide ? wide_grid(name)
                                 : ScenarioGrid::parse(info.default_grid,
                                                       info.default_params));
  }
  return runner.run();
}

/// The deterministic prefix of each CSV row: columns 1-15
/// (job..warnings), everything before the host-time and error-detail
/// columns.
std::vector<std::string> deterministic_rows(const BatchReport& report) {
  std::vector<std::string> rows;
  std::istringstream csv(report.to_csv());
  std::string line;
  while (std::getline(csv, line)) {
    std::size_t at = 0;
    for (int field = 0; field < 15 && at != std::string::npos; ++field) {
      at = line.find(',', at + 1);
    }
    rows.push_back(line.substr(0, at == std::string::npos ? line.size() : at));
  }
  return rows;
}

TEST(BatchLanes, FullRegistryCsvIsBitIdenticalAcrossLaneWidthsAndThreads) {
  const auto reference = deterministic_rows(run_registry_sweep(1, 1));
  ASSERT_GT(reference.size(), 1u);
  for (const int threads : {1, 4}) {
    for (const int lanes : {1, 4, 8}) {
      const auto rows = deterministic_rows(run_registry_sweep(lanes, threads));
      ASSERT_EQ(rows.size(), reference.size())
          << "lanes " << lanes << " threads " << threads;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i], reference[i])
            << "row " << i << " lanes " << lanes << " threads " << threads;
      }
    }
  }
  const auto wide_reference = deterministic_rows(
      run_registry_sweep(1, 1, BackendKind::Analytic, false, true));
  const auto wide_rows = deterministic_rows(
      run_registry_sweep(8, 1, BackendKind::Analytic, false, true));
  ASSERT_EQ(wide_rows.size(), wide_reference.size());
  for (std::size_t i = 0; i < wide_rows.size(); ++i) {
    EXPECT_EQ(wide_rows[i], wide_reference[i]) << "wide grid, row " << i;
  }
}

TEST(BatchLanes, CrossValidatingSweepsStayBitIdentical) {
  // Chunks run every selected engine through the batched stage; the
  // reference/candidate bookkeeping must match the singleton path.
  const auto reference =
      deterministic_rows(run_registry_sweep(1, 1, BackendKind::Both));
  const auto batched =
      deterministic_rows(run_registry_sweep(8, 2, BackendKind::Both));
  ASSERT_EQ(batched.size(), reference.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i], reference[i]) << "row " << i;
  }
}

TEST(BatchLanes, XmiRegistrationMatchesInMemoryModels) {
  // The file path (XMI text parsed once, at registration) and the
  // in-memory path (the registry's model held directly) must agree on
  // every deterministic column — predictions of both engines, event
  // counts and checker warnings — for every registered model.
  const auto in_memory =
      deterministic_rows(run_registry_sweep(0, 1, BackendKind::Both));
  const auto via_xmi =
      deterministic_rows(run_registry_sweep(0, 1, BackendKind::Both, true));
  ASSERT_GT(in_memory.size(), 1u);
  ASSERT_EQ(via_xmi.size(), in_memory.size());
  for (std::size_t i = 0; i < in_memory.size(); ++i) {
    EXPECT_EQ(via_xmi[i], in_memory[i]) << "row " << i;
  }
}

TEST(BatchLanes, MetricsReportBatchWidthAndBatchedEvals) {
  const auto run = [](int batch_lanes) {
    BatchOptions options;
    options.threads = 1;
    options.batch_lanes = batch_lanes;
    options.backend = BackendKind::Analytic;
    options.collect_metrics = true;
    BatchRunner runner(options);
    const int index = runner.add_model_reference("@kernel6");
    runner.add_sweep(index, ScenarioGrid::parse("np=1..16 nodes=1,2"));
    return runner.run();
  };
  const BatchReport report = run(8);
  for (const auto& result : report.results) {
    ASSERT_TRUE(result.ok) << result.error;
  }
  // @kernel6 reads neither np nor the topology, so the first 8-lane
  // chunk walks once and the thread's walk serves the three chunks after
  // it: a 32nd of the VM evaluations of the same sweep at one lane, where
  // each job walks, with no lane falling back...
  const BatchReport scalar = run(1);
  EXPECT_GT(report.metrics.counter_value("expr.evals"), 0u);
  EXPECT_EQ(32 * report.metrics.counter_value("expr.evals"),
            scalar.metrics.counter_value("expr.evals"));
  EXPECT_EQ(32 * report.metrics.counter_value("expr.instructions"),
            scalar.metrics.counter_value("expr.instructions"));
  EXPECT_EQ(report.metrics.counter_value("analytic.walks_kept"), 3u);
  EXPECT_EQ(scalar.metrics.counter_value("analytic.walks_kept"), 0u);
  EXPECT_EQ(report.metrics.counter_value("batch.lanes_fallback"), 0u);
  // ...and the configured lane width is visible.
  EXPECT_EQ(report.metrics.gauge_value("expr.batch_width"), 8.0);
}

TEST(BatchLanes, AFailingAnalyticChunkGivesEachJobItsOwnError) {
  // @pingpong is defined for two ranks: np = 1 breaks the peer rule in
  // its walk, and np = 3 and 4 deadlock in the replay.  The last job is
  // invalid (nodes = 0) and is rejected while the chunk's walk inputs are
  // gathered, before any walk.  The engine raises one of these for the
  // whole 8-lane chunk; the sweep re-runs each lane as a chunk of one.
  const auto run = [](int batch_lanes) {
    BatchOptions options;
    options.threads = 1;
    options.batch_lanes = batch_lanes;
    options.backend = BackendKind::Analytic;
    options.collect_metrics = true;
    BatchRunner runner(options);
    const int index = runner.add_model_reference("@pingpong");
    for (int np = 1; np <= 4; ++np) {
      for (int nodes = 1; nodes <= 2; ++nodes) {
        prophet::machine::SystemParameters params;
        params.processes = np;
        params.nodes = np == 4 && nodes == 2 ? 0 : nodes;
        runner.add_scenario(index, params);
      }
    }
    return runner.run();
  };
  const auto engine_counters = [](const BatchReport& report) {
    const mini_json::Value doc = mini_json::parse(report.metrics.to_json());
    std::map<std::string, double> engine;
    for (const auto& [name, value] : doc.at("counters").object()) {
      if (name.rfind("analytic.", 0) == 0 || name.rfind("expr.", 0) == 0) {
        engine[name] = value.number();
      }
    }
    return engine;
  };
  const BatchReport scalar = run(1);
  const BatchReport batched = run(8);
  ASSERT_EQ(scalar.results.size(), 8u);
  ASSERT_EQ(batched.results.size(), scalar.results.size());
  std::set<std::string> errors;
  for (std::size_t i = 0; i < scalar.results.size(); ++i) {
    const auto& expected = scalar.results[i];
    const auto& result = batched.results[i];
    EXPECT_EQ(result.ok, expected.ok) << "job " << i;
    EXPECT_EQ(result.error, expected.error) << "job " << i;
    EXPECT_EQ(result.tripped_limit, expected.tripped_limit) << "job " << i;
    EXPECT_EQ(expected.ok, expected.params.processes == 2) << "job " << i;
    errors.insert(expected.error);
  }
  // A peer error, two deadlocks, the invalid job and no error at all.
  EXPECT_EQ(errors.size(), 5u);
  EXPECT_EQ(batched.metrics.counter_value("batch.lanes_fallback"), 8u);
  EXPECT_EQ(scalar.metrics.counter_value("batch.lanes_fallback"), 0u);
  const auto counters = engine_counters(scalar);
  ASSERT_GT(counters.count("analytic.runs"), 0u);
  EXPECT_EQ(engine_counters(batched), counters);
}

TEST(BatchLanes, PerJobLimitsDisableChunking) {
  // Per-job guard budgets need per-job attribution (tripped_limit per
  // lane), so active limits force the singleton path — and results stay
  // identical to an unlimited run when nothing trips.
  BatchOptions base;
  base.threads = 1;
  base.backend = BackendKind::Analytic;

  BatchOptions limited = base;
  limited.batch_lanes = 8;
  limited.limits.max_vm_instructions = 100000000;  // generous: never trips

  auto make_runner = [](const BatchOptions& options) {
    BatchRunner runner(options);
    const int index = runner.add_model_reference("@kernel6");
    runner.add_sweep(index, ScenarioGrid::parse("np=1..8"));
    return runner;
  };
  const BatchReport plain = make_runner(base).run();
  const BatchReport guarded = make_runner(limited).run();
  ASSERT_EQ(plain.results.size(), guarded.results.size());
  for (std::size_t i = 0; i < plain.results.size(); ++i) {
    EXPECT_EQ(plain.results[i].ok, guarded.results[i].ok);
    EXPECT_EQ(plain.results[i].predicted_time,
              guarded.results[i].predicted_time);
    EXPECT_TRUE(guarded.results[i].tripped_limit.empty());
  }
}

}  // namespace
