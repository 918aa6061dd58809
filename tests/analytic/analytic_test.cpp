// AnalyticEstimator: closed-form predictions, loop collapsing,
// probability-weighted branches, replay semantics, and the backend
// adapters.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "prophet/analytic/analytic.hpp"
#include "prophet/analytic/backend.hpp"
#include "prophet/estimator/backend.hpp"
#include "prophet/prophet.hpp"
#include "prophet/uml/builder.hpp"

namespace analytic = prophet::analytic;
namespace estimator = prophet::estimator;
namespace machine = prophet::machine;
namespace uml = prophet::uml;

namespace {

machine::SystemParameters params_np(int np, int nodes = 1, int ppn = 1) {
  machine::SystemParameters params;
  params.processes = np;
  params.nodes = nodes;
  params.processors_per_node = ppn;
  return params;
}

TEST(AnalyticEstimator, Kernel6MatchesClosedForm) {
  const analytic::AnalyticEstimator analyzer(
      prophet::models::kernel6_model(64, 16, 1e-8));
  const auto report = analyzer.evaluate(params_np(1));
  // FK6 = M * (N*(N-1)/2) * c.
  const double expected = 16.0 * (64.0 * 63.0 / 2.0) * 1e-8;
  EXPECT_NEAR(report.predicted_time, expected, expected * 1e-12);
  EXPECT_EQ(report.processes, 1);
  ASSERT_EQ(report.node_loads.size(), 1u);
  EXPECT_NEAR(report.node_loads[0].utilization, 1.0, 1e-9);
}

TEST(AnalyticEstimator, ContendedNodeSerializesDemand) {
  const analytic::AnalyticEstimator analyzer(
      prophet::models::kernel6_model(64, 16, 1e-8));
  const double one = 16.0 * (64.0 * 63.0 / 2.0) * 1e-8;
  // 8 SPMD processes on one 1-processor node serialize completely.
  const auto contended = analyzer.evaluate(params_np(8, 1, 1));
  EXPECT_NEAR(contended.predicted_time, 8 * one, 8 * one * 1e-12);
  // With 8 processors they run fully in parallel.
  const auto parallel = analyzer.evaluate(params_np(8, 1, 8));
  EXPECT_NEAR(parallel.predicted_time, one, one * 1e-12);
  // Spread over 2 nodes with 4 processors each: still fully parallel.
  const auto spread = analyzer.evaluate(params_np(8, 2, 4));
  EXPECT_NEAR(spread.predicted_time, one, one * 1e-12);
}

TEST(AnalyticEstimator, CpuSpeedScalesCompute) {
  const analytic::AnalyticEstimator analyzer(
      prophet::models::kernel6_model(64, 16, 1e-8));
  auto params = params_np(1);
  params.cpu_speed = 2.0;
  const double expected = 16.0 * (64.0 * 63.0 / 2.0) * 1e-8 / 2.0;
  EXPECT_NEAR(analyzer.evaluate(params).predicted_time, expected,
              expected * 1e-12);
}

TEST(AnalyticEstimator, DetailedKernel6CollapsesLoops) {
  const analytic::AnalyticEstimator analyzer(
      prophet::models::kernel6_detailed_model(64, 16, 1e-8));
  const auto report = analyzer.evaluate(params_np(1));
  const double expected = 16.0 * (64.0 * 63.0 / 2.0) * 1e-8;
  EXPECT_NEAR(report.predicted_time, expected, expected * 1e-9);
  // The L loop (16 iterations) and every k loop collapse after their
  // first iteration; only the i loop (trip count feeds the k loop) is
  // iterated.  A full walk would visit ~16 * 2016 * 3 elements.
  EXPECT_LT(report.evaluated_elements, 2000u);
}

TEST(AnalyticEstimator, SampleModelSumsPerProcessDemand) {
  const analytic::AnalyticEstimator analyzer(prophet::models::sample_model());
  // Per process: A1 + SA1 + SA2(pid) + A4
  //   A1 = 1e-6*16*16 + 0.001 = 0.001256, SA1 = 0.0016, A4 = 0.002,
  //   SA2(pid) = 0.0005*pid + 0.001.
  const auto common = 0.001256 + 0.0016 + 0.002;
  const auto uncontended = analyzer.evaluate(params_np(4, 1, 4));
  ASSERT_EQ(uncontended.per_process_finish.size(), 4u);
  for (int pid = 0; pid < 4; ++pid) {
    const double expected = common + 0.001 + 0.0005 * pid;
    EXPECT_NEAR(uncontended.per_process_finish.at(pid), expected, 1e-12)
        << "pid " << pid;
  }
  // One shared processor: the node serializes the summed demand.
  const auto contended = analyzer.evaluate(params_np(4, 1, 1));
  const double total = 4 * (common + 0.001) + 0.0005 * (0 + 1 + 2 + 3);
  EXPECT_NEAR(contended.predicted_time, total, 1e-12);
}

TEST(AnalyticEstimator, PingPongReplaysMessageTimeline) {
  const analytic::AnalyticEstimator analyzer(
      prophet::models::pingpong_model(1024, 8));
  const auto params = params_np(2);
  const auto report = analyzer.evaluate(params);
  // Per round: two sends (overhead each) and two transfers, strictly
  // serialized by the request-reply dependency.
  const double transfer =
      params.memory_latency + 1024.0 / params.memory_bandwidth;
  const double round = 2 * params.network_overhead + 2 * transfer;
  EXPECT_NEAR(report.predicted_time, 8 * round, 8 * round * 1e-9);
  // Rank 1's last send completes one transfer before rank 0 finishes.
  EXPECT_NEAR(report.per_process_finish.at(0) -
                  report.per_process_finish.at(1),
              transfer, transfer * 1e-6);
}

TEST(AnalyticEstimator, LongPingPongMatchesTheSimulator) {
  // 200,000 rounds walk the loop body 200,000 times.  The step limit
  // counts one diagram walk, as the simulator's does, so the analytic
  // walk runs to the end and replays the simulator's timeline exactly.
  const uml::Model model = prophet::models::pingpong_model(1024, 200000);
  const auto params = params_np(2);
  const auto simulated = analytic::SimulationBackend().estimate(model, params);
  EXPECT_EQ(analytic::AnalyticEstimator(model).evaluate(params).predicted_time,
            simulated.predicted_time);
}

TEST(AnalyticEstimator, ProbabilisticDecisionTakesExpectation) {
  uml::ModelBuilder mb("Prob");
  uml::DiagramBuilder main = mb.diagram("main");
  uml::NodeRef init = main.initial();
  uml::NodeRef decision = main.decision();
  uml::NodeRef cheap = main.action("Cheap").cost("0.002");
  uml::NodeRef dear = main.action("Dear").cost("0.004");
  uml::NodeRef merge = main.merge();
  uml::NodeRef tail = main.action("Tail").cost("0.001");
  uml::NodeRef fin = main.final_node();
  main.flow(init, decision);
  main.flow(decision, cheap, "GV > 0")
      .set_tag(uml::tag::kProb, uml::TagValue(0.25));
  main.flow(decision, dear, "else");
  main.flow(cheap, merge);
  main.flow(dear, merge);
  main.flow(merge, tail);
  main.flow(tail, fin);
  mb.global("GV", uml::VariableType::Real, "1");

  const analytic::AnalyticEstimator analyzer(std::move(mb).build());
  const auto report = analyzer.evaluate(params_np(1));
  // E[branch] = 0.25 * 0.002 + 0.75 * 0.004, plus the tail.
  EXPECT_NEAR(report.predicted_time, 0.25 * 0.002 + 0.75 * 0.004 + 0.001,
              1e-12);
}

TEST(AnalyticEstimator, ProbabilisticBranchMayNestConcreteDecisions) {
  // A prob-weighted branch containing an ordinary guarded if/else that
  // reconverges at its own merge: the inner merge must not be mistaken
  // for the probabilistic branch's reconvergence point.
  uml::ModelBuilder mb("NestedProb");
  mb.global("GV", uml::VariableType::Real, "1");
  uml::DiagramBuilder main = mb.diagram("main");
  uml::NodeRef init = main.initial();
  uml::NodeRef outer = main.decision("Outer");
  uml::NodeRef inner = main.decision("Inner");
  uml::NodeRef inner_yes = main.action("InnerYes").cost("0.002");
  uml::NodeRef inner_no = main.action("InnerNo").cost("0.006");
  uml::NodeRef inner_merge = main.merge();
  uml::NodeRef other = main.action("Other").cost("0.010");
  uml::NodeRef outer_merge = main.merge();
  uml::NodeRef fin = main.final_node();
  main.flow(init, outer);
  main.flow(outer, inner, "GV > 0")
      .set_tag(uml::tag::kProb, uml::TagValue(0.5));
  main.flow(outer, other, "else");
  main.flow(inner, inner_yes, "GV > 0");
  main.flow(inner, inner_no, "else");
  main.flow(inner_yes, inner_merge);
  main.flow(inner_no, inner_merge);
  main.flow(inner_merge, outer_merge);
  main.flow(other, outer_merge);
  main.flow(outer_merge, fin);

  const analytic::AnalyticEstimator analyzer(std::move(mb).build());
  const auto report = analyzer.evaluate(params_np(1));
  // Inner decision resolves concretely (GV > 0 -> 0.002); expectation is
  // over the outer branches only: 0.5 * 0.002 + 0.5 * 0.010.
  EXPECT_NEAR(report.predicted_time, 0.5 * 0.002 + 0.5 * 0.010, 1e-12);
}

TEST(AnalyticEstimator, ReceiveWithoutSenderIsDeadlock) {
  uml::ModelBuilder mb("Deadlock");
  uml::DiagramBuilder main = mb.diagram("main");
  uml::NodeRef init = main.initial();
  uml::NodeRef orphan = main.recv("Orphan", "np - 1 - pid", "8");
  uml::NodeRef fin = main.final_node();
  main.sequence({init, orphan, fin});
  // build_unchecked: the builder's own lint would reject the orphan recv.
  const analytic::AnalyticEstimator analyzer(std::move(mb).build_unchecked());
  // With one process the receive can never be matched.
  EXPECT_THROW((void)analyzer.evaluate(params_np(1)),
               analytic::AnalyticError);
}

TEST(AnalyticEstimator, CommunicationInsideRegionIsRejected) {
  uml::ModelBuilder mb("RegionComm");
  uml::DiagramBuilder body = mb.diagram("body");
  {
    uml::NodeRef init = body.initial();
    uml::NodeRef send = body.send("Leak", "0", "8");
    uml::NodeRef fin = body.final_node();
    body.sequence({init, send, fin});
  }
  uml::DiagramBuilder main = mb.diagram("main");
  uml::NodeRef init = main.initial();
  uml::NodeRef region = main.omp_parallel("Region", body, "2");
  uml::NodeRef fin = main.final_node();
  main.sequence({init, region, fin});
  // build_unchecked: the builder's own lint would reject the lone send.
  uml::Model model = std::move(mb).build_unchecked();
  model.set_main_diagram(main.id());

  const analytic::AnalyticEstimator analyzer(std::move(model));
  EXPECT_THROW((void)analyzer.evaluate(params_np(2)), analytic::AnalyticError);
}

TEST(AnalyticEstimator, ParallelRegionUsesThreadMaximum) {
  uml::ModelBuilder mb("Region");
  uml::DiagramBuilder body = mb.diagram("body");
  {
    uml::NodeRef init = body.initial();
    // tid-dependent cost: thread t works (t+1) ms.
    uml::NodeRef work = body.action("Work").cost("0.001 * (tid + 1)");
    uml::NodeRef fin = body.final_node();
    body.sequence({init, work, fin});
  }
  uml::DiagramBuilder main = mb.diagram("main");
  uml::NodeRef init = main.initial();
  uml::NodeRef region = main.omp_parallel("Region", body, "4");
  uml::NodeRef fin = main.final_node();
  main.sequence({init, region, fin});
  uml::Model model = std::move(mb).build();
  model.set_main_diagram(main.id());

  const analytic::AnalyticEstimator analyzer(std::move(model));
  // Plenty of processors: region ends with its slowest thread (4 ms).
  EXPECT_NEAR(analyzer.evaluate(params_np(1, 1, 8)).predicted_time, 0.004,
              1e-12);
  // One processor: all thread demand (1+2+3+4 ms) serializes.
  EXPECT_NEAR(analyzer.evaluate(params_np(1, 1, 1)).predicted_time, 0.010,
              1e-12);
}

TEST(AnalyticEstimator, EvaluateIsDeterministicAndReentrant) {
  const analytic::AnalyticEstimator analyzer(prophet::models::sample_model());
  const auto first = analyzer.evaluate(params_np(4));
  const auto second = analyzer.evaluate(params_np(4));
  EXPECT_EQ(first.predicted_time, second.predicted_time);
  EXPECT_EQ(first.per_process_finish, second.per_process_finish);
  EXPECT_EQ(first.evaluated_elements, second.evaluated_elements);
}

TEST(AnalyticEstimator, RejectsUnparseableModels) {
  uml::ModelBuilder mb("Broken");
  uml::DiagramBuilder main = mb.diagram("main");
  uml::NodeRef init = main.initial();
  uml::NodeRef bad = main.action("Bad").cost("1 + ");
  uml::NodeRef fin = main.final_node();
  main.sequence({init, bad, fin});
  uml::Model model = std::move(mb).build();
  EXPECT_THROW(analytic::AnalyticEstimator{std::move(model)},
               analytic::AnalyticError);
}

// --- Backend abstraction -----------------------------------------------------

TEST(Backend, KindParsesAndPrints) {
  using estimator::BackendKind;
  EXPECT_EQ(estimator::backend_from_string("sim"), BackendKind::Simulation);
  EXPECT_EQ(estimator::backend_from_string("simulation"),
            BackendKind::Simulation);
  EXPECT_EQ(estimator::backend_from_string("analytic"),
            BackendKind::Analytic);
  EXPECT_EQ(estimator::backend_from_string("both"), BackendKind::Both);
  EXPECT_FALSE(estimator::backend_from_string("fem").has_value());
  EXPECT_EQ(estimator::to_string(BackendKind::Simulation), "sim");
  EXPECT_EQ(estimator::to_string(BackendKind::Analytic), "analytic");
  EXPECT_EQ(estimator::to_string(BackendKind::Both), "both");
}

TEST(Backend, FactoryBuildsEngines) {
  const auto sim = analytic::make_backend(estimator::BackendKind::Simulation);
  EXPECT_EQ(sim->name(), "sim");
  const auto an = analytic::make_backend(estimator::BackendKind::Analytic);
  EXPECT_EQ(an->name(), "analytic");
  EXPECT_THROW((void)analytic::make_backend(estimator::BackendKind::Both),
               std::invalid_argument);
}

TEST(Backend, SimulationBackendMatchesProphetEstimate) {
  const uml::Model model = prophet::models::sample_model();
  const auto params = params_np(2);
  const auto via_backend =
      analytic::SimulationBackend().estimate(model, params);
  const auto via_facade =
      prophet::Prophet(prophet::models::sample_model()).estimate(params);
  EXPECT_EQ(via_backend.predicted_time, via_facade.predicted_time);
  EXPECT_EQ(via_backend.per_process_finish, via_facade.per_process_finish);
}

TEST(Backend, AnalyticBackendMatchesEstimator) {
  const uml::Model model = prophet::models::kernel6_model(64, 16, 1e-8);
  const auto params = params_np(4);
  const auto via_backend = analytic::AnalyticBackend().estimate(model, params);
  const analytic::AnalyticEstimator analyzer(
      prophet::models::kernel6_model(64, 16, 1e-8));
  const auto direct = analyzer.evaluate(params);
  EXPECT_EQ(via_backend.predicted_time, direct.predicted_time);
  EXPECT_EQ(via_backend.processes, direct.processes);
  EXPECT_EQ(via_backend.events, 0u);
  EXPECT_FALSE(via_backend.machine_report.empty());
}

// --- PreparedModel (prepare-once/evaluate-many) ------------------------------

TEST(Backend, PrepareOnceMatchesOneShotEstimate) {
  const uml::Model model = prophet::models::kernel6_model(64, 16, 1e-8);
  const auto grid = {params_np(1), params_np(2), params_np(4, 2, 2)};
  for (const estimator::BackendKind kind :
       {estimator::BackendKind::Simulation, estimator::BackendKind::Analytic}) {
    const auto backend = analytic::make_backend(kind);
    const auto prepared = backend->prepare(model);
    EXPECT_EQ(prepared->backend_name(), backend->name());
    for (const auto& params : grid) {
      const auto via_prepared = prepared->estimate(params);
      const auto one_shot = backend->estimate(model, params);
      // The contract: bit-identical to the one-shot path.
      EXPECT_EQ(via_prepared.predicted_time, one_shot.predicted_time);
      EXPECT_EQ(via_prepared.events, one_shot.events);
      EXPECT_EQ(via_prepared.per_process_finish, one_shot.per_process_finish);
    }
  }
}

TEST(Backend, PreparedEstimateSkipsMachineReportOnRequest) {
  const uml::Model model = prophet::models::sample_model();
  const auto prepared = analytic::AnalyticBackend().prepare(model);
  estimator::EstimationOptions lean;
  lean.collect_trace = false;
  lean.collect_machine_report = false;
  EXPECT_TRUE(prepared->estimate(params_np(2), lean).machine_report.empty());
  EXPECT_FALSE(prepared->estimate(params_np(2)).machine_report.empty());
  // Skipping the report never changes the prediction.
  EXPECT_EQ(prepared->estimate(params_np(2), lean).predicted_time,
            prepared->estimate(params_np(2)).predicted_time);
}

// One prepared handle, many threads: estimate() must be deterministic
// under concurrency (the batch pipeline's worker pool leans on this).
// The assertions check result identity; the sanitizer CI job adds
// ASan/UBSan memory-error coverage.  Note neither detects data races —
// race-freedom rests on the PreparedModel design (no mutable shared
// state), not on this test alone.
TEST(Backend, PreparedEstimateIsThreadSafeUnderConcurrentCalls) {
  const uml::Model model = prophet::models::kernel6_model(64, 16, 1e-8);
  const std::vector<machine::SystemParameters> grid = {
      params_np(1), params_np(2), params_np(4, 2, 2), params_np(8, 2, 4)};
  for (const estimator::BackendKind kind :
       {estimator::BackendKind::Simulation, estimator::BackendKind::Analytic}) {
    const auto prepared = analytic::make_backend(kind)->prepare(model);
    std::vector<double> expected;
    expected.reserve(grid.size());
    for (const auto& params : grid) {
      expected.push_back(prepared->estimate(params).predicted_time);
    }

    constexpr int kThreads = 4;
    constexpr int kRounds = 8;
    std::vector<std::vector<double>> seen(kThreads);
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        for (int round = 0; round < kRounds; ++round) {
          for (const auto& params : grid) {
            seen[static_cast<std::size_t>(t)].push_back(
                prepared->estimate(params).predicted_time);
          }
        }
      });
    }
    for (auto& thread : pool) {
      thread.join();
    }
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_EQ(seen[static_cast<std::size_t>(t)].size(),
                grid.size() * kRounds);
      for (std::size_t i = 0; i < seen[static_cast<std::size_t>(t)].size();
           ++i) {
        EXPECT_EQ(seen[static_cast<std::size_t>(t)][i],
                  expected[i % grid.size()])
            << "backend " << estimator::to_string(kind) << ", thread " << t;
      }
    }
  }
}

// Unparseable expressions surface at prepare(), not at estimate() — the
// batch pipeline relies on this to fail a model's jobs up front.
TEST(Backend, PrepareThrowsOnUnparseableModel) {
  uml::ModelBuilder mb("bad");
  uml::DiagramBuilder main = mb.diagram("main");
  uml::NodeRef init = main.initial();
  uml::NodeRef bad = main.action("Bad").cost("1 + ");
  uml::NodeRef fin = main.final_node();
  main.sequence({init, bad, fin});
  const uml::Model model = std::move(mb).build();
  EXPECT_ANY_THROW((void)analytic::SimulationBackend().prepare(model));
  EXPECT_ANY_THROW((void)analytic::AnalyticBackend().prepare(model));
}

}  // namespace
