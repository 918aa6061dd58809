// AnalyticEstimator: closed-form predictions, loop collapsing,
// probability-weighted branches, replay semantics, and the backend
// adapters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "prophet/analytic/analytic.hpp"
#include "prophet/analytic/backend.hpp"
#include "prophet/cgen/backend.hpp"
#include "prophet/estimator/backend.hpp"
#include "prophet/obs/obs.hpp"
#include "prophet/prophet.hpp"
#include "prophet/uml/builder.hpp"
#include "same_finish.hpp"

namespace analytic = prophet::analytic;
namespace cgen = prophet::cgen;
namespace estimator = prophet::estimator;
namespace machine = prophet::machine;
namespace obs = prophet::obs;
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

/// Dyadic machine constants: every sum and quotient of a run is exact, so
/// the analytic replay and the simulator land on the same bits whatever
/// order they add in.
machine::SystemParameters dyadic_params(int np, int nodes) {
  machine::SystemParameters params = params_np(np, nodes);
  params.network_latency = 0.25;
  params.network_bandwidth = 1024;
  params.network_overhead = 0.0625;
  params.memory_latency = 0.125;
  params.memory_bandwidth = 2048;
  return params;
}

TEST(Replay, MatchesMessagesFifoPerTagLikeTheSimulator) {
  // p0 sends tag 1 and then tag 2 to p1; p1 receives tag 2 first, works
  // for a second, then receives tag 1.  A ledger that ignored tags would
  // hand p1's first receive the tag-1 message, which leaves earlier and
  // is smaller, and p1 would start its work sooner.
  uml::ModelBuilder mb("Tags");
  uml::DiagramBuilder main = mb.diagram("main");
  uml::NodeRef init = main.initial();
  uml::NodeRef rank = main.decision();
  uml::NodeRef first_work = main.action("FirstWork").cost("0.5");
  uml::NodeRef send_one = main.send("SendOne", "1", "256", 1);
  uml::NodeRef more_work = main.action("MoreWork").cost("0.25");
  uml::NodeRef send_two = main.send("SendTwo", "1", "4096", 2);
  uml::NodeRef recv_two = main.recv("RecvTwo", "0", "4096", 2);
  uml::NodeRef digest = main.action("Digest").cost("1");
  uml::NodeRef recv_one = main.recv("RecvOne", "0", "256", 1);
  uml::NodeRef join = main.merge();
  uml::NodeRef fin = main.final_node();
  main.flow(init, rank);
  main.flow(rank, first_work, "pid == 0");
  main.flow(rank, recv_two, "else");
  main.sequence({first_work, send_one, more_work, send_two, join});
  main.sequence({recv_two, digest, recv_one, join});
  main.flow(join, fin);
  const uml::Model model = std::move(mb).build();

  for (const int nodes : {1, 2}) {
    const auto params = dyadic_params(2, nodes);
    const auto sim = analytic::SimulationBackend().estimate(model, params);
    const auto replayed = analytic::AnalyticBackend().estimate(model, params);
    EXPECT_TRUE(prophet::testing::same_finish(replayed.per_process_finish,
                                              sim.per_process_finish))
        << "nodes=" << nodes;
    // p1 waits for the tag-2 message, which leaves p0 after 0.5 + 0.0625
    // + 0.25 + 0.0625 s, then works 1 s; the tag-1 message is there by
    // then.
    const double link = nodes == 1 ? 0.125 + 4096.0 / 2048
                                   : 0.25 + 4096.0 / 1024;
    EXPECT_EQ(replayed.per_process_finish.at(1), 0.875 + link + 1)
        << "nodes=" << nodes;
  }
}

TEST(Replay, ProcessThatNeverFinishesFailsTheJob) {
  // Each process computes 0.5 s, then receives from its successor, which
  // never sends: the simulator runs out of events with every process
  // still blocked, and the job fails naming them, in the simulator and
  // in the generated evaluator alike.  The analytic replay raises its
  // own deadlock.
  uml::ModelBuilder mb("Orphan");
  uml::DiagramBuilder main = mb.diagram("main");
  main.sequence({main.initial(), main.action("Work").cost("0.5"),
                 main.recv("Orphan", "(pid + 1) % np", "8"),
                 main.final_node()});
  const auto program = prophet::lower::lower(std::move(mb).build_unchecked());
  const analytic::SimulationBackend simulator;
  const prophet::cgen::CodegenBackend codegen;
  const analytic::AnalyticBackend analytic_engine;
  const auto error_of = [&](const prophet::estimator::Backend& backend,
                            int np) {
    try {
      (void)backend.prepare(program)->estimate(params_np(np, 1, np));
    } catch (const std::exception& error) {
      return std::string(error.what());
    }
    return std::string("no error");
  };
  for (const int np : {1, 2}) {
    const std::string expected =
        np == 1 ? "communication deadlock during simulation: p0 did not "
                  "finish;"
                : "communication deadlock during simulation: p0 did not "
                  "finish; p1 did not finish;";
    EXPECT_EQ(error_of(simulator, np), expected);
    EXPECT_EQ(error_of(codegen, np), expected);
    EXPECT_TRUE(error_of(analytic_engine, np)
                    .starts_with("communication deadlock during analytic "
                                 "replay"))
        << error_of(analytic_engine, np);
  }
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
  EXPECT_TRUE(prophet::testing::same_finish(second.per_process_finish,
                                            first.per_process_finish));
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
  // The seven spellings the CSV `backend` column and the host.<engine>.*
  // metric names use; each parses back to its selection.
  const std::vector<std::pair<BackendKind, std::string>> spellings = {
      {BackendKind::Simulation, "sim"},
      {BackendKind::Analytic, "analytic"},
      {BackendKind::Codegen, "codegen"},
      {BackendKind::Both, "both"},
      {BackendKind::SimCodegen, "sim+codegen"},
      {BackendKind::AnalyticCodegen, "analytic+codegen"},
      {BackendKind::All, "all"},
  };
  for (const auto& [kind, spelling] : spellings) {
    EXPECT_EQ(estimator::to_string(kind), spelling);
    EXPECT_EQ(estimator::backend_from_string(spelling), kind) << spelling;
  }
  EXPECT_EQ(estimator::backend_from_string("simulation"),
            BackendKind::Simulation);
  EXPECT_FALSE(estimator::backend_from_string("fem").has_value());
}

// Every selection as a set of engines, its reference first — the one
// list the pipeline, prophetc and the factory walk.
TEST(Backend, EnginesListTheReferenceFirst) {
  using enum estimator::BackendKind;
  const std::vector<std::pair<estimator::BackendKind,
                              std::vector<estimator::BackendKind>>>
      table = {
          {Simulation, {Simulation}},
          {Analytic, {Analytic}},
          {Codegen, {Codegen}},
          {Both, {Simulation, Analytic}},
          {SimCodegen, {Simulation, Codegen}},
          {AnalyticCodegen, {Codegen, Analytic}},
          {All, {Simulation, Analytic, Codegen}},
      };
  for (const auto& [selection, expected] : table) {
    const auto engines = estimator::engines(selection);
    EXPECT_EQ(std::vector(engines.begin(), engines.end()), expected)
        << estimator::to_string(selection);
  }
}

TEST(Backend, ParsesEveryOrderOfEverySubset) {
  using enum estimator::BackendKind;
  // Each non-empty subset of engines; every order of its names parses to
  // it.
  const std::vector<std::pair<std::vector<std::string>, estimator::BackendKind>>
      subsets = {
          {{"sim"}, Simulation},
          {{"analytic"}, Analytic},
          {{"codegen"}, Codegen},
          {{"analytic", "sim"}, Both},
          {{"codegen", "sim"}, SimCodegen},
          {{"analytic", "codegen"}, AnalyticCodegen},
          {{"analytic", "codegen", "sim"}, All},
      };
  for (auto [names, kind] : subsets) {
    do {
      std::string text;
      for (const auto& name : names) {
        text += (text.empty() ? "" : "+") + name;
      }
      EXPECT_EQ(estimator::backend_from_string(text), kind) << text;
    } while (std::next_permutation(names.begin(), names.end()));
  }
  EXPECT_EQ(estimator::backend_from_string("codegen+simulation"), SimCodegen);
  for (const char* bad :
       {"", "sim+", "+sim", "sim++analytic", "sim+sim", "sim+simulation",
        "fem", "both+codegen", "Sim"}) {
    EXPECT_FALSE(estimator::backend_from_string(bad).has_value()) << bad;
  }
}

TEST(Backend, RelativeErrorRule) {
  EXPECT_EQ(estimator::relative_error(1.0, 0.0),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(estimator::relative_error(0.0, 0.0), 0.0);
  EXPECT_EQ(estimator::relative_error(1.5, 1.0), 0.5);
  EXPECT_EQ(estimator::relative_error(0.5, 1.0), 0.5);
}

TEST(Backend, FactoryBuildsEngines) {
  const auto sim = cgen::make_backend(estimator::BackendKind::Simulation);
  EXPECT_NE(dynamic_cast<const analytic::SimulationBackend*>(sim.get()),
            nullptr);
  const auto an = cgen::make_backend(estimator::BackendKind::Analytic);
  EXPECT_NE(dynamic_cast<const analytic::AnalyticBackend*>(an.get()),
            nullptr);
  EXPECT_THROW((void)cgen::make_backend(estimator::BackendKind::Both),
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
  EXPECT_TRUE(prophet::testing::same_finish(via_backend.per_process_finish,
                                            via_facade.per_process_finish));
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
    const auto backend = cgen::make_backend(kind);
    const auto prepared = backend->prepare(model);
    for (const auto& params : grid) {
      const auto via_prepared = prepared->estimate(params);
      const auto one_shot = backend->estimate(model, params);
      // The contract: bit-identical to the one-shot path.
      EXPECT_EQ(via_prepared.predicted_time, one_shot.predicted_time);
      EXPECT_EQ(via_prepared.events, one_shot.events);
      EXPECT_TRUE(prophet::testing::same_finish(via_prepared.per_process_finish,
                                                one_shot.per_process_finish));
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

// One prepared handle, many threads: estimate() and estimate_batch() must
// be deterministic under concurrency (the batch pipeline's worker pool
// leans on this).  Each thread's batches are 8-lane chunks whose np
// spans two chunks, so every thread keeps its analytic walks from chunk
// to chunk in its own workspace.  The assertions check result identity;
// the sanitizer CI job adds ASan/UBSan memory-error coverage, and the
// TSan CI job runs this test, so a data race fails it there.
TEST(Backend, PreparedEstimateIsThreadSafeUnderConcurrentCalls) {
  const uml::Model model = prophet::models::kernel6_model(64, 16, 1e-8);
  const std::vector<machine::SystemParameters> grid = {
      params_np(1), params_np(2), params_np(4, 2, 2), params_np(8, 2, 4)};
  // np = 4 and 8, each over nodes = 1..4 x ppn = 1..4: four chunks.
  constexpr std::size_t kLanes = 8;
  std::vector<machine::SystemParameters> chunked;
  for (const int np : {4, 8}) {
    for (int nodes = 1; nodes <= 4; ++nodes) {
      for (int ppn = 1; ppn <= 4; ++ppn) {
        chunked.push_back(params_np(np, nodes, ppn));
      }
    }
  }
  for (const estimator::BackendKind kind :
       {estimator::BackendKind::Simulation, estimator::BackendKind::Analytic}) {
    const auto prepared = cgen::make_backend(kind)->prepare(model);
    std::vector<double> expected;
    for (const auto& params : grid) {
      expected.push_back(prepared->estimate(params).predicted_time);
    }
    for (const auto& params : chunked) {
      expected.push_back(prepared->estimate(params).predicted_time);
    }

    constexpr int kThreads = 4;
    constexpr int kRounds = 8;
    std::vector<std::vector<double>> seen(kThreads);
    std::vector<obs::Registry> metrics(kThreads);
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        std::vector<double>& mine = seen[static_cast<std::size_t>(t)];
        estimator::EstimationOptions options;
        options.metrics = &metrics[static_cast<std::size_t>(t)];
        for (int round = 0; round < kRounds; ++round) {
          for (const auto& params : grid) {
            mine.push_back(prepared->estimate(params).predicted_time);
          }
          for (std::size_t begin = 0; begin < chunked.size();
               begin += kLanes) {
            for (const auto& report : prepared->estimate_batch(
                     std::span(chunked).subspan(begin, kLanes), options)) {
              mine.push_back(report.predicted_time);
            }
          }
        }
      });
    }
    for (auto& thread : pool) {
      thread.join();
    }
    for (int t = 0; t < kThreads; ++t) {
      // kernel6 walks one input for every lane: after each round's
      // estimate() calls, the first chunk walks and the other three are
      // served from its walk.
      EXPECT_EQ(metrics[static_cast<std::size_t>(t)].counter_value(
                    "analytic.walks_kept"),
                kind == estimator::BackendKind::Analytic ? 3u * kRounds : 0u)
          << "thread " << t;
      ASSERT_EQ(seen[static_cast<std::size_t>(t)].size(),
                expected.size() * kRounds);
      for (std::size_t i = 0; i < seen[static_cast<std::size_t>(t)].size();
           ++i) {
        EXPECT_EQ(seen[static_cast<std::size_t>(t)][i],
                  expected[i % expected.size()])
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
