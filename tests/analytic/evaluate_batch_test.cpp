// AnalyticEstimator::evaluate_batch and the estimate_batch backend
// contract: batched evaluation must be bit-identical to the scalar loop
// (reports, per-process finish times, replayed-element counts), walk
// pid-dependent models one pid at a time across each run of consecutive
// lanes of equal np, leave a lane with no neighbour of its np to the
// scalar walk, fall back cleanly when lanes diverge at run time, and
// count every lane that fell back.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "prophet/analytic/analytic.hpp"
#include "prophet/analytic/backend.hpp"
#include "prophet/estimator/backend.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/obs/obs.hpp"
#include "prophet/prophet.hpp"
#include "prophet/uml/builder.hpp"
#include "same_finish.hpp"

namespace analytic = prophet::analytic;
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

std::vector<machine::SystemParameters> lane_grid() {
  std::vector<machine::SystemParameters> lanes;
  for (const int np : {1, 2, 4, 8}) {
    for (const int nodes : {1, 2}) {
      lanes.push_back(params_np(np, nodes, 2));
    }
  }
  return lanes;
}

void expect_reports_identical(const analytic::AnalyticReport& a,
                              const analytic::AnalyticReport& b) {
  // Bit-exact, not approximately equal.
  EXPECT_EQ(a.predicted_time, b.predicted_time);
  EXPECT_EQ(a.processes, b.processes);
  EXPECT_EQ(a.evaluated_elements, b.evaluated_elements);
  EXPECT_TRUE(prophet::testing::same_finish(a.per_process_finish,
                                            b.per_process_finish));
  ASSERT_EQ(a.node_loads.size(), b.node_loads.size());
  for (std::size_t i = 0; i < a.node_loads.size(); ++i) {
    EXPECT_EQ(a.node_loads[i].utilization, b.node_loads[i].utilization) << i;
  }
}

TEST(AnalyticBatch, MatchesScalarLoopBitExactly) {
  const analytic::AnalyticEstimator analyzer(
      prophet::models::kernel6_model(64, 16, 1e-8));
  const auto lanes = lane_grid();
  const auto batched = analyzer.evaluate_batch(lanes);
  ASSERT_EQ(batched.size(), lanes.size());
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    expect_reports_identical(batched[lane], analyzer.evaluate(lanes[lane]));
  }
}

TEST(AnalyticBatch, SpmdFastPathTakesOneBatchedWalk) {
  const analytic::AnalyticEstimator analyzer(
      prophet::models::kernel6_model(64, 16, 1e-8));
  const auto lanes = lane_grid();
  obs::AnalyticCounters counters;
  std::size_t lanes_fallback = 0;
  const auto batched =
      analyzer.evaluate_batch(lanes, &counters, nullptr, &lanes_fallback);
  ASSERT_EQ(batched.size(), lanes.size());
  EXPECT_EQ(lanes_fallback, 0u);
  // Every lane finalized through the shared batched walk.
  EXPECT_EQ(counters.spmd_fast_path, lanes.size());
  EXPECT_GT(counters.expr.batch_evals, 0u);
}

// --- Batched walks against the scalar loop ----------------------------------

/// Batches `lanes`, expects every report bit-exact against evaluate(),
/// and returns how many lanes the scalar walk served.
std::size_t batch_against_scalar(
    const analytic::AnalyticEstimator& analyzer,
    const std::vector<machine::SystemParameters>& lanes,
    obs::AnalyticCounters* counters = nullptr) {
  std::size_t lanes_fallback = 0;
  const auto batched =
      analyzer.evaluate_batch(lanes, counters, nullptr, &lanes_fallback);
  EXPECT_EQ(batched.size(), lanes.size());
  for (std::size_t lane = 0; lane < batched.size() && lane < lanes.size();
       ++lane) {
    expect_reports_identical(batched[lane], analyzer.evaluate(lanes[lane]));
  }
  return lanes_fallback;
}

/// main: init -> decision -[guard]-> Big | -[else]-> Small -> merge.  A
/// `prob` on the guarded edge makes the decision probability-weighted.
uml::Model branch_model(const std::string& guard, double prob = -1) {
  uml::ModelBuilder mb("Branch");
  uml::DiagramBuilder main = mb.diagram("main");
  const uml::NodeRef init = main.initial();
  const uml::NodeRef decision = main.decision();
  const uml::NodeRef big = main.action("Big").cost("0.002 * np");
  const uml::NodeRef small = main.action("Small").cost("0.001 * nn");
  const uml::NodeRef merge = main.merge();
  const uml::NodeRef fin = main.final_node();
  main.flow(init, decision);
  uml::EdgeRef guarded = main.flow(decision, big, guard);
  if (prob >= 0) {
    guarded.prob(prob);
  }
  main.flow(decision, small, "else");
  main.flow(big, merge);
  main.flow(small, merge);
  main.flow(merge, fin);
  return std::move(mb).build();
}

/// main: init -> <<loop+>> (iterations = np, trip variable i) over one
/// action costing `body_cost`.
uml::Model loop_model(const std::string& body_cost) {
  uml::ModelBuilder mb("Loop");
  uml::DiagramBuilder main = mb.diagram("main");
  uml::DiagramBuilder body = mb.diagram("body");
  body.sequence({body.initial(), body.action("Work").cost(body_cost),
                 body.final_node()});
  main.sequence(
      {main.initial(), main.loop("Trips", body, "np", "i"), main.final_node()});
  return std::move(mb).build();
}

/// main: init -> fork -> (A | B) -> join.
uml::Model fork_model() {
  uml::ModelBuilder mb("Fork");
  uml::DiagramBuilder main = mb.diagram("main");
  const uml::NodeRef init = main.initial();
  const uml::NodeRef fork = main.fork();
  const uml::NodeRef a = main.action("A").cost("0.001 * np");
  const uml::NodeRef b = main.action("B").cost("0.003 / nn");
  const uml::NodeRef join = main.join();
  const uml::NodeRef fin = main.final_node();
  main.flow(init, fork);
  main.flow(fork, a);
  main.flow(fork, b);
  main.flow(a, join);
  main.flow(b, join);
  main.flow(join, fin);
  return std::move(mb).build();
}

/// main: init -> <<ompparallel>> (num_threads = nt) over a worksharing
/// loop and an action costing `work_cost`.
uml::Model region_model(const std::string& work_cost) {
  uml::ModelBuilder mb("Region");
  uml::DiagramBuilder main = mb.diagram("main");
  uml::DiagramBuilder body = mb.diagram("body");
  body.sequence({body.initial(), body.omp_for("For", "64 * np", "0.0001"),
                 body.action("Work").cost(work_cost), body.final_node()});
  main.sequence({main.initial(), main.omp_parallel("Region", body, "nt"),
                 main.final_node()});
  return std::move(mb).build();
}

/// main: init -> <<loop+>> (iterations = np) over an <<ompcritical>>
/// body: the lock-held demand scales with each lane's trip count.
uml::Model critical_model() {
  uml::ModelBuilder mb("Critical");
  uml::DiagramBuilder main = mb.diagram("main");
  uml::DiagramBuilder trip = mb.diagram("trip");
  uml::DiagramBuilder locked = mb.diagram("locked");
  locked.sequence({locked.initial(), locked.action("Update").cost("0.001 * nn"),
                   locked.final_node()});
  trip.sequence({trip.initial(), trip.omp_critical("Lock", locked),
                 trip.action("Free").cost("0.002"), trip.final_node()});
  main.sequence(
      {main.initial(), main.loop("Trips", trip, "np", "i"), main.final_node()});
  return std::move(mb).build();
}

TEST(AnalyticBatch, RuntimeDivergenceFallsBackPerLane) {
  // Eligible models whose lanes stop sharing one walk at run time: the
  // batched walk is abandoned and every lane re-runs through the scalar
  // walk, bit-exact.
  const auto lanes = lane_grid();
  // np > 2 holds on some lanes only: the lanes branch apart.
  EXPECT_EQ(batch_against_scalar(
                analytic::AnalyticEstimator(branch_model("np > 2")), lanes),
            lanes.size());
  // Trip counts vary with np and the body reads its trip variable: the
  // loop cannot collapse, and per-trip replay needs one shared count.
  EXPECT_EQ(batch_against_scalar(
                analytic::AnalyticEstimator(loop_model("0.001 * (i + 1)")),
                lanes),
            lanes.size());
  // The same trip counts over a body that ignores i collapse per lane.
  EXPECT_EQ(batch_against_scalar(
                analytic::AnalyticEstimator(loop_model("0.001 * nn")), lanes),
            0u);
}

TEST(AnalyticBatch, ForksRegionsCriticalsAndProbBranchesBatch) {
  const auto lanes = lane_grid();
  auto threaded = lanes;
  for (auto& params : threaded) {
    params.threads_per_process = 3;
  }
  const auto expect_batched = [](const char* name, uml::Model model,
                                 const std::vector<machine::SystemParameters>&
                                     model_lanes) {
    const analytic::AnalyticEstimator analyzer(std::move(model));
    obs::AnalyticCounters counters;
    EXPECT_EQ(batch_against_scalar(analyzer, model_lanes, &counters), 0u)
        << name;
    EXPECT_GT(counters.expr.batch_evals, 0u) << name;
  };
  expect_batched("fork", fork_model(), lanes);
  expect_batched("region", region_model("0.001 * nn"), threaded);
  expect_batched("critical", critical_model(), lanes);
  expect_batched("prob", branch_model("np > 2", 0.25), lanes);

  // A region whose cost reads tid walks each pid across its np group.
  expect_batched("tid region", region_model("0.001 * (tid + 1)"), threaded);
}

// --- Models that read pid/tid or run code fragments --------------------------

analytic::AnalyticEstimator random_estimator() {
  return analytic::AnalyticEstimator(
      prophet::models::Registry::builtin().make("@random"));
}

TEST(AnalyticBatch, PidDependentModelsBatchOnePidAtATime) {
  // The random workload reads pid in its costs and guards and runs code
  // fragments that write a global a guard reads.  Lanes that share np
  // walk each pid once across the group, in pid order over each lane's
  // own globals: no lane falls back, the vectorized VM runs, and every
  // report is the scalar walk's.
  const analytic::AnalyticEstimator analyzer = random_estimator();
  std::vector<machine::SystemParameters> lanes;
  for (const int nodes : {1, 2, 3, 4}) {
    for (const int ppn : {1, 2}) {
      lanes.push_back(params_np(3, nodes, ppn));
    }
  }
  obs::AnalyticCounters counters;
  EXPECT_EQ(batch_against_scalar(analyzer, lanes, &counters), 0u);
  EXPECT_GT(counters.expr.batch_evals, 0u);
  EXPECT_EQ(counters.spmd_fast_path, 0u);  // every pid was walked
}

TEST(AnalyticBatch, LanesOfEqualNpBatchTogether) {
  // np = 1, 2, 2, 3, 3, 3, 8: the runs of np = 2 and np = 3 lanes batch
  // as two groups, and np = 1 and np = 8 take the scalar walk without
  // counting as fallbacks.  The counters are those of the groups and the lone
  // lanes evaluated on their own.
  const analytic::AnalyticEstimator analyzer = random_estimator();
  std::vector<machine::SystemParameters> lanes;
  int nodes = 0;
  for (const int np : {1, 2, 2, 3, 3, 3, 8}) {
    lanes.push_back(params_np(np, 1 + nodes++ % 2, 2));
  }
  obs::AnalyticCounters mixed;
  EXPECT_EQ(batch_against_scalar(analyzer, lanes, &mixed), 0u);
  EXPECT_GT(mixed.expr.batch_evals, 0u);

  const std::span<const machine::SystemParameters> all(lanes);
  obs::AnalyticCounters parts;
  (void)analyzer.evaluate(lanes[0], &parts);
  (void)analyzer.evaluate_batch(all.subspan(1, 2), &parts);
  (void)analyzer.evaluate_batch(all.subspan(3, 3), &parts);
  (void)analyzer.evaluate(lanes[6], &parts);
  EXPECT_EQ(mixed.expr.instructions, parts.expr.instructions);
  EXPECT_EQ(mixed.expr.evals, parts.expr.evals);
  EXPECT_EQ(mixed.expr.batch_evals, parts.expr.batch_evals);
  EXPECT_EQ(mixed.events_replayed, parts.events_replayed);
}

TEST(AnalyticBatch, PidDependentDivergenceFallsBackPerGroup) {
  // `pid == 0 && nn > 1` splits pid 0's walk between lanes on one node
  // and lanes on two: every np group of the grid falls back, exactly.
  const analytic::AnalyticEstimator analyzer(
      branch_model("pid == 0 && nn > 1"));
  const auto lanes = lane_grid();
  EXPECT_EQ(batch_against_scalar(analyzer, lanes), lanes.size());
  // Only the group whose lanes disagree falls back.
  const std::vector<machine::SystemParameters> agreeing_first = {
      params_np(2, 2, 1), params_np(2, 2, 2), params_np(4, 1, 2),
      params_np(4, 2, 2)};
  EXPECT_EQ(batch_against_scalar(analyzer, agreeing_first), 2u);
}

TEST(AnalyticBatch, GroupsWiderThanTheDefaultWidthBatch) {
  // 16 lanes of one np: the walk's lane arrays outgrow their inline room.
  std::vector<machine::SystemParameters> lanes;
  for (int nodes = 1; nodes <= 4; ++nodes) {
    for (int ppn = 1; ppn <= 4; ++ppn) {
      lanes.push_back(params_np(4, nodes, ppn));
      lanes.back().threads_per_process = 3;
    }
  }
  ASSERT_GT(lanes.size(), estimator::PreparedModel::kDefaultBatchLanes);
  const auto expect_batched = [&lanes](const char* name,
                                       const analytic::AnalyticEstimator&
                                           analyzer) {
    obs::AnalyticCounters counters;
    EXPECT_EQ(batch_against_scalar(analyzer, lanes, &counters), 0u) << name;
    EXPECT_GT(counters.expr.batch_evals, 0u) << name;
  };
  expect_batched("random", random_estimator());
  expect_batched("fork", analytic::AnalyticEstimator(fork_model()));
  expect_batched("critical", analytic::AnalyticEstimator(critical_model()));
  expect_batched("tid region", analytic::AnalyticEstimator(
                                   region_model("0.001 * (tid + 1)")));
}

TEST(AnalyticBatch, SingleLaneUsesTheScalarPath) {
  const analytic::AnalyticEstimator analyzer(
      prophet::models::kernel6_model(8, 2, 1e-8));
  const std::vector<machine::SystemParameters> one = {params_np(4, 2, 2)};
  const auto batched = analyzer.evaluate_batch(one);
  ASSERT_EQ(batched.size(), 1u);
  expect_reports_identical(batched[0], analyzer.evaluate(one[0]));
}

TEST(AnalyticBatch, EmptySpanYieldsNoReports) {
  const analytic::AnalyticEstimator analyzer(
      prophet::models::kernel6_model(8, 2, 1e-8));
  EXPECT_TRUE(analyzer.evaluate_batch({}).empty());
}

// --- PreparedModel::estimate_batch ------------------------------------------

TEST(AnalyticBatch, PreparedEstimateBatchMatchesScalarEstimates) {
  const prophet::uml::Model model = prophet::models::kernel6_model(64, 16, 1e-8);
  const analytic::AnalyticBackend backend;
  const auto prepared = backend.prepare(model);
  const auto lanes = lane_grid();
  const auto batched = prepared->estimate_batch(lanes);
  ASSERT_EQ(batched.size(), lanes.size());
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    const auto scalar = prepared->estimate(lanes[lane]);
    EXPECT_EQ(batched[lane].predicted_time, scalar.predicted_time) << lane;
    EXPECT_EQ(batched[lane].processes, scalar.processes) << lane;
    EXPECT_TRUE(prophet::testing::same_finish(batched[lane].per_process_finish,
                                              scalar.per_process_finish))
        << lane;
  }
}

TEST(AnalyticBatch, DefaultEstimateBatchIsTheScalarLoop) {
  // The simulation backend does not override estimate_batch: the base
  // implementation must loop estimate() and stay bit-identical to it.
  const prophet::uml::Model model = prophet::models::kernel6_model(8, 2, 1e-8);
  const analytic::SimulationBackend backend;
  const auto prepared = backend.prepare(model);
  const std::vector<machine::SystemParameters> lanes = {params_np(1),
                                                        params_np(2, 2, 1)};
  const auto batched = prepared->estimate_batch(lanes);
  ASSERT_EQ(batched.size(), lanes.size());
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    const auto scalar = prepared->estimate(lanes[lane]);
    EXPECT_EQ(batched[lane].predicted_time, scalar.predicted_time) << lane;
    EXPECT_EQ(batched[lane].events, scalar.events) << lane;
  }
}

}  // namespace
