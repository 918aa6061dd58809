// AnalyticEstimator::evaluate_batch and the estimate_batch backend
// contract: batched evaluation must be bit-identical to the scalar loop
// (reports, per-process finish times, replayed-element counts), take the
// scalar walk for models one walk cannot serve, fall back cleanly when
// lanes diverge at run time, and report every lane the scalar walk
// serves.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "prophet/analytic/analytic.hpp"
#include "prophet/analytic/backend.hpp"
#include "prophet/estimator/backend.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/obs/obs.hpp"
#include "prophet/prophet.hpp"
#include "prophet/uml/builder.hpp"

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
  EXPECT_EQ(a.per_process_finish, b.per_process_finish);
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

TEST(AnalyticBatch, IneligibleModelsTakeTheScalarWalk) {
  // The random workload reads pid in its costs and guards and runs code
  // fragments, so one walk cannot serve every process: the estimator
  // decides at construction never to batch it.  Every lane takes the
  // scalar walk (and is counted), none reaches the vectorized VM.
  const prophet::models::Registry& registry =
      prophet::models::Registry::builtin();
  const analytic::AnalyticEstimator analyzer(registry.make("@random"));
  std::vector<machine::SystemParameters> lanes;
  for (const int np : {1, 2, 4, 8}) {
    lanes.push_back(params_np(np));
  }
  obs::AnalyticCounters counters;
  std::size_t lanes_fallback = 0;
  const auto batched =
      analyzer.evaluate_batch(lanes, &counters, nullptr, &lanes_fallback);
  ASSERT_EQ(batched.size(), lanes.size());
  EXPECT_EQ(lanes_fallback, lanes.size());
  EXPECT_EQ(counters.expr.batch_evals, 0u);
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    expect_reports_identical(batched[lane], analyzer.evaluate(lanes[lane]));
  }
}

// --- Models that read no pid/tid and run no fragment -------------------------

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

  // A region whose cost reads tid cannot share one walk: scalar only.
  const analytic::AnalyticEstimator tid_region(
      region_model("0.001 * (tid + 1)"));
  obs::AnalyticCounters counters;
  EXPECT_EQ(batch_against_scalar(tid_region, threaded, &counters),
            threaded.size());
  EXPECT_EQ(counters.expr.batch_evals, 0u);
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
    EXPECT_EQ(batched[lane].per_process_finish, scalar.per_process_finish)
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
