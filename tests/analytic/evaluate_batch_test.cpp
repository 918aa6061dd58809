// AnalyticEstimator::evaluate_batch and the estimate_batch backend
// contract: batched evaluation must be bit-identical to the scalar loop
// (reports, per-process finish times, replayed-element counts), walk
// pid-dependent models one pid at a time across each run of consecutive
// lanes of equal np, walk each distinct walk input of such a run once
// (lanes that differ only in nodes and ppn share a walk unless the model
// may read them), leave a lane with no neighbour of its np to the scalar
// walk, fall back cleanly when lanes diverge at run time, and count every
// lane that fell back.
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

/// `lanes` with cpu_speed = 1 + lane: no two lanes share a walk input, so
/// a run of equal np walks across all of its lanes.
std::vector<machine::SystemParameters> distinct_inputs(
    std::vector<machine::SystemParameters> lanes) {
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    lanes[lane].cpu_speed = 1.0 + static_cast<double>(lane);
  }
  return lanes;
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
  // Its cost reads no topology, so lanes of one np that differ only in
  // nodes would share one scalar walk: a cpu_speed per lane keeps each
  // its own walk lane.
  expect_batched("tid region", region_model("0.001 * (tid + 1)"),
                 distinct_inputs(threaded));
}

// --- Models that read pid/tid or run code fragments --------------------------

analytic::AnalyticEstimator random_estimator() {
  return analytic::AnalyticEstimator(
      prophet::models::Registry::builtin().make("@random"));
}

TEST(AnalyticBatch, PidDependentModelsBatchOnePidAtATime) {
  // The random workload reads pid in its costs and guards and runs code
  // fragments that write a global a guard reads.  Lanes that share np
  // walk each pid once across the group's distinct walk inputs, in pid
  // order over each input's own globals: no lane falls back, the
  // vectorized VM runs, and every report is the scalar walk's.
  const analytic::AnalyticEstimator analyzer = random_estimator();
  std::vector<machine::SystemParameters> lanes;
  for (const int nodes : {1, 2, 3, 4}) {
    for (const int ppn : {1, 2}) {
      lanes.push_back(params_np(3, nodes, ppn));
    }
  }
  obs::AnalyticCounters counters;
  EXPECT_EQ(batch_against_scalar(analyzer, distinct_inputs(lanes), &counters),
            0u);
  EXPECT_GT(counters.expr.batch_evals, 0u);
  EXPECT_EQ(counters.spmd_fast_path, 0u);  // every pid was walked

  // The model reads no topology, so lanes that differ only in nodes and
  // ppn share one walk input: the group walks each pid once, as one
  // lane's evaluate() does, and replays every lane over that walk.
  obs::AnalyticCounters shared;
  EXPECT_EQ(batch_against_scalar(analyzer, lanes, &shared), 0u);
  obs::AnalyticCounters one;
  (void)analyzer.evaluate(lanes[0], &one);
  EXPECT_EQ(shared.expr.instructions, one.expr.instructions);
  EXPECT_EQ(shared.expr.evals, one.expr.evals);
  EXPECT_EQ(shared.expr.batch_evals, 0u);
  EXPECT_EQ(shared.spmd_fast_path, 0u);
  EXPECT_EQ(shared.events_replayed, lanes.size() * one.events_replayed);
}

TEST(AnalyticBatch, LanesOfEqualNpBatchTogether) {
  // np = 1, 2, 2, 3, 3, 3, 8: the runs of np = 2 and np = 3 lanes batch
  // as two groups, and np = 1 and np = 8 take the scalar walk without
  // counting as fallbacks.  The counters are those of the groups and the lone
  // lanes evaluated on their own.  Each lane has its own cpu_speed, so no
  // two lanes of a group share a walk input.
  const analytic::AnalyticEstimator analyzer = random_estimator();
  std::vector<machine::SystemParameters> lanes;
  int nodes = 0;
  for (const int np : {1, 2, 2, 3, 3, 3, 8}) {
    lanes.push_back(params_np(np, 1 + nodes++ % 2, 2));
  }
  lanes = distinct_inputs(std::move(lanes));
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
  // 16 lanes of one np, each with its own cpu_speed so that every model
  // walks them as 16 distinct inputs: the walk's lane arrays outgrow their
  // inline room.
  std::vector<machine::SystemParameters> lanes;
  for (int nodes = 1; nodes <= 4; ++nodes) {
    for (int ppn = 1; ppn <= 4; ++ppn) {
      lanes.push_back(params_np(4, nodes, ppn));
      lanes.back().threads_per_process = 3;
    }
  }
  lanes = distinct_inputs(std::move(lanes));
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

// --- Walk inputs --------------------------------------------------------------

/// main: init -> Work -> final, over a global X initialized to `x` and a
/// cost function F() returning `f`; Work costs `cost` and runs `fragment`
/// first when it is not empty.
uml::Model action_model(const std::string& cost,
                        const std::string& fragment = {},
                        const std::string& x = "0",
                        const std::string& f = "0.001") {
  uml::ModelBuilder mb("Action");
  mb.global("X", uml::VariableType::Real, x);
  mb.function("F", {}, f);
  uml::DiagramBuilder main = mb.diagram("main");
  uml::NodeRef work = main.action("Work").cost(cost);
  if (!fragment.empty()) {
    work.code(fragment);
  }
  main.sequence({main.initial(), work, main.final_node()});
  return std::move(mb).build();
}

/// main: init -> decision -[guard]-> A | -[else]-> B -> merge, where
/// neither action's cost reads the topology.
uml::Model guard_model(const std::string& guard) {
  uml::ModelBuilder mb("Guard");
  uml::DiagramBuilder main = mb.diagram("main");
  const uml::NodeRef init = main.initial();
  const uml::NodeRef decision = main.decision();
  const uml::NodeRef a = main.action("A").cost("0.002");
  const uml::NodeRef b = main.action("B").cost("0.001");
  const uml::NodeRef merge = main.merge();
  const uml::NodeRef fin = main.final_node();
  main.flow(init, decision);
  main.flow(decision, a, guard);
  main.flow(decision, b, "else");
  main.flow(a, merge);
  main.flow(b, merge);
  main.flow(merge, fin);
  return std::move(mb).build();
}

/// main: init -> Work -> <<allreduce>> -> final.  Only the collective's
/// round time depends on the topology (one node or several).
uml::Model collective_model() {
  uml::ModelBuilder mb("Collective");
  uml::DiagramBuilder main = mb.diagram("main");
  main.sequence({main.initial(), main.action("Work").cost("0.001"),
                 main.allreduce("Sum", "1024 * np"), main.final_node()});
  return std::move(mb).build();
}

/// main: init -> Work (cost reads nt) -> send to the next pid -> receive
/// from the previous one -> barrier: the walk reads cpu_speed, nt,
/// network_overhead and barrier_latency, and no topology.
uml::Model machine_model() {
  uml::ModelBuilder mb("Machine");
  uml::DiagramBuilder main = mb.diagram("main");
  main.sequence({main.initial(), main.action("Work").cost("0.001 * nt"),
                 main.send("Next", "(pid + 1) % np", "1024"),
                 main.recv("Previous", "(pid + np - 1) % np", "1024"),
                 main.barrier(), main.final_node()});
  return std::move(mb).build();
}

/// Batches `lanes`, bit-exact against evaluate() with no lane falling
/// back, and expects them to walk as `inputs` distinct walk inputs: the
/// group's VM evaluated each program of lanes[0]'s walk `inputs` lanes
/// wide, vectorized when `inputs` > 1, and every lane replayed as many
/// events as lanes[0] does on its own.
void expect_walk_inputs(const char* name,
                        const analytic::AnalyticEstimator& analyzer,
                        const std::vector<machine::SystemParameters>& lanes,
                        std::size_t inputs) {
  obs::AnalyticCounters group;
  EXPECT_EQ(batch_against_scalar(analyzer, lanes, &group), 0u) << name;
  obs::AnalyticCounters one;
  (void)analyzer.evaluate(lanes[0], &one);
  EXPECT_EQ(group.expr.evals, inputs * one.expr.evals) << name;
  EXPECT_EQ(group.expr.batch_evals > 0, inputs > 1) << name;
  EXPECT_EQ(group.events_replayed, lanes.size() * one.events_replayed)
      << name;
}

TEST(AnalyticBatch, TopologyReadersWalkOncePerInput) {
  // One np, lanes that differ only in nodes and ppn.  A model that may
  // read either walks each lane as its own input, however it reads them;
  // a model that cannot shares one walk across the lanes.
  std::vector<machine::SystemParameters> lanes;
  for (const int nodes : {1, 2}) {
    for (const int ppn : {1, 2}) {
      lanes.push_back(params_np(4, nodes, ppn));
    }
  }
  expect_walk_inputs("cost tag",
                     analytic::AnalyticEstimator(action_model("0.001 * nn")),
                     lanes, lanes.size());
  expect_walk_inputs(
      "fragment value",
      analytic::AnalyticEstimator(action_model("0.001 * X", "X = nn;")),
      lanes, lanes.size());
  expect_walk_inputs(
      "global initializer",
      analytic::AnalyticEstimator(action_model("X", {}, "0.001 * ppn")),
      lanes, lanes.size());
  expect_walk_inputs(
      "cost-function body",
      analytic::AnalyticEstimator(action_model("F()", {}, "0", "0.001 * nn")),
      lanes, lanes.size());
  expect_walk_inputs("collective",
                     analytic::AnalyticEstimator(collective_model()), lanes,
                     lanes.size());
  expect_walk_inputs("no reader",
                     analytic::AnalyticEstimator(action_model("0.001")),
                     lanes, 1);

  // A guard that reads ppn takes each branch on some lanes: the batched
  // walk starts across all four inputs, diverges and falls back.
  {
    const analytic::AnalyticEstimator analyzer(guard_model("ppn > 1"));
    obs::AnalyticCounters counters;
    EXPECT_EQ(batch_against_scalar(analyzer, lanes, &counters), lanes.size());
    EXPECT_GT(counters.expr.batch_evals, 0u);
  }

  // Lanes that differ from the first only in cpu_speed, nt,
  // network_overhead or barrier_latency each walk on their own; those
  // that differ only in nodes and ppn share the first lane's walk.
  std::vector<machine::SystemParameters> machines = lanes;
  machines.push_back(lanes[0]);
  machines.back().cpu_speed = 2;
  machines.push_back(lanes[0]);
  machines.back().threads_per_process = 2;
  machines.push_back(lanes[0]);
  machines.back().network_overhead = 1e-4;
  machines.push_back(lanes[0]);
  machines.back().barrier_latency = 1e-4;
  expect_walk_inputs("machine", analytic::AnalyticEstimator(machine_model()),
                     machines, 5);
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
