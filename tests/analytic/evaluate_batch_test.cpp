// AnalyticEstimator::evaluate_batch and the estimate_batch backend
// contract: batched evaluation must be bit-identical to the scalar loop
// (reports, per-process finish times, replayed-element counts) and walk
// each distinct walk input of a chunk once, wherever its lanes sit: lanes
// that agree on every SystemParameters field the walk may read share a
// walk (np only when the model may read it, nodes and ppn only when it
// may read the topology).  A chunk with a lane error re-runs lane by
// lane, raises the first lane's error in lane order and counts every
// lane as a fallback.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
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

/// `lanes` with cpu_speed = 1 + lane: no two lanes share a walk input.
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
  // kernel6 reads neither np nor the topology, so the whole chunk, four
  // np values on two node counts, walks once: as many VM evaluations as
  // one lane's evaluate().
  const analytic::AnalyticEstimator analyzer(
      prophet::models::kernel6_model(64, 16, 1e-8));
  const auto lanes = lane_grid();
  obs::AnalyticCounters counters;
  std::size_t lanes_fallback = 0;
  const auto batched =
      analyzer.evaluate_batch(lanes, &counters, nullptr, &lanes_fallback);
  ASSERT_EQ(batched.size(), lanes.size());
  EXPECT_EQ(lanes_fallback, 0u);
  // Every lane finalized through the shared walk.
  EXPECT_EQ(counters.spmd_fast_path, lanes.size());
  obs::AnalyticCounters one;
  (void)analyzer.evaluate(lanes[0], &one);
  EXPECT_EQ(counters.expr.evals, one.expr.evals);
  EXPECT_EQ(counters.expr.instructions, one.expr.instructions);
}

// --- Batched walks against the scalar loop ----------------------------------

/// Batches `lanes`, expects every report bit-exact against evaluate(),
/// and returns how many lanes fell back to it.
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

/// The VM evaluations evaluate() runs for each of `lanes`, summed: what
/// a batch runs when each of them is a walk input of its own.
std::uint64_t scalar_evals(const analytic::AnalyticEstimator& analyzer,
                           std::span<const machine::SystemParameters> lanes) {
  obs::AnalyticCounters counters;
  for (const auto& params : lanes) {
    (void)analyzer.evaluate(params, &counters);
  }
  return counters.expr.evals;
}

/// Batches `lanes`, bit-exact against evaluate() with no lane falling
/// back, and expects the chunk to walk once per entry of `firsts`, the
/// first lane of each distinct walk input: as many VM evaluations as
/// evaluate() runs for them.  Every lane replays what its own evaluate()
/// replays.
void expect_walks(const char* name,
                  const analytic::AnalyticEstimator& analyzer,
                  const std::vector<machine::SystemParameters>& lanes,
                  const std::vector<machine::SystemParameters>& firsts) {
  obs::AnalyticCounters counters;
  EXPECT_EQ(batch_against_scalar(analyzer, lanes, &counters), 0u) << name;
  EXPECT_EQ(counters.expr.evals, scalar_evals(analyzer, firsts)) << name;
  obs::AnalyticCounters scalar;
  for (const auto& params : lanes) {
    (void)analyzer.evaluate(params, &scalar);
  }
  EXPECT_EQ(counters.events_replayed, scalar.events_replayed) << name;
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

TEST(AnalyticBatch, LanesThatWalkApartNeverFallBack) {
  // Models whose walks differ from lane to lane: each distinct walk
  // input walks on its own, so no lane falls back and every report is
  // the scalar walk's.
  const auto lanes = lane_grid();
  // np > 2 holds on some lanes only: the lanes branch apart (and the
  // costs read np and nn, so every lane is its own input).
  expect_walks("branch", analytic::AnalyticEstimator(branch_model("np > 2")),
               lanes, lanes);
  // Trip counts vary with np and the body reads its trip variable: each
  // np walks every trip of its own count, and lanes of one np that differ
  // only in nodes share that walk.
  expect_walks("trips",
               analytic::AnalyticEstimator(loop_model("0.001 * (i + 1)")),
               lanes, {lanes[0], lanes[2], lanes[4], lanes[6]});
  // The same trip counts over a body that ignores i collapse per lane.
  expect_walks("collapse",
               analytic::AnalyticEstimator(loop_model("0.001 * nn")), lanes,
               lanes);
}

TEST(AnalyticBatch, ForksRegionsCriticalsAndProbBranchesBatch) {
  const auto lanes = lane_grid();
  auto threaded = lanes;
  for (auto& params : threaded) {
    params.threads_per_process = 3;
  }
  // Every lane is its own walk input: each model reads np and nn (or
  // each lane has its own cpu_speed).
  const auto expect_batched = [](const char* name, uml::Model model,
                                 const std::vector<machine::SystemParameters>&
                                     model_lanes) {
    expect_walks(name, analytic::AnalyticEstimator(std::move(model)),
                 model_lanes, model_lanes);
  };
  expect_batched("fork", fork_model(), lanes);
  expect_batched("region", region_model("0.001 * nn"), threaded);
  expect_batched("critical", critical_model(), lanes);
  expect_batched("prob", branch_model("np > 2", 0.25), lanes);

  // A region whose cost reads tid walks each pid of each input.  Its
  // cost reads no topology, so lanes of one np that differ only in
  // nodes would share one walk: a cpu_speed per lane keeps each its own
  // walk input.
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
  // fragments that write a global a guard reads.  Each distinct walk
  // input walks every pid once, in pid order over its own globals: no
  // lane falls back, and every report is the scalar walk's.
  const analytic::AnalyticEstimator analyzer = random_estimator();
  std::vector<machine::SystemParameters> lanes;
  for (const int nodes : {1, 2, 3, 4}) {
    for (const int ppn : {1, 2}) {
      lanes.push_back(params_np(3, nodes, ppn));
    }
  }
  const auto distinct = distinct_inputs(lanes);
  expect_walks("distinct", analyzer, distinct, distinct);
  obs::AnalyticCounters counters;
  (void)analyzer.evaluate_batch(distinct, &counters);
  EXPECT_EQ(counters.spmd_fast_path, 0u);  // every pid was walked

  // The model reads no topology, so lanes that differ only in nodes and
  // ppn share one walk input: the chunk walks each pid once, as one
  // lane's evaluate() does, and replays every lane over that walk.
  obs::AnalyticCounters shared;
  EXPECT_EQ(batch_against_scalar(analyzer, lanes, &shared), 0u);
  obs::AnalyticCounters one;
  (void)analyzer.evaluate(lanes[0], &one);
  EXPECT_EQ(shared.expr.instructions, one.expr.instructions);
  EXPECT_EQ(shared.expr.evals, one.expr.evals);
  EXPECT_EQ(shared.spmd_fast_path, 0u);
  EXPECT_EQ(shared.events_replayed, lanes.size() * one.events_replayed);
}

TEST(AnalyticBatch, LanesOfEqualNpBatchTogether) {
  // np = 1, 2, 2, 3, 3, 3, 8 over alternating node counts: the model reads
  // pid (so np) and no topology, so lanes of one np share a walk.  The
  // counters are those of one lane of each np evaluated on its own, and
  // each lane replays what its own evaluate() replays.
  const analytic::AnalyticEstimator analyzer = random_estimator();
  std::vector<machine::SystemParameters> lanes;
  int nodes = 0;
  for (const int np : {1, 2, 2, 3, 3, 3, 8}) {
    lanes.push_back(params_np(np, 1 + nodes++ % 2, 2));
  }
  obs::AnalyticCounters mixed;
  EXPECT_EQ(batch_against_scalar(analyzer, lanes, &mixed), 0u);

  obs::AnalyticCounters parts;
  for (const std::size_t lane : {0, 1, 3, 6}) {
    (void)analyzer.evaluate(lanes[lane], &parts);
  }
  EXPECT_EQ(mixed.expr.instructions, parts.expr.instructions);
  EXPECT_EQ(mixed.expr.evals, parts.expr.evals);
  obs::AnalyticCounters scalar;
  for (const auto& params : lanes) {
    (void)analyzer.evaluate(params, &scalar);
  }
  EXPECT_EQ(mixed.events_replayed, scalar.events_replayed);
}

TEST(AnalyticBatch, NonConsecutiveLanesOfOneInputShareAWalk) {
  // np alternates 2, 3, 2, 3, ... over varying nodes and ppn: the lanes
  // of each np share one walk however far apart they sit in the chunk.
  const analytic::AnalyticEstimator analyzer = random_estimator();
  std::vector<machine::SystemParameters> lanes;
  for (int nodes = 1; nodes <= 2; ++nodes) {
    for (int ppn = 1; ppn <= 2; ++ppn) {
      lanes.push_back(params_np(2, nodes, ppn));
      lanes.push_back(params_np(3, nodes, ppn));
    }
  }
  expect_walks("alternating np", analyzer, lanes, {lanes[0], lanes[1]});
}

TEST(AnalyticBatch, PidDependentBranchesWalkEachInputApart) {
  // `pid == 0 && nn > 1` reads pid and the topology: every lane of the
  // grid is its own walk input, and pid 0 takes a different branch on
  // one node than on two, without any lane falling back.
  const analytic::AnalyticEstimator analyzer(
      branch_model("pid == 0 && nn > 1"));
  const auto lanes = lane_grid();
  expect_walks("grid", analyzer, lanes, lanes);
  const std::vector<machine::SystemParameters> agreeing_first = {
      params_np(2, 2, 1), params_np(2, 2, 2), params_np(4, 1, 2),
      params_np(4, 2, 2)};
  expect_walks("agreeing first", analyzer, agreeing_first, agreeing_first);
}

TEST(AnalyticBatch, GroupsWiderThanTheDefaultWidthBatch) {
  // 16 lanes of one np, wider than a sweep's default chunk, each with its
  // own cpu_speed so that every model walks them as 16 distinct inputs.
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
    expect_walks(name, analyzer, lanes, lanes);
  };
  expect_batched("random", random_estimator());
  expect_batched("fork", analytic::AnalyticEstimator(fork_model()));
  expect_batched("critical", analytic::AnalyticEstimator(critical_model()));
  expect_batched("tid region", analytic::AnalyticEstimator(
                                   region_model("0.001 * (tid + 1)")));
}

// --- Walk inputs --------------------------------------------------------------

/// main: init -> Work -> final, over a global X initialized to `x`, a
/// local L initialized to `l` and a cost function F() returning `f`;
/// Work costs `cost` and runs `fragment` first when it is not empty.
uml::Model action_model(const std::string& cost,
                        const std::string& fragment = {},
                        const std::string& x = "0",
                        const std::string& f = "0.001",
                        const std::string& l = "0") {
  uml::ModelBuilder mb("Action");
  mb.global("X", uml::VariableType::Real, x);
  mb.local("L", uml::VariableType::Real, l);
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

/// main: init -> Work -> <<allreduce>> of `bytes` -> final.  Only the
/// collective's round time depends on the topology (one node or
/// several).
uml::Model collective_model(const std::string& bytes = "1024 * np") {
  uml::ModelBuilder mb("Collective");
  uml::DiagramBuilder main = mb.diagram("main");
  main.sequence({main.initial(), main.action("Work").cost("0.001"),
                 main.allreduce("Sum", bytes), main.final_node()});
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
  const auto expect_own_walks = [&lanes](const char* name, uml::Model model) {
    expect_walks(name, analytic::AnalyticEstimator(std::move(model)), lanes,
                 lanes);
  };
  expect_own_walks("cost tag", action_model("0.001 * nn"));
  expect_own_walks("fragment value", action_model("0.001 * X", "X = nn;"));
  expect_own_walks("global initializer", action_model("X", {}, "0.001 * ppn"));
  expect_own_walks("cost-function body",
                   action_model("F()", {}, "0", "0.001 * nn"));
  expect_own_walks("collective", collective_model());
  // A guard that reads ppn takes each branch on some lanes.
  expect_own_walks("guard", guard_model("ppn > 1"));
  expect_walks("no reader", analytic::AnalyticEstimator(action_model("0.001")),
               lanes, {lanes[0]});

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
  expect_walks("machine", analytic::AnalyticEstimator(machine_model()),
               machines,
               {machines[0], machines[4], machines[5], machines[6],
                machines[7]});
}

// --- np -----------------------------------------------------------------------

/// np 1, 2, 4 and 7, each on one node of one processor and on two nodes
/// of two: np turns slowest.
std::vector<machine::SystemParameters> np_lanes() {
  std::vector<machine::SystemParameters> lanes;
  for (const int np : {1, 2, 4, 7}) {
    lanes.push_back(params_np(np, 1, 1));
    lanes.push_back(params_np(np, 2, 2));
  }
  return lanes;
}

/// main: init -> <<loop+>> of 16 trips over a <<loop+>> of 8 trips over
/// one action costing 0.0001: a compute-only nest whose trips read no
/// trip variable.
uml::Model loop_nest_model() {
  uml::ModelBuilder mb("Nest");
  uml::DiagramBuilder main = mb.diagram("main");
  uml::DiagramBuilder outer = mb.diagram("outer");
  uml::DiagramBuilder inner = mb.diagram("inner");
  inner.sequence({inner.initial(), inner.action("Work").cost("0.0001"),
                  inner.final_node()});
  outer.sequence({outer.initial(), outer.loop("Inner", inner, "8", "j"),
                  outer.final_node()});
  main.sequence({main.initial(), main.loop("Outer", outer, "16", "i"),
                 main.final_node()});
  return std::move(mb).build();
}

/// main: init -> Work -> barrier -> final.
uml::Model barrier_model() {
  uml::ModelBuilder mb("Barrier");
  uml::DiagramBuilder main = mb.diagram("main");
  main.sequence({main.initial(), main.action("Work").cost("0.001"),
                 main.barrier(), main.final_node()});
  return std::move(mb).build();
}

TEST(AnalyticBatch, OneWalkModelsShareAWalkAcrossNp) {
  // A model whose walk reads neither np nor pid, runs no fragment and
  // does not communicate walks once for a chunk of four np values, and
  // every lane replays its own np over that walk.
  const auto lanes = np_lanes();
  expect_walks("kernel6",
               analytic::AnalyticEstimator(
                   prophet::models::kernel6_model(64, 16, 1e-8)),
               lanes, {lanes[0]});
  expect_walks("loop nest", analytic::AnalyticEstimator(loop_nest_model()),
               lanes, {lanes[0]});
}

TEST(AnalyticBatch, NpReadersWalkEachNpApart) {
  // Each way a walk may read np keeps the lanes of different np apart;
  // the two lanes of one np differ only in nodes and ppn and share a walk
  // unless the model reads the topology too.
  const auto lanes = np_lanes();
  const std::vector<machine::SystemParameters> one_per_np = {
      lanes[0], lanes[2], lanes[4], lanes[6]};
  const auto expect_np_walks = [&](const char* name, uml::Model model) {
    expect_walks(name, analytic::AnalyticEstimator(std::move(model)), lanes,
                 one_per_np);
  };
  expect_np_walks("cost tag", action_model("0.001 * np"));
  expect_np_walks("guard", guard_model("np > 2"));
  expect_np_walks("fragment value", action_model("0.001 * X", "X = np;"));
  expect_np_walks("fragment", action_model("0.001 * X", "X = X + 1;"));
  expect_np_walks("global initializer", action_model("X", {}, "0.001 * np"));
  expect_np_walks("cost-function body",
                  action_model("F()", {}, "0", "0.001 * np"));
  expect_np_walks("pid tag", action_model("0.001 * (pid + 1)"));
  expect_np_walks("pid guard", guard_model("pid == 0"));
  expect_np_walks("pid local initializer",
                  action_model("L", {}, "0", "0.001", "0.001 * (pid + 1)"));
  expect_np_walks("send/recv pair", machine_model());
  expect_np_walks("barrier", barrier_model());
  // A collective reads the topology too: every lane walks on its own.
  expect_walks("collective",
               analytic::AnalyticEstimator(collective_model("1024")), lanes,
               lanes);
}

// --- Errors -------------------------------------------------------------------

/// main: init -> Work -> a send to pid 1 that nobody receives: valid at
/// np >= 2, while np = 1 breaks the peer rule.
uml::Model send_to_one_model() {
  uml::ModelBuilder mb("SendToOne");
  uml::DiagramBuilder main = mb.diagram("main");
  main.sequence({main.initial(), main.action("Work").cost("0.001"),
                 main.send("ToOne", "1", "1024"), main.final_node()});
  return std::move(mb).build_unchecked();  // a send with no receive
}

TEST(AnalyticBatch, LaneErrorsRaiseTheFirstInLaneOrder) {
  const analytic::AnalyticEstimator analyzer(send_to_one_model());
  const auto error_of = [](const auto& evaluate) {
    try {
      evaluate();
    } catch (const std::exception& error) {
      return std::string(error.what());
    }
    return std::string();
  };
  std::vector<machine::SystemParameters> lanes = {
      params_np(7, 2, 2), params_np(4, 1, 1), params_np(2, 2, 2),
      params_np(1, 1, 1)};
  const std::string expected =
      error_of([&] { (void)analyzer.evaluate(lanes.back()); });
  ASSERT_FALSE(expected.empty());
  // The send reads np, so np = 1 walks on its own and its walk raises;
  // the chunk re-runs lane by lane and counts every lane.
  std::size_t fallback = 0;
  EXPECT_EQ(error_of([&] {
              (void)analyzer.evaluate_batch(lanes, nullptr, nullptr,
                                            &fallback);
            }),
            expected);
  EXPECT_EQ(fallback, lanes.size());
  // An invalid lane after it is met first, while the chunk's walk inputs
  // are gathered; the error raised is still the first in lane order.
  lanes.push_back(params_np(4, 1, 0));
  ASSERT_NE(error_of([&] { (void)analyzer.evaluate(lanes.back()); }),
            expected);
  fallback = 0;
  EXPECT_EQ(error_of([&] {
              (void)analyzer.evaluate_batch(lanes, nullptr, nullptr,
                                            &fallback);
            }),
            expected);
  EXPECT_EQ(fallback, lanes.size());
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
