// The analytic engine computes each distinct walk trip and each distinct
// replay once.  A loop whose body reads no trip variable and runs no code
// fragment but communicates walks its first trip and re-emits that trip's
// raw emissions for the others; lanes of one walk input that place their
// processes alike share one replay.  Both must be invisible: reports are
// bit-identical to a walk of every trip (a twin model whose body reads
// its trip variable, times zero) and to each lane's own evaluate(), and a
// budget trips the same limit at the same stage.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "prophet/analytic/analytic.hpp"
#include "prophet/guard/guard.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/obs/obs.hpp"
#include "prophet/pipeline/batch.hpp"
#include "prophet/uml/builder.hpp"
#include "same_finish.hpp"

namespace analytic = prophet::analytic;
namespace guard = prophet::guard;
namespace machine = prophet::machine;
namespace obs = prophet::obs;
namespace uml = prophet::uml;

namespace {

machine::SystemParameters params_of(int np, int nodes, int ppn,
                                    double cpu_speed = 1.0) {
  machine::SystemParameters params;
  params.processes = np;
  params.nodes = nodes;
  params.processors_per_node = ppn;
  params.cpu_speed = cpu_speed;
  return params;
}

void expect_same_report(const analytic::AnalyticReport& actual,
                        const analytic::AnalyticReport& expected,
                        const std::string& where) {
  EXPECT_EQ(actual.predicted_time, expected.predicted_time) << where;
  EXPECT_EQ(actual.processes, expected.processes) << where;
  EXPECT_EQ(actual.evaluated_elements, expected.evaluated_elements) << where;
  EXPECT_TRUE(prophet::testing::same_finish(actual.per_process_finish,
                                            expected.per_process_finish))
      << where;
  ASSERT_EQ(actual.node_loads.size(), expected.node_loads.size()) << where;
  for (std::size_t n = 0; n < expected.node_loads.size(); ++n) {
    EXPECT_EQ(actual.node_loads[n].compute_demand,
              expected.node_loads[n].compute_demand)
        << where << ", node " << n;
    EXPECT_EQ(actual.node_loads[n].utilization,
              expected.node_loads[n].utilization)
        << where << ", node " << n;
    EXPECT_EQ(actual.node_loads[n].processes, expected.node_loads[n].processes)
        << where << ", node " << n;
  }
}

// --- Twins --------------------------------------------------------------------
//
// Each builder takes `reads`, the variable its first action's cost adds
// times zero: "it", the loop's trip variable, which makes every trip walk;
// or "Z", a global zero, which compiles to the same bytecode length and
// lets the loop re-emit its first trip.

/// A ring: each trip computes A 0.1, B 0.2 and C 0.3, sends to the next
/// pid, receives from the previous one and computes D 0.1.  Each trip's
/// leading run A, B, C merges into the previous trip's D in an order whose
/// rounding shows: ((0.1 + 0.1) + 0.2) + 0.3 is 0.7, where 0.1 + ((0.1 +
/// 0.2) + 0.3), the coalesced trip appended, is 0.7000000000000001.
uml::Model merge_ring(const std::string& reads,
                      const std::string& trips = "6") {
  uml::ModelBuilder mb("MergeRing");
  mb.global("Z", uml::VariableType::Real, "0");
  uml::StepBuilder main(mb, "main");
  main.begin_loop("Trips", trips, "it")
      .compute("A", "0.1 + 0 * " + reads)
      .compute("B", "0.2")
      .compute("C", "0.3")
      .send("Next", "(pid + 1) % np", "1024", 1)
      .recv("Previous", "(pid + np - 1) % np", "1024", 1)
      .compute("D", "0.1")
      .end_loop()
      .done();
  return std::move(mb).build();
}

/// Each trip nests a loop of exchanges, which re-emits its own trips
/// inside the outer trip, and a compute-only loop, which collapses.
uml::Model nested_ring(const std::string& reads,
                       const std::string& trips = "5") {
  uml::ModelBuilder mb("NestedRing");
  mb.global("Z", uml::VariableType::Real, "0");
  uml::StepBuilder main(mb, "main");
  main.begin_loop("Trips", trips, "it")
      .compute("A", "0.1 + 0 * " + reads)
      .begin_loop("Exchange", "3", "j")
      .compute("X", "0.2")
      .send("Next", "(pid + 1) % np", "512 * (pid + 1)", 2)
      .recv("Previous", "(pid + np - 1) % np", "512", 2)
      .end_loop()
      .begin_loop("Grind", "4", "k")
      .compute("Y", "0.05")
      .end_loop()
      .compute("D", "0.3")
      .end_loop()
      .done();
  return std::move(mb).build();
}

/// Each trip forks two branches, takes the expectation over a `prob`
/// branch, exchanges a message and meets at a barrier.
uml::Model construct_ring(const std::string& reads,
                          const std::string& trips = "4") {
  uml::ModelBuilder mb("ConstructRing");
  mb.global("Z", uml::VariableType::Real, "0");
  uml::StepBuilder main(mb, "main");  // the first diagram: the main one
  uml::DiagramBuilder split = mb.diagram("split");
  const uml::NodeRef init = split.initial();
  const uml::NodeRef fork = split.fork();
  const uml::NodeRef left = split.action("Left").cost("0.1");
  const uml::NodeRef right = split.action("Right").cost("0.2 * (pid + 1)");
  const uml::NodeRef join = split.join();
  const uml::NodeRef fin = split.final_node();
  split.flow(init, fork);
  split.flow(fork, left);
  split.flow(fork, right);
  split.flow(left, join);
  split.flow(right, join);
  split.flow(join, fin);
  main.begin_loop("Trips", trips, "it")
      .compute("A", "0.1 + 0 * " + reads)
      .call("Split", split)
      .begin_branch()
      .when("pid % 2 == 0", 0.25)
      .compute("Heavy", "0.3")
      .otherwise(0.75)
      .compute("Light", "0.1")
      .end_branch()
      .send("Next", "(pid + 1) % np", "2048", 3)
      .recv("Previous", "(pid + np - 1) % np", "2048", 3)
      .barrier()
      .end_loop()
      .done();
  return std::move(mb).build();
}

/// Each trip holds a lock, then exchanges a message; the processes' total
/// lock-held time bounds the makespan.  A trip that records lock-held
/// demand walks every trip, re-emitting none.
uml::Model critical_ring(const std::string& reads,
                         const std::string& trips = "4") {
  uml::ModelBuilder mb("CriticalRing");
  mb.global("Z", uml::VariableType::Real, "0");
  uml::StepBuilder main(mb, "main");
  main.begin_loop("Trips", trips, "it")
      .compute("A", "0.1 + 0 * " + reads)
      .begin_critical("Guarded", "lock")
      .compute("Locked", "0.5")
      .end_critical()
      .send("Next", "(pid + 1) % np", "1024", 4)
      .recv("Previous", "(pid + np - 1) % np", "1024", 4)
      .end_loop()
      .done();
  return std::move(mb).build();
}

struct Twin {
  const char* name;
  uml::Model (*build)(const std::string& reads, const std::string& trips);
  bool reemits;  // whether the outer loop re-emits its trips
  bool flat;     // whether an outer trip nests no loop
};

const Twin kTwins[] = {
    {"merge", merge_ring, true, true},
    {"nested", nested_ring, true, false},
    {"constructs", construct_ring, true, true},
    {"critical", critical_ring, false, true},
};

/// np 2..4 over one and two nodes at two CPU speeds: each np walks two
/// distinct inputs, and each input's two lanes replay on their own
/// placements.
std::vector<machine::SystemParameters> ring_lanes() {
  std::vector<machine::SystemParameters> lanes;
  for (const int np : {2, 3, 4}) {
    for (const double speed : {1.0, 2.0}) {
      for (const int nodes : {1, 2}) {
        lanes.push_back(params_of(np, nodes, 1, speed));
      }
    }
  }
  return lanes;
}

TEST(TripReemission, TwinsThatWalkEveryTripAgreeBitForBit) {
  const auto lanes = ring_lanes();
  for (const Twin& twin : kTwins) {
    const analytic::AnalyticEstimator reemitting(twin.build("Z", "6"));
    const analytic::AnalyticEstimator walking(twin.build("it", "6"));
    obs::AnalyticCounters reemitted;
    obs::AnalyticCounters walked;
    std::size_t fallback = 0;
    const auto batched =
        reemitting.evaluate_batch(lanes, &reemitted, nullptr, &fallback);
    const auto batched_walks =
        walking.evaluate_batch(lanes, &walked, nullptr, &fallback);
    EXPECT_EQ(fallback, 0u) << twin.name;
    ASSERT_EQ(batched.size(), lanes.size());
    ASSERT_EQ(batched_walks.size(), lanes.size());
    for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
      const std::string where =
          std::string(twin.name) + ", lane " + std::to_string(lane);
      const analytic::AnalyticReport expected = walking.evaluate(lanes[lane]);
      expect_same_report(reemitting.evaluate(lanes[lane]), expected,
                         where + " scalar");
      expect_same_report(batched[lane], expected, where + " batched");
      expect_same_report(batched_walks[lane], expected,
                         where + " batched twin");
    }
    // The twin walks every trip of its outer loop, running the VM for
    // each; the model re-emits them unless a trip holds a lock.  (A nested
    // loop that reads no trip variable re-emits in both.)
    if (twin.reemits) {
      EXPECT_GT(reemitted.trips_reemitted, 0u) << twin.name;
      EXPECT_LT(reemitted.expr.instructions, walked.expr.instructions)
          << twin.name;
    } else {
      EXPECT_EQ(reemitted.trips_reemitted, 0u) << twin.name;
      EXPECT_EQ(reemitted.expr.instructions, walked.expr.instructions)
          << twin.name;
    }
    EXPECT_EQ(reemitted.events_replayed, walked.events_replayed) << twin.name;
  }
}

/// The limit `limits` trips evaluating `analyzer` at `params`, if any.
std::optional<guard::ResourceExhausted> tripped(
    const analytic::AnalyticEstimator& analyzer,
    const machine::SystemParameters& params, const guard::Limits& limits) {
  guard::Budget budget(limits);
  try {
    (void)analyzer.evaluate(params, nullptr, &budget);
  } catch (const guard::ResourceExhausted& error) {
    return error;
  }
  return std::nullopt;
}

TEST(TripReemission, BudgetsTripLikeAWalkOfEveryTrip) {
  // A re-emitted trip charges one loop trip, then the nested loop trips
  // and VM instructions its first trip charged.  So a whole evaluation
  // charges what the twin that walks every trip charges (the twins'
  // bytecode has one length), and each limit trips at the same stage; on
  // a ring whose trips nest no loop it trips on the same trip, with the
  // same loop trips charged.
  guard::Limits trips;
  trips.max_loop_trips = 500;
  guard::Limits instructions;
  instructions.max_vm_instructions = 20000;
  const machine::SystemParameters params = params_of(3, 2, 1);
  for (const Twin& twin : kTwins) {
    const analytic::AnalyticEstimator reemitting(twin.build("Z", "1000"));
    const analytic::AnalyticEstimator walking(twin.build("it", "1000"));
    guard::Budget reemitted_total;
    guard::Budget walked_total;
    (void)reemitting.evaluate(params, nullptr, &reemitted_total);
    (void)walking.evaluate(params, nullptr, &walked_total);
    EXPECT_EQ(reemitted_total.loop_trips(), walked_total.loop_trips())
        << twin.name;
    EXPECT_EQ(reemitted_total.vm_instructions(),
              walked_total.vm_instructions())
        << twin.name;
    EXPECT_EQ(reemitted_total.usage().replay_events,
              walked_total.usage().replay_events)
        << twin.name;
    for (const guard::Limits& limits : {trips, instructions}) {
      const auto reemitted = tripped(reemitting, params, limits);
      const auto walked = tripped(walking, params, limits);
      ASSERT_TRUE(reemitted.has_value()) << twin.name;
      ASSERT_TRUE(walked.has_value()) << twin.name;
      EXPECT_EQ(reemitted->limit(), walked->limit()) << twin.name;
      EXPECT_EQ(reemitted->stage(), walked->stage()) << twin.name;
      if (twin.flat) {
        EXPECT_EQ(reemitted->usage().loop_trips, walked->usage().loop_trips)
            << twin.name;
      }
    }
  }
  // The stages are the walk's own.
  const analytic::AnalyticEstimator ring(merge_ring("Z", "1000"));
  const auto by_trips = tripped(ring, params, trips);
  ASSERT_TRUE(by_trips.has_value());
  EXPECT_EQ(by_trips->limit(), guard::LimitKind::LoopTrips);
  EXPECT_EQ(by_trips->stage(), "analytic-loop");
  const auto by_instructions = tripped(ring, params, instructions);
  ASSERT_TRUE(by_instructions.has_value());
  EXPECT_EQ(by_instructions->limit(), guard::LimitKind::VmInstructions);
  EXPECT_EQ(by_instructions->stage(), "expr-vm");
}

TEST(TripReemission, EndlessExchangeStopsOnTheJobTimeout) {
  // 1e12 trips of a send and a receive at np = 2 re-emit their first
  // trip, but each still charges the job's budget, so the sweep's
  // per-job timeout stops the walk (its timeline grows with every trip:
  // the timeout is short to keep it small).
  prophet::pipeline::BatchOptions options;
  options.threads = 1;
  options.backend = prophet::estimator::BackendKind::Analytic;
  options.limits.wall_seconds = 0.02;
  prophet::pipeline::BatchRunner runner(options);
  const int ring = runner.add_model("ring", merge_ring("Z", "1e12"));
  runner.add_sweep(ring, prophet::pipeline::ScenarioGrid::parse("np=2", {}));
  const prophet::pipeline::BatchReport report = runner.run();
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_FALSE(report.results[0].ok);
  EXPECT_EQ(report.results[0].tripped_limit, "wall_clock");
}

// --- Replay sharing -------------------------------------------------------------

TEST(ReplaySharing, LanesThatPlaceProcessesAlikeShareOneReplay) {
  // One np over nodes 1..4 x ppn 1..4: a model that reads no topology
  // walks once, and lanes replay once per block size ceil(np / nn), the
  // only thing of nodes the replay reads.  Every lane's report is its own
  // evaluate()'s, and each lane counts, and is charged, the events its
  // replay consumed.
  for (const char* reference : {"@pipeline", "@allreduce", "@masterworker"}) {
    const analytic::AnalyticEstimator analyzer(
        prophet::models::Registry::builtin().make(reference));
    for (const int np : {4, 7}) {
      std::vector<machine::SystemParameters> lanes;
      std::set<int> blocks;
      for (int nodes = 1; nodes <= 4; ++nodes) {
        blocks.insert((np + nodes - 1) / nodes);
        for (int ppn = 1; ppn <= 4; ++ppn) {
          lanes.push_back(params_of(np, nodes, ppn));
        }
      }
      obs::AnalyticCounters counters;
      guard::Budget budget;
      std::size_t fallback = 0;
      const auto batched =
          analyzer.evaluate_batch(lanes, &counters, &budget, &fallback);
      EXPECT_EQ(fallback, 0u) << reference;
      ASSERT_EQ(batched.size(), lanes.size());
      obs::AnalyticCounters scalar;
      guard::Budget scalar_budget;
      for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
        expect_same_report(
            batched[lane], analyzer.evaluate(lanes[lane], &scalar,
                                             &scalar_budget),
            std::string(reference) + " np=" + std::to_string(np) +
                ", lane " + std::to_string(lane));
      }
      EXPECT_EQ(counters.replays_shared, lanes.size() - blocks.size())
          << reference << " np=" << np;
      EXPECT_EQ(scalar.replays_shared, 0u);
      EXPECT_EQ(counters.events_replayed, scalar.events_replayed)
          << reference << " np=" << np;
      EXPECT_EQ(budget.usage().replay_events,
                scalar_budget.usage().replay_events)
          << reference << " np=" << np;
    }
  }
}

}  // namespace
