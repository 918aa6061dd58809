// Allocation pins: a simulated run allocates its set-up and nothing per
// event, in the engine alone, under the interpreter and in a generated
// evaluator; a warm analytic estimate allocates only its reports.  Each
// pin counts the global operator new calls of a run at two sizes; the
// counts may differ by a small constant only.  They hold in sanitized
// builds too: counting_new.cpp forwards to malloc, which the sanitizer
// runtime intercepts.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "counting_new.hpp"
#include "prophet/analytic/backend.hpp"
#include "prophet/cgen/backend.hpp"
#include "prophet/estimator/estimator.hpp"
#include "prophet/interp/interpreter.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/machine/machine.hpp"
#include "prophet/models/builtins.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/sim/engine.hpp"

namespace estimator = prophet::estimator;
namespace sim = prophet::sim;

namespace {

sim::Process zero_hold(sim::Engine& engine) { co_await engine.hold(0); }

sim::Process hold_one(sim::Engine& engine) { co_await engine.hold(1); }

sim::Process await_children(sim::Engine& engine, int children, bool hold) {
  for (int child = 0; child < children; ++child) {
    if (hold) {
      co_await hold_one(engine);
    } else {
      co_await zero_hold(engine);
    }
  }
}

/// Global operator new calls of one run in which a process awaits
/// `children` sub-processes, synchronous ones or ones that hold.
std::uint64_t run_allocations(int children, bool hold) {
  return prophet::testing::allocations_of([&] {
    sim::Engine engine;
    engine.spawn(await_children(engine, children, hold));
    engine.run();
  });
}

TEST(FrameCache, RunAllocationsDoNotGrowWithSubProcesses) {
  // Frames come from the per-thread cache, so a run allocates a constant
  // number of blocks (the calendar, the join table, the cache's first
  // chunk) however many sub-processes it awaits.
  for (const bool hold : {false, true}) {
    const std::uint64_t few = run_allocations(100, hold);
    const std::uint64_t many = run_allocations(10000, hold);
    EXPECT_GT(few, 0u) << "the counting operator new is not linked";
    EXPECT_LE(many, few + 2) << "hold=" << hold << ": " << few << " vs "
                             << many;
  }
}

estimator::EstimationOptions sweep_options() {
  estimator::EstimationOptions options;
  options.collect_trace = false;
  options.collect_machine_report = false;
  return options;
}

/// Global operator new calls of one simulated run of `@spin(trips)`,
/// after a first run has warmed the interpreter.
std::uint64_t spin_run_allocations(double trips) {
  prophet::interp::Interpreter interpreter(prophet::models::spin_model(trips));
  const estimator::SimulationManager manager({}, sweep_options());
  (void)manager.run(interpreter);
  return prophet::testing::allocations_of(
      [&] { (void)manager.run(interpreter); });
}

TEST(Interpreter, RunAllocationsDoNotGrowWithLoopTrips) {
  // Loop trips borrow the loop's scope and their frames come from the
  // engine's frame cache: a run's allocations are its set-up.
  const std::uint64_t few = spin_run_allocations(100);
  const std::uint64_t many = spin_run_allocations(10000);
  EXPECT_GT(few, 0u);
  EXPECT_LE(many, few + 2) << few << " vs " << many;
}

/// Global operator new calls of one estimate of `@spin(trips)` by a
/// generated evaluator, after a first estimate has warmed it.
std::uint64_t spin_estimate_allocations(double trips) {
  const auto prepared = prophet::cgen::CodegenBackend().prepare(
      prophet::lower::lower(prophet::models::spin_model(trips)));
  prophet::machine::SystemParameters params;
  params.processes = 1;
  const estimator::EstimationOptions options = sweep_options();
  (void)prepared->estimate(params, options);
  return prophet::testing::allocations_of(
      [&] { (void)prepared->estimate(params, options); });
}

TEST(CodegenBackend, RunAllocationsDoNotGrowWithLoopTrips) {
  // The evaluator's frames come from its own copy of the engine's frame
  // cache: a run's allocations are its set-up, however many trips.
  const std::uint64_t few = spin_estimate_allocations(100);
  const std::uint64_t many = spin_estimate_allocations(10000);
  EXPECT_GT(few, 0u);
  EXPECT_LE(many, few + 2) << few << " vs " << many;
}

/// Global operator new calls of one analytic estimate of `reference` at
/// `np` processes, after the same estimate has warmed the thread's
/// workspace: a scalar estimate, or a batch of 8 lanes (nodes 1..4 x ppn
/// 1..2) that walks as one group.
std::uint64_t analytic_allocations(const char* reference, int np,
                                   bool batched) {
  const auto prepared = prophet::analytic::AnalyticBackend().prepare(
      prophet::lower::lower(
          prophet::models::Registry::builtin().make(reference)));
  std::vector<prophet::machine::SystemParameters> lanes;
  for (int nodes = 1; nodes <= 4; ++nodes) {
    for (int ppn = 1; ppn <= 2; ++ppn) {
      prophet::machine::SystemParameters params;
      params.processes = np;
      params.nodes = nodes;
      params.processors_per_node = ppn;
      lanes.push_back(params);
    }
  }
  const estimator::EstimationOptions options = sweep_options();
  const auto estimate = [&] {
    if (batched) {
      (void)prepared->estimate_batch(lanes, options);
    } else {
      (void)prepared->estimate(lanes.front(), options);
    }
  };
  estimate();
  return prophet::testing::allocations_of(estimate);
}

TEST(AnalyticBackend, WarmEstimatesAllocateOnlyTheirReports) {
  // The walk, replay and ledger buffers live in the thread's workspace
  // and keep their capacity, so a warm estimate allocates its reports
  // (per lane: the finish times and the node loads; per batch: the two
  // report vectors) however many processes it walks and replays.
  // @pipeline walks pid by pid and replays loops of sends and receives;
  // @masterworker's `?:` tag takes the VM's lane-by-lane path.
  for (const char* reference : {"@pipeline", "@masterworker"}) {
    for (const bool batched : {false, true}) {
      const std::uint64_t few = analytic_allocations(reference, 2, batched);
      const std::uint64_t many = analytic_allocations(reference, 16, batched);
      EXPECT_GT(few, 0u) << "the counting operator new is not linked";
      EXPECT_EQ(many, few) << reference << (batched ? " batched" : " scalar")
                           << ": " << few << " at np=2 vs " << many
                           << " at np=16";
    }
  }
}

}  // namespace
