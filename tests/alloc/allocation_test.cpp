// Allocation pins: a simulated run allocates its set-up and nothing per
// event, in the engine alone, under the interpreter and in a generated
// evaluator.  Each pin counts the global operator new calls of a run at
// two sizes; the counts may differ by a small constant only.  They hold
// in sanitized builds too: counting_new.cpp forwards to malloc, which the
// sanitizer runtime intercepts.
#include <gtest/gtest.h>

#include <cstdint>

#include "counting_new.hpp"
#include "prophet/cgen/backend.hpp"
#include "prophet/estimator/estimator.hpp"
#include "prophet/interp/interpreter.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/machine/machine.hpp"
#include "prophet/models/builtins.hpp"
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

}  // namespace
