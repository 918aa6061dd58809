// Unit tests for the discrete-event simulation engine: clock, event
// ordering, process spawning/joining, sub-process calls, holds, error
// propagation, the bounded stack of synchronous sub-processes and frames
// above the frame cache's largest size class.
#include "prophet/sim/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

namespace sim = prophet::sim;

namespace {

sim::Process hold_then_mark(sim::Engine& engine, std::vector<double>& marks,
                            double delay) {
  co_await engine.hold(delay);
  marks.push_back(engine.now());
}

TEST(Engine, StartsAtTimeZero) {
  sim::Engine engine;
  EXPECT_EQ(engine.now(), 0.0);
  EXPECT_TRUE(engine.idle());
  EXPECT_EQ(engine.events_processed(), 0u);
}

TEST(Engine, HoldAdvancesClock) {
  sim::Engine engine;
  std::vector<double> marks;
  engine.spawn(hold_then_mark(engine, marks, 2.5));
  engine.run();
  ASSERT_EQ(marks.size(), 1u);
  EXPECT_DOUBLE_EQ(marks[0], 2.5);
  EXPECT_DOUBLE_EQ(engine.now(), 2.5);
}

TEST(Engine, ProcessesFireInTimeOrder) {
  sim::Engine engine;
  std::vector<double> marks;
  engine.spawn(hold_then_mark(engine, marks, 3.0));
  engine.spawn(hold_then_mark(engine, marks, 1.0));
  engine.spawn(hold_then_mark(engine, marks, 2.0));
  engine.run();
  ASSERT_EQ(marks.size(), 3u);
  EXPECT_DOUBLE_EQ(marks[0], 1.0);
  EXPECT_DOUBLE_EQ(marks[1], 2.0);
  EXPECT_DOUBLE_EQ(marks[2], 3.0);
}

TEST(Engine, EqualTimesFireInSpawnOrder) {
  sim::Engine engine;
  std::vector<int> order;
  auto proc = [](sim::Engine& eng, std::vector<int>& log,
                 int id) -> sim::Process {
    co_await eng.hold(1.0);
    log.push_back(id);
  };
  for (int i = 0; i < 10; ++i) {
    engine.spawn(proc(engine, order, i));
  }
  engine.run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Engine, ZeroHoldDoesNotAdvanceClock) {
  sim::Engine engine;
  std::vector<double> marks;
  engine.spawn(hold_then_mark(engine, marks, 0.0));
  engine.run();
  ASSERT_EQ(marks.size(), 1u);
  EXPECT_DOUBLE_EQ(marks[0], 0.0);
}

TEST(Engine, NegativeHoldThrows) {
  sim::Engine engine;
  auto proc = [](sim::Engine& eng) -> sim::Process {
    co_await eng.hold(-1.0);
  };
  engine.spawn(proc(engine));
  EXPECT_THROW(engine.run(), std::invalid_argument);
}

TEST(Engine, SequentialHoldsAccumulate) {
  sim::Engine engine;
  double finished = -1;
  auto proc = [](sim::Engine& eng, double& out) -> sim::Process {
    co_await eng.hold(1.0);
    co_await eng.hold(2.0);
    co_await eng.hold(3.0);
    out = eng.now();
  };
  engine.spawn(proc(engine, finished));
  engine.run();
  EXPECT_DOUBLE_EQ(finished, 6.0);
}

TEST(Engine, SubProcessRunsInline) {
  sim::Engine engine;
  std::vector<std::string> log;
  auto child = [](sim::Engine& eng, std::vector<std::string>& out,
                  double d) -> sim::Process {
    out.push_back("child-start");
    co_await eng.hold(d);
    out.push_back("child-end");
  };
  auto parent = [&child](sim::Engine& eng,
                         std::vector<std::string>& out) -> sim::Process {
    out.push_back("parent-start");
    co_await child(eng, out, 4.0);
    out.push_back("parent-end");
  };
  engine.spawn(parent(engine, log));
  engine.run();
  const std::vector<std::string> expected{"parent-start", "child-start",
                                          "child-end", "parent-end"};
  EXPECT_EQ(log, expected);
  EXPECT_DOUBLE_EQ(engine.now(), 4.0);
}

TEST(Engine, DeeplyNestedSubProcesses) {
  sim::Engine engine;
  struct Helper {
    static sim::Process nest(sim::Engine& eng, int depth, int& leaves) {
      if (depth == 0) {
        co_await eng.hold(0.001);
        ++leaves;
        co_return;
      }
      co_await nest(eng, depth - 1, leaves);
      co_await nest(eng, depth - 1, leaves);
    }
  };
  int leaves = 0;
  engine.spawn(Helper::nest(engine, 10, leaves));
  engine.run();
  EXPECT_EQ(leaves, 1024);
  EXPECT_NEAR(engine.now(), 1.024, 1e-9);
}

TEST(Engine, SpawnAndJoin) {
  sim::Engine engine;
  std::vector<std::string> log;
  auto worker = [](sim::Engine& eng, std::vector<std::string>& out,
                   double d) -> sim::Process {
    co_await eng.hold(d);
    out.push_back("worker@" + std::to_string(eng.now()));
  };
  auto parent = [&worker](sim::Engine& eng,
                          std::vector<std::string>& out) -> sim::Process {
    sim::ProcessRef a = eng.spawn(worker(eng, out, 2.0));
    sim::ProcessRef b = eng.spawn(worker(eng, out, 5.0));
    co_await a;
    out.push_back("joined-a@" + std::to_string(eng.now()));
    co_await b;
    out.push_back("joined-b@" + std::to_string(eng.now()));
  };
  engine.spawn(parent(engine, log));
  engine.run();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[1], "joined-a@" + std::to_string(2.0));
  EXPECT_EQ(log[3], "joined-b@" + std::to_string(5.0));
}

TEST(Engine, JoinAlreadyFinishedProcessIsImmediate) {
  sim::Engine engine;
  auto quick = [](sim::Engine& eng) -> sim::Process { co_await eng.hold(1); };
  auto parent = [&quick](sim::Engine& eng, double& joined) -> sim::Process {
    sim::ProcessRef ref = eng.spawn(quick(eng));
    co_await eng.hold(10.0);
    EXPECT_TRUE(ref.done());
    co_await ref;  // must not deadlock
    joined = eng.now();
  };
  double joined = -1;
  engine.spawn(parent(engine, joined));
  engine.run();
  EXPECT_DOUBLE_EQ(joined, 10.0);
}

TEST(Engine, ConcurrentProcessesOverlapInSimTime) {
  sim::Engine engine;
  // Two spawned processes each hold 5s; total simulated time is 5, not 10.
  auto worker = [](sim::Engine& eng) -> sim::Process {
    co_await eng.hold(5.0);
  };
  engine.spawn(worker(engine));
  engine.spawn(worker(engine));
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
}

TEST(Engine, RunUntilStopsEarly) {
  sim::Engine engine;
  std::vector<double> marks;
  engine.spawn(hold_then_mark(engine, marks, 1.0));
  engine.spawn(hold_then_mark(engine, marks, 100.0));
  engine.run(/*until=*/10.0);
  EXPECT_EQ(marks.size(), 1u);
  EXPECT_FALSE(engine.idle());
  engine.run();
  EXPECT_EQ(marks.size(), 2u);
}

TEST(Engine, StepProcessesOneEvent) {
  sim::Engine engine;
  std::vector<double> marks;
  engine.spawn(hold_then_mark(engine, marks, 1.0));
  engine.spawn(hold_then_mark(engine, marks, 2.0));
  // Each process needs two events: initial resume + post-hold resume.
  EXPECT_TRUE(engine.step());
  EXPECT_TRUE(engine.step());
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(marks.size(), 1u);
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(marks.size(), 2u);
  EXPECT_FALSE(engine.step());
}

TEST(Engine, ErrorInSpawnedProcessPropagatesToRun) {
  sim::Engine engine;
  auto bad = [](sim::Engine& eng) -> sim::Process {
    co_await eng.hold(1.0);
    throw std::runtime_error("model failure");
  };
  engine.spawn(bad(engine));
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(Engine, ErrorInJoinedProcessPropagatesToJoiner) {
  sim::Engine engine;
  auto bad = [](sim::Engine& eng) -> sim::Process {
    co_await eng.hold(1.0);
    throw std::runtime_error("child failure");
  };
  bool caught = false;
  auto parent = [&bad](sim::Engine& eng, bool& flag) -> sim::Process {
    sim::ProcessRef ref = eng.spawn(bad(eng));
    try {
      co_await ref;
    } catch (const std::runtime_error&) {
      flag = true;
    }
  };
  engine.spawn(parent(engine, caught));
  engine.run();
  EXPECT_TRUE(caught);
}

TEST(Engine, ErrorInSubProcessPropagatesToCaller) {
  sim::Engine engine;
  auto bad = [](sim::Engine& eng) -> sim::Process {
    co_await eng.hold(1.0);
    throw std::runtime_error("sub failure");
  };
  bool caught = false;
  auto parent = [&bad](sim::Engine& eng, bool& flag) -> sim::Process {
    try {
      co_await bad(eng);
    } catch (const std::runtime_error&) {
      flag = true;
    }
    co_await eng.hold(1.0);
  };
  engine.spawn(parent(engine, caught));
  engine.run();
  EXPECT_TRUE(caught);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
}

TEST(Engine, LiveProcessCountTracksCompletion) {
  sim::Engine engine;
  auto worker = [](sim::Engine& eng) -> sim::Process {
    co_await eng.hold(1.0);
  };
  engine.spawn(worker(engine));
  engine.spawn(worker(engine));
  EXPECT_EQ(engine.live_processes(), 2u);
  engine.run();
  EXPECT_EQ(engine.live_processes(), 0u);
}

TEST(Engine, BlockedProcessesAreReclaimedAtEngineDestruction) {
  // A process that waits forever on a join must not leak; the engine
  // destroys suspended frames in its destructor (ASAN would flag a leak).
  auto never = [](sim::Engine& eng, sim::ProcessRef ref) -> sim::Process {
    co_await ref;
    co_await eng.hold(1.0);
  };
  auto forever = [](sim::Engine& eng) -> sim::Process {
    co_await eng.hold(sim::kTimeInfinity);
  };
  sim::Engine engine;
  sim::ProcessRef ref = engine.spawn(forever(engine));
  engine.spawn(never(engine, ref));
  engine.run(/*until=*/100.0);
  EXPECT_GT(engine.live_processes(), 0u);
  // Destructor runs at scope exit; the test passes if nothing crashes/leaks.
}

TEST(Engine, ManyProcessesThroughput) {
  sim::Engine engine;
  auto worker = [](sim::Engine& eng, int hops) -> sim::Process {
    for (int i = 0; i < hops; ++i) {
      co_await eng.hold(0.5);
    }
  };
  for (int i = 0; i < 1000; ++i) {
    engine.spawn(worker(engine, 10));
  }
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
  // 1000 initial resumes + 1000*10 hold resumes.
  EXPECT_EQ(engine.events_processed(), 11000u);
}

TEST(Engine, JoinStateOutlivesTheProcessWhileReferenced) {
  // Handles share one join slot: copies and moves all see the same
  // completion, and a spawn after the last handle is gone starts fresh.
  sim::Engine engine;
  auto quick = [](sim::Engine& eng) -> sim::Process { co_await eng.hold(1); };
  sim::ProcessRef first = engine.spawn(quick(engine));
  sim::ProcessRef copy = first;
  sim::ProcessRef moved = std::move(first);
  EXPECT_FALSE(first.valid());
  engine.run();
  EXPECT_TRUE(copy.done());
  EXPECT_TRUE(moved.done());
  copy = sim::ProcessRef();
  moved = sim::ProcessRef();
  sim::ProcessRef next = engine.spawn(quick(engine));
  EXPECT_FALSE(next.done());
  engine.run();
  EXPECT_TRUE(next.done());
  EXPECT_EQ(engine.live_processes(), 0u);
}

TEST(Engine, JoinersResumeInArrivalOrder) {
  sim::Engine engine;
  std::vector<int> order;
  auto target = [](sim::Engine& eng) -> sim::Process { co_await eng.hold(5); };
  auto joiner = [](sim::Engine& eng, sim::ProcessRef ref, double arrival,
                   int id, std::vector<int>& out) -> sim::Process {
    co_await eng.hold(arrival);
    co_await ref;
    out.push_back(id);
  };
  const sim::ProcessRef ref = engine.spawn(target(engine));
  for (int id = 0; id < 8; ++id) {
    // Later ids arrive earlier: the joins resume in arrival order.
    engine.spawn(joiner(engine, ref, 1.0 - 0.1 * id, id, order));
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{7, 6, 5, 4, 3, 2, 1, 0}));
}

sim::Process zero_hold(sim::Engine& engine) { co_await engine.hold(0); }

sim::Process await_children(sim::Engine& engine, int children, int& done) {
  for (int child = 0; child < children; ++child) {
    co_await zero_hold(engine);
    ++done;
  }
}

TEST(Engine, SynchronousSubProcessesKeepTheStackBounded) {
  // A million sub-processes that complete without suspending, all in one
  // event.  Each returns to its caller by symmetric transfer, which nests
  // a resumption where the compiler makes no tail call (Debug and
  // sanitized builds); the engine unwinds the stack every few returns
  // without adding an event.
  sim::Engine engine;
  int done = 0;
  engine.spawn(await_children(engine, 1000000, done));
  engine.run();
  EXPECT_EQ(done, 1000000);
  EXPECT_EQ(engine.events_processed(), 1u);
}

sim::Process hold_one(sim::Engine& engine) { co_await engine.hold(1); }

sim::Process big_frame(sim::Engine& engine, double& sum) {
  // 8 KiB live across a suspension: a frame above the cache's largest
  // size class, which comes from the heap instead.
  std::array<double, 1024> values{};
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i);
  }
  co_await engine.hold(1);
  for (const double value : values) {
    sum += value;
  }
}

TEST(FrameCache, FramesAboveTheLargestClassUseTheHeap) {
  sim::Engine engine;
  double sum = 0;
  auto parent = [](sim::Engine& eng, double& out) -> sim::Process {
    co_await big_frame(eng, out);
    co_await hold_one(eng);
  };
  engine.spawn(parent(engine, sum));
  engine.run();
  EXPECT_DOUBLE_EQ(sum, 1023.0 * 1024.0 / 2.0);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
}

TEST(Engine, ScheduleIntoPastThrows) {
  sim::Engine engine;
  std::vector<double> marks;
  engine.spawn(hold_then_mark(engine, marks, 5.0));
  engine.run();
  auto late = [](sim::Engine& eng) -> sim::Process { co_await eng.hold(0); };
  EXPECT_THROW(engine.spawn_at(1.0, late(engine)), std::logic_error);
}

}  // namespace
