// Facilities: queueing semantics, priorities, statistics identities.
#include <gtest/gtest.h>

#include "prophet/sim/engine.hpp"
#include "prophet/sim/facility.hpp"

namespace sim = prophet::sim;

namespace {

sim::Process use(sim::Engine& engine, sim::Facility& facility, double service,
                 std::vector<double>* done = nullptr, int priority = 0) {
  co_await facility.acquire(priority);
  co_await engine.hold(service);
  facility.release();
  if (done != nullptr) {
    done->push_back(engine.now());
  }
}

TEST(Facility, SingleServerSerializes) {
  sim::Engine engine;
  sim::Facility cpu(engine, "cpu", 1);
  std::vector<double> done;
  engine.spawn(use(engine, cpu, 2.0, &done));
  engine.spawn(use(engine, cpu, 2.0, &done));
  engine.spawn(use(engine, cpu, 2.0, &done));
  engine.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_DOUBLE_EQ(done[0], 2.0);
  EXPECT_DOUBLE_EQ(done[1], 4.0);
  EXPECT_DOUBLE_EQ(done[2], 6.0);
  EXPECT_EQ(cpu.completions(), 3u);
}

TEST(Facility, MultipleServersRunConcurrently) {
  sim::Engine engine;
  sim::Facility cpu(engine, "cpu", 3);
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    engine.spawn(use(engine, cpu, 2.0, &done));
  }
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);  // all in parallel
}

TEST(Facility, TwoServersThreeJobs) {
  sim::Engine engine;
  sim::Facility cpu(engine, "cpu", 2);
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    engine.spawn(use(engine, cpu, 2.0, &done));
  }
  engine.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_DOUBLE_EQ(done[0], 2.0);
  EXPECT_DOUBLE_EQ(done[1], 2.0);
  EXPECT_DOUBLE_EQ(done[2], 4.0);
}

TEST(Facility, FcfsOrderWithinEqualPriority) {
  sim::Engine engine;
  sim::Facility cpu(engine, "cpu", 1);
  std::vector<int> order;
  auto job = [&order](sim::Engine& eng, sim::Facility& f, int id,
                      double arrival) -> sim::Process {
    co_await eng.hold(arrival);
    co_await f.acquire();
    co_await eng.hold(1.0);
    f.release();
    order.push_back(id);
  };
  engine.spawn(job(engine, cpu, 0, 0.0));
  engine.spawn(job(engine, cpu, 1, 0.1));
  engine.spawn(job(engine, cpu, 2, 0.2));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Facility, HigherPriorityJumpsQueue) {
  sim::Engine engine;
  sim::Facility cpu(engine, "cpu", 1);
  std::vector<int> order;
  auto job = [&order](sim::Engine& eng, sim::Facility& f, int id,
                      double arrival, int priority) -> sim::Process {
    co_await eng.hold(arrival);
    co_await f.acquire(priority);
    co_await eng.hold(1.0);
    f.release();
    order.push_back(id);
  };
  engine.spawn(job(engine, cpu, 0, 0.0, 0));  // occupies server
  engine.spawn(job(engine, cpu, 1, 0.1, 0));  // waits
  engine.spawn(job(engine, cpu, 2, 0.2, 5));  // high priority, overtakes 1
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(Facility, ManyWaitersAreServedByPriorityThenArrival) {
  // One server held while 200 jobs queue with priorities 0..4 in a
  // scrambled order: grants go by priority descending, then by arrival
  // within a priority (jobs arriving at one time arrive in spawn order).
  sim::Engine engine;
  sim::Facility cpu(engine, "cpu", 1);
  std::vector<int> order;
  auto job = [&order](sim::Engine& eng, sim::Facility& f, int id,
                      double arrival, int priority) -> sim::Process {
    co_await eng.hold(arrival);
    co_await f.acquire(priority);
    co_await eng.hold(1.0);
    f.release();
    order.push_back(id);
  };
  engine.spawn(job(engine, cpu, -1, 0.0, 0));  // occupies the server
  constexpr int kJobs = 200;
  const auto priority_of = [](int id) { return (id * 7) % 5; };
  for (int id = 0; id < kJobs; ++id) {
    engine.spawn(job(engine, cpu, id, 0.001 * (1 + id / 3), priority_of(id)));
  }
  std::size_t longest = 0;
  auto watch = [&](sim::Engine& eng, sim::Facility& f) -> sim::Process {
    co_await eng.hold(0.5);
    longest = f.queue_length();
  };
  engine.spawn(watch(engine, cpu));
  engine.run();
  EXPECT_EQ(longest, static_cast<std::size_t>(kJobs));

  std::vector<int> expected;
  for (int priority = 4; priority >= 0; --priority) {
    for (int id = 0; id < kJobs; ++id) {
      if (priority_of(id) == priority) {
        expected.push_back(id);
      }
    }
  }
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kJobs + 1));
  EXPECT_EQ(order.front(), -1);
  EXPECT_EQ(std::vector<int>(order.begin() + 1, order.end()), expected);
  EXPECT_EQ(cpu.queue_length(), 0u);
  EXPECT_DOUBLE_EQ(cpu.max_queue_length(), static_cast<double>(kJobs));
  EXPECT_EQ(cpu.completions(), static_cast<std::uint64_t>(kJobs + 1));
  EXPECT_EQ(cpu.waiting_times().count(), static_cast<std::uint64_t>(kJobs + 1));
}

TEST(Facility, UtilizationIdentity) {
  sim::Engine engine;
  sim::Facility cpu(engine, "cpu", 1);
  engine.spawn(use(engine, cpu, 3.0));
  engine.spawn(use(engine, cpu, 1.0));
  engine.run();
  // Busy 4 time units out of 4 elapsed -> utilization 1.
  EXPECT_DOUBLE_EQ(engine.now(), 4.0);
  EXPECT_NEAR(cpu.utilization(), 1.0, 1e-12);
}

TEST(Facility, PartialUtilization) {
  sim::Engine engine;
  sim::Facility cpu(engine, "cpu", 1);
  auto late = [](sim::Engine& eng, sim::Facility& f) -> sim::Process {
    co_await eng.hold(3.0);
    co_await f.acquire();
    co_await eng.hold(1.0);
    f.release();
  };
  engine.spawn(late(engine, cpu));
  engine.run();
  // Busy 1 of 4 time units.
  EXPECT_NEAR(cpu.utilization(), 0.25, 1e-12);
}

TEST(Facility, WaitingTimesRecorded) {
  sim::Engine engine;
  sim::Facility cpu(engine, "cpu", 1);
  engine.spawn(use(engine, cpu, 2.0));
  engine.spawn(use(engine, cpu, 2.0));
  engine.run();
  EXPECT_EQ(cpu.waiting_times().count(), 2u);
  EXPECT_DOUBLE_EQ(cpu.waiting_times().min(), 0.0);
  EXPECT_DOUBLE_EQ(cpu.waiting_times().max(), 2.0);
}

TEST(Facility, ReleaseWhenIdleThrows) {
  sim::Engine engine;
  sim::Facility cpu(engine, "cpu", 1);
  EXPECT_THROW(cpu.release(), std::logic_error);
}

TEST(Facility, NeedsPositiveServers) {
  sim::Engine engine;
  EXPECT_THROW(sim::Facility(engine, "bad", 0), std::invalid_argument);
}

TEST(Facility, QueueLengthStatistics) {
  sim::Engine engine;
  sim::Facility cpu(engine, "cpu", 1);
  for (int i = 0; i < 4; ++i) {
    engine.spawn(use(engine, cpu, 1.0));
  }
  engine.run();
  EXPECT_DOUBLE_EQ(cpu.max_queue_length(), 3.0);
  EXPECT_GT(cpu.mean_queue_length(), 0.0);
  EXPECT_EQ(cpu.queue_length(), 0u);
}

}  // namespace
