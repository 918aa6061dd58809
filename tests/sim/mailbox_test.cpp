// Mailboxes, statistics accumulators, and the deterministic RNG.
#include <gtest/gtest.h>

#include <cmath>

#include "prophet/sim/engine.hpp"
#include "prophet/sim/mailbox.hpp"
#include "prophet/sim/random.hpp"
#include "prophet/sim/stats.hpp"

namespace sim = prophet::sim;

namespace {

TEST(Mailbox, ReceiveBlocksUntilSend) {
  sim::Engine engine;
  sim::Mailbox box(engine, "box");
  double received_at = -1;
  int source = -1;
  auto receiver = [&](sim::Engine& eng, sim::Mailbox& mb) -> sim::Process {
    const sim::Message message = co_await mb.receive();
    received_at = eng.now();
    source = message.source;
  };
  auto sender = [](sim::Engine& eng, sim::Mailbox& mb) -> sim::Process {
    co_await eng.hold(5.0);
    mb.send({.source = 3, .tag = 0, .size = 64});
  };
  engine.spawn(receiver(engine, box));
  engine.spawn(sender(engine, box));
  engine.run();
  EXPECT_DOUBLE_EQ(received_at, 5.0);
  EXPECT_EQ(source, 3);
}

TEST(Mailbox, EarlySendIsBuffered) {
  sim::Engine engine;
  sim::Mailbox box(engine, "box");
  double received_at = -1;
  auto receiver = [&](sim::Engine& eng, sim::Mailbox& mb) -> sim::Process {
    co_await eng.hold(10.0);
    (void)co_await mb.receive();
    received_at = eng.now();
  };
  auto sender = [](sim::Engine&, sim::Mailbox& mb) -> sim::Process {
    mb.send({});
    co_return;
  };
  engine.spawn(receiver(engine, box));
  engine.spawn(sender(engine, box));
  engine.run();
  EXPECT_DOUBLE_EQ(received_at, 10.0);  // no extra wait
  EXPECT_EQ(box.messages_received(), 1u);
}

TEST(Mailbox, FifoDelivery) {
  sim::Engine engine;
  sim::Mailbox box(engine, "box");
  std::vector<std::uint64_t> payloads;
  auto receiver = [&](sim::Mailbox& mb, int count) -> sim::Process {
    for (int i = 0; i < count; ++i) {
      const sim::Message m = co_await mb.receive();
      payloads.push_back(m.payload);
    }
  };
  auto sender = [](sim::Engine& eng, sim::Mailbox& mb) -> sim::Process {
    for (std::uint64_t i = 0; i < 5; ++i) {
      co_await eng.hold(1.0);
      mb.send({.source = 0, .tag = 0, .size = 0, .sent_at = 0, .payload = i});
    }
  };
  engine.spawn(receiver(box, 5));
  engine.spawn(sender(engine, box));
  engine.run();
  EXPECT_EQ(payloads, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(Mailbox, MultipleWaitersServedInOrder) {
  sim::Engine engine;
  sim::Mailbox box(engine, "box");
  std::vector<int> order;
  auto receiver = [&order](sim::Engine& eng, sim::Mailbox& mb, int id,
                           double start) -> sim::Process {
    co_await eng.hold(start);
    (void)co_await mb.receive();
    order.push_back(id);
  };
  auto sender = [](sim::Engine& eng, sim::Mailbox& mb) -> sim::Process {
    co_await eng.hold(10.0);
    mb.send({});
    mb.send({});
  };
  engine.spawn(receiver(engine, box, 0, 0.0));
  engine.spawn(receiver(engine, box, 1, 1.0));
  engine.spawn(sender(engine, box));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(Mailbox, LongQueuesStayFifo) {
  // Bursts that never drain the queue, then a drain: every message is
  // delivered once, in send order, across the queue's compactions.
  sim::Engine engine;
  sim::Mailbox box(engine, "box");
  std::vector<std::uint64_t> payloads;
  auto sender = [](sim::Engine& eng, sim::Mailbox& mb) -> sim::Process {
    for (std::uint64_t i = 0; i < 300; ++i) {
      mb.send({.source = 0, .tag = 0, .size = 0, .sent_at = 0, .payload = i});
      if (i % 3 == 2) {
        co_await eng.hold(1.0);
      }
    }
  };
  auto receiver = [&payloads](sim::Engine& eng,
                              sim::Mailbox& mb) -> sim::Process {
    co_await eng.hold(0.5);
    for (int i = 0; i < 300; ++i) {
      payloads.push_back((co_await mb.receive()).payload);
      if (i % 2 == 1) {
        co_await eng.hold(1.0);
      }
    }
  };
  engine.spawn(sender(engine, box));
  engine.spawn(receiver(engine, box));
  engine.run();
  ASSERT_EQ(payloads.size(), 300u);
  for (std::uint64_t i = 0; i < 300; ++i) {
    EXPECT_EQ(payloads[i], i);
  }
  EXPECT_EQ(box.pending(), 0u);
  EXPECT_EQ(box.messages_received(), 300u);
  EXPECT_GT(box.mean_pending(), 1.0);
}

TEST(Mailbox, StatsTrackTraffic) {
  sim::Engine engine;
  sim::Mailbox box(engine, "box");
  auto sender = [](sim::Engine& eng, sim::Mailbox& mb) -> sim::Process {
    mb.send({});
    co_await eng.hold(1.0);
    mb.send({});
  };
  engine.spawn(sender(engine, box));
  engine.run();
  EXPECT_EQ(box.messages_sent(), 2u);
  EXPECT_EQ(box.messages_received(), 0u);
  EXPECT_EQ(box.pending(), 2u);
}

// --- Statistics ----------------------------------------------------------------

TEST(Stats, AccumulatorMoments) {
  sim::Accumulator acc;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) {
    acc.record(v);
  }
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 1.25);
}

TEST(Stats, EmptyAccumulatorIsZero) {
  const sim::Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 0.0);
}

TEST(Stats, TimeWeightedMean) {
  sim::TimeWeighted level;
  level.set(2.0, 0.0);   // level 2 from t=0
  level.set(4.0, 10.0);  // level 4 from t=10
  // mean over [0,20] = (2*10 + 4*10)/20 = 3.
  EXPECT_DOUBLE_EQ(level.mean(20.0), 3.0);
  EXPECT_DOUBLE_EQ(level.max(), 4.0);
}

TEST(Stats, HistogramBinsAndClamping) {
  sim::Histogram histogram(0.0, 10.0, 5);
  histogram.record(1.0);
  histogram.record(3.0);
  histogram.record(3.5);
  histogram.record(-5.0);  // clamped to first bin
  histogram.record(99.0);  // clamped to last bin
  EXPECT_EQ(histogram.total(), 5u);
  EXPECT_EQ(histogram.counts()[0], 2u);
  EXPECT_EQ(histogram.counts()[1], 2u);
  EXPECT_EQ(histogram.counts()[4], 1u);
  EXPECT_FALSE(histogram.render().empty());
}

// --- RNG -------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  sim::Rng a(42);
  sim::Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  sim::Rng a(1);
  sim::Rng b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  sim::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  sim::Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
    saw_lo = saw_lo || v == 1;
    saw_hi = saw_hi || v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean) {
  sim::Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.exponential(2.0);
  }
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Rng, NormalMoments) {
  sim::Rng rng(13);
  double sum = 0;
  double sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 2.0, 0.05);
}

TEST(Rng, BernoulliProbability) {
  sim::Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

}  // namespace
