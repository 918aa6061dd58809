// Workload elements: ActionPlus contention, message passing, collectives,
// barriers, parallel regions, worksharing, critical sections, fork/join.
#include <gtest/gtest.h>

#include "prophet/workload/runtime.hpp"

namespace machine = prophet::machine;
namespace sim = prophet::sim;
namespace workload = prophet::workload;

namespace {

/// Test fixture wiring a fresh engine + machine + communicator.
struct Rig {
  explicit Rig(machine::SystemParameters params = {})
      : machine_model(engine, params), comm(engine, machine_model) {}

  workload::ModelContext ctx(int pid = 0, int tid = 0) {
    workload::ModelContext context;
    context.engine = &engine;
    context.machine = &machine_model;
    context.comm = &comm;
    context.trace = &trace;
    context.pid = pid;
    context.tid = tid;
    return context;
  }

  sim::Engine engine;
  machine::MachineModel machine_model;
  workload::Communicator comm;
  prophet::trace::Trace trace;
};

machine::SystemParameters params_np(int np, int nodes = 0, int ppn = 1) {
  machine::SystemParameters params;
  params.processes = np;
  params.nodes = nodes == 0 ? np : nodes;
  params.processors_per_node = ppn;
  return params;
}

sim::Process run_action(workload::ModelContext ctx, double cost) {
  workload::ActionPlus action(ctx, "A");
  co_await action.execute(1, ctx.pid, ctx.tid, cost);
}

TEST(ActionPlus, ConsumesCost) {
  Rig rig;
  rig.engine.spawn(run_action(rig.ctx(), 2.5));
  rig.engine.run();
  EXPECT_DOUBLE_EQ(rig.engine.now(), 2.5);
  ASSERT_EQ(rig.trace.size(), 1u);
  EXPECT_EQ(rig.trace.events()[0].element, "A");
  EXPECT_DOUBLE_EQ(rig.trace.events()[0].duration(), 2.5);
}

TEST(ActionPlus, CpuSpeedScaling) {
  machine::SystemParameters params;
  params.cpu_speed = 2.0;
  Rig rig(params);
  rig.engine.spawn(run_action(rig.ctx(), 3.0));
  rig.engine.run();
  EXPECT_DOUBLE_EQ(rig.engine.now(), 1.5);
}

TEST(ActionPlus, OversubscriptionQueues) {
  // 2 processes on a single 1-processor node serialize.
  Rig rig(params_np(2, /*nodes=*/1, /*ppn=*/1));
  rig.engine.spawn(run_action(rig.ctx(0), 1.0));
  rig.engine.spawn(run_action(rig.ctx(1), 1.0));
  rig.engine.run();
  EXPECT_DOUBLE_EQ(rig.engine.now(), 2.0);
}

TEST(ActionPlus, SeparateNodesRunConcurrently) {
  Rig rig(params_np(2, /*nodes=*/2, /*ppn=*/1));
  rig.engine.spawn(run_action(rig.ctx(0), 1.0));
  rig.engine.spawn(run_action(rig.ctx(1), 1.0));
  rig.engine.run();
  EXPECT_DOUBLE_EQ(rig.engine.now(), 1.0);
}

TEST(ActionPlus, NegativeCostThrows) {
  Rig rig;
  rig.engine.spawn(run_action(rig.ctx(), -1.0));
  EXPECT_THROW(rig.engine.run(), std::invalid_argument);
}

sim::Process sender(workload::ModelContext ctx, int dest, double bytes) {
  workload::SendElement send(ctx, "S");
  co_await send.execute(1, ctx.pid, ctx.tid, dest, bytes, 0);
}

sim::Process receiver(workload::ModelContext ctx, int source, double bytes,
                      double* finished) {
  workload::RecvElement recv(ctx, "R");
  co_await recv.execute(2, ctx.pid, ctx.tid, source, bytes, 0);
  *finished = ctx.engine->now();
}

TEST(MessagePassing, TransferTimeLatencyPlusBandwidth) {
  auto params = params_np(2, 2);
  Rig rig(params);
  double finished = -1;
  rig.engine.spawn(sender(rig.ctx(0), 1, 1e6));
  rig.engine.spawn(receiver(rig.ctx(1), 0, 1e6, &finished));
  rig.engine.run();
  const double expected = params.network_overhead +
                          params.network_latency +
                          1e6 / params.network_bandwidth;
  EXPECT_NEAR(finished, expected, 1e-12);
}

TEST(MessagePassing, IntraNodeIsFaster) {
  auto params = params_np(2, /*nodes=*/1, /*ppn=*/2);
  Rig rig(params);
  double finished = -1;
  rig.engine.spawn(sender(rig.ctx(0), 1, 1e6));
  rig.engine.spawn(receiver(rig.ctx(1), 0, 1e6, &finished));
  rig.engine.run();
  const double expected = params.network_overhead + params.memory_latency +
                          1e6 / params.memory_bandwidth;
  EXPECT_NEAR(finished, expected, 1e-12);
}

TEST(MessagePassing, LateReceiverPaysNoTransferWait) {
  auto params = params_np(2, 2);
  Rig rig(params);
  double finished = -1;
  auto late_receiver = [&](workload::ModelContext ctx) -> sim::Process {
    co_await ctx.engine->hold(10.0);  // message long since arrived
    workload::RecvElement recv(ctx, "R");
    co_await recv.execute(2, ctx.pid, ctx.tid, 0, 8, 0);
    finished = ctx.engine->now();
  };
  rig.engine.spawn(sender(rig.ctx(0), 1, 8));
  rig.engine.spawn(late_receiver(rig.ctx(1)));
  rig.engine.run();
  EXPECT_DOUBLE_EQ(finished, 10.0);
}

TEST(MessagePassing, TagsSeparateStreams) {
  auto params = params_np(2, 2);
  Rig rig(params);
  std::vector<int> tags;
  auto tagged_receiver = [&](workload::ModelContext ctx,
                             int tag) -> sim::Process {
    workload::RecvElement recv(ctx, "R");
    co_await recv.execute(2, ctx.pid, ctx.tid, 0, 8, tag);
    tags.push_back(tag);
  };
  auto tagged_sender = [](workload::ModelContext ctx) -> sim::Process {
    workload::SendElement s1(ctx, "S1");
    workload::SendElement s2(ctx, "S2");
    // Send tag 7 first, then tag 3; receivers match by tag, not order.
    co_await s1.execute(1, ctx.pid, ctx.tid, 1, 8, 7);
    co_await s2.execute(1, ctx.pid, ctx.tid, 1, 8, 3);
  };
  rig.engine.spawn(tagged_receiver(rig.ctx(1), 3));
  rig.engine.spawn(tagged_receiver(rig.ctx(1), 7));
  rig.engine.spawn(tagged_sender(rig.ctx(0)));
  rig.engine.run();
  ASSERT_EQ(tags.size(), 2u);
}

sim::Process barrier_proc(workload::ModelContext ctx, double delay,
                          std::vector<double>* releases) {
  co_await ctx.engine->hold(delay);
  workload::BarrierElement barrier(ctx, "B");
  co_await barrier.execute(3, ctx.pid, ctx.tid);
  releases->push_back(ctx.engine->now());
}

TEST(Barrier, ReleasesAllTogetherAtLastArrival) {
  auto params = params_np(3, 3);
  Rig rig(params);
  std::vector<double> releases;
  rig.engine.spawn(barrier_proc(rig.ctx(0), 1.0, &releases));
  rig.engine.spawn(barrier_proc(rig.ctx(1), 5.0, &releases));
  rig.engine.spawn(barrier_proc(rig.ctx(2), 3.0, &releases));
  rig.engine.run();
  ASSERT_EQ(releases.size(), 3u);
  // All release at 5.0 + 2 rounds of barrier latency.
  const double expected = 5.0 + 2 * params.barrier_latency;
  for (const double t : releases) {
    EXPECT_NEAR(t, expected, 1e-12);
  }
}

TEST(Collective, ModelTimeFormulas) {
  sim::Engine engine;
  auto params = params_np(8, 8);
  machine::MachineModel machine_model(engine, params);
  const double round = machine_model.collective_round_time(1024);
  using CK = workload::CollectiveKind;
  EXPECT_DOUBLE_EQ(workload::CollectiveElement::model_time(machine_model,
                                                           CK::Broadcast, 8,
                                                           1024),
                   3 * round);
  EXPECT_DOUBLE_EQ(workload::CollectiveElement::model_time(machine_model,
                                                           CK::AllReduce, 8,
                                                           1024),
                   6 * round);
  EXPECT_DOUBLE_EQ(
      workload::CollectiveElement::model_time(
          machine_model, CK::Scatter, 8, 1024),
      7 * machine_model.collective_round_time(128));
  // Single participant: free.
  EXPECT_DOUBLE_EQ(workload::CollectiveElement::model_time(machine_model,
                                                           CK::Reduce, 1,
                                                           1024),
                   0.0);
}

sim::Process collective_proc(workload::ModelContext ctx, double* done) {
  workload::CollectiveElement bcast(ctx, "Bcast",
                                    workload::CollectiveKind::Broadcast);
  co_await bcast.execute(4, ctx.pid, ctx.tid, 1024, 0);
  *done = ctx.engine->now();
}

TEST(Collective, SynchronizesAllProcesses) {
  auto params = params_np(4, 4);
  Rig rig(params);
  std::vector<double> done(4, -1);
  for (int pid = 0; pid < 4; ++pid) {
    rig.engine.spawn(collective_proc(rig.ctx(pid), &done[pid]));
  }
  rig.engine.run();
  const double expected = workload::CollectiveElement::model_time(
      rig.machine_model, workload::CollectiveKind::Broadcast, 4, 1024);
  for (const double t : done) {
    EXPECT_NEAR(t, expected, 1e-12);
  }
}

TEST(Workshare, StaticShares) {
  using W = workload::WorkshareElement;
  EXPECT_EQ(W::static_share(10, 4, 0), 3);
  EXPECT_EQ(W::static_share(10, 4, 1), 3);
  EXPECT_EQ(W::static_share(10, 4, 2), 2);
  EXPECT_EQ(W::static_share(10, 4, 3), 2);
  EXPECT_EQ(W::static_share(8, 4, 0), 2);
  EXPECT_EQ(W::static_share(3, 8, 5), 0);
}

TEST(ParallelRegion, ThreadsGetDistinctTids) {
  machine::SystemParameters params;
  params.processors_per_node = 4;
  Rig rig(params);
  std::vector<int> tids;
  auto region = [&tids](workload::ModelContext ctx) -> sim::Process {
    co_await workload::parallel_region(
        ctx, 4, 9, "R", [&tids](workload::ModelContext tctx) -> sim::Process {
          tids.push_back(tctx.tid);
          co_await tctx.engine->hold(0.1);
        });
  };
  rig.engine.spawn(region(rig.ctx()));
  rig.engine.run();
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(tids, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(rig.engine.now(), 0.1);  // threads overlapped
}

TEST(ParallelRegion, WorkshareSplitsAcrossThreads) {
  machine::SystemParameters params;
  params.processors_per_node = 4;
  Rig rig(params);
  auto region = [](workload::ModelContext ctx) -> sim::Process {
    co_await workload::parallel_region(
        ctx, 4, 9, "R", [](workload::ModelContext tctx) -> sim::Process {
          workload::WorkshareElement loop(tctx, "W");
          co_await loop.execute(5, tctx.pid, tctx.tid, 1000, 0.001, "static",
                                0);
        });
  };
  rig.engine.spawn(region(rig.ctx()));
  rig.engine.run();
  // 1000 iterations x 1 ms / 4 threads = 0.25 s.
  EXPECT_NEAR(rig.engine.now(), 0.25, 1e-9);
}

TEST(ParallelRegion, SingleThreadDegenerate) {
  Rig rig;
  auto region = [](workload::ModelContext ctx) -> sim::Process {
    co_await workload::parallel_region(
        ctx, 1, 9, "R", [](workload::ModelContext tctx) -> sim::Process {
          workload::WorkshareElement loop(tctx, "W");
          co_await loop.execute(5, tctx.pid, tctx.tid, 100, 0.01, "static",
                                0);
        });
  };
  rig.engine.spawn(region(rig.ctx()));
  rig.engine.run();
  EXPECT_NEAR(rig.engine.now(), 1.0, 1e-9);
}

TEST(Critical, SerializesThreads) {
  machine::SystemParameters params;
  params.processors_per_node = 4;
  Rig rig(params);
  auto region = [](workload::ModelContext ctx) -> sim::Process {
    co_await workload::parallel_region(
        ctx, 4, 9, "R", [](workload::ModelContext tctx) -> sim::Process {
          workload::CriticalElement critical(tctx, "C", "lock");
          auto engine = tctx.engine;
          co_await critical.execute(6, tctx.pid, tctx.tid,
                                    [engine]() -> sim::Process {
                                      co_await engine->hold(1.0);
                                    });
        });
  };
  rig.engine.spawn(region(rig.ctx()));
  rig.engine.run();
  // 4 threads x 1 s under one lock.
  EXPECT_DOUBLE_EQ(rig.engine.now(), 4.0);
}

TEST(Communicator, MailboxesCreatedLazily) {
  Rig rig(params_np(4, 4));
  EXPECT_EQ(rig.comm.mailbox_count(), 0u);
  rig.comm.mailbox(1, 0, 0);
  rig.comm.mailbox(1, 0, 0);  // same key, no new mailbox
  rig.comm.mailbox(2, 0, 0);
  EXPECT_EQ(rig.comm.mailbox_count(), 2u);
}

}  // namespace
