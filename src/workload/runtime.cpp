#include "prophet/workload/runtime.hpp"

#include <cmath>
#include <stdexcept>

namespace prophet::workload {

using machine::tree_rounds;

namespace {

/// Records a trace span when the run traces.  `pid`/`tid` are passed
/// explicitly (not taken from `ctx`) because element objects may be
/// bound to the process context while executing on behalf of a region
/// thread.
void record(const ModelContext& ctx, double start, double end, int pid,
            int tid, int uid, std::string_view element,
            trace::EventKind kind) {
  if (ctx.trace != nullptr) {
    ctx.trace->add({start, end, pid, tid, uid, std::string(element), kind});
  }
}

/// The number of modeled processes of the run `ctx` belongs to.
int processes(const ModelContext& ctx) {
  return ctx.machine->params().processes;
}

}  // namespace

Communicator::Communicator(sim::Engine& engine,
                           machine::MachineModel& machine)
    : engine_(&engine),
      machine_(&machine),
      barrier_(engine, machine.params().processes) {}

sim::Mailbox& Communicator::mailbox(int dst, int src, int tag) {
  const auto key = std::make_tuple(dst, src, tag);
  auto it = mailboxes_.find(key);
  if (it == mailboxes_.end()) {
    auto name = "mb." + std::to_string(dst) + "." + std::to_string(src) +
                "." + std::to_string(tag);
    it = mailboxes_
             .emplace(std::piecewise_construct, std::forward_as_tuple(key),
                      std::forward_as_tuple(*engine_, std::move(name)))
             .first;
  }
  return it->second;
}

sim::Facility& Communicator::critical_section(std::string_view name) {
  auto it = criticals_.find(name);
  if (it == criticals_.end()) {
    it = criticals_
             .emplace(std::piecewise_construct,
                      std::forward_as_tuple(name),
                      std::forward_as_tuple(
                          *engine_, "critical." + std::string(name), 1))
             .first;
  }
  return it->second;
}

// --- ActionPlus ---------------------------------------------------------------

ActionPlus::ActionPlus(ModelContext& ctx, std::string_view name)
    : ctx_(&ctx), name_(name) {}

sim::Process ActionPlus::execute(int uid, int pid, int tid, double cost) {
  const double demand = action_cost(name_, cost);
  sim::Engine& engine = *ctx_->engine;
  const double start = engine.now();
  sim::Facility& processor = ctx_->machine->processor_of(pid);
  co_await processor.acquire();
  co_await engine.hold(ctx_->machine->compute_time(demand));
  processor.release();
  const double end = engine.now();
  ++executions_;
  total_time_ += end - start;
  record(*ctx_, start, end, pid, tid, uid, name_, trace::EventKind::Compute);
}

// --- ActivityPlus -------------------------------------------------------------

ActivityPlus::ActivityPlus(ModelContext& ctx, std::string_view name)
    : ctx_(&ctx), name_(name) {}

double ActivityPlus::begin(int uid) {
  (void)uid;
  return ctx_->engine->now();
}

void ActivityPlus::end(int uid, double started) {
  record(*ctx_, started, ctx_->engine->now(), ctx_->pid, ctx_->tid, uid,
         name_, trace::EventKind::Region);
}

// --- Message passing ------------------------------------------------------------

SendElement::SendElement(ModelContext& ctx, std::string_view name)
    : ctx_(&ctx), name_(name) {}

sim::Process SendElement::execute(int uid, int pid, int tid, int dest,
                                  double bytes, int tag) {
  dest = peer_rank(name_, PeerRole::Dest, dest, processes(*ctx_));
  sim::Engine& engine = *ctx_->engine;
  const double start = engine.now();
  if (ctx_->counters != nullptr) {
    ++ctx_->counters->messages;
  }
  // Sender-side CPU overhead (the `o` of LogGP).
  co_await engine.hold(ctx_->machine->send_overhead());
  sim::Message message;
  message.source = pid;
  message.tag = tag;
  message.size = bytes;
  ctx_->comm->mailbox(dest, pid, tag).send(message);
  record(*ctx_, start, engine.now(), pid, tid, uid, name_,
         trace::EventKind::Send);
}

RecvElement::RecvElement(ModelContext& ctx, std::string_view name)
    : ctx_(&ctx), name_(name) {}

sim::Process RecvElement::execute(int uid, int pid, int tid, int source,
                                  double bytes, int tag) {
  source = peer_rank(name_, PeerRole::Source, source, processes(*ctx_));
  sim::Engine& engine = *ctx_->engine;
  const double start = engine.now();
  const sim::Message message =
      co_await ctx_->comm->mailbox(pid, source, tag).receive();
  // The message was injected at `sent_at` and needs `message_time` on the
  // wire; wait out whatever remains.
  const double transfer =
      ctx_->machine->message_time(source, pid, message.size);
  const double arrival = message.sent_at + transfer;
  if (arrival > engine.now()) {
    co_await engine.hold(arrival - engine.now());
  }
  record(*ctx_, start, engine.now(), pid, tid, uid, name_,
         trace::EventKind::Receive);
  (void)bytes;
}

BarrierElement::BarrierElement(ModelContext& ctx, std::string_view name)
    : ctx_(&ctx), name_(name) {}

sim::Process BarrierElement::execute(int uid, int pid, int tid) {
  sim::Engine& engine = *ctx_->engine;
  const double start = engine.now();
  if (ctx_->counters != nullptr) {
    ++ctx_->counters->barriers;
  }
  co_await ctx_->comm->process_barrier().arrive();
  const double rounds = tree_rounds(processes(*ctx_));
  co_await engine.hold(rounds * ctx_->machine->params().barrier_latency);
  record(*ctx_, start, engine.now(), pid, tid, uid, name_,
         trace::EventKind::Barrier);
}

std::string_view to_string(CollectiveKind kind) {
  switch (kind) {
    case CollectiveKind::Broadcast:
      return "broadcast";
    case CollectiveKind::Reduce:
      return "reduce";
    case CollectiveKind::AllReduce:
      return "allreduce";
    case CollectiveKind::Scatter:
      return "scatter";
    case CollectiveKind::Gather:
      return "gather";
  }
  return "unknown";
}

std::string_view enumerator_name(CollectiveKind kind) {
  switch (kind) {
    case CollectiveKind::Broadcast:
      return "Broadcast";
    case CollectiveKind::Reduce:
      return "Reduce";
    case CollectiveKind::AllReduce:
      return "AllReduce";
    case CollectiveKind::Scatter:
      return "Scatter";
    case CollectiveKind::Gather:
      return "Gather";
  }
  return "Gather";
}

CollectiveElement::CollectiveElement(ModelContext& ctx, std::string_view name,
                                     CollectiveKind kind)
    : ctx_(&ctx), name_(name), kind_(kind) {}

double CollectiveElement::model_time(const machine::SystemParameters& params,
                                     CollectiveKind kind, int n,
                                     double bytes) {
  if (n <= 1) {
    return 0;
  }
  const double round = machine::collective_round_time(params, bytes);
  switch (kind) {
    case CollectiveKind::Broadcast:
    case CollectiveKind::Reduce:
      return tree_rounds(n) * round;
    case CollectiveKind::AllReduce:
      return 2.0 * tree_rounds(n) * round;
    case CollectiveKind::Scatter:
    case CollectiveKind::Gather:
      // Root sends/receives n-1 messages of bytes/n each, sequentially.
      return static_cast<double>(n - 1) *
             machine::collective_round_time(params,
                                            bytes / static_cast<double>(n));
  }
  return 0;
}

double CollectiveElement::model_time(const machine::MachineModel& machine,
                                     CollectiveKind kind, int n,
                                     double bytes) {
  return model_time(machine.params(), kind, n, bytes);
}

sim::Process CollectiveElement::execute(int uid, int pid, int tid,
                                        double bytes, int root) {
  (void)peer_rank(name_, PeerRole::Root, root, processes(*ctx_));
  sim::Engine& engine = *ctx_->engine;
  const double start = engine.now();
  if (ctx_->counters != nullptr) {
    ++ctx_->counters->messages;
  }
  co_await ctx_->comm->process_barrier().arrive();
  co_await engine.hold(
      model_time(*ctx_->machine, kind_, processes(*ctx_), bytes));
  record(*ctx_, start, engine.now(), pid, tid, uid, name_,
         trace::EventKind::Collective);
}

// --- Shared memory ---------------------------------------------------------------

sim::Process parallel_region(ModelContext ctx, int num_threads, int uid,
                             std::string_view name,
                             FunctionRef<sim::Process(ModelContext)> body) {
  num_threads = region_threads(name, num_threads);
  sim::Engine& engine = *ctx.engine;
  const double start = engine.now();
  RegionState region{num_threads, BarrierGate(engine, num_threads)};
  std::vector<sim::ProcessRef> threads;
  threads.reserve(static_cast<std::size_t>(num_threads));
  for (int tid = 0; tid < num_threads; ++tid) {
    ModelContext thread_ctx = ctx;
    thread_ctx.tid = tid;
    thread_ctx.region = &region;
    threads.push_back(engine.spawn(body(thread_ctx)));
  }
  for (const auto& thread : threads) {
    co_await thread;  // implicit barrier at region end
  }
  record(ctx, start, engine.now(), ctx.pid, ctx.tid, uid, name,
         trace::EventKind::Region);
}

WorkshareElement::WorkshareElement(ModelContext& ctx, std::string_view name)
    : ctx_(&ctx), name_(name) {}

std::int64_t WorkshareElement::static_share(std::int64_t iterations,
                                            int threads, int tid) {
  // Balanced blocks: the first (iterations % threads) threads get one
  // extra iteration.
  const std::int64_t base = iterations / threads;
  const std::int64_t extra = iterations % threads;
  return base + (tid < extra ? 1 : 0);
}

sim::Process WorkshareElement::execute(int uid, int pid, int tid,
                                       double iterations, double itercost,
                                       std::string_view schedule,
                                       std::int64_t chunk) {
  const int threads =
      ctx_->region != nullptr ? ctx_->region->num_threads : 1;
  const double compute = workshare_compute(name_, iterations, itercost,
                                           schedule, chunk, threads, tid);
  sim::Engine& engine = *ctx_->engine;
  const double start = engine.now();
  sim::Facility& processor = ctx_->machine->processor_of(pid);
  co_await processor.acquire();
  co_await engine.hold(ctx_->machine->compute_time(compute));
  processor.release();
  // Implicit barrier at the end of a worksharing construct.
  if (ctx_->region != nullptr) {
    co_await ctx_->region->barrier.arrive();
  }
  record(*ctx_, start, engine.now(), pid, tid, uid, name_,
         trace::EventKind::Compute);
}

CriticalElement::CriticalElement(ModelContext& ctx, std::string_view name,
                                 std::string_view critical_name)
    : ctx_(&ctx), name_(name), critical_name_(critical_name) {}

sim::Process CriticalElement::execute(int uid, int pid, int tid,
                                      FunctionRef<sim::Process()> body) {
  sim::Engine& engine = *ctx_->engine;
  const double start = engine.now();
  sim::Facility& lock = ctx_->comm->critical_section(critical_name_);
  co_await lock.acquire();
  co_await body();
  lock.release();
  record(*ctx_, start, engine.now(), pid, tid, uid, name_,
         trace::EventKind::Region);
}

OmpBarrierElement::OmpBarrierElement(ModelContext& ctx, std::string_view name)
    : ctx_(&ctx), name_(name) {}

sim::Process OmpBarrierElement::execute(int uid, int pid, int tid) {
  sim::Engine& engine = *ctx_->engine;
  const double start = engine.now();
  if (ctx_->counters != nullptr) {
    ++ctx_->counters->barriers;
  }
  if (ctx_->region != nullptr) {
    co_await ctx_->region->barrier.arrive();
  }
  record(*ctx_, start, engine.now(), pid, tid, uid, name_,
         trace::EventKind::Barrier);
}

LoopTrips loop_trips(double bound, std::string_view loop_id) {
  if (std::isnan(bound) || bound < 0) {
    throw std::runtime_error("loop " + std::string(loop_id) +
                             ": iteration count is negative or NaN");
  }
  return {static_cast<std::int64_t>(bound)};
}

// --- Workload rules --------------------------------------------------------------

double action_cost(std::string_view name, double cost) {
  if (cost < 0 || std::isnan(cost)) {
    throw std::invalid_argument("ActionPlus '" + std::string(name) +
                                "': negative or NaN cost");
  }
  return cost;
}

int peer_rank(std::string_view name, PeerRole role, int rank,
              int processes) {
  if (rank < 0 || rank >= processes) {
    static constexpr std::string_view kElement[] = {
        "SendElement", "RecvElement", "CollectiveElement"};
    static constexpr std::string_view kPeer[] = {"dest", "source", "root"};
    const auto index = static_cast<std::size_t>(role);
    throw std::invalid_argument(
        std::string(kElement[index]) + " '" + std::string(name) + "': " +
        std::string(kPeer[index]) + " " + std::to_string(rank) +
        " outside 0.." + std::to_string(processes - 1));
  }
  return rank;
}

int region_threads(std::string_view name, int num_threads) {
  if (num_threads < 1) {
    throw std::invalid_argument("parallel region '" + std::string(name) +
                                "': num_threads must be >= 1");
  }
  return num_threads;
}

double workshare_compute(std::string_view name, double iterations,
                         double itercost, std::string_view schedule,
                         std::int64_t chunk, int threads, int tid) {
  if (iterations < 0 || std::isnan(iterations)) {
    throw std::invalid_argument("WorkshareElement '" + std::string(name) +
                                "': iteration count is negative or NaN");
  }
  const auto total = static_cast<std::int64_t>(iterations);
  double compute = 0;
  if (schedule == "dynamic") {
    // Dynamic scheduling balances perfectly but pays a dispatch overhead
    // per chunk; model the per-thread share as total/threads plus the
    // thread's share of chunk dispatch costs.
    const std::int64_t chunk_size = chunk > 0 ? chunk : 1;
    const double chunks =
        std::ceil(static_cast<double>(total) /
                  static_cast<double>(chunk_size)) /
        static_cast<double>(threads);
    constexpr double kDispatchOverhead = 1e-7;
    compute = static_cast<double>(total) / threads * itercost +
              chunks * kDispatchOverhead;
  } else {
    compute = static_cast<double>(
                  WorkshareElement::static_share(total, threads, tid)) *
              itercost;
  }
  if (compute < 0 || std::isnan(compute)) {
    throw std::invalid_argument("WorkshareElement '" + std::string(name) +
                                "': negative or NaN cost");
  }
  return compute;
}

}  // namespace prophet::workload
