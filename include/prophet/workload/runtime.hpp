// Workload elements — the runtime library that generated C++ models (and
// the UML interpreter) execute against.
//
// Fig. 4 of the paper maps the modeling element <<action+>> to the C++
// class ActionPlus: "The performance behavior of the modeling element
// action+ is defined in the method execute() of the class ActionPlus",
// and the generated code calls `A1.execute(uid, pid, tid, FA1());`
// (Fig. 8b).  This header defines ActionPlus and the companion elements
// for the message-passing and shared-memory building blocks of the
// authors' UML extension [17,18].
//
// One deviation from the paper's listing: CSIM processes were stackful
// threads, so execute() could block synchronously.  The reproduction's
// engine uses C++20 coroutines, so execute() returns a sim::Process that
// the caller awaits:  `co_await A1.execute(uid, pid, tid, FA1());`.
// The call shape — element object, execute(uid, pid, tid, cost) — is
// exactly Fig. 8's.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "prophet/machine/machine.hpp"
#include "prophet/obs/obs.hpp"
#include "prophet/sim/engine.hpp"
#include "prophet/sim/facility.hpp"
#include "prophet/sim/mailbox.hpp"
#include "prophet/trace/trace.hpp"

namespace prophet::workload {

class Communicator;
struct RegionState;

/// Execution context of one modeled process (or thread).  Copyable value:
/// a parallel region hands each thread a copy with its own tid.
struct ModelContext {
  sim::Engine* engine = nullptr;
  machine::MachineModel* machine = nullptr;
  Communicator* comm = nullptr;
  trace::Trace* trace = nullptr;  // nullable: tracing is optional
  obs::SimCounters* counters = nullptr;  // nullable: metrics are optional
  int pid = 0;
  int tid = 0;
  RegionState* region = nullptr;  // non-null inside a parallel region

  [[nodiscard]] int np() const { return machine->params().processes; }
  [[nodiscard]] int nt() const { return machine->params().threads_per_process; }
  [[nodiscard]] int nn() const { return machine->params().nodes; }
  [[nodiscard]] int ppn() const {
    return machine->params().processors_per_node;
  }

  /// Records a trace span.  `event_pid`/`event_tid` are passed explicitly
  /// (not taken from this context) because element objects may be bound to
  /// the process context while executing on behalf of a region thread.
  void record(double start, double end, int event_pid, int event_tid,
              int uid, const std::string& element,
              trace::EventKind kind) const {
    if (trace != nullptr) {
      trace->add({start, end, event_pid, event_tid, uid, element, kind});
    }
  }
};

// --- Synchronization primitive shared by barriers and collectives ----------

/// A reusable counting barrier for `expected` participants.
class BarrierGate {
 public:
  explicit BarrierGate(sim::Engine& engine, int expected)
      : engine_(&engine), expected_(expected) {}

  [[nodiscard]] int expected() const { return expected_; }

  struct Awaiter {
    BarrierGate* gate;
    [[nodiscard]] bool await_ready() {
      if (gate->arrived_ + 1 == gate->expected_) {
        // Last arrival: release everyone at the current time.
        gate->arrived_ = 0;
        for (const auto handle : gate->waiting_) {
          gate->engine_->schedule(handle, gate->engine_->now());
        }
        gate->waiting_.clear();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> handle) {
      ++gate->arrived_;
      gate->waiting_.push_back(handle);
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] Awaiter arrive() { return Awaiter{this}; }

 private:
  sim::Engine* engine_;
  int expected_;
  int arrived_ = 0;
  std::vector<std::coroutine_handle<>> waiting_;
};

// --- Communicator ------------------------------------------------------------

/// Shared communication state of one estimation run: point-to-point
/// mailboxes keyed by (dst, src, tag), the global process barrier, and the
/// named critical-section locks.
class Communicator {
 public:
  Communicator(sim::Engine& engine, machine::MachineModel& machine);

  /// Mailbox for messages to `dst` from `src` with `tag`.
  sim::Mailbox& mailbox(int dst, int src, int tag);

  /// The all-processes barrier gate.
  BarrierGate& process_barrier() { return barrier_; }

  /// Named lock (1-server facility) for <<ompcritical>> sections.
  sim::Facility& critical_section(const std::string& name);

  [[nodiscard]] std::size_t mailbox_count() const { return mailboxes_.size(); }

 private:
  sim::Engine* engine_;
  machine::MachineModel* machine_;
  BarrierGate barrier_;
  std::map<std::tuple<int, int, int>, std::unique_ptr<sim::Mailbox>>
      mailboxes_;
  std::map<std::string, std::unique_ptr<sim::Facility>> criticals_;
};

/// State of one active parallel region (one per region instance).
struct RegionState {
  int num_threads = 1;
  std::unique_ptr<BarrierGate> barrier;
};

// --- Performance modeling elements ------------------------------------------

/// <<action+>>: a single-entry single-exit code region (Fig. 4b).
///
/// execute() acquires a processor of the owning process's node, holds for
/// the (CPU-speed-scaled) cost, releases, and records a trace span — so
/// the contention of oversubscribed nodes shows up in predictions.
class ActionPlus {
 public:
  ActionPlus(ModelContext& ctx, std::string name);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t executions() const { return executions_; }
  [[nodiscard]] double total_time() const { return total_time_; }

  /// Models the performance behaviour of the code block: consumes
  /// `cost` seconds of processor time (Fig. 8b:
  /// `A1.execute(uid, pid, tid, FA1());`).
  [[nodiscard]] sim::Process execute(int uid, int pid, int tid, double cost);

 private:
  ModelContext* ctx_;
  std::string name_;
  std::uint64_t executions_ = 0;
  double total_time_ = 0;
};

/// <<activity+>>: composite element.  Generated code inlines the content
/// as a nested block (Fig. 8b lines 79-82); ActivityPlus wraps the block
/// with region trace events so hierarchical structure is visible in TF.
class ActivityPlus {
 public:
  ActivityPlus(ModelContext& ctx, std::string name);

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Records the start of the composite region; returns the start time.
  double begin(int uid);
  /// Records the end of the composite region started at `started`.
  void end(int uid, double started);

 private:
  ModelContext* ctx_;
  std::string name_;
};

// --- Message-passing elements ([17,18]) --------------------------------------

/// <<send>>: deposits a message for `dest`; the sender is charged the
/// per-message CPU overhead and does not otherwise block (eager protocol).
class SendElement {
 public:
  SendElement(ModelContext& ctx, std::string name);
  [[nodiscard]] sim::Process execute(int uid, int pid, int tid, int dest,
                                     double bytes, int tag = 0);

 private:
  ModelContext* ctx_;
  std::string name_;
};

/// <<recv>>: blocks until the matching message is available, then waits
/// out the remaining transfer time (latency + size/bandwidth from the
/// machine model).
class RecvElement {
 public:
  RecvElement(ModelContext& ctx, std::string name);
  [[nodiscard]] sim::Process execute(int uid, int pid, int tid, int source,
                                     double bytes, int tag = 0);

 private:
  ModelContext* ctx_;
  std::string name_;
};

/// <<barrier>>: synchronizes all np processes, then charges
/// ceil(log2(np)) rounds of barrier latency.
class BarrierElement {
 public:
  BarrierElement(ModelContext& ctx, std::string name);
  [[nodiscard]] sim::Process execute(int uid, int pid, int tid);

 private:
  ModelContext* ctx_;
  std::string name_;
};

/// Which collective pattern a CollectiveElement models; determines the
/// analytic time formula (tree rounds vs. root-linear).
enum class CollectiveKind {
  Broadcast,
  Reduce,
  AllReduce,
  Scatter,
  Gather,
};

[[nodiscard]] std::string_view to_string(CollectiveKind kind);

/// The enumerator's C++ spelling ("AllReduce"), for code generators.
[[nodiscard]] std::string_view enumerator_name(CollectiveKind kind);

/// <<broadcast>>/<<reduce>>/<<allreduce>>/<<scatter>>/<<gather>>:
/// synchronize all processes, then charge the collective's analytic time:
///   broadcast/reduce: ceil(log2 np) tree rounds of (lat + size/bw)
///   allreduce:        reduce + broadcast
///   scatter/gather:   (np-1) root-sequential messages of size/np
class CollectiveElement {
 public:
  CollectiveElement(ModelContext& ctx, std::string name, CollectiveKind kind);
  [[nodiscard]] sim::Process execute(int uid, int pid, int tid, double bytes,
                                     int root = 0);

  /// The modeled completion latency for `n` processes (exposed for tests,
  /// benches, and the analytic estimation backend, which evaluates the
  /// same formula without a machine instance).
  [[nodiscard]] static double model_time(const machine::SystemParameters& params,
                                         CollectiveKind kind, int n,
                                         double bytes);
  [[nodiscard]] static double model_time(const machine::MachineModel& machine,
                                         CollectiveKind kind, int n,
                                         double bytes);

 private:
  ModelContext* ctx_;
  std::string name_;
  CollectiveKind kind_;
};

// --- Shared-memory elements ([17,18]) ----------------------------------------

/// <<ompparallel>>: runs `body` once per thread (tids 0..n-1) with an
/// implicit barrier at the end; each thread's context carries the region
/// state for <<ompbarrier>>/<<ompfor>>.
[[nodiscard]] sim::Process parallel_region(
    ModelContext ctx, int num_threads, int uid, std::string name,
    std::function<sim::Process(ModelContext)> body);

/// <<ompfor>>: splits `iterations` iterations of `itercost` seconds each
/// across the region's threads.  schedule "static" assigns balanced
/// blocks; "dynamic" assigns chunks of `chunk` iterations with a
/// per-chunk scheduling overhead.
class WorkshareElement {
 public:
  WorkshareElement(ModelContext& ctx, std::string name);
  [[nodiscard]] sim::Process execute(int uid, int pid, int tid,
                                     double iterations, double itercost,
                                     const std::string& schedule = "static",
                                     std::int64_t chunk = 0);

  /// Iterations assigned to `tid` of `threads` (exposed for tests).
  [[nodiscard]] static std::int64_t static_share(std::int64_t iterations,
                                                 int threads, int tid);

 private:
  ModelContext* ctx_;
  std::string name_;
};

/// <<ompcritical>>: runs `body` under the named lock.
class CriticalElement {
 public:
  CriticalElement(ModelContext& ctx, std::string name,
                  std::string critical_name = "default");
  [[nodiscard]] sim::Process execute(
      int uid, int pid, int tid, std::function<sim::Process()> body);

 private:
  ModelContext* ctx_;
  std::string name_;
  std::string critical_name_;
};

/// <<ompbarrier>>: synchronizes the threads of the enclosing region.
class OmpBarrierElement {
 public:
  OmpBarrierElement(ModelContext& ctx, std::string name);
  [[nodiscard]] sim::Process execute(int uid, int pid, int tid);

 private:
  ModelContext* ctx_;
  std::string name_;
};

// --- Control-flow helpers -----------------------------------------------------

/// Fork/join: runs all branches concurrently (each as a spawned process)
/// and resumes when the last one finishes — the UML fork/join bars.
[[nodiscard]] sim::Process fork_join(
    ModelContext ctx, std::vector<std::function<sim::Process()>> branches);

/// The trips of a <<loop+>>, as the range of trip indices 0, 1, ... the
/// generated program's `for (const double i : loop_trips(bound, id))`
/// runs over.
struct LoopTrips {
  /// Walks the trip indices; `*it` is the loop variable's value.
  struct Iterator {
    std::int64_t trip;
    double operator*() const { return static_cast<double>(trip); }
    Iterator& operator++() {
      ++trip;
      return *this;
    }
    bool operator!=(const Iterator& end) const { return trip != end.trip; }
  };
  std::int64_t trips;
  [[nodiscard]] Iterator begin() const { return {0}; }
  [[nodiscard]] Iterator end() const { return {trips}; }
};

/// The trips of loop `loop_id` with bound `bound`, evaluated once and
/// truncated as every engine runs a loop.  Throws std::runtime_error
/// ("loop <id>: iteration count is negative or NaN") for such a bound.
[[nodiscard]] LoopTrips loop_trips(double bound, const std::string& loop_id);

// --- Workload rules: the elements apply them before they hold, the analytic
// engine to the same values; a bad workload throws std::invalid_argument
// naming the element, the same text in every engine.

/// `cost` as <<action+>> `name`'s demand ("ActionPlus 'A': negative or
/// NaN cost").
[[nodiscard]] double action_cost(const std::string& name, double cost);

/// `num_threads` as <<ompparallel>> `name`'s team size ("parallel region
/// 'R': num_threads must be >= 1").
[[nodiscard]] int region_threads(const std::string& name, int num_threads);

/// Nominal compute seconds of thread `tid` of `threads` in <<ompfor>>
/// `name`, before CPU speed scaling ("WorkshareElement 'W': iteration
/// count is negative or NaN", "...: negative or NaN cost").
[[nodiscard]] double workshare_compute(const std::string& name,
                                       double iterations, double itercost,
                                       const std::string& schedule,
                                       std::int64_t chunk, int threads,
                                       int tid);

}  // namespace prophet::workload
