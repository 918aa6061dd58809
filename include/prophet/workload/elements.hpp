// The workload elements a model's code names: the execution context of a
// modeled process, the performance modeling elements and the loop trips.
//
// Fig. 4 of the paper maps the modeling element <<action+>> to the C++
// class ActionPlus: "The performance behavior of the modeling element
// action+ is defined in the method execute() of the class ActionPlus",
// and the generated code calls `A1.execute(uid, pid, tid, FA1());`
// (Fig. 8b).  This header declares ActionPlus and the companion elements
// for the message-passing and shared-memory building blocks of the
// authors' UML extension [17,18].
//
// One deviation from the paper's listing: CSIM processes were stackful
// threads, so execute() could block synchronously.  The reproduction's
// engine uses C++20 coroutines, so execute() returns a sim::Process that
// the caller awaits:  `co_await A1.execute(uid, pid, tid, FA1());`.
// The call shape — element object, execute(uid, pid, tid, cost) — is
// exactly Fig. 8's.
//
// The declarations only: every element executes out of line against the
// engine, the machine model and the communicator (runtime.hpp), so code
// that names the elements — generated evaluators above all — parses none
// of them.  Elements hold their names as views: a name must outlive its
// element, as the model's strings and string literals do.
#pragma once

#include <cstdint>
#include <string_view>

#include "prophet/sim/process.hpp"

namespace prophet::machine {
class MachineModel;
struct SystemParameters;
}  // namespace prophet::machine

namespace prophet::obs {
struct SimCounters;
}  // namespace prophet::obs

namespace prophet::trace {
class Trace;
}  // namespace prophet::trace

namespace prophet::workload {

class Communicator;
struct RegionState;

/// Execution context of one modeled process (or thread).  Copyable value:
/// a parallel region hands each thread a copy with its own tid.
struct ModelContext {
  sim::Engine* engine = nullptr;
  machine::MachineModel* machine = nullptr;
  Communicator* comm = nullptr;
  trace::Trace* trace = nullptr;         // nullable: tracing is optional
  obs::SimCounters* counters = nullptr;  // nullable: metrics are optional
  int pid = 0;
  int tid = 0;
  RegionState* region = nullptr;  // non-null inside a parallel region
};

/// A non-owning reference to a callable, for the bodies of parallel
/// regions and critical sections.  The callable must outlive every call:
/// each caller awaits the region or section in the full-expression that
/// names the body, so a lambda temporary lives long enough.
template <class Signature>
class FunctionRef;

template <class R, class... Args>
class FunctionRef<R(Args...)> {
 public:
  template <class F>
  FunctionRef(const F& callable) noexcept  // implicit, like std::function
      : object_(__builtin_addressof(callable)), call_(&call<F>) {}

  R operator()(Args... args) const {
    return call_(object_, static_cast<Args&&>(args)...);
  }

 private:
  template <class F>
  static R call(const void* object, Args... args) {
    return (*static_cast<const F*>(object))(static_cast<Args&&>(args)...);
  }

  const void* object_;
  R (*call_)(const void*, Args...);
};

// --- Performance modeling elements ------------------------------------------

/// <<action+>>: a single-entry single-exit code region (Fig. 4b).
///
/// execute() acquires a processor of the owning process's node, holds for
/// the (CPU-speed-scaled) cost, releases, and records a trace span — so
/// the contention of oversubscribed nodes shows up in predictions.
class ActionPlus {
 public:
  ActionPlus(ModelContext& ctx, std::string_view name);

  [[nodiscard]] std::string_view name() const { return name_; }
  [[nodiscard]] std::uint64_t executions() const { return executions_; }
  [[nodiscard]] double total_time() const { return total_time_; }

  /// Models the performance behaviour of the code block: consumes
  /// `cost` seconds of processor time (Fig. 8b:
  /// `A1.execute(uid, pid, tid, FA1());`).
  [[nodiscard]] sim::Process execute(int uid, int pid, int tid, double cost);

 private:
  ModelContext* ctx_;
  std::string_view name_;
  std::uint64_t executions_ = 0;
  double total_time_ = 0;
};

/// <<activity+>>: composite element.  Generated code inlines the content
/// as a nested block (Fig. 8b lines 79-82); ActivityPlus wraps the block
/// with region trace events so hierarchical structure is visible in TF.
class ActivityPlus {
 public:
  ActivityPlus(ModelContext& ctx, std::string_view name);

  [[nodiscard]] std::string_view name() const { return name_; }

  /// Records the start of the composite region; returns the start time.
  double begin(int uid);
  /// Records the end of the composite region started at `started`.
  void end(int uid, double started);

 private:
  ModelContext* ctx_;
  std::string_view name_;
};

// --- Message-passing elements ([17,18]) --------------------------------------

/// <<send>>: deposits a message for `dest`; the sender is charged the
/// per-message CPU overhead and does not otherwise block (eager protocol).
class SendElement {
 public:
  SendElement(ModelContext& ctx, std::string_view name);
  [[nodiscard]] sim::Process execute(int uid, int pid, int tid, int dest,
                                     double bytes, int tag = 0);

 private:
  ModelContext* ctx_;
  std::string_view name_;
};

/// <<recv>>: blocks until the matching message is available, then waits
/// out the remaining transfer time (latency + size/bandwidth from the
/// machine model).
class RecvElement {
 public:
  RecvElement(ModelContext& ctx, std::string_view name);
  [[nodiscard]] sim::Process execute(int uid, int pid, int tid, int source,
                                     double bytes, int tag = 0);

 private:
  ModelContext* ctx_;
  std::string_view name_;
};

/// <<barrier>>: synchronizes all np processes, then charges
/// ceil(log2(np)) rounds of barrier latency.
class BarrierElement {
 public:
  BarrierElement(ModelContext& ctx, std::string_view name);
  [[nodiscard]] sim::Process execute(int uid, int pid, int tid);

 private:
  ModelContext* ctx_;
  std::string_view name_;
};

/// Which collective pattern a CollectiveElement models; determines the
/// analytic time formula (tree rounds vs. root-linear).
enum class CollectiveKind { Broadcast, Reduce, AllReduce, Scatter, Gather };

/// <<broadcast>>/<<reduce>>/<<allreduce>>/<<scatter>>/<<gather>>:
/// synchronize all processes, then charge the collective's analytic time:
///   broadcast/reduce: ceil(log2 np) tree rounds of (lat + size/bw)
///   allreduce:        reduce + broadcast
///   scatter/gather:   (np-1) root-sequential messages of size/np
class CollectiveElement {
 public:
  CollectiveElement(ModelContext& ctx, std::string_view name,
                    CollectiveKind kind);
  [[nodiscard]] sim::Process execute(int uid, int pid, int tid, double bytes,
                                     int root = 0);

  /// The modeled completion latency for `n` processes (exposed for tests,
  /// benches, and the analytic estimation backend, which evaluates the
  /// same formula without a machine instance).
  [[nodiscard]] static double model_time(
      const machine::SystemParameters& params, CollectiveKind kind, int n,
      double bytes);
  [[nodiscard]] static double model_time(const machine::MachineModel& machine,
                                         CollectiveKind kind, int n,
                                         double bytes);

 private:
  ModelContext* ctx_;
  std::string_view name_;
  CollectiveKind kind_;
};

// --- Shared-memory elements ([17,18]) ----------------------------------------

/// <<ompparallel>>: runs `body` once per thread (tids 0..n-1) with an
/// implicit barrier at the end; each thread's context carries the region
/// state for <<ompbarrier>>/<<ompfor>>.
[[nodiscard]] sim::Process parallel_region(
    ModelContext ctx, int num_threads, int uid, std::string_view name,
    FunctionRef<sim::Process(ModelContext)> body);

/// <<ompfor>>: splits `iterations` iterations of `itercost` seconds each
/// across the region's threads.  schedule "static" assigns balanced
/// blocks; "dynamic" assigns chunks of `chunk` iterations with a
/// per-chunk scheduling overhead.
class WorkshareElement {
 public:
  WorkshareElement(ModelContext& ctx, std::string_view name);
  [[nodiscard]] sim::Process execute(int uid, int pid, int tid,
                                     double iterations, double itercost,
                                     std::string_view schedule = "static",
                                     std::int64_t chunk = 0);

  /// Iterations assigned to `tid` of `threads` (exposed for tests).
  [[nodiscard]] static std::int64_t static_share(std::int64_t iterations,
                                                 int threads, int tid);

 private:
  ModelContext* ctx_;
  std::string_view name_;
};

/// <<ompcritical>>: runs `body` under the named lock.
class CriticalElement {
 public:
  CriticalElement(ModelContext& ctx, std::string_view name,
                  std::string_view critical_name = "default");
  [[nodiscard]] sim::Process execute(int uid, int pid, int tid,
                                     FunctionRef<sim::Process()> body);

 private:
  ModelContext* ctx_;
  std::string_view name_;
  std::string_view critical_name_;
};

/// <<ompbarrier>>: synchronizes the threads of the enclosing region.
class OmpBarrierElement {
 public:
  OmpBarrierElement(ModelContext& ctx, std::string_view name);
  [[nodiscard]] sim::Process execute(int uid, int pid, int tid);

 private:
  ModelContext* ctx_;
  std::string_view name_;
};

// --- Loops -----------------------------------------------------------------

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
[[nodiscard]] LoopTrips loop_trips(double bound, std::string_view loop_id);

}  // namespace prophet::workload
