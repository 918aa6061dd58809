// The workload runtime: what the elements of elements.hpp execute
// against (the shared communication state of a run), and the workload
// rules every engine applies.
//
// A run builds one Communicator over its engine and machine model and
// hands each modeled process a ModelContext pointing at both; the
// elements' execute() bodies (src/workload/runtime.cpp) acquire
// processors, exchange messages and synchronize through them.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <tuple>

#include "prophet/machine/machine.hpp"
#include "prophet/obs/obs.hpp"
#include "prophet/sim/engine.hpp"
#include "prophet/sim/facility.hpp"
#include "prophet/sim/mailbox.hpp"
#include "prophet/trace/trace.hpp"
#include "prophet/workload/elements.hpp"

namespace prophet::workload {

// --- Synchronization primitive shared by barriers and collectives ----------

/// A reusable counting barrier for `expected` participants.
class BarrierGate {
 public:
  explicit BarrierGate(sim::Engine& engine, int expected)
      : engine_(&engine), expected_(expected) {}

  [[nodiscard]] int expected() const { return expected_; }

  struct Awaiter {
    BarrierGate* gate;
    std::coroutine_handle<> handle{};
    Awaiter* next = nullptr;
    [[nodiscard]] bool await_ready() {
      if (gate->arrived_ + 1 == gate->expected_) {
        // Last arrival: release everyone, in arrival order, at the
        // current time.
        gate->arrived_ = 0;
        while (gate->waiting_.size() != 0) {
          gate->engine_->schedule(gate->waiting_.pop_front()->handle,
                                  gate->engine_->now());
        }
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> waiter) {
      ++gate->arrived_;
      handle = waiter;
      gate->waiting_.push_back(this);
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] Awaiter arrive() { return Awaiter{this}; }

 private:
  sim::Engine* engine_;
  int expected_;
  int arrived_ = 0;
  sim::WaitQueue<Awaiter> waiting_;
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
  sim::Facility& critical_section(std::string_view name);

  [[nodiscard]] std::size_t mailbox_count() const { return mailboxes_.size(); }

 private:
  sim::Engine* engine_;
  machine::MachineModel* machine_;
  BarrierGate barrier_;
  // Map nodes are stable: each mailbox and lock lives in its node.
  std::map<std::tuple<int, int, int>, sim::Mailbox> mailboxes_;
  std::map<std::string, sim::Facility, std::less<>> criticals_;
};

/// State of one active parallel region (one per region instance).
struct RegionState {
  int num_threads;
  BarrierGate barrier;
};

[[nodiscard]] std::string_view to_string(CollectiveKind kind);

/// The enumerator's C++ spelling ("AllReduce"), for code generators.
[[nodiscard]] std::string_view enumerator_name(CollectiveKind kind);

// --- Workload rules: the elements apply them before they hold, the analytic
// engine to the same values; a bad workload throws std::invalid_argument
// naming the element, the same text in every engine.

/// `cost` as <<action+>> `name`'s demand ("ActionPlus 'A': negative or
/// NaN cost").
[[nodiscard]] double action_cost(std::string_view name, double cost);

/// The peer a rank names: a <<send>>'s destination, a <<recv>>'s source,
/// a collective's root.
enum class PeerRole { Dest, Source, Root };

/// `rank` as the `role` peer of element `name` in a run of `processes`
/// ranks ("SendElement 'S': dest 7 outside 0..1").
[[nodiscard]] int peer_rank(std::string_view name, PeerRole role, int rank,
                            int processes);

/// `num_threads` as <<ompparallel>> `name`'s team size ("parallel region
/// 'R': num_threads must be >= 1").
[[nodiscard]] int region_threads(std::string_view name, int num_threads);

/// Nominal compute seconds of thread `tid` of `threads` in <<ompfor>>
/// `name`, before CPU speed scaling ("WorkshareElement 'W': iteration
/// count is negative or NaN", "...: negative or NaN cost").
[[nodiscard]] double workshare_compute(std::string_view name,
                                       double iterations, double itercost,
                                       std::string_view schedule,
                                       std::int64_t chunk, int threads,
                                       int tid);

}  // namespace prophet::workload
