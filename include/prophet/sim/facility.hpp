// Facilities — queued servers, the CSIM abstraction the machine model is
// built from.
//
// A Facility models one service station with `servers` identical servers
// and a single queue (FCFS within equal priority, higher priority first).
// Processors in the machine model are facilities: when the Performance
// Estimator maps more modeled processes than processors onto a node, the
// queue makes the contention visible in the predicted times.
//
// Usage inside a process:
//   co_await cpu.acquire();        // waits for a free server
//   co_await engine.hold(t);       // service
//   cpu.release();
//
// Statistics: utilization, throughput (completed grants), time-weighted
// queue length, waiting times.
#pragma once

#include <cstdint>
#include <string>

#include "prophet/sim/engine.hpp"
#include "prophet/sim/stats.hpp"

namespace prophet::sim {

class Facility {
 public:
  Facility(Engine& engine, std::string name, int servers = 1);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int servers() const { return servers_; }
  [[nodiscard]] int busy() const { return busy_; }
  [[nodiscard]] std::size_t queue_length() const { return waiters_.size(); }

  /// Awaitable acquisition of one server.  Grants are FCFS within equal
  /// priority; larger `priority` values are served first.
  struct AcquireAwaiter {
    Facility* facility;
    int priority;
    Time arrival = 0;
    std::coroutine_handle<> handle{};
    AcquireAwaiter* next = nullptr;

    [[nodiscard]] bool await_ready() {
      arrival = facility->engine_->now();
      if (facility->busy_ < facility->servers_) {
        facility->grant(arrival, arrival);
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> waiter) {
      handle = waiter;
      facility->enqueue(this);
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] AcquireAwaiter acquire(int priority = 0) {
    return AcquireAwaiter{this, priority};
  }

  /// Releases one server; the longest-waiting highest-priority waiter (if
  /// any) is granted at the current time.
  void release();

  // --- Statistics ----------------------------------------------------------

  /// Completed acquire/release cycles.
  [[nodiscard]] std::uint64_t completions() const { return completions_; }
  /// Fraction of server-time spent busy over [0, now].
  [[nodiscard]] double utilization() const;
  /// Time-weighted mean queue length over [0, now].
  [[nodiscard]] double mean_queue_length() const;
  [[nodiscard]] double max_queue_length() const {
    return queue_stat_.max();
  }
  /// Waiting time from acquire to grant.
  [[nodiscard]] const Accumulator& waiting_times() const { return waits_; }

 private:
  friend struct AcquireAwaiter;

  void grant(Time arrival, Time now);
  void enqueue(AcquireAwaiter* waiter);

  Engine* engine_;
  std::string name_;
  int servers_;
  int busy_ = 0;
  std::uint64_t completions_ = 0;
  WaitQueue<AcquireAwaiter> waiters_;  // priority desc, then arrival
  TimeWeighted busy_stat_;
  TimeWeighted queue_stat_;
  Accumulator waits_;
};

}  // namespace prophet::sim
