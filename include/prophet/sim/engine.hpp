// Process-oriented discrete-event simulation engine.
//
// This is the reproduction's substitute for the commercial CSIM engine the
// Performance Estimator uses in Fig. 2 of the paper.  CSIM models a system
// as a set of processes that hold (consume simulated time), use facilities
// (queued servers) and exchange messages through mailboxes; this engine
// offers the same primitives with C++20 coroutines standing in for CSIM's
// stackful threads:
//
//   sim::Process worker(sim::Engine& engine) {
//     co_await engine.hold(1.5);              // consume simulated time
//     co_await other_process(engine);         // run a sub-process inline
//   }
//   sim::Engine engine;
//   engine.spawn(worker(engine));
//   engine.run();
//
// The engine is single-threaded and deterministic: events at equal times
// fire in schedule order (stable FIFO), so a fixed model and seed always
// produce the same trace.
#pragma once

#include <cmath>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <limits>
#include <queue>
#include <stdexcept>
#include <vector>

#include "prophet/sim/process.hpp"

namespace prophet::guard {
class Budget;
}  // namespace prophet::guard

namespace prophet::sim {

/// Simulated time, in seconds.
using Time = double;

/// +infinity: run() until the event calendar drains.
inline constexpr Time kTimeInfinity = std::numeric_limits<Time>::infinity();

/// The event calendar + clock + run loop.
class Engine {
 public:
  Engine() = default;
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const { return now_; }

  /// Number of events processed so far.
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  /// Number of live (spawned, unfinished) processes.
  [[nodiscard]] std::size_t live_processes() const { return live_.size(); }

  /// Schedules a raw coroutine resume at absolute time `when`.
  /// Throws std::logic_error when `when` precedes the current time.
  void schedule(std::coroutine_handle<> handle, Time when);

  /// Spawns an independent process starting at the current time.
  ProcessRef spawn(Process process) {
    return spawn_at(now_, std::move(process));
  }

  /// Spawns an independent process starting at absolute time `when`.
  ProcessRef spawn_at(Time when, Process process);

  /// Awaitable that consumes `delay` of simulated time.
  struct HoldAwaiter {
    Engine* engine;
    Time delay;
    [[nodiscard]] bool await_ready() const noexcept { return delay <= 0; }
    void await_suspend(std::coroutine_handle<> handle) const {
      engine->schedule(handle, engine->now_ + delay);
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] HoldAwaiter hold(Time delay) {
    if (delay < 0 || std::isnan(delay)) {
      throw std::invalid_argument("hold() with negative or NaN delay");
    }
    return HoldAwaiter{this, delay};
  }

  /// Runs until the calendar drains or the clock would pass `until`.
  /// Returns the number of events processed by this call.  An exception
  /// escaping a spawned process that nobody has joined aborts the run and
  /// is rethrown here.
  std::uint64_t run(Time until = kTimeInfinity);

  /// Processes a single event; returns false when the calendar is empty.
  bool step();

  /// True when no events are pending.
  [[nodiscard]] bool idle() const { return queue_.empty(); }

  /// Installs an execution budget (null detaches).  The run loop then
  /// charges one sim event per dispatched event and lets the budget's
  /// guard::ResourceExhausted / guard::Cancelled escape run() — a bounded
  /// simulation can never spin past its limits between events.  The
  /// budget never alters scheduling: an unlimited budget is bit-identical
  /// to none.
  void set_budget(guard::Budget* budget) { budget_ = budget; }
  [[nodiscard]] guard::Budget* budget() const { return budget_; }

  // --- internal hooks (used by the Process machinery) ----------------------
  void defer_destroy(std::coroutine_handle<> handle);
  void record_error(std::exception_ptr error) {
    if (!pending_error_) {
      pending_error_ = error;
    }
  }

 private:
  struct Event {
    Time when;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
    bool operator>(const Event& other) const {
      if (when != other.when) {
        return when > other.when;
      }
      return seq > other.seq;
    }
  };

  void drain_destroy_list();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::vector<std::coroutine_handle<>> to_destroy_;
  std::vector<std::coroutine_handle<>> live_;  // spawned, unfinished
  std::exception_ptr pending_error_;
  guard::Budget* budget_ = nullptr;
};

}  // namespace prophet::sim
