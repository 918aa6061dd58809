#include "prophet/sim/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "prophet/guard/guard.hpp"

namespace prophet::sim {

namespace detail {

struct ProcessState {
  bool done = false;
  std::exception_ptr error;
  std::vector<std::coroutine_handle<>> waiters;
};

void throw_logic_error(const char* what) { throw std::logic_error(what); }

}  // namespace detail

bool ProcessRef::done() const { return state_ && state_->done; }

bool ProcessRef::JoinAwaiter::await_ready() const noexcept {
  return state->done;
}

void ProcessRef::JoinAwaiter::await_suspend(
    std::coroutine_handle<> handle) const {
  state->waiters.push_back(handle);
}

void ProcessRef::JoinAwaiter::await_resume() const {
  if (state->error) {
    std::exception_ptr error = state->error;
    state->error = nullptr;
    std::rethrow_exception(error);
  }
}

std::coroutine_handle<> Process::promise_type::FinalAwaiter::await_suspend(
    Handle handle) noexcept {
  promise_type& promise = handle.promise();
  if (promise.continuation) {
    // Sub-process: transfer control straight back to the caller; the
    // CallAwaiter (alive in the caller's frame) owns and destroys the
    // child coroutine after await_resume.
    return promise.continuation;
  }
  // Spawned process: publish completion, wake joiners, and hand the frame
  // to the engine for destruction once control is back in the run loop.
  Engine* engine = promise.engine;
  if (promise.state) {
    promise.state->done = true;
    promise.state->error = promise.error;
    if (promise.error && promise.state->waiters.empty()) {
      // Nobody is joining; surface the error through the run loop.
      engine->record_error(promise.error);
    }
    for (const auto waiter : promise.state->waiters) {
      engine->schedule(waiter, engine->now());
    }
    promise.state->waiters.clear();
  } else if (promise.error) {
    engine->record_error(promise.error);
  }
  engine->defer_destroy(handle);
  return std::noop_coroutine();
}

Engine::~Engine() {
  drain_destroy_list();
  // Destroy processes that never finished (e.g. blocked on a mailbox when
  // the calendar drained).  Their frames are suspended, so destroy() is
  // safe.
  for (const auto handle : live_) {
    handle.destroy();
  }
}

void Engine::schedule(std::coroutine_handle<> handle, Time when) {
  if (when < now_) {
    throw std::logic_error("schedule() into the past");
  }
  queue_.push(Event{when, next_seq_++, handle});
}

ProcessRef Engine::spawn_at(Time when, Process process) {
  if (!process.valid()) {
    throw std::logic_error("spawning an empty Process");
  }
  const Process::Handle handle = process.release();
  auto state = std::make_shared<detail::ProcessState>();
  handle.promise().engine = this;
  handle.promise().state = state;
  live_.push_back(handle);
  schedule(handle, when);
  return ProcessRef(std::move(state));
}

std::uint64_t Engine::run(Time until) {
  std::uint64_t count = 0;
  while (!queue_.empty() && queue_.top().when <= until) {
    step();
    ++count;
  }
  return count;
}

bool Engine::step() {
  if (queue_.empty()) {
    return false;
  }
  const Event event = queue_.top();
  queue_.pop();
  now_ = event.when;
  event.handle.resume();
  ++processed_;
  drain_destroy_list();
  if (pending_error_) {
    std::exception_ptr error = pending_error_;
    pending_error_ = nullptr;
    std::rethrow_exception(error);
  }
  // Cooperative guard: every dispatched event is charged, so a bounded
  // run can exceed its event budget or deadline by at most one event.
  if (budget_ != nullptr) {
    budget_->charge_sim_events(1, "sim-engine");
  }
  return true;
}

void Engine::defer_destroy(std::coroutine_handle<> handle) {
  to_destroy_.push_back(handle);
}

void Engine::drain_destroy_list() {
  for (const auto handle : to_destroy_) {
    std::erase_if(live_, [&](const std::coroutine_handle<>& live) {
      return live.address() == handle.address();
    });
    handle.destroy();
  }
  to_destroy_.clear();
}

}  // namespace prophet::sim
