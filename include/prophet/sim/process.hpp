// Simulation processes: the coroutine type every model behaviour returns,
// and the handle that joins a spawned one.
//
// Split from engine.hpp so that code which only writes processes (the
// workload elements' declarations, generated evaluators) names them
// without the event calendar: this header includes no container.  The
// engine that schedules them is in engine.hpp.
#pragma once

#include <coroutine>
#include <exception>
#include <memory>

namespace prophet::sim {

class Engine;

namespace detail {

/// Shared completion state of a spawned process, used for joining
/// (defined with the engine that publishes it).
struct ProcessState;

/// Throws std::logic_error(`what`): the misuse errors of this header,
/// raised out of line.
[[noreturn]] void throw_logic_error(const char* what);

}  // namespace detail

/// Handle to a spawned process; co_await it to join.
class ProcessRef {
 public:
  ProcessRef() = default;
  explicit ProcessRef(std::shared_ptr<detail::ProcessState> state)
      : state_(std::move(state)) {}

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] bool done() const;

  // Awaiting a ProcessRef suspends until the process completes.  If the
  // process terminated with an exception, it is rethrown at the join
  // point (and is then considered handled).
  struct JoinAwaiter {
    std::shared_ptr<detail::ProcessState> state;
    [[nodiscard]] bool await_ready() const noexcept;
    void await_suspend(std::coroutine_handle<> handle) const;
    void await_resume() const;
  };
  [[nodiscard]] JoinAwaiter operator co_await() const {
    if (!state_) {
      detail::throw_logic_error("joining an empty ProcessRef");
    }
    return JoinAwaiter{state_};
  }

 private:
  std::shared_ptr<detail::ProcessState> state_;
};

/// A simulation process: a coroutine scheduled by the Engine.
///
/// Processes either run as sub-processes (`co_await child(...)`, which
/// executes the child inline at the current simulated time) or as
/// independent concurrent processes (`engine.spawn(child(...))`).
class [[nodiscard]] Process {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    Engine* engine = nullptr;
    /// Set when awaited as a sub-process.
    std::coroutine_handle<> continuation;
    /// Set when spawned.
    std::shared_ptr<detail::ProcessState> state;
    std::exception_ptr error;

    Process get_return_object() { return Process(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle handle) noexcept;
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() { error = std::current_exception(); }
  };

  Process() = default;
  explicit Process(Handle handle) : handle_(handle) {}
  Process(Process&& other) noexcept : handle_(other.handle_) {
    other.handle_ = nullptr;
  }
  Process& operator=(Process&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = other.handle_;
      other.handle_ = nullptr;
    }
    return *this;
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process() { destroy(); }

  [[nodiscard]] bool valid() const { return handle_ != nullptr; }

  /// Releases ownership of the coroutine (used by Engine::spawn).
  Handle release() {
    Handle handle = handle_;
    handle_ = nullptr;
    return handle;
  }

  /// Awaiting a Process runs it inline as a sub-process: the child starts
  /// immediately at the current simulated time and the parent resumes when
  /// the child finishes.  This is how composite model elements (nested
  /// activity diagrams, Fig. 8b lines 79-82) execute their content.
  /// (Defined after the class; it holds a Process by value.)
  struct CallAwaiter;
  [[nodiscard]] CallAwaiter operator co_await() &&;

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  Handle handle_ = nullptr;
};

struct Process::CallAwaiter {
  Process child;  // owns the child coroutine for the await's duration
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> caller) noexcept {
    child.handle_.promise().engine = caller.promise().engine;
    child.handle_.promise().continuation = caller;
    return child.handle_;  // symmetric transfer into the child
  }
  void await_resume() {
    if (child.handle_.promise().error) {
      std::rethrow_exception(child.handle_.promise().error);
    }
  }
};

inline Process::CallAwaiter Process::operator co_await() && {
  if (!handle_) {
    detail::throw_logic_error("awaiting an empty Process");
  }
  return CallAwaiter{std::move(*this)};
}

}  // namespace prophet::sim
