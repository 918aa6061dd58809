#include "prophet/sim/engine.hpp"

#include <sanitizer/asan_interface.h>

#include <new>
#include <stdexcept>
#include <utility>

#include "prophet/guard/guard.hpp"

namespace prophet::sim {

namespace detail {

void throw_logic_error(const char* what) { throw std::logic_error(what); }

}  // namespace detail

// --- Frame cache -------------------------------------------------------------
//
// Every simulated event allocates coroutine frames: an element's
// execute(), a sub-diagram's walk, a loop body.  Frames are served from a
// per-thread free list per size class instead of the heap, and the free
// lists are refilled from chunks carved in order, so a run's first frames
// cost one heap allocation per chunk rather than one each.  Each copy of
// this file owns its cache (the host's, and the hidden copy inside every
// generated evaluator object): a coroutine's frame is allocated by its
// ramp and freed by its destroy function, both compiled in one unit, so a
// block always goes back to the copy it came from.
//
// The cache holds no memory while no frame is live: when a copy's last
// live frame on the thread is freed (the end of every simulation run),
// the copy gives its chunks back.  So nothing is left for thread exit,
// and the thread_local needs no destructor: a registered TLS destructor
// would pin an unloadable evaluator object until its thread exits.
//
// Free and uncarved blocks stay poisoned until they are handed out, so a
// use of a freed frame is still a sanitizer report (the ASAN_* macros do
// nothing in a build without AddressSanitizer).

namespace {

/// Frame sizes round up to a multiple of kFrameGrain bytes; frames of up
/// to kFrameClasses grains are cached, larger ones use the heap.
constexpr std::size_t kFrameGrain = 64;
constexpr std::size_t kFrameClasses = 64;
/// Bytes per chunk: a run carves its frames from a few.
constexpr std::size_t kChunkBytes = 4 * kFrameGrain * kFrameClasses;

struct FreeFrame {
  FreeFrame* next;
};

/// A chunk's header; its blocks follow.
struct alignas(__STDCPP_DEFAULT_NEW_ALIGNMENT__) Chunk {
  Chunk* next;
};

struct FrameCache {
  FreeFrame* free[kFrameClasses];
  Chunk* chunks;     // every chunk carved since the cache was last empty
  char* carve;       // the uncarved rest of the newest chunk
  char* carve_end;
  std::size_t live;  // cached-class frames handed out and not yet freed
};

constinit thread_local FrameCache t_frames{};

/// A block of `bytes` (a cached class) carved from the newest chunk, or
/// from a new one.
void* carve(FrameCache& cache, std::size_t bytes) {
  if (static_cast<std::size_t>(cache.carve_end - cache.carve) < bytes) {
    auto* chunk = static_cast<Chunk*>(::operator new(kChunkBytes));
    chunk->next = cache.chunks;
    cache.chunks = chunk;
    cache.carve = reinterpret_cast<char*>(chunk + 1);
    cache.carve_end = reinterpret_cast<char*>(chunk) + kChunkBytes;
    ASAN_POISON_MEMORY_REGION(
        cache.carve, static_cast<std::size_t>(cache.carve_end - cache.carve));
  }
  void* block = cache.carve;
  cache.carve += bytes;
  ASAN_UNPOISON_MEMORY_REGION(block, bytes);
  return block;
}

/// Gives every chunk back to the heap; no frame may be live.
void empty(FrameCache& cache) {
  while (Chunk* chunk = cache.chunks) {
    cache.chunks = chunk->next;
    ASAN_UNPOISON_MEMORY_REGION(chunk, kChunkBytes);
    ::operator delete(chunk, kChunkBytes);
  }
  cache = FrameCache{};
}

}  // namespace

void* Process::promise_type::operator new(std::size_t size) {
  const std::size_t grains = (size + kFrameGrain - 1) / kFrameGrain;
  if (grains > kFrameClasses) {
    return ::operator new(size);
  }
  FrameCache& cache = t_frames;
  ++cache.live;
  FreeFrame*& head = cache.free[grains - 1];
  if (FreeFrame* block = head) {
    ASAN_UNPOISON_MEMORY_REGION(block, grains * kFrameGrain);
    head = block->next;
    return block;
  }
  return carve(cache, grains * kFrameGrain);
}

void Process::promise_type::operator delete(void* frame,
                                            std::size_t size) noexcept {
  const std::size_t grains = (size + kFrameGrain - 1) / kFrameGrain;
  if (grains > kFrameClasses) {
    ::operator delete(frame, size);
    return;
  }
  FrameCache& cache = t_frames;
  if (--cache.live == 0) {
    empty(cache);
    return;
  }
  auto* block = static_cast<FreeFrame*>(frame);
  block->next = cache.free[grains - 1];
  cache.free[grains - 1] = block;
  ASAN_POISON_MEMORY_REGION(block, grains * kFrameGrain);
}

// --- Joins -------------------------------------------------------------------

ProcessRef::ProcessRef(const ProcessRef& other) noexcept
    : engine_(other.engine_), slot_(other.slot_) {
  if (engine_ != nullptr) {
    engine_->retain(slot_);
  }
}

ProcessRef& ProcessRef::operator=(const ProcessRef& other) noexcept {
  if (other.engine_ != nullptr) {
    other.engine_->retain(other.slot_);
  }
  if (engine_ != nullptr) {
    engine_->release(slot_);
  }
  engine_ = other.engine_;
  slot_ = other.slot_;
  return *this;
}

ProcessRef& ProcessRef::operator=(ProcessRef&& other) noexcept {
  if (this != &other) {
    if (engine_ != nullptr) {
      engine_->release(slot_);
    }
    engine_ = std::exchange(other.engine_, nullptr);
    slot_ = other.slot_;
  }
  return *this;
}

ProcessRef::~ProcessRef() {
  if (engine_ != nullptr) {
    engine_->release(slot_);
  }
}

bool ProcessRef::done() const {
  return engine_ != nullptr && engine_->joins_[slot_].done;
}

bool ProcessRef::JoinAwaiter::await_ready() const noexcept {
  return engine->joins_[slot].done;
}

void ProcessRef::JoinAwaiter::await_suspend(std::coroutine_handle<> waiter) {
  handle = waiter;
  engine->joins_[slot].joiners.push_back(this);
}

void ProcessRef::JoinAwaiter::await_resume() const {
  std::exception_ptr& error = engine->joins_[slot].error;
  if (error) {
    std::rethrow_exception(std::exchange(error, nullptr));
  }
}

void Engine::release(std::uint32_t slot) {
  JoinSlot& join = joins_[slot];
  if (--join.refs == 0) {
    join = JoinSlot{};
    join.next_free = free_join_;
    free_join_ = slot;
  }
}

void Engine::finish(std::uint32_t slot, std::exception_ptr error) {
  JoinSlot& join = joins_[slot];
  join.done = true;
  join.frame = nullptr;
  --live_;
  if (error && join.joiners.size() == 0) {
    // Nobody is joining; surface the error through the run loop.
    record_error(error);
  }
  join.error = std::move(error);
  while (join.joiners.size() != 0) {
    schedule(join.joiners.pop_front()->handle, now_);
  }
  release(slot);
}

// --- Processes ---------------------------------------------------------------

std::coroutine_handle<> Process::promise_type::FinalAwaiter::await_suspend(
    Handle handle) noexcept {
  promise_type& promise = handle.promise();
  Engine* engine = promise.engine;
  if (promise.continuation) {
    // Sub-process: transfer control straight back to the caller (or park
    // it with the engine to unwind the stack); the CallAwaiter (alive in
    // the caller's frame) owns and destroys the child coroutine after
    // await_resume.
    if (engine->park(promise.continuation)) {
      return std::noop_coroutine();
    }
    return promise.continuation;
  }
  // Spawned process: publish completion, wake joiners, and hand the frame
  // to the engine for destruction once control is back in the run loop.
  engine->finish(promise.slot, promise.error);
  engine->defer_destroy(handle);
  return std::noop_coroutine();
}

// --- Engine ------------------------------------------------------------------

Engine::~Engine() {
  drain_destroy_list();
  // Destroy processes that never finished (e.g. blocked on a mailbox when
  // the calendar drained).  Their frames are suspended, so destroy() is
  // safe; the ProcessRefs they hold release slots, which never resizes
  // the table.
  for (std::size_t slot = 0; slot < joins_.size(); ++slot) {
    if (const auto frame = std::exchange(joins_[slot].frame, nullptr)) {
      frame.destroy();
    }
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
  if (when < now_) {
    throw std::logic_error("schedule() into the past");
  }
  std::uint32_t slot = free_join_;
  if (slot != Process::kNoSlot) {
    free_join_ = joins_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(joins_.size());
    joins_.emplace_back();
  }
  const Process::Handle handle = process.release();
  JoinSlot& join = joins_[slot];
  join.frame = handle;
  join.refs = 2;  // the running process and the returned ProcessRef
  ++live_;
  handle.promise().engine = this;
  handle.promise().slot = slot;
  schedule(handle, when);
  return ProcessRef(this, slot);
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
  transfers_ = 0;
  for (std::coroutine_handle<> next = event.handle; next;
       next = std::exchange(parked_, nullptr)) {
    next.resume();
  }
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
    handle.destroy();
  }
  to_destroy_.clear();
}

}  // namespace prophet::sim
