#pragma once

/// \file obs.hpp
/// Observability substrate: a metrics registry of named counters, gauges
/// and timers, plus a span log that exports Chrome trace-event JSON.
///
/// The design keeps instrumentation off the hot paths:
///
///  - Engines (the expr VM, the sim elements, the analytic walker) never
///    touch the registry directly.  They increment plain POD counter
///    blocks (ExprCounters, SimCounters, AnalyticCounters) through
///    nullable raw pointers — a null pointer means "disabled" and costs
///    one predictable branch.  Call boundaries fold the PODs into a
///    Registry afterwards.
///  - Registry hands out Counter/Gauge/Timer handles wrapping raw cell
///    pointers; a default-constructed handle is a no-op.  Cells live in
///    a std::map, whose node stability keeps handles valid for the
///    registry's lifetime.
///  - Neither Registry nor TraceLog is thread-safe.  Concurrent callers
///    (BatchRunner workers) own one instance each and merge() after the
///    join.
///
/// Invariant: hot paths emit through obs handles and POD counters, never
/// through string lookups.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "prophet/trace/trace.hpp"

namespace prophet::obs {

// ---------------------------------------------------------------------------
// Hot-path counter blocks
// ---------------------------------------------------------------------------

/// Counted by the expression VM (expr::Compiled::eval) when a block is
/// installed on the EvalContext.
struct ExprCounters {
  std::uint64_t instructions = 0;  ///< bytecode instructions dispatched
  std::uint64_t evals = 0;         ///< eval() calls completed or thrown
  std::uint64_t lazy_errors = 0;   ///< compile-time-deferred errors thrown
  /// eval_batch fast-path executions (each one advances `evals` by its
  /// lane width but `instructions` once per batched dispatch) — CI
  /// asserts this is nonzero when a sweep claims to have vectorized.
  std::uint64_t batch_evals = 0;
};

/// Counted by the workload elements and the simulation manager.
struct SimCounters {
  std::uint64_t messages = 0;          ///< point-to-point + collective sends
  std::uint64_t barriers = 0;          ///< MPI + OpenMP barrier entries
  std::uint64_t context_switches = 0;  ///< engine events processed
};

/// Counted by the analytic estimator's symbolic walk and replay.
struct AnalyticCounters {
  std::uint64_t loop_collapses = 0;   ///< loops folded to one walked body
  std::uint64_t trips_reemitted = 0;  ///< loop trips re-emitted, not walked
  std::uint64_t spmd_fast_path = 0;   ///< one walk reused for all ranks
  std::uint64_t events_replayed = 0;  ///< events consumed by replay()
  std::uint64_t replays_shared = 0;   ///< lanes served another lane's replay
  std::uint64_t walks_kept = 0;       ///< inputs served by a kept walk
  std::uint64_t schedule_wins = 0;    ///< makespan set by replayed schedule
  std::uint64_t capacity_wins = 0;    ///< makespan set by node capacity bound
  std::uint64_t critical_wins = 0;    ///< makespan set by critical-path bound
  ExprCounters expr;                  ///< VM activity during the walk
};

// ---------------------------------------------------------------------------
// Registry handles
// ---------------------------------------------------------------------------

/// Monotonic integer cell handle.  Default-constructed handles are
/// disabled no-ops.
class Counter {
 public:
  Counter() = default;

  void add(std::uint64_t n = 1) {
    if (cell_ != nullptr) {
      *cell_ += n;
    }
  }

 private:
  friend class Registry;
  explicit Counter(std::uint64_t* cell) : cell_(cell) {}
  std::uint64_t* cell_ = nullptr;
};

/// Point-in-time double cell handle (set/add).
class Gauge {
 public:
  Gauge() = default;

  void set(double value) {
    if (cell_ != nullptr) {
      *cell_ = value;
    }
  }

  void add(double value) {
    if (cell_ != nullptr) {
      *cell_ += value;
    }
  }

 private:
  friend class Registry;
  explicit Gauge(double* cell) : cell_(cell) {}
  double* cell_ = nullptr;
};

/// Accumulated-seconds cell handle.
class Timer {
 public:
  Timer() = default;

  void add_seconds(double seconds) {
    if (cell_ != nullptr) {
      *cell_ += seconds;
    }
  }

 private:
  friend class Registry;
  friend class ScopedTimer;
  explicit Timer(double* cell) : cell_(cell) {}
  double* cell_ = nullptr;
};

/// RAII wall-clock accumulation into a Timer (no-op on a disabled one).
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer timer)
      : timer_(timer), start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    timer_.add_seconds(std::chrono::duration<double>(elapsed).count());
  }

 private:
  Timer timer_;
  std::chrono::steady_clock::time_point start_;
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Named metric cells with a stable JSON export.  NOT thread-safe: give
/// each worker its own registry and merge().  Metric names are
/// dot-separated lowercase paths ("batch.jobs", "expr.instructions");
/// the glossary lives in docs/observability.md.
class Registry {
 public:
  /// Returns a handle, creating the cell at zero on first use.
  /// Re-requesting a name with a different kind throws std::logic_error.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Timer timer(std::string_view name);

  /// Folds a POD counter block in under `prefix` ("expr." + field name).
  void fold(std::string_view prefix, const ExprCounters& counters);
  void fold(std::string_view prefix, const SimCounters& counters);
  void fold(std::string_view prefix, const AnalyticCounters& counters);

  /// Adds every cell of `other` into this registry (creating missing
  /// cells).  Counters, gauges and timers all merge by summation.
  void merge(const Registry& other);

  /// Point reads; absent names read as zero.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  [[nodiscard]] double gauge_value(std::string_view name) const;
  [[nodiscard]] double timer_seconds(std::string_view name) const;

  [[nodiscard]] bool empty() const { return cells_.empty(); }
  [[nodiscard]] std::size_t size() const { return cells_.size(); }

  /// Stable export: {"schema":"prophet-metrics-1","counters":{...},
  /// "gauges":{...},"timers":{...}} with keys sorted, counters as
  /// integers, doubles in shortest round-trip form.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Cell {
    enum class Kind { Counter, Gauge, Timer };
    Kind kind = Kind::Counter;
    std::uint64_t count = 0;
    double value = 0.0;
  };

  Cell& cell(std::string_view name, Cell::Kind kind);

  std::map<std::string, Cell, std::less<>> cells_;
};

// ---------------------------------------------------------------------------
// TraceLog
// ---------------------------------------------------------------------------

/// One completed span on a (pid, tid) lane, in microseconds.  Host spans
/// measure wall clock from the log's epoch; simulated spans measure
/// model time from zero (distinct pid groups keep the two time bases
/// from ever sharing a lane).
struct Span {
  double start_us = 0.0;
  double dur_us = 0.0;
  int pid = 0;
  int tid = 0;
  std::string name;
  std::string cat;
};

/// Span collector exporting the Chrome trace-event JSON format (load in
/// Perfetto or chrome://tracing).  NOT thread-safe: one per worker,
/// merge() after the join.  Workers must share the parent's epoch so
/// their wall-clock spans land on one time base — create them with
/// TraceLog(parent.epoch()).
class TraceLog {
 public:
  using Clock = std::chrono::steady_clock;

  TraceLog() : epoch_(Clock::now()) {}
  explicit TraceLog(Clock::time_point epoch) : epoch_(epoch) {}

  [[nodiscard]] Clock::time_point epoch() const { return epoch_; }

  /// Microseconds of wall clock elapsed since the epoch.
  [[nodiscard]] double now_us() const;

  /// Records a completed span.
  void complete(double start_us, double dur_us, int pid, int tid,
                std::string name, std::string cat);

  /// RAII host span: records `[construction, destruction)` on a lane.
  /// A span on a null log is a no-op — callers pass nullptr when
  /// tracing is disabled.
  class HostSpan {
   public:
    HostSpan(TraceLog* log, int pid, int tid, std::string name,
             std::string cat)
        : log_(log),
          pid_(pid),
          tid_(tid),
          name_(std::move(name)),
          cat_(std::move(cat)),
          start_us_(log != nullptr ? log->now_us() : 0.0) {}
    HostSpan(const HostSpan&) = delete;
    HostSpan& operator=(const HostSpan&) = delete;

    ~HostSpan() {
      if (log_ != nullptr) {
        log_->complete(start_us_, log_->now_us() - start_us_, pid_, tid_,
                       std::move(name_), std::move(cat_));
      }
    }

   private:
    TraceLog* log_;
    int pid_;
    int tid_;
    std::string name_;
    std::string cat_;
    double start_us_;
  };

  /// Metadata: lane labels shown by the trace viewer.
  void name_process(int pid, std::string name);
  void name_thread(int pid, int tid, std::string name);

  /// Maps a simulated timeline onto trace lanes: event (pid p, tid t)
  /// lands on chrome pid `base_pid + p`, tid `t`, with model seconds
  /// scaled to microseconds.  Each rank's process lane is labeled
  /// "`label` pN".
  void append_simulated(const trace::Trace& trace, int base_pid,
                        std::string_view label);

  /// Moves every span and lane label of `other` into this log.
  void merge(TraceLog&& other);

  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }
  [[nodiscard]] bool empty() const { return spans_.empty(); }

  /// {"displayTimeUnit":"ms","traceEvents":[...]} with metadata events
  /// first and "ph":"X" spans sorted by timestamp.
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::map<int, std::string> process_names_;
  std::map<std::pair<int, int>, std::string> thread_names_;
};

}  // namespace prophet::obs
