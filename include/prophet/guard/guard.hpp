// Execution guardrails: budgets, cooperative cancellation and fault
// injection for every evaluation layer.
//
// The estimation engines are cooperative loops (DES event dispatch, expr
// VM dispatch, analytic walk/replay, interpreter loop trips).  A hostile
// or simply mistaken model — a 1e12-trip loop, a pathological XMI file, a
// deadlocking comm pattern — must never wedge the process: every loop
// periodically consults a guard::Budget and aborts with a structured
// error the moment a limit trips or a cancellation is requested.
//
//   guard::Limits     what is bounded (wall clock, sim events, VM
//                     instructions, replay events, loop trips); zero
//                     means unlimited, so a default Limits bounds nothing
//   guard::Budget     one evaluation's mutable ledger: counters charged
//                     at the check sites, an async-signal-safe cancel
//                     flag, and an optional parent (a sweep-level budget
//                     whose deadline/cancellation every job inherits)
//   guard::ResourceExhausted / guard::Cancelled
//                     structured errors carrying which limit tripped, the
//                     stage (check site) that observed it, and the usage
//                     counters at failure
//   guard::FaultPlan  deterministic, seeded fault injection at named
//                     sites (parse/lower/prepare/estimate, plus a
//                     mid-simulation cancel) for exercising error paths
//
// Contract: a Budget is charged from one evaluating thread at a time;
// cancel() may be called from any thread or from a signal handler.
// Checks never allocate on the happy path, and a null Budget pointer at
// a check site costs one branch — unlimited runs stay bit-identical.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

/// Execution budgets, cooperative cancellation and fault injection.
namespace prophet::guard {

/// Which bound a Budget tripped on.
enum class LimitKind : std::uint8_t {
  WallClock,       ///< Limits::wall_seconds deadline passed.
  SimEvents,       ///< Limits::max_sim_events reached.
  VmInstructions,  ///< Limits::max_vm_instructions reached.
  ReplayEvents,    ///< Limits::max_replay_events reached.
  LoopTrips,       ///< Limits::max_loop_trips reached.
};

/// Stable lower-case name of a limit ("wall_clock", "sim_events", ...)
/// used in error messages and the sweep CSV.
[[nodiscard]] std::string_view to_string(LimitKind kind);

/// What one evaluation may consume.  Zero (or non-positive wall time)
/// disables the corresponding bound; a default-constructed Limits bounds
/// nothing.
struct Limits {
  /// Wall-clock budget in seconds, measured from Budget construction.
  double wall_seconds = 0;
  /// Maximum events the DES engine may dispatch.
  std::uint64_t max_sim_events = 0;
  /// Maximum bytecode instructions the expression VM may execute.
  std::uint64_t max_vm_instructions = 0;
  /// Maximum events the analytic replay may deliver.
  std::uint64_t max_replay_events = 0;
  /// Maximum loop iterations (interpreter + analytic, non-collapsed).
  std::uint64_t max_loop_trips = 0;

  /// True when at least one bound is active.
  [[nodiscard]] bool any() const {
    return wall_seconds > 0 || max_sim_events != 0 ||
           max_vm_instructions != 0 || max_replay_events != 0 ||
           max_loop_trips != 0;
  }
};

/// Counter snapshot embedded in guard errors: what had been consumed
/// when the limit tripped.
struct Usage {
  std::uint64_t sim_events = 0;
  std::uint64_t vm_instructions = 0;
  std::uint64_t replay_events = 0;
  std::uint64_t loop_trips = 0;
  /// Seconds since the Budget was constructed.
  double elapsed_seconds = 0;
};

/// Base of the structured guard errors.  `limit()` names the tripped
/// bound, `stage()` the check site that observed it ("sim-engine",
/// "expr-vm", "analytic-walk", "analytic-replay", "interp-loop", ...),
/// and `usage()` the counters at failure.  The message names only the
/// limit, its bound (or the injected event) and the stage, so every
/// engine raises one text for one job; the numbers stay in `usage()`.
class GuardError : public std::runtime_error {
 public:
  GuardError(const std::string& message, LimitKind limit, std::string stage,
             const Usage& usage)
      : std::runtime_error(message),
        limit_(limit),
        stage_(std::move(stage)),
        usage_(usage) {}

  [[nodiscard]] LimitKind limit() const { return limit_; }
  [[nodiscard]] const std::string& stage() const { return stage_; }
  [[nodiscard]] const Usage& usage() const { return usage_; }

 private:
  LimitKind limit_;
  std::string stage_;
  Usage usage_;
};

/// A resource limit tripped (the run consumed its budget).
class ResourceExhausted final : public GuardError {
  using GuardError::GuardError;
};

/// Cancellation was requested (SIGINT, sweep shutdown, injected fault).
class Cancelled final : public GuardError {
  using GuardError::GuardError;
};

/// One evaluation's budget: limit ledger plus cancellation token.
///
/// Charged from a single evaluating thread; cancel() and
/// cancel_requested() are thread- and async-signal-safe.  Chain a job
/// budget to a sweep budget via `parent` — the child then also honours
/// the parent's deadline and cancellation (a tripped parent deadline
/// reports as WallClock with stage unchanged).
///
/// Deadline checks call the steady clock only every
/// `kDeadlineStride` charge units, so per-event/per-instruction check
/// sites stay cheap; the cancel flag is checked on every charge.
class Budget {
 public:
  /// Clock resolution of the amortized deadline check, in charge units.
  static constexpr std::uint64_t kDeadlineStride = 4096;

  explicit Budget(const Limits& limits = {}, const Budget* parent = nullptr);

  [[nodiscard]] const Limits& limits() const { return limits_; }

  /// Requests cancellation.  Thread- and async-signal-safe; the
  /// evaluating thread observes it at its next check site and raises
  /// guard::Cancelled.
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }

  /// True once cancel() was called on this budget or any ancestor.
  [[nodiscard]] bool cancel_requested() const noexcept;

  /// True when the budget can no longer admit work: cancelled, or a
  /// wall-clock deadline (own or inherited) has passed.  Non-throwing —
  /// for scheduler loops deciding whether to claim more work.
  [[nodiscard]] bool exhausted() const noexcept;

  /// Counter snapshot (approximate while the evaluation is running).
  [[nodiscard]] Usage usage() const;

  /// The VM instructions and loop trips charged so far: usage()'s two
  /// counters without its clock read, for an evaluator that charges
  /// again what a stretch of its run charged.
  [[nodiscard]] std::uint64_t vm_instructions() const {
    return vm_instructions_;
  }
  [[nodiscard]] std::uint64_t loop_trips() const { return loop_trips_; }

  /// Arms a deterministic mid-run cancellation: the budget behaves as if
  /// cancel() were called once `sim_events` have been charged.  Used by
  /// FaultPlan's "cancel" site.
  void cancel_at_sim_event(std::uint64_t event);

  // --- check sites ---------------------------------------------------
  //
  // Each charge adds `n` to one counter, then checks that counter's
  // limit, the cancel flag, and (amortized) the deadline.  On a trip it
  // throws ResourceExhausted or Cancelled naming `stage`.

  void charge_sim_events(std::uint64_t n, std::string_view stage);
  void charge_vm_instructions(std::uint64_t n, std::string_view stage);
  void charge_replay_events(std::uint64_t n, std::string_view stage);
  void charge_loop_trips(std::uint64_t n, std::string_view stage);

  /// Cancel + deadline check without charging a counter — for coarse
  /// boundaries (stage transitions, walker steps) that want an immediate
  /// deadline observation.
  void checkpoint(std::string_view stage);

 private:
  void check(std::uint64_t charged, std::string_view stage);
  [[noreturn]] void trip(LimitKind kind, std::string_view stage) const;

  Limits limits_;
  const Budget* parent_ = nullptr;
  std::chrono::steady_clock::time_point start_;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  std::atomic<bool> cancelled_{false};
  std::uint64_t sim_events_ = 0;
  std::uint64_t vm_instructions_ = 0;
  std::uint64_t replay_events_ = 0;
  std::uint64_t loop_trips_ = 0;
  std::uint64_t cancel_at_sim_event_ = 0;  // 0: disarmed
  std::uint64_t until_deadline_check_ = 0;
};

/// A deterministic fault injected by a FaultPlan.
class FaultInjected final : public std::runtime_error {
 public:
  FaultInjected(const std::string& message, std::string site,
                std::uint64_t visit)
      : std::runtime_error(message), site_(std::move(site)), visit_(visit) {}

  /// The named site that fired ("parse", "estimate", ...).
  [[nodiscard]] const std::string& site() const { return site_; }
  /// 1-based visit count at which the site fired.
  [[nodiscard]] std::uint64_t visit() const { return visit_; }

 private:
  std::string site_;
  std::uint64_t visit_;
};

/// Deterministic, seeded fault injection at named sites.
///
/// A plan is parsed from a spec of comma/space-separated rules:
///
///   site        fire on every visit to `site`
///   site@N      fire on the Nth visit only (1-based)
///   site%P      fire on each visit with probability P in [0,1],
///               decided by a hash of (seed, site, visit) — the same
///               seed always fails the same visits
///
/// Sites are plain names the pipeline visits ("parse" for XMI inputs,
/// at registration; "check", "lower", "prepare", "estimate"); the
/// special site "cancel@E" does not throw — the runner arms Budget::
/// cancel_at_sim_event(E) instead, exercising mid-simulation
/// cancellation.  Visit counters are per-site and thread-safe.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parses a spec; throws std::invalid_argument on malformed rules.
  [[nodiscard]] static FaultPlan parse(std::string_view spec,
                                       std::uint64_t seed = 0);

  /// True when the plan has no rules.
  [[nodiscard]] bool empty() const { return rules_.empty(); }

  /// Records a visit to `site`; throws FaultInjected when a rule fires.
  void visit(std::string_view site);

  /// Event count of a "cancel@E" rule (E defaults to 1), or nullopt
  /// when the plan has no cancel rule.
  [[nodiscard]] std::optional<std::uint64_t> cancel_at_event() const;

 private:
  struct Rule {
    std::string site;
    std::uint64_t at = 0;        // fire on this visit only; 0: every visit
    double probability = -1;     // >= 0: probabilistic rule
    std::atomic<std::uint64_t> hits{0};

    Rule() = default;
    Rule(const Rule& other)
        : site(other.site),
          at(other.at),
          probability(other.probability),
          hits(other.hits.load(std::memory_order_relaxed)) {}
  };

  std::uint64_t seed_ = 0;
  std::vector<Rule> rules_;
};

}  // namespace prophet::guard
