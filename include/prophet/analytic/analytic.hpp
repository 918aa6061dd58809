// Analytic performance estimation — closed-form prediction without
// discrete-event simulation.
//
// The paper's Performance Estimator predicts program performance by
// simulating the transformed C++ model; related work (Sbeity et al.,
// "Generating a Performance Stochastic Model from UML Specifications")
// shows the same UML performance annotations can feed closed-form
// solvers instead.  The AnalyticEstimator walks the checked UML model
// once per process and prices it with the same LogGP-style cost formulas
// prophet/machine uses, turning a seconds-per-scenario simulation into a
// microseconds-per-scenario evaluation:
//
//  1. Symbolic walk (per process): sum CPU demands from the workload
//     cost expressions; collapse loops whose bodies are provably
//     iteration-independent (trip count x one-iteration cost), or, when
//     such a body communicates, walk its first trip and emit that trip's
//     events again for the others; resolve
//     decisions by evaluating their guards, falling back to expectation
//     over `prob`-annotated branches; cost communication with the
//     machine model's formulas (latency + size/bandwidth + per-message
//     overhead).  Produces a compact per-process event sequence.
//  2. Dependency replay: resolve send/recv matching and barrier
//     synchronization across processes with per-process clocks and a
//     message ledger — no event queue, no facility simulation.
//     O(events) while receives take messages in their send order
//     (docs/analytic.md §3 gives the worst case).  Scenarios that walk
//     alike and place their processes alike share one replay.
//  3. Contention correction: the predicted makespan is the maximum of
//     the replay critical path, each node's total compute demand divided
//     by its `processors_per_node` servers (the deterministic
//     heavy-traffic limit of an M/M/k correction), and each critical
//     section's total serialized demand.
//
// docs/analytic.md derives the formulas and lists the assumptions; the
// simulation backend cross-validates the model (`--backend=both`).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "prophet/guard/guard.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/machine/machine.hpp"
#include "prophet/obs/obs.hpp"
#include "prophet/uml/model.hpp"

namespace prophet::analytic {

/// Error thrown when a model cannot be evaluated analytically: lowering
/// failures, malformed structure the walk reaches, constructs outside the
/// supported subset (e.g. message passing inside parallel regions), or
/// communication patterns that deadlock during replay.  Evaluation errors
/// and bad workloads raise what every engine raises (expr::EvalError,
/// the workload rules' std::invalid_argument).
class AnalyticError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-node load summary of one evaluation.
struct NodeLoad {
  double compute_demand = 0;  // summed contended CPU seconds on the node
  double utilization = 0;     // demand / (servers * predicted_time)
  int processes = 0;          // processes placed on the node
};

/// The result of one analytic evaluation.
struct AnalyticReport {
  double predicted_time = 0;  // predicted makespan (seconds)
  // Uncontended replay clock of each process, indexed by pid (0..np-1).
  std::vector<double> per_process_finish;
  std::uint64_t evaluated_elements = 0;  // model elements walked
  int processes = 0;
  std::vector<NodeLoad> node_loads;

  /// Human-readable multi-line report (mirrors PredictionReport::summary).
  [[nodiscard]] std::string summary() const;

  /// One line per node: utilization and compute demand.
  [[nodiscard]] std::string machine_report() const;
};

/// Static cost analyzer over a UML performance model.  The analyzer is
/// a *consumer* of the shared lowering layer: all per-model compilation
/// (slot space, bytecode, resolved fragments — lower::ModelProgram)
/// happens in lower::lower(), so one estimator instance can evaluate
/// many scenarios cheaply — the symbolic walk resolves no identifier
/// strings at evaluation time — and the same lowering can feed the
/// simulation backend without recompilation.
class AnalyticEstimator {
 public:
  /// Borrows `model` and lowers it; it must outlive the estimator.
  /// Throws AnalyticError when any expression fails to parse or a
  /// referenced diagram is missing.
  explicit AnalyticEstimator(const uml::Model& model);

  /// Takes ownership of `model` (safe with temporaries).
  explicit AnalyticEstimator(uml::Model&& model);

  /// Shares an existing lowering: no parsing, no compilation — one pass
  /// over the model's programs decides which SystemParameters fields a
  /// walk may read (np, and nodes and processors_per_node), which decides
  /// which lanes of evaluate_batch share a walk.  Throws AnalyticError on
  /// null programs.
  explicit AnalyticEstimator(lower::ModelProgramPtr program);
  ~AnalyticEstimator();

  AnalyticEstimator(const AnalyticEstimator&) = delete;
  AnalyticEstimator& operator=(const AnalyticEstimator&) = delete;

  /// Predicts the model's performance under `params`.  Deterministic:
  /// same parameters, same report.  Thread-safe: the estimator is never
  /// written, and an evaluation's buffers are its thread's own workspace
  /// (one per thread and kept across calls; docs/analytic.md §3 lists
  /// what a warm evaluation still allocates), so any number of threads
  /// may evaluate one estimator concurrently (the contract the analytic
  /// Backend::prepare() handle exposes).  Nothing an evaluation calls
  /// re-enters an estimator, so one thread runs one evaluation at a time.
  ///
  /// When `counters` is non-null, the evaluation's activity (loop
  /// collapses, re-emitted trips, SPMD sharing, replayed events, which
  /// bound set the makespan, VM instructions) is counted into it.  When
  /// `budget` is non-null, the walk (steps + VM instructions),
  /// non-collapsed loop trips and the replay (delivered events) are
  /// charged against it; a re-emitted loop trip is charged the loop trips
  /// and VM instructions its first trip's walk charged, and tripping
  /// raises guard::ResourceExhausted / guard::Cancelled.  Neither feeds
  /// back into the prediction: the report is bit-identical with or
  /// without them.
  [[nodiscard]] AnalyticReport evaluate(
      const machine::SystemParameters& params,
      obs::AnalyticCounters* counters = nullptr,
      guard::Budget* budget = nullptr) const;

  /// Evaluates the model under every parameter set in `params` at once,
  /// returning one report per entry, in order.  Each report is
  /// bit-identical to what the scalar evaluate(params[i], counters,
  /// budget) loop would produce.
  ///
  /// Lanes that agree, bit for bit, on every SystemParameters field the
  /// walk may read share one *walk input*, wherever they sit in the
  /// chunk.  The walk reads np unless one walk serves every process of
  /// any np and nothing it evaluates or prices reads np: no node-tag
  /// program, decision guard or local initializer may read pid/tid, no
  /// node carries a code fragment or is a send, receive, barrier or
  /// <<collective>>, and no node-tag program, decision guard, variable
  /// initializer or cost-function body reads np.  It reads nodes and
  /// processors_per_node only through a <<collective>> or a program that
  /// reads nn or ppn.  Every other field is always part of the input.
  /// (All of this is decided when the estimator is built.)  Each distinct
  /// input runs exactly what evaluate() runs, once: pid 0 is walked first,
  /// and when that walk read no pid/tid and ran no code fragment it serves
  /// every process; otherwise pids 1..np-1 are walked in order, and
  /// fragments update the input's globals.  The replay then runs once per
  /// distinct *replay input* of the input's lanes: lanes that agree on np,
  /// ceil(np / nodes) and the link fields place their processes alike and
  /// share a replay.  The bound step runs per lane, over its replay, and
  /// reads the lane's own processors_per_node and nodes.
  ///
  /// A thread keeps the walks of the last input its last evaluate_batch
  /// call walked: the next call on the thread serves its first input, in
  /// lane order, from them when they are this estimator's walks of that
  /// input (estimators are told apart by an id, never by address), and
  /// counts it in `walks_kept`.  A call with `budget` takes only walks
  /// made under a budget, and is charged what they charged (loop trips,
  /// then VM instructions).  Any walk drops them, evaluate()'s included;
  /// evaluate() never takes them.
  ///
  /// Throws when any lane cannot be evaluated: a guard::GuardError, or
  /// the error a lane raises while the lanes are validated, walked and
  /// replayed, worded as evaluate() words it for that lane.  Which
  /// failing lane's error is raised is unspecified; a caller that needs
  /// each lane's own error (the sweep pipeline) re-runs the lanes one by
  /// one.  The fourth parameter is never written.
  /// `spmd_fast_path` and `events_replayed` count per lane: a lane that
  /// shares a replay counts the events that replay consumed, and is
  /// charged them against `budget`, and also counts in `replays_shared`.
  /// A walk counts its VM activity once however many lanes and calls
  /// share it, so those totals may be lower than the scalar loop's;
  /// predictions never differ.
  [[nodiscard]] std::vector<AnalyticReport> evaluate_batch(
      std::span<const machine::SystemParameters> params,
      obs::AnalyticCounters* counters = nullptr,
      guard::Budget* budget = nullptr, std::size_t* = nullptr) const;

  /// The shared lowering this estimator evaluates (never null).
  [[nodiscard]] lower::ModelProgramPtr lowering() const;

  struct Impl;  // public so the walker/replay helpers in the TU can use it

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace prophet::analytic
