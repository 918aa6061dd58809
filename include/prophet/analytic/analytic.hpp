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
//     iteration-independent (trip count x one-iteration cost); resolve
//     decisions by evaluating their guards, falling back to expectation
//     over `prob`-annotated branches; cost communication with the
//     machine model's formulas (latency + size/bandwidth + per-message
//     overhead).  Produces a compact per-process event sequence.
//  2. Dependency replay (O(events)): resolve send/recv matching and
//     barrier synchronization across processes with per-process clocks
//     and a message ledger — no event queue, no facility simulation.
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
#include <map>
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
  std::map<int, double> per_process_finish;  // uncontended replay clocks
  std::uint64_t evaluated_elements = 0;      // model elements walked
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
  /// over the model's nodes and edges decides whether evaluate_batch may
  /// batch it.  Throws AnalyticError on null programs.
  explicit AnalyticEstimator(lower::ModelProgramPtr program);
  ~AnalyticEstimator();

  AnalyticEstimator(const AnalyticEstimator&) = delete;
  AnalyticEstimator& operator=(const AnalyticEstimator&) = delete;

  /// Predicts the model's performance under `params`.  Deterministic and
  /// reentrant: same parameters, same report.  Thread-safe: all
  /// per-evaluation state lives on the call's stack, so any number of
  /// threads may evaluate one estimator concurrently (the contract the
  /// analytic Backend::prepare() handle exposes).
  [[nodiscard]] AnalyticReport evaluate(
      const machine::SystemParameters& params) const;

  /// Like evaluate(params), additionally counting the evaluation's
  /// activity (loop collapses, SPMD sharing, replayed events, which
  /// bound set the makespan, VM instructions) into `counters` when
  /// non-null.  Counters never feed back into the prediction: the report
  /// is bit-identical to the uncounted overload's.
  [[nodiscard]] AnalyticReport evaluate(
      const machine::SystemParameters& params,
      obs::AnalyticCounters* counters) const;

  /// Like evaluate(params, counters), additionally charging the walk
  /// (steps + VM instructions), non-collapsed loop trips and the replay
  /// (delivered events) against `budget` when non-null.  Tripping raises
  /// guard::ResourceExhausted / guard::Cancelled; a null budget adds no
  /// checks and the report stays bit-identical.
  [[nodiscard]] AnalyticReport evaluate(const machine::SystemParameters& params,
                                        obs::AnalyticCounters* counters,
                                        guard::Budget* budget) const;

  /// Evaluates the model under every parameter set in `params` at once,
  /// returning one report per entry, in order.  Each report is
  /// bit-identical to what the scalar evaluate(params[i], counters,
  /// budget) loop would produce.
  ///
  /// A model batches when no node-tag program, decision guard or local
  /// initializer may read pid/tid and no node carries a code fragment,
  /// decided once, when the estimator is built.  Then one *batched* walk
  /// serves every process of every lane (forks, parallel regions,
  /// critical sections and `prob` decisions included): cost expressions
  /// evaluate through the vectorized expr VM (Compiled::eval_batch), one
  /// value per lane, and only the replay/bound assembly runs per lane.
  /// Ineligible models take the scalar loop, and so do eligible ones
  /// whose lanes diverge at run time (guard truthiness, message peers or
  /// region thread counts differ across lanes; lane-varying trip counts
  /// mix zero with non-zero or feed a loop body that does not collapse)
  /// or raise — errors then carry their exact per-lane messages.  Every
  /// lane the scalar loop serves is added to `*lanes_fallback` (when
  /// non-null and more than one lane was given).  Counter totals may
  /// differ between the paths (batched dispatch counts instructions once
  /// per lane group); predictions never do.
  [[nodiscard]] std::vector<AnalyticReport> evaluate_batch(
      std::span<const machine::SystemParameters> params,
      obs::AnalyticCounters* counters = nullptr,
      guard::Budget* budget = nullptr,
      std::size_t* lanes_fallback = nullptr) const;

  /// The shared lowering this estimator evaluates (never null).
  [[nodiscard]] lower::ModelProgramPtr lowering() const;

  struct Impl;  // public so the walker/replay helpers in the TU can use it

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace prophet::analytic
