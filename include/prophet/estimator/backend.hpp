// Pluggable estimation backends.
//
// The paper's Performance Estimator predicts performance exclusively by
// discrete-event simulation (SimulationManager).  Related work (Sbeity et
// al.; André et al.) derives closed-form stochastic/analytic predictions
// from the same UML annotations instead.  The Backend interface makes the
// evaluation engine a pluggable choice: the simulator, the analytic
// estimator (prophet/analytic) and the generated-code evaluator
// (prophet/cgen) all implement it.  A BackendKind is a set of engines:
// engines() lists a selection reference first, and relative_error() is
// how a candidate is compared with the reference — the one rule the
// batch pipeline and prophetc share.  The CLI spells a selection as
// `--backend`, any `+`-join of sim, analytic and codegen (or both, all).
//
// Concrete backends live in prophet/analytic/backend.hpp and
// prophet/cgen/backend.hpp, which also holds the single-engine factory
// (the estimator module cannot depend on the UML interpreter that the
// simulation path needs without a dependency cycle).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "prophet/estimator/estimator.hpp"
#include "prophet/lower/lower.hpp"

namespace prophet::estimator {

/// Which evaluation engines to run: a set with one bit per engine.  The
/// unions are named because perfbench, the examples and the CLI spell
/// them.  A selection of more than one engine cross-validates: it takes
/// one engine as the reference (engines() lists it first) and reports
/// the worst candidate-vs-reference relative_error().
enum class BackendKind : unsigned {
  Simulation = 1,  ///< The paper's discrete-event simulation path.
  Analytic = 2,    ///< The closed-form analytic estimator.
  Codegen = 4,     ///< Native code generated from the shared lowering.
  Both = Simulation | Analytic,           ///< sim + analytic.
  SimCodegen = Simulation | Codegen,      ///< sim + codegen.
  AnalyticCodegen = Analytic | Codegen,   ///< analytic + codegen.
  All = Simulation | Analytic | Codegen,  ///< Every engine.
};

/// The single engines `selection` runs, reference first: the simulator
/// when selected, else codegen (bit-identical simulation semantics), else
/// the analytic estimator.  The candidates follow in sim -> analytic ->
/// codegen order.  Everything that prepares, evaluates or reports engines
/// walks this list.  A view of static storage; empty for a value that
/// selects no engine.
[[nodiscard]] std::span<const BackendKind> engines(BackendKind selection);

/// How far `candidate` deviates from `reference`: |c - r| / r when
/// r > 0, +inf when r = 0 < c (total disagreement, not zero error), and
/// 0 otherwise.
[[nodiscard]] double relative_error(double candidate, double reference);

/// The `--backend` spelling of a selection ("sim", "analytic",
/// "codegen", "both", "sim+codegen", "analytic+codegen", "all").
[[nodiscard]] std::string_view to_string(BackendKind kind);

/// Parses the `--backend` vocabulary: a `+`-join of "sim"/"simulation",
/// "analytic" and "codegen" in any order, or "both" (sim + analytic) or
/// "all"; nullopt for empty tokens, repeated engines and unknown names.
[[nodiscard]] std::optional<BackendKind> backend_from_string(
    std::string_view text);

/// A model compiled for repeated evaluation by one backend — the
/// prepare-once/evaluate-many half of the Backend contract.
///
/// A prepared model is immutable after Backend::prepare() returns:
/// estimate() is const, cheap (no re-parsing, no re-transformation), and
/// safe to call concurrently from any number of threads — implementations
/// keep every piece of per-evaluation engine state on the call's own
/// stack, in per-call objects or in buffers of the calling thread, never
/// in the handle.  The handle may borrow the uml::Model it was prepared
/// from; the caller keeps that model alive for the handle's lifetime.
class PreparedModel {
 public:
  /// Virtual: handles are owned and destroyed polymorphically.
  virtual ~PreparedModel() = default;

  /// Evaluates the prepared model under `params`.  Deterministic: the
  /// same parameters give the same report, bit-identical to the one-shot
  /// Backend::estimate() on the same model.  Throws on unevaluable
  /// scenarios (invalid parameters, deadlocks).
  [[nodiscard]] virtual PredictionReport estimate(
      const machine::SystemParameters& params,
      const EstimationOptions& options = {}) const = 0;

  /// Evaluates the prepared model under every parameter set in `params`
  /// at once, returning one report per entry, in order.  Each report is
  /// bit-identical to the one the scalar estimate(params[i], options)
  /// loop would produce — batching is an execution strategy, never a
  /// semantic change.  The default implementation IS that scalar loop,
  /// so every backend is conformant by construction; backends that can
  /// share work between lanes (the analytic estimator, which walks each
  /// distinct walk input once) override it.
  /// Throws on the first unevaluable scenario — callers needing per-lane
  /// error attribution (the sweep pipeline) catch and re-run each lane
  /// through estimate().
  [[nodiscard]] virtual std::vector<PredictionReport> estimate_batch(
      std::span<const machine::SystemParameters> params,
      const EstimationOptions& options = {}) const;

  /// The lane width a sweep batches at unless told otherwise
  /// (BatchOptions::batch_lanes = 0): the width of the chunks whose
  /// lanes the analytic estimator shares walks and replays across.
  static constexpr std::size_t kDefaultBatchLanes = 8;

  /// The shared lowering this handle consumes (never null).  Two
  /// handles prepared from the same lower::ModelProgramPtr return the
  /// same program — backends do not lower, so a caller can lower once
  /// and fan the result out to any number of engines.  Its stats() are
  /// the prepare-time counts, identical across every engine sharing it.
  [[nodiscard]] virtual lower::ModelProgramPtr lowering() const = 0;
};

/// An estimation engine: evaluates a UML performance model under one
/// parameter configuration and produces the paper's prediction report.
class Backend {
 public:
  /// Virtual: backends are selected and destroyed polymorphically.
  virtual ~Backend() = default;

  /// Builds a reusable evaluation handle over an already-lowered model.
  /// Backends do not lower: everything shareable lives in `program`, so
  /// preparing from an existing lowering is cheap (per-backend state
  /// only) and N backends can consume one lower::lower() result.  Throws
  /// on null programs or constructs the backend cannot evaluate.
  [[nodiscard]] virtual std::unique_ptr<PreparedModel> prepare(
      lower::ModelProgramPtr program) const = 0;

  /// Convenience: lowers `model` (lower::lower — may throw
  /// lower::LowerError) and prepares from the result.  The handle may
  /// borrow `model`; it must outlive the handle.  Callers preparing the
  /// same model for several backends should lower once themselves and
  /// use the sharing overload instead.
  [[nodiscard]] std::unique_ptr<PreparedModel> prepare(
      const uml::Model& model) const {
    return prepare(lower::lower(model));
  }

  /// One-shot convenience: prepare(model) + a single estimate.
  /// Deterministic: the same model and parameters give the same report.
  /// Throws on unevaluable models (parse failures, unsupported
  /// constructs, deadlocks).  Callers evaluating one model repeatedly
  /// (parameter sweeps, serving) should hold a prepare() handle instead.
  [[nodiscard]] PredictionReport estimate(
      const uml::Model& model, const machine::SystemParameters& params,
      const EstimationOptions& options = {}) const;
};

}  // namespace prophet::estimator
