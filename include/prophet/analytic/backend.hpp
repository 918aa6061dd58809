// The in-process estimation backends.
//
// SimulationBackend wraps the paper's pipeline (UML interpreter +
// SimulationManager); AnalyticBackend wraps the AnalyticEstimator.  Both
// implement estimator::Backend, so the batch pipeline and prophetc
// select the evaluation engines with one knob (`--backend`, a set of
// engines — see estimator::BackendKind).  The factory over every single
// engine, codegen included, is cgen::make_backend.
#pragma once

#include <memory>

#include "prophet/estimator/backend.hpp"

namespace prophet::analytic {

/// The discrete-event simulation path: interprets the UML model and runs
/// the CSIM-substitute engine (the paper's Performance Estimator).
/// prepare() holds the shared lower::ModelProgram; each estimate() call
/// builds its own cheap interpreter + engine over it, so concurrent
/// evaluation is race-free.
class SimulationBackend final : public estimator::Backend {
 public:
  using estimator::Backend::prepare;
  [[nodiscard]] std::unique_ptr<estimator::PreparedModel> prepare(
      lower::ModelProgramPtr program) const override;
};

/// The closed-form path: static cost analysis + dependency replay.  The
/// report's `events` stays 0 (no engine ran); `machine_report` carries the
/// analytic per-node utilization.  prepare() wraps an AnalyticEstimator
/// over the shared lowering, whose evaluate() is const and reentrant.
class AnalyticBackend final : public estimator::Backend {
 public:
  using estimator::Backend::prepare;
  [[nodiscard]] std::unique_ptr<estimator::PreparedModel> prepare(
      lower::ModelProgramPtr program) const override;
};

}  // namespace prophet::analytic
