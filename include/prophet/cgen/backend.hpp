// The codegen estimation backend: estimator::BackendKind::Codegen.
//
// prepare() completes the paper's transformation loop in-process: the
// shared lowering is printed as C++ by the paper's transformer
// (codegen/transformer.hpp, emitter.hpp), compiled by the host
// toolchain into a shared object (toolchain.hpp, content-addressed
// cache) and dlopen'd; estimate() runs the evaluator's hooks
// (cgen/prelude.hpp) through estimator::EvaluatorModel in the host's
// SimulationManager, the way the simulation backend runs the
// interpreter — with the caller's parameters, options and budget.
//
// The object carries its own hidden, statically linked copy of the
// runtime archives, which then acts on the host's engine, machine model,
// communicator and budget.  That is sound because the runtime modules
// hold no mutable static state the evaluator reaches, the compile-cache
// key stamps every archive and prelude header the object is built from,
// and one libstdc++ serves both sides.
//
// Semantics: the printed program walks the lowering as the interpreter
// does, so predictions are bit-identical to the simulation backend (the
// three-way differential suite pins this).  Known divergences, documented in
// docs/codegen.md: no event trace, no sim.* metrics, and
// max_vm_instructions does not bind (there is no VM to count).
#pragma once

#include <memory>

#include "prophet/cgen/toolchain.hpp"
#include "prophet/estimator/backend.hpp"

namespace prophet::cgen {

/// Codegen backend configuration: toolchain resolution, cache location
/// and fault-injection observation for prepare()-time compiles.
struct CodegenOptions {
  ToolchainOptions toolchain;
};

/// A dlopen'd generated evaluator behind the PreparedModel contract.
/// Immutable after prepare(); each estimate() runs its own simulation on
/// the calling thread (the shared object keeps its mutable state
/// thread_local), so concurrent estimates are race-free.
class CodegenPrepared final : public estimator::PreparedModel {
 public:
  CodegenPrepared(lower::ModelProgramPtr program,
                  const CodegenOptions& options);
  ~CodegenPrepared() override;

  CodegenPrepared(const CodegenPrepared&) = delete;
  CodegenPrepared& operator=(const CodegenPrepared&) = delete;

  [[nodiscard]] estimator::PredictionReport estimate(
      const machine::SystemParameters& params,
      const estimator::EstimationOptions& options) const override;

  [[nodiscard]] lower::ModelProgramPtr lowering() const override;

  /// Wall seconds prepare() spent printing + compiling + loading (the
  /// pipeline folds this into the codegen.prepare_seconds metric).
  [[nodiscard]] double prepare_seconds() const;

  /// True when the compile cache already held the evaluator (the
  /// codegen.cache_hits metric).
  [[nodiscard]] bool cache_hit() const;

  /// The cached shared object backing this handle (for tests/tools).
  [[nodiscard]] const std::string& object_path() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The codegen backend.  prepare() throws CgenError when the toolchain
/// (including "no usable compiler") or loading fails —
/// a structured, per-model error that leaves other models unaffected.
class CodegenBackend final : public estimator::Backend {
 public:
  using estimator::Backend::prepare;

  CodegenBackend() = default;
  explicit CodegenBackend(CodegenOptions options)
      : options_(std::move(options)) {}

  [[nodiscard]] std::unique_ptr<estimator::PreparedModel> prepare(
      lower::ModelProgramPtr program) const override;

 private:
  CodegenOptions options_;
};

/// The backend of one engine: a SimulationBackend, an AnalyticBackend,
/// or a CodegenBackend with `options`.  A selection of several engines
/// throws std::invalid_argument — walk estimator::engines() instead.
[[nodiscard]] std::unique_ptr<estimator::Backend> make_backend(
    estimator::BackendKind engine, CodegenOptions options = {});

}  // namespace prophet::cgen
