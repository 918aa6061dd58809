#include "prophet/cgen/backend.hpp"

#include <dlfcn.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "prophet/analytic/backend.hpp"
#include "prophet/cgen/emitter.hpp"
#include "prophet/cgen/prelude.hpp"
#include "prophet/codegen/transformer.hpp"
#include "prophet/estimator/estimator.hpp"
#include "prophet/guard/guard.hpp"

namespace prophet::cgen {

std::string emit_evaluator(const lower::ModelProgram& program) {
  return codegen::Transformer().transform(program);
}

namespace {

/// RAII dlopen handle.  RTLD_LOCAL keeps each evaluator's symbols
/// private (two loaded models must not resolve into each other);
/// RTLD_NOW surfaces unresolved symbols at prepare() time as a
/// structured error instead of a mid-estimate abort.
class SharedObject {
 public:
  explicit SharedObject(const std::string& path)
      : handle_(dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL)) {
    if (handle_ == nullptr) {
      const char* reason = dlerror();
      throw CgenError("cannot load generated evaluator " + path + ": " +
                      (reason != nullptr ? reason : "unknown dlopen error"));
    }
  }

  ~SharedObject() {
    if (handle_ != nullptr) {
      dlclose(handle_);
    }
  }

  SharedObject(const SharedObject&) = delete;
  SharedObject& operator=(const SharedObject&) = delete;

  template <typename Fn>
  [[nodiscard]] Fn symbol(const char* name) const {
    void* address = dlsym(handle_, name);
    if (address == nullptr) {
      throw CgenError(std::string("generated evaluator lacks symbol '") +
                      name + "' (not a prophet cgen object?)");
    }
    return reinterpret_cast<Fn>(address);
  }

 private:
  void* handle_ = nullptr;
};

}  // namespace

struct CodegenPrepared::Impl {
  lower::ModelProgramPtr program;
  std::unique_ptr<SharedObject> object;
  const Evaluator* evaluator = nullptr;
  std::string object_path;
  double prepare_seconds = 0;
  bool cache_hit = false;
};

CodegenPrepared::CodegenPrepared(lower::ModelProgramPtr program,
                                 const CodegenOptions& options)
    : impl_(std::make_unique<Impl>()) {
  if (program == nullptr) {
    throw CgenError("null model program");
  }
  const auto started = std::chrono::steady_clock::now();
  impl_->program = std::move(program);
  const std::string source = emit_evaluator(*impl_->program);
  const CompileOutcome compiled =
      compile_shared_object(source, options.toolchain);
  impl_->object_path = compiled.object_path;
  impl_->cache_hit = compiled.cache_hit;
  impl_->object = std::make_unique<SharedObject>(compiled.object_path);
  impl_->evaluator =
      impl_->object->symbol<EvaluatorEntry>(kEvaluatorSymbol)();
  impl_->prepare_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
}

CodegenPrepared::~CodegenPrepared() = default;

estimator::PredictionReport CodegenPrepared::estimate(
    const machine::SystemParameters& params,
    const estimator::EstimationOptions& options) const {
  // The evaluator records no event trace and counts no metrics.
  estimator::EstimationOptions run = options;
  run.collect_trace = false;
  run.metrics = nullptr;
  estimator::EvaluatorModel model(*impl_->evaluator);
  try {
    return estimator::SimulationManager(params, run).run(model);
  } catch (const guard::ResourceExhausted& error) {
    // A generated loop's charge trips in the object's copy of guard, so
    // the error carries the object's vtable, and the object is unloaded
    // with this handle, which may go before the caller handles the
    // error.  Raise the host's own instead.  (Every other error that
    // leaves the object has a standard type, whose vtable is
    // libstdc++'s.)
    throw guard::ResourceExhausted(error.what(), error.limit(), error.stage(),
                                   error.usage());
  } catch (const guard::Cancelled& error) {
    throw guard::Cancelled(error.what(), error.limit(), error.stage(),
                           error.usage());
  }
}

lower::ModelProgramPtr CodegenPrepared::lowering() const {
  return impl_->program;
}

double CodegenPrepared::prepare_seconds() const {
  return impl_->prepare_seconds;
}

bool CodegenPrepared::cache_hit() const { return impl_->cache_hit; }

const std::string& CodegenPrepared::object_path() const {
  return impl_->object_path;
}

std::unique_ptr<estimator::PreparedModel> CodegenBackend::prepare(
    lower::ModelProgramPtr program) const {
  return std::make_unique<CodegenPrepared>(std::move(program), options_);
}

std::unique_ptr<estimator::Backend> make_backend(estimator::BackendKind engine,
                                                 CodegenOptions options) {
  switch (engine) {
    case estimator::BackendKind::Simulation:
      return std::make_unique<analytic::SimulationBackend>();
    case estimator::BackendKind::Analytic:
      return std::make_unique<analytic::AnalyticBackend>();
    case estimator::BackendKind::Codegen:
      return std::make_unique<CodegenBackend>(std::move(options));
    default:
      throw std::invalid_argument(
          "make_backend: '" + std::string(estimator::to_string(engine)) +
          "' selects several engines, not one backend");
  }
}

}  // namespace prophet::cgen
