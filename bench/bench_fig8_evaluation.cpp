// Fig. 8 — the C++ representation of the sample model, and the paper's
// machine-efficiency claim.
//
// The whole point of the transformation is that "while the UML
// representation is suitable as human-usable notation for performance
// model specification, it is not adequate for an efficient model
// evaluation" (Sec. 3).  This bench evaluates the *same* sample model two
// ways:
//   * interpreted — walking the UML tree, re-evaluating expression ASTs;
//   * compiled    — the transformer's actual output, which the codegen
//                   engine compiles and loads once, before the timings.
// The compiled path should win by a large factor; both must predict the
// same time (asserted here, not just benchmarked).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include <memory>

#include "prophet/cgen/backend.hpp"
#include "prophet/estimator/estimator.hpp"
#include "prophet/interp/interpreter.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/prophet.hpp"

namespace {

/// The sample model's transformer output, compiled and loaded.
const prophet::estimator::PreparedModel& generated_sample() {
  static const std::unique_ptr<prophet::estimator::PreparedModel> prepared =
      prophet::cgen::CodegenBackend().prepare(
          prophet::lower::lower(prophet::models::sample_model()));
  return *prepared;
}

prophet::estimator::EstimationOptions no_trace() {
  prophet::estimator::EstimationOptions options;
  options.collect_trace = false;
  return options;
}

prophet::machine::SystemParameters bench_params() {
  prophet::machine::SystemParameters params;
  params.nodes = 2;
  params.processors_per_node = 2;
  params.processes = 4;
  return params;
}

void BM_Evaluate_InterpretedUml(benchmark::State& state) {
  const prophet::uml::Model model = prophet::models::sample_model();
  prophet::interp::Interpreter interpreter(model);
  const prophet::estimator::SimulationManager manager(
      bench_params(), no_trace());
  double predicted = 0;
  for (auto _ : state) {
    predicted = manager.run(interpreter).predicted_time;
    benchmark::DoNotOptimize(predicted);
  }
  state.counters["predicted_s"] = predicted;
}
BENCHMARK(BM_Evaluate_InterpretedUml);

void BM_Evaluate_GeneratedCpp(benchmark::State& state) {
  const prophet::estimator::PreparedModel& generated = generated_sample();
  double predicted = 0;
  for (auto _ : state) {
    predicted = generated.estimate(bench_params(), no_trace()).predicted_time;
    benchmark::DoNotOptimize(predicted);
  }
  state.counters["predicted_s"] = predicted;
}
BENCHMARK(BM_Evaluate_GeneratedCpp);

void BM_Evaluate_InterpretedKernel6Detailed(benchmark::State& state) {
  // A heavier interpreted workload: the detailed kernel-6 loop model.
  const prophet::uml::Model model =
      prophet::models::kernel6_detailed_model(48, 2, 1e-9);
  prophet::interp::Interpreter interpreter(model);
  const prophet::estimator::SimulationManager manager(
      {}, no_trace());
  for (auto _ : state) {
    benchmark::DoNotOptimize(manager.run(interpreter).predicted_time);
  }
}
BENCHMARK(BM_Evaluate_InterpretedKernel6Detailed);

/// Both paths must agree before any timing is meaningful.
void verify_agreement() {
  const prophet::uml::Model model = prophet::models::sample_model();
  prophet::interp::Interpreter interpreter(model);
  const prophet::estimator::SimulationManager manager(
      bench_params(), no_trace());
  const double interpreted = manager.run(interpreter).predicted_time;
  const double generated =
      generated_sample().estimate(bench_params(), no_trace()).predicted_time;
  if (std::abs(interpreted - generated) > 1e-12) {
    std::fprintf(stderr,
                 "FATAL: interpreted (%.12f) and generated (%.12f) "
                 "predictions disagree\n",
                 interpreted, generated);
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  verify_agreement();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
