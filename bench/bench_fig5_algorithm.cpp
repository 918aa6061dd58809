// Fig. 5 — the transformation algorithm, stage by stage.
//
// One benchmark per stage of the listing: element selection (lines 1-8),
// globals (9-12), cost functions (13-18), locals (20-23), declarations
// (24-28) and execution flow (29-35).  Shows where transformation time
// goes and that every stage scales linearly.  The stages read the
// model's lowering, built once per size outside the timed loops.
#include <benchmark/benchmark.h>

#include "prophet/codegen/transformer.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/prophet.hpp"

namespace {

const prophet::lower::ModelProgram& program_for(int size) {
  static const auto small =
      prophet::lower::lower(prophet::models::synthetic_model(4, 8));
  static const auto medium =
      prophet::lower::lower(prophet::models::synthetic_model(16, 16));
  static const auto large =
      prophet::lower::lower(prophet::models::synthetic_model(64, 32));
  switch (size) {
    case 0:
      return *small;
    case 1:
      return *medium;
    default:
      return *large;
  }
}

void BM_Stage_SelectElements(benchmark::State& state) {
  const auto& program = program_for(static_cast<int>(state.range(0)));
  const prophet::codegen::Transformer transformer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        transformer.select_performance_elements(program));
  }
  state.counters["elements"] =
      static_cast<double>(program.model().element_count());
}
BENCHMARK(BM_Stage_SelectElements)->Arg(0)->Arg(1)->Arg(2);

void BM_Stage_Globals(benchmark::State& state) {
  const auto& program = program_for(static_cast<int>(state.range(0)));
  const prophet::codegen::Transformer transformer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(transformer.emit_globals(program));
  }
}
BENCHMARK(BM_Stage_Globals)->Arg(0)->Arg(1)->Arg(2);

void BM_Stage_CostFunctions(benchmark::State& state) {
  const auto& program = program_for(static_cast<int>(state.range(0)));
  const prophet::codegen::Transformer transformer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(transformer.emit_cost_functions(program));
  }
}
BENCHMARK(BM_Stage_CostFunctions)->Arg(0)->Arg(1)->Arg(2);

void BM_Stage_Locals(benchmark::State& state) {
  const auto& program = program_for(static_cast<int>(state.range(0)));
  const prophet::codegen::Transformer transformer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(transformer.emit_locals(program));
  }
}
BENCHMARK(BM_Stage_Locals)->Arg(0)->Arg(1)->Arg(2);

void BM_Stage_Declarations(benchmark::State& state) {
  const auto& program = program_for(static_cast<int>(state.range(0)));
  const prophet::codegen::Transformer transformer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(transformer.emit_declarations(program));
  }
}
BENCHMARK(BM_Stage_Declarations)->Arg(0)->Arg(1)->Arg(2);

void BM_Stage_Flow(benchmark::State& state) {
  const auto& program = program_for(static_cast<int>(state.range(0)));
  const prophet::codegen::Transformer transformer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(transformer.emit_flow(program));
  }
}
BENCHMARK(BM_Stage_Flow)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

BENCHMARK_MAIN();
