// Ablation — batched expression evaluation and the batched sweep path.
//
// BM_BatchVm_* compare Compiled::eval one-lane-at-a-time against
// Compiled::eval_batch on SoA lane frames at several widths: the
// per-dispatch VM overhead amortizes across lanes, each opcode running
// as one loop over them.  BM_BatchVm_SweepSpeedup is the
// headline pipeline number backing the CI perf gate: the batched
// analytic @kernel6 sweep must clear >= 1.5x the scalar (lane width 1)
// sweep in jobs/s.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <vector>

#include "json_args.hpp"
#include "prophet/expr/compile.hpp"
#include "prophet/expr/parser.hpp"
#include "prophet/pipeline/batch.hpp"
#include "prophet/pipeline/scenario.hpp"
#include "prophet/prophet.hpp"

namespace expr = prophet::expr;
namespace pipeline = prophet::pipeline;

namespace {

// The kernel6 cost nest (FK6 of Fig. 3c) — the expression every
// @kernel6 scenario evaluation prices compute with.
constexpr const char* kKernel6Cost = "M * (N * (N - 1) / 2) * c";

// A branch-free mixed-arithmetic expression exercising the compare and
// select-free logical kernels alongside the arithmetic ones.
constexpr const char* kMixed =
    "(a + b * c) / (1 + (a > b)) - (b != c) * 0.25 + a * 0.5";

struct Compiled {
  expr::SymbolTable table;
  expr::Slot a, b, c;
  expr::Compiled program;

  explicit Compiled(const char* text, const char* na = "a",
                    const char* nb = "b", const char* nc = "c")
      : a(table.add_variable(na)),
        b(table.add_variable(nb)),
        c(table.add_variable(nc)),
        program(expr::compile(*expr::parse(text), table)) {}
};

void fill(expr::SlotBlock& block, const Compiled& model) {
  for (std::size_t lane = 0; lane < block.width(); ++lane) {
    const double x = static_cast<double>(lane + 1);
    block.set(model.a, lane, 64.0 + x);
    block.set(model.b, lane, 16.0 * x);
    block.set(model.c, lane, 1e-8 * x);
  }
}

/// Scalar reference: the per-lane eval() loop eval_batch must beat.
void BM_BatchVm_ScalarLoop(benchmark::State& state) {
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  Compiled model(kKernel6Cost, "N", "M", "c");
  expr::SlotBlock block(model.table, width);
  fill(block, model);
  std::vector<double*> frame(block.slot_count());
  std::vector<double> out(width);
  for (auto _ : state) {
    for (std::size_t lane = 0; lane < width; ++lane) {
      for (std::size_t slot = 0; slot < frame.size(); ++slot) {
        frame[slot] = block.lanes(static_cast<expr::Slot>(slot)) + lane;
      }
      expr::EvalContext ctx;
      ctx.frame = frame;
      out[lane] = model.program.eval(ctx);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(width));
}
BENCHMARK(BM_BatchVm_ScalarLoop)->Arg(1)->Arg(8)->Arg(64)->ArgNames({"lanes"});

void BM_BatchVm_EvalBatch(benchmark::State& state) {
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  Compiled model(kKernel6Cost, "N", "M", "c");
  expr::SlotBlock block(model.table, width);
  fill(block, model);
  std::vector<double> out(width);
  expr::BatchEvalContext ctx;
  ctx.frame = block.frame();
  ctx.width = width;
  for (auto _ : state) {
    model.program.eval_batch(ctx, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(width));
}
BENCHMARK(BM_BatchVm_EvalBatch)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(64)
    ->ArgNames({"lanes"});

void BM_BatchVm_EvalBatchMixed(benchmark::State& state) {
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  Compiled model(kMixed);
  expr::SlotBlock block(model.table, width);
  fill(block, model);
  std::vector<double> out(width);
  expr::BatchEvalContext ctx;
  ctx.frame = block.frame();
  ctx.width = width;
  for (auto _ : state) {
    model.program.eval_batch(ctx, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(width));
}
BENCHMARK(BM_BatchVm_EvalBatchMixed)
    ->Arg(8)
    ->Arg(64)
    ->ArgNames({"lanes"});

// The headline number: one iteration runs the same analytic @kernel6
// sweep batched (auto lane width) and scalar (lane width 1); `speedup`
// is their jobs/s ratio.  The CI perf gate requires >= 1.5.
void BM_BatchVm_SweepSpeedup(benchmark::State& state) {
  using clock = std::chrono::steady_clock;
  // Small grid (index 0) stresses per-job bookkeeping, the wide grid
  // (index 1, the CI gate) gives each job enough estimation work for
  // the shared batched walk to dominate.
  const char* const grids[] = {"np=1..8 nodes=1..4 ppn=1,2",
                               "np=1..16 nodes=1..4 ppn=1..4"};
  const char* const grid = grids[state.range(0)];
  const auto make = [grid](int batch_lanes) {
    pipeline::BatchOptions options;
    options.threads = 1;
    options.batch_lanes = batch_lanes;
    options.backend = prophet::estimator::BackendKind::Analytic;
    pipeline::BatchRunner runner(options);
    runner.add_model("kernel6", prophet::models::kernel6_model(64, 16, 1e-8));
    runner.add_sweep(0, pipeline::ScenarioGrid::parse(grid));
    return runner;
  };
  const auto batched_runner = make(0);  // auto width
  const auto scalar_runner = make(1);   // batching off
  double batched_seconds = 0;
  double scalar_seconds = 0;
  std::size_t jobs = 0;
  for (auto _ : state) {
    const auto batched_start = clock::now();
    const auto batched = batched_runner.run();
    batched_seconds +=
        std::chrono::duration<double>(clock::now() - batched_start).count();

    const auto scalar_start = clock::now();
    const auto scalar = scalar_runner.run();
    scalar_seconds +=
        std::chrono::duration<double>(clock::now() - scalar_start).count();

    jobs = batched.results.size();
    benchmark::DoNotOptimize(batched);
    benchmark::DoNotOptimize(scalar);
  }
  const double total_jobs =
      static_cast<double>(state.iterations()) * static_cast<double>(jobs);
  state.counters["speedup"] =
      batched_seconds > 0 ? scalar_seconds / batched_seconds : 0;
  state.counters["batched_jobs_per_s"] =
      batched_seconds > 0 ? total_jobs / batched_seconds : 0;
  state.counters["scalar_jobs_per_s"] =
      scalar_seconds > 0 ? total_jobs / scalar_seconds : 0;
  state.counters["jobs"] = static_cast<double>(jobs);
}
BENCHMARK(BM_BatchVm_SweepSpeedup)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"grid"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

PROPHET_BENCHMARK_MAIN()
