// The batch scenario-sweep pipeline: end-to-end jobs/second at different
// worker-pool sizes and backends.
//
// The runner compiles each model once — model check, lowering,
// Backend::prepare — and turns every job into a parameter-only
// evaluation.  BM_BatchSweep_Throughput measures it at 1 / 2 / 4 /
// hardware_concurrency threads; BM_BatchSweep_Backend compares the
// engines on one sweep.
#include <benchmark/benchmark.h>

#include <thread>

#include "prophet/pipeline/batch.hpp"
#include "prophet/pipeline/scenario.hpp"
#include "prophet/prophet.hpp"

#include "json_args.hpp"

namespace pipeline = prophet::pipeline;

namespace {

// A mixed sweep: two models x (np in 1..8) x (nodes in 1,2) = 32 jobs.
pipeline::BatchRunner make_runner(int threads) {
  pipeline::BatchOptions options;
  options.threads = threads;
  pipeline::BatchRunner runner(options);
  runner.add_model("sample", prophet::models::sample_model());
  runner.add_model("kernel6", prophet::models::kernel6_model(128, 32, 1e-8));
  runner.add_sweep_all(pipeline::ScenarioGrid::parse("np=1..8 nodes=1,2"));
  return runner;
}

void BM_BatchSweep_Throughput(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const auto runner = make_runner(threads);
  std::size_t jobs = 0;
  std::size_t failed = 0;
  for (auto _ : state) {
    const auto report = runner.run();
    jobs = report.results.size();
    failed = report.stats().failed;
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
  state.counters["jobs"] = static_cast<double>(jobs);
  state.counters["failed"] = static_cast<double>(failed);
  state.counters["jobs_per_s"] = benchmark::Counter(
      static_cast<double>(jobs), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BatchSweep_Throughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(static_cast<int>(std::thread::hardware_concurrency()))
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Backend ablation: the same sweep through simulation, analytic and both
// (cross-validation) — what `prophetc sweep --backend=...` costs per job
// in its default shape.
void BM_BatchSweep_Backend(benchmark::State& state) {
  pipeline::BatchOptions options;
  options.threads = 1;
  options.backend =
      static_cast<prophet::estimator::BackendKind>(state.range(0));
  pipeline::BatchRunner runner(options);
  runner.add_model("kernel6", prophet::models::kernel6_model(128, 32, 1e-8));
  runner.add_sweep(0, pipeline::ScenarioGrid::parse("np=1..8 nodes=1,2"));
  for (auto _ : state) {
    const auto report = runner.run();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(runner.job_count()));
}
BENCHMARK(BM_BatchSweep_Backend)
    ->Arg(static_cast<int>(prophet::estimator::BackendKind::Simulation))
    ->Arg(static_cast<int>(prophet::estimator::BackendKind::Analytic))
    ->Arg(static_cast<int>(prophet::estimator::BackendKind::Both))
    ->ArgNames({"backend"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

PROPHET_BENCHMARK_MAIN()
