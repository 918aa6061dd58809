// End-to-end half of the benchmark: set-up timing, the scalar reference,
// and closed-loop timed sweeps whose every prediction is checked.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <stdexcept>

#include <sched.h>
#include <time.h>

#include "bench.hpp"
#include "prophet/pipeline/scenario.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace pipeline = prophet::pipeline;
using prophet::estimator::BackendKind;

namespace {

/// The calibration loop's time on the reference host: about what a
/// shared 4-vCPU Xeon VM takes when quiet (280-340 us).
constexpr double kReferenceCalibrationSeconds = 300e-6;

/// Receives the calibration checksum so the loop stays observable.
volatile double g_calibration_sink = 0;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

double thread_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

}  // namespace

double calibration_seconds() {
  constexpr std::size_t n = 256;
  constexpr std::size_t m = 8;
  const double start = thread_cpu_seconds();
  std::vector<double> w(n);
  std::vector<double> b(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = 1e-4 * static_cast<double>(i + 1);
    for (std::size_t k = 0; k < n; ++k) {
      b[i * n + k] = 1e-6 * static_cast<double>((i + k) % 7 + 1);
    }
  }
  for (std::size_t l = 0; l < m; ++l) {
    for (std::size_t i = 1; i < n; ++i) {
      double acc = w[i];
      for (std::size_t k = 0; k < i; ++k) {
        acc += b[i * n + k] * w[i - k - 1];
      }
      w[i] = acc;
    }
  }
  const double seconds = thread_cpu_seconds() - start;
  g_calibration_sink = std::accumulate(w.begin(), w.end(), 0.0);
  return seconds;
}

void use_cgen_cache(const std::string& dir) {
  fs::create_directories(dir);
  if (::setenv("PROPHET_CGEN_CACHE", dir.c_str(), 1) != 0) {
    throw std::runtime_error("cannot set PROPHET_CGEN_CACHE");
  }
}

void pin_to_quietest_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    return;
  }
  int best_cpu = -1;
  double best_seconds = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) {
      continue;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) {
      continue;
    }
    std::vector<double> samples;
    for (int rep = 0; rep < 40; ++rep) {
      const auto start = Clock::now();
      (void)calibration_seconds();
      samples.push_back(seconds_since(start));
    }
    const double seconds = median(samples);
    if (best_cpu < 0 || seconds < best_seconds) {
      best_cpu = cpu;
      best_seconds = seconds;
    }
  }
  if (best_cpu < 0) {
    return;
  }
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  CPU_SET(best_cpu, &chosen);
  (void)sched_setaffinity(0, sizeof chosen, &chosen);
}

SweepBench::SweepBench(RunConfig config, Workload workload)
    : config_(std::move(config)),
      workload_(std::move(workload)),
      fastest_setup_(workload_.sweeps.size(),
                     std::numeric_limits<double>::infinity()),
      perturb_pending_(config_.perturb) {}

std::string SweepBench::cgen_cache() const {
  return config_.work_dir + "/cgen-cache";
}

pipeline::BatchOptions SweepBench::sweep_options() const {
  pipeline::BatchOptions options;
  options.threads = 1;
  options.backend = workload_.backend;
  return options;
}

void SweepBench::time_setups(int rep) {
  if (workload_.backend == BackendKind::All) {
    fs::remove_all(cgen_cache());
  }
  for (const std::size_t s : round_order(rep)) {
    time_setup(s);
  }
}

double SweepBench::setup_seconds() const {
  // Contention only ever adds time, so each model's fastest set-up is
  // the steadiest estimate of its cost.
  return std::accumulate(fastest_setup_.begin(), fastest_setup_.end(), 0.0);
}

void SweepBench::time_setup(std::size_t sweep) {
  const Sweep& spec = workload_.sweeps[sweep];
  const auto start = Clock::now();
  pipeline::BatchRunner runner(sweep_options());
  const int index = runner.add_model_reference(spec.reference);
  runner.add_scenario(index,
                      pipeline::ScenarioGrid::parse(spec.grid).expand().front());
  const pipeline::BatchReport report = runner.run();
  const double wall = seconds_since(start);
  tally_.attempted += report.results.size();
  for (const auto& result : report.results) {
    if (!result.ok) {
      ++tally_.failed;
      std::cerr << "perfbench: set-up job failed: " << result.model_name
                << ": " << result.error << "\n";
    }
  }
  fastest_setup_[sweep] = std::min(fastest_setup_[sweep], wall);
}

void SweepBench::compute_references() {
  // The scalar reference: one lane, and the simulator next to the
  // analytic engine so the same pass yields the accuracy figures.
  pipeline::BatchOptions options = sweep_options();
  options.batch_lanes = 1;
  if (workload_.backend == BackendKind::Analytic) {
    options.backend = BackendKind::Both;
  }
  references_.assign(workload_.sweeps.size(), {});
  double error_sum = 0;
  std::size_t compared = 0;
  for (std::size_t s = 0; s < workload_.sweeps.size(); ++s) {
    const Sweep& sweep = workload_.sweeps[s];
    pipeline::BatchRunner runner(options);
    runner.add_sweep(runner.add_model_reference(sweep.reference),
                     pipeline::ScenarioGrid::parse(sweep.grid));
    const pipeline::BatchReport report = runner.run();
    tally_.attempted += report.results.size();
    for (const auto& result : report.results) {
      JobReference reference;
      if (!result.ok) {
        // Every workload job must succeed on a healthy tree: a failure
        // here is a regression, never a grid the model rejects.
        ++tally_.failed;
        std::cerr << "perfbench: reference job failed: " << result.model_name
                  << ": " << result.error << "\n";
        reference.predicted = std::numeric_limits<double>::quiet_NaN();
      } else {
        if (workload_.backend == BackendKind::All &&
            !same_bits(result.codegen_predicted, result.predicted_time)) {
          ++tally_.failed;
          std::cerr << "perfbench: codegen differs from the simulator: "
                    << result.model_name << "\n";
        }
        reference.predicted = workload_.backend == BackendKind::Analytic
                                  ? result.analytic_predicted
                                  : result.predicted_time;
        reference.analytic = result.analytic_predicted;
        const double sim = result.predicted_time;
        if (sim != 0) {
          const double error = std::abs(result.analytic_predicted - sim) /
                               std::abs(sim);
          rel_error_max_ = std::max(rel_error_max_, error);
          error_sum += error;
          ++compared;
        }
      }
      references_[s].push_back(reference);
    }
  }
  rel_error_mean_ = compared > 0 ? error_sum / static_cast<double>(compared)
                                 : 0;
}

double SweepBench::run_sweep(std::size_t sweep,
                             const pipeline::BatchOptions& options,
                             pipeline::BatchReport* report_out) {
  const Sweep& spec = workload_.sweeps[sweep];
  const auto start = Clock::now();
  pipeline::BatchRunner runner(options);
  runner.add_sweep(runner.add_model_reference(spec.reference),
                   pipeline::ScenarioGrid::parse(spec.grid));
  pipeline::BatchReport report = runner.run();
  const double wall = seconds_since(start);
  check(sweep, report);
  if (report_out != nullptr) {
    *report_out = std::move(report);
  }
  return wall;
}

void SweepBench::check(std::size_t sweep,
                       const pipeline::BatchReport& report) {
  const std::vector<JobReference>& references = references_[sweep];
  tally_.attempted += report.results.size();
  if (report.results.size() != references.size()) {
    tally_.failed += std::max(report.results.size(), references.size());
    return;
  }
  const bool crossval = workload_.backend == BackendKind::All;
  for (std::size_t i = 0; i < references.size(); ++i) {
    const pipeline::ScenarioResult& result = report.results[i];
    double predicted = result.predicted_time;
    if (perturb_pending_) {
      predicted = std::nextafter(predicted,
                                 std::numeric_limits<double>::infinity());
      perturb_pending_ = false;
    }
    bool good = result.ok && same_bits(predicted, references[i].predicted);
    if (crossval) {
      // The generated evaluator replays the simulator bit for bit.
      good = good && same_bits(result.codegen_predicted, predicted) &&
             same_bits(result.analytic_predicted, references[i].analytic);
    }
    if (!good) {
      ++tally_.failed;
    }
  }
}

std::vector<std::size_t> SweepBench::round_order(int round) const {
  std::vector<std::size_t> order(workload_.sweeps.size());
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(splitmix64(config_.seed * 0x100000001b3ULL +
                                 static_cast<std::uint64_t>(round)));
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

namespace {
std::vector<double> g_diag[4];
volatile std::uint64_t g_diag_sink = 0;
double diag_chase() {
  static const std::vector<std::uint32_t> next = [] {
    constexpr std::uint32_t n = 1u << 21;
    std::vector<std::uint32_t> v(n);
    std::iota(v.begin(), v.end(), 0u);
    std::mt19937 rng(7);
    for (std::uint32_t i = n - 1; i > 0; --i) {
      std::uniform_int_distribution<std::uint32_t> d(0, i - 1);
      std::swap(v[i], v[d(rng)]);
    }
    return v;
  }();
  const double start = thread_cpu_seconds();
  std::uint32_t i = 0;
  for (int k = 0; k < 20000; ++k) i = next[i];
  g_diag_sink = i;
  return thread_cpu_seconds() - start;
}
double diag_map(std::uint64_t salt) {
  const double start = thread_cpu_seconds();
  std::map<std::uint64_t, double> m;
  std::uint64_t x = 12345;
  for (int k = 0; k < 3000; ++k) {
    x = splitmix64(x + salt * 0);
    m[x % 8192] += 1.0;
    if (k % 3 == 0) m.erase(m.begin());
  }
  g_diag_sink = m.size();
  return thread_cpu_seconds() - start;
}
}  // namespace

void print_diag() {
  std::cerr << "DIAG";
  for (auto& v : g_diag) std::cerr << " " << fastest(v) * 1e6;
  std::cerr << "\n";
}

void SweepBench::run_rounds(double seconds, const SweepStep& step) {
  // At least three rounds, so every estimate has something to choose from.
  constexpr int kMinRounds = 3;
  const auto start = Clock::now();
  for (int round = 0;
       round < kMinRounds || seconds_since(start) < seconds; ++round) {
    for (const std::size_t s : round_order(round)) {
      {
        const auto w0 = Clock::now();
        (void)calibration_seconds();
        g_diag[0].push_back(seconds_since(w0));
      }
      g_diag[1].push_back(diag_chase());
      g_diag[2].push_back(diag_map(s));
      calibrations_.push_back(calibration_seconds());
      step(s);
    }
  }
}

double SweepBench::host_scale() const {
  return fastest(calibrations_) / kReferenceCalibrationSeconds;
}

double SweepBench::jobs_per_second(
    const std::vector<std::vector<double>>& walls) const {
  std::vector<double> rates;
  for (std::size_t s = 0; s < walls.size(); ++s) {
    rates.push_back(static_cast<double>(jobs_in(s)) / fastest(walls[s]));
  }
  // The shared host's speed drifts over minutes and slows the sweeps and
  // the calibration loop alike, so even a run's fastest sweeps differ by
  // 20-40% between runs; scaled by the loop, they agree within a few
  // percent.
  return geomean(rates) * host_scale();
}

}  // namespace perfbench
