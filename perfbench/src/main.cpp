// perfbench — the sweep benchmark of Performance Prophet.
//
//   perfbench --workload <analytic_wide|crossval_wide>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--trace-out <file>] [--perturb]
//
// --trace 0 prints the end-to-end metrics (jobs_per_s, setup_s,
// peak_rss_mb, rel_error_max, rel_error_mean); --trace 1 runs the traced
// per-layer run instead and writes its spans to --trace-out.  Each metric
// is printed as a "name value unit" line; the last line of standard output
// is one JSON object {"correct", "attempted", "failed", "metrics"}.
// --perturb flips one bit of one timed prediction, so the check must fail
// (the benchmark's self-test).  perfbench/README.md documents the
// workloads and metrics.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace perfbench { void print_diag(); }
namespace {

using namespace perfbench;

/// Cold set-ups per model on crossval_wide: each is a native compile of
/// about 2 s, so two keep a run near 80 s.
constexpr int kColdSetupReps = 2;

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload <";
  for (std::size_t i = 0; i < workload_names().size(); ++i) {
    std::cerr << (i > 0 ? "|" : "") << workload_names()[i];
  }
  std::cerr << "> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]"
               " [--trace-out <file>] [--perturb]\n";
  std::exit(2);
}

RunConfig parse_args(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--perturb") {
      config.perturb = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage("missing value for " + std::string(flag));
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          usage("--trace takes 0 or 1");
        }
        config.trace = value == "1";
      } else if (flag == "--work-dir") {
        config.work_dir = value;
      } else if (flag == "--trace-out") {
        config.trace_out = value;
      } else {
        usage("unknown flag " + std::string(flag));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(flag) + ": " + value);
    }
  }
  if (config.workload.empty()) {
    usage("--workload is required");
  }
  if (!(config.seconds > 0)) {
    usage("--seconds must be positive");
  }
  return config;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

void print_result(const MetricSet& metrics, const CheckTally& tally) {
  for (const Metric& metric : metrics) {
    std::cout << metric.name << " " << json_number(metric.value) << " "
              << metric.unit << "\n";
    if (!std::isfinite(metric.value)) {
      std::cerr << "perfbench: " << metric.name << " is not finite\n";
    }
  }
  std::ostringstream json;
  json << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : metrics) {
    json << (first ? "" : ", ") << "\"" << metric.name
         << "\": {\"value\": " << json_number(metric.value)
         << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

int run(const RunConfig& config) {
  Workload workload = make_workload(config.workload);
  const bool crossval =
      workload.backend == prophet::estimator::BackendKind::All;
  SweepBench bench(config, std::move(workload));
  pin_to_quietest_cpu();
  use_cgen_cache(bench.cgen_cache());

  if (config.trace) {
    bench.compute_references();
    SpanLog spans;
    const MetricSet metrics = run_traced(bench, spans);
    if (!config.trace_out.empty()) {
      std::ofstream out(config.trace_out, std::ios::binary);
      out << spans.to_chrome_json();
      if (!out) {
        std::cerr << "perfbench: cannot write " << config.trace_out << "\n";
        return 1;
      }
    }
    print_result(metrics, bench.tally());
    return 0;
  }

  // A cold set-up compiles the model (about 2 s) into an emptied cache,
  // so crossval_wide times them before the rounds.  An analytic set-up
  // takes under a millisecond; one follows every timed sweep, so the
  // set-ups see the same host phases the sweeps do rather than one
  // burst at start.
  for (int rep = 0; crossval && rep < kColdSetupReps; ++rep) {
    bench.time_setups(rep);
  }
  bench.compute_references();
  std::vector<std::vector<double>> walls(bench.workload().sweeps.size());
  const auto options = bench.sweep_options();
  bench.run_rounds(config.seconds, [&](std::size_t s) {
    walls[s].push_back(bench.run_sweep(s, options));
    if (!crossval) {
      bench.time_setup(s);
    }
  });

  MetricSet metrics;
  metrics.push_back({"jobs_per_s", bench.jobs_per_second(walls), "1/s"});
  metrics.push_back({"setup_s", bench.setup_seconds(), "s"});
  metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  metrics.push_back({"rel_error_max", bench.rel_error_max(), "ratio"});
  metrics.push_back({"rel_error_mean", bench.rel_error_mean(), "ratio"});
  std::cerr << "perfbench: fastest calibration loop "
            << fastest(bench.calibrations()) * 1e6
            << " us; jobs_per_s is the measured rate times "
            << bench.host_scale() << "\n";
  print_diag();
  print_result(metrics, bench.tally());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig config = parse_args(argc, argv);
  try {
    return run(config);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
