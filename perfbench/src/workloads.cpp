// The benchmark's workloads.
//
//   analytic_wide   the ten registry models on the wide grid, analytic
//                   engine at the default lane width
//   crossval_wide   the same sweeps with every engine per job
//                   (simulator, native codegen, analytic)
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace {

// np=1..16 on up to 4 nodes of up to 4 processors: three quarters of the
// grid oversubscribes its nodes, which is where analytic error lives.
constexpr const char* kWideGrid = "np=1..16 nodes=1..4 ppn=1..4";
// @pingpong is defined for exactly two ranks; other np values fail by
// contract, so its grid keeps np fixed.
constexpr const char* kPingpongGrid = "np=2 nodes=1..4 ppn=1..4";

}  // namespace

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t splitmix64(std::uint64_t value) {
  value += 0x9e3779b97f4a7c15ULL;
  value = (value ^ (value >> 30)) * 0xbf58476d1ce4e5b9ULL;
  value = (value ^ (value >> 27)) * 0x94d049bb133111ebULL;
  return value ^ (value >> 31);
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double fastest(const std::vector<double>& values) {
  return values.empty() ? 0 : *std::min_element(values.begin(), values.end());
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double log_sum = 0;
  for (const double value : values) {
    log_sum += std::log(value);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "analytic_wide", "crossval_wide"};
  return names;
}

std::vector<Sweep> registry_sweeps() {
  // A fixed list, not Registry::names(): a model added to the registry
  // must not silently change what the benchmark measures.  @random keeps
  // its default shape: shapes differ up to 35x in simulated events, which
  // would make one sweep's rate a function of the seed.
  return {
      {"sample", "@sample", kWideGrid},
      {"kernel6", "@kernel6", kWideGrid},
      // The full loop nest simulates m*n*(n-1)/2 elements per process;
      // these knobs keep it from dominating a cross-validation round.
      {"kernel6-detailed", "@kernel6-detailed(n=8,m=2)", kWideGrid},
      {"pingpong", "@pingpong", kPingpongGrid},
      {"synthetic", "@synthetic", kWideGrid},
      {"random", "@random", kWideGrid},
      {"stencil2d", "@stencil2d", kWideGrid},
      {"allreduce", "@allreduce", kWideGrid},
      {"masterworker", "@masterworker", kWideGrid},
      {"pipeline", "@pipeline", kWideGrid},
  };
}

Workload make_workload(const std::string& name) {
  using prophet::estimator::BackendKind;
  if (name == "analytic_wide") {
    return {BackendKind::Analytic, registry_sweeps()};
  }
  if (name == "crossval_wide") {
    return {BackendKind::All, registry_sweeps()};
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
