#include "prophet/estimator/backend.hpp"

#include <array>
#include <cmath>
#include <cstddef>
#include <limits>

namespace prophet::estimator {

namespace {

/// One selection's engines, reference first.
struct EngineList {
  std::array<BackendKind, 3> engines{};
  std::size_t size = 0;
};

/// Every selection's list, indexed by its bits.
constexpr std::array<EngineList, 8> kEngineLists = [] {
  using enum BackendKind;
  std::array<EngineList, 8> lists;
  for (unsigned bits = 1; bits < lists.size(); ++bits) {
    const auto selects = [bits](BackendKind engine) {
      return (bits & static_cast<unsigned>(engine)) != 0;
    };
    // The reference: the simulator, else codegen, else analytic.
    const BackendKind reference = selects(Simulation) ? Simulation
                                  : selects(Codegen)  ? Codegen
                                                      : Analytic;
    EngineList& list = lists[bits];
    list.engines[list.size++] = reference;
    // Then the candidates, in sim -> analytic -> codegen order.
    for (const BackendKind engine : {Simulation, Analytic, Codegen}) {
      if (selects(engine) && engine != reference) {
        list.engines[list.size++] = engine;
      }
    }
  }
  return lists;
}();

}  // namespace

std::span<const BackendKind> engines(BackendKind selection) {
  const auto bits = static_cast<unsigned>(selection);
  if (bits >= kEngineLists.size()) {
    return {};
  }
  return {kEngineLists[bits].engines.data(), kEngineLists[bits].size};
}

double relative_error(double candidate, double reference) {
  if (reference > 0) {
    return std::abs(candidate - reference) / reference;
  }
  return candidate > 0 ? std::numeric_limits<double>::infinity() : 0.0;
}

std::string_view to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::Simulation:
      return "sim";
    case BackendKind::Analytic:
      return "analytic";
    case BackendKind::Codegen:
      return "codegen";
    case BackendKind::Both:
      return "both";
    case BackendKind::SimCodegen:
      return "sim+codegen";
    case BackendKind::AnalyticCodegen:
      return "analytic+codegen";
    case BackendKind::All:
      return "all";
  }
  return "unknown";
}

std::optional<BackendKind> backend_from_string(std::string_view text) {
  using enum BackendKind;
  if (text == "both") {
    return Both;
  }
  if (text == "all") {
    return All;
  }
  unsigned selection = 0;
  for (;;) {
    const std::size_t plus = text.find('+');
    const std::string_view name = text.substr(0, plus);
    const BackendKind engine =
        name == "sim" || name == "simulation" ? Simulation
        : name == "analytic"                  ? Analytic
        : name == "codegen"                   ? Codegen
                                              : BackendKind{};
    const auto bit = static_cast<unsigned>(engine);
    if (bit == 0 || (selection & bit) != 0) {
      return std::nullopt;  // empty, unknown or repeated engine
    }
    selection |= bit;
    if (plus == std::string_view::npos) {
      return static_cast<BackendKind>(selection);
    }
    text.remove_prefix(plus + 1);
  }
}

std::vector<PredictionReport> PreparedModel::estimate_batch(
    std::span<const machine::SystemParameters> params,
    const EstimationOptions& options) const {
  std::vector<PredictionReport> reports;
  reports.reserve(params.size());
  for (const auto& lane : params) {
    reports.push_back(estimate(lane, options));
  }
  return reports;
}

PredictionReport Backend::estimate(const uml::Model& model,
                                   const machine::SystemParameters& params,
                                   const EstimationOptions& options) const {
  return prepare(model)->estimate(params, options);
}

}  // namespace prophet::estimator
