// One contract between the model checker and the engines: a model the
// standard checker passes always lowers, because the checker reads the
// lowering and reports every problem lowering records as an error.
// Checked over random models, the XMI corpora, the five probes on which
// the checker once disagreed with the engines, and every registry model
// with one broken expression tag (its first `cost` tag, else its first
// expression tag); the probes the checker passes must also run alike in
// the simulator, the generated evaluator and the analytic estimator.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "checker_probes.hpp"
#include "prophet/analytic/backend.hpp"
#include "prophet/cgen/backend.hpp"
#include "prophet/check/checker.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/models/builtins.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/xmi/xmi.hpp"
#include "same_finish.hpp"

namespace analytic = prophet::analytic;
namespace uml = prophet::uml;
using prophet::machine::SystemParameters;
using prophet::testing::same_finish;

namespace {

/// Fails the test when the standard checker passes `model` but lowering
/// it throws.  Returns whether the checker passed it.
bool expect_check_implies_lower(const uml::Model& model,
                                const std::string& name) {
  const auto diagnostics = prophet::check::ModelChecker().check(model);
  if (diagnostics.ok()) {
    EXPECT_NO_THROW((void)prophet::lower::lower(model)) << name;
  }
  return diagnostics.ok();
}

/// `np` processes on `nodes` nodes of `ppn` processors.
SystemParameters params(int np, int nodes, int ppn) {
  SystemParameters p;
  p.processes = np;
  p.nodes = nodes;
  p.processors_per_node = ppn;
  return p;
}

/// The bits of `value`, so doubles compare exactly.
std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// np=1..4 x nodes=1..2 x ppn=1..2.
std::vector<SystemParameters> small_grid() {
  std::vector<SystemParameters> points;
  for (int np = 1; np <= 4; ++np) {
    for (int nodes = 1; nodes <= 2; ++nodes) {
      for (int ppn = 1; ppn <= 2; ++ppn) {
        points.push_back(params(np, nodes, ppn));
      }
    }
  }
  return points;
}

/// "np=N nodes=N ppn=N" for `point`.
std::string describe(const SystemParameters& point) {
  std::ostringstream out;
  out << "np=" << point.processes << " nodes=" << point.nodes;
  out << " ppn=" << point.processors_per_node;
  return out.str();
}

/// True when the model lowers and every engine estimates it at np=2.
bool every_engine_runs(const uml::Model& model) {
  try {
    const auto program = prophet::lower::lower(model);
    const SystemParameters point = params(2, 1, 2);
    (void)analytic::SimulationBackend().prepare(program)->estimate(point);
    (void)analytic::AnalyticBackend().prepare(program)->estimate(point);
    (void)prophet::cgen::CodegenBackend().prepare(program)->estimate(point);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

/// The node and tag a broken expression replaces in `model`: its first
/// `cost` tag, else its first expression tag (null when it has none).
std::pair<uml::Node*, std::string_view> tag_to_break(uml::Model& model) {
  std::pair<uml::Node*, std::string_view> found{nullptr, {}};
  int best = 0;  // 2: a cost tag, 1: another expression tag
  for (const auto& diagram : model.diagrams()) {
    for (const auto& node : diagram->nodes()) {
      for (const auto name : uml::expression_tags(node->stereotype())) {
        const int rank = name == uml::tag::kCost ? 2 : 1;
        if (node->has_tag(name) && rank > best) {
          best = rank;
          found = {node.get(), name};
        }
      }
    }
  }
  return found;
}

TEST(CheckerContract, RandomModelsThatPassLower) {
  std::size_t passed = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const uml::Model model = prophet::models::random_model(seed);
    if (expect_check_implies_lower(model, "random " + std::to_string(seed))) {
      ++passed;
    }
  }
  EXPECT_GT(passed, 0u);
}

TEST(CheckerContract, CorpusModelsThatPassLower) {
  std::size_t parsed = 0;
  for (const char* dir : {"tests/fuzz/corpus/xmi", "tests/xmi/malformed"}) {
    const auto path = std::filesystem::path(PROPHET_SOURCE_DIR) / dir;
    for (const auto& entry : std::filesystem::directory_iterator(path)) {
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream text;
      text << in.rdbuf();
      uml::Model model("unparsed");
      try {
        model = prophet::xmi::from_xml(text.str());
      } catch (const std::exception&) {
        continue;  // the XMI reader rejects it: nothing to check
      }
      ++parsed;
      expect_check_implies_lower(model, entry.path().string());
    }
  }
  EXPECT_GT(parsed, 0u);
}

TEST(CheckerContract, RegistryModelsWithABrokenTagFailTheCheck) {
  const auto& registry = prophet::models::Registry::builtin();
  for (const auto& info : registry.entries()) {
    for (const std::string broken : {"1 +", "mystery * 2", "FMissing()"}) {
      uml::Model model = registry.make("@" + info.name);
      const auto [node, tag] = tag_to_break(model);
      ASSERT_NE(node, nullptr) << info.name;
      node->set_tag(tag, uml::TagValue(broken));
      std::string name = "@" + info.name + " with " + std::string(tag);
      name += " '" + broken + "'";
      EXPECT_FALSE(expect_check_implies_lower(model, name)) << name;
    }
  }
}

TEST(CheckerContract, ProbesPassTheCheckExactlyWhenEveryEngineRunsThem) {
  for (const auto& probe : prophet::test::checker_probes()) {
    const bool passes = expect_check_implies_lower(probe.model, probe.name);
    EXPECT_EQ(passes, every_engine_runs(probe.model)) << probe.name;
  }
}

TEST(CheckerContract, ProbesThatPassRunAlikeInEveryEngine) {
  prophet::estimator::EstimationOptions options;
  options.collect_trace = false;
  options.collect_machine_report = false;
  std::size_t passing = 0;
  for (const auto& probe : prophet::test::checker_probes()) {
    if (!prophet::check::ModelChecker().check(probe.model).ok()) {
      continue;
    }
    ++passing;
    const auto program = prophet::lower::lower(probe.model);
    const auto simulator = analytic::SimulationBackend().prepare(program);
    const auto walker = analytic::AnalyticBackend().prepare(program);
    const auto generated = prophet::cgen::CodegenBackend().prepare(program);
    for (const SystemParameters& point : small_grid()) {
      SCOPED_TRACE(probe.name + " at " + describe(point));
      const auto sim = simulator->estimate(point, options);
      const auto gen = generated->estimate(point, options);
      EXPECT_GT(sim.predicted_time, 0);
      EXPECT_EQ(bits(gen.predicted_time), bits(sim.predicted_time));
      EXPECT_EQ(gen.events, sim.events);
      EXPECT_TRUE(same_finish(gen.per_process_finish, sim.per_process_finish));
      // The analytic estimator is exact where processes fit on their
      // processors (docs/analytic.md).
      if (point.processes <= point.nodes * point.processors_per_node) {
        const auto walked = walker->estimate(point, options);
        EXPECT_EQ(walked.predicted_time, sim.predicted_time);
      }
    }
  }
  EXPECT_EQ(passing, 2u);
}

}  // namespace
