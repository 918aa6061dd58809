// Property-based tests over randomized structured models: for every seed,
// the model must pass the checker, round-trip through XMI, interpret
// deterministically, and transform without error; for a sample of seeds
// the three engines must agree from one lowering.  (The compiled Fig. 5
// output is checked against the simulator in generated_program_test.cpp.)
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "prophet/analytic/analytic.hpp"
#include "prophet/analytic/backend.hpp"
#include "prophet/cgen/backend.hpp"
#include "prophet/interp/interpreter.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/prophet.hpp"
#include "prophet/traverse/handlers.hpp"
#include "prophet/xmi/xmi.hpp"

namespace {

using prophet::Prophet;

prophet::machine::SystemParameters diff_params() {
  prophet::machine::SystemParameters params;
  params.processes = 3;
  params.nodes = 3;
  return params;
}

class RandomModelProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomModelProperty, PassesChecker) {
  const Prophet prophet(prophet::models::random_model(GetParam()));
  const auto diagnostics = prophet.check();
  EXPECT_TRUE(diagnostics.ok()) << diagnostics.to_string();
}

TEST_P(RandomModelProperty, XmiRoundTrips) {
  const prophet::uml::Model model =
      prophet::models::random_model(GetParam());
  const prophet::uml::Model reloaded =
      prophet::xmi::from_xml(prophet::xmi::to_xml(model));
  EXPECT_TRUE(prophet::xmi::equivalent(model, reloaded));
}

TEST_P(RandomModelProperty, InterpretsDeterministically) {
  const Prophet prophet(prophet::models::random_model(GetParam()));
  const auto first = prophet.estimate(diff_params());
  const auto second = prophet.estimate(diff_params());
  EXPECT_DOUBLE_EQ(first.predicted_time, second.predicted_time);
  EXPECT_EQ(first.events, second.events);
  EXPECT_GT(first.predicted_time, 0.0);
}

TEST_P(RandomModelProperty, TransformsWithoutError) {
  const Prophet prophet(prophet::models::random_model(GetParam()));
  const std::string cpp = prophet.transform();
  EXPECT_NE(cpp.find("prophet_model"), std::string::npos);
  EXPECT_NE(cpp.find("prophet_cgen_evaluator"), std::string::npos);
}

TEST_P(RandomModelProperty, GenerationIsDeterministic) {
  const auto a = prophet::models::random_model(GetParam());
  const auto b = prophet::models::random_model(GetParam());
  EXPECT_TRUE(prophet::xmi::equivalent(a, b));
}

TEST_P(RandomModelProperty, TraverserXmlHandlerMatchesXmiWriter) {
  // The ContentHandler-based XML generator (the Fig. 6 extension point)
  // must produce a document the XMI reader accepts and that reloads to an
  // equivalent model.
  const prophet::uml::Model model =
      prophet::models::random_model(GetParam());
  prophet::traverse::DepthFirstNavigator navigator;
  prophet::traverse::XmlContentHandler handler;
  prophet::traverse::Traverser traverser;
  traverser.traverse(model, navigator, handler);
  const prophet::uml::Model reloaded =
      prophet::xmi::from_document(handler.document());
  EXPECT_TRUE(prophet::xmi::equivalent(model, reloaded));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomModelProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u, 55u, 89u, 144u, 233u));

/// In-process three-backend differential: every random structured model
/// is lowered once and estimated through the simulator, the generated
/// native evaluator and the analytic estimator.  Sim and codegen must
/// agree to the bit; analytic stays inside the cross-validation
/// envelope.  Failures log the seed for replay.
class RandomModelThreeWay : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomModelThreeWay, BackendsAgreeFromOneLowering) {
  const std::uint64_t seed = GetParam();
  const auto model = prophet::models::random_model(seed, 24);
  const auto program = prophet::lower::lower(model);
  // The same parameter point the cross-validation suite pins the
  // analytic envelope at for these seeds.
  prophet::machine::SystemParameters params;
  params.processes = 3;
  params.nodes = 2;
  prophet::estimator::EstimationOptions options;
  options.collect_trace = false;
  options.collect_machine_report = false;

  const auto sim = prophet::analytic::SimulationBackend()
                       .prepare(program)
                       ->estimate(params, options);
  const auto compiled = prophet::cgen::CodegenBackend()
                            .prepare(program)
                            ->estimate(params, options);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sim.predicted_time),
            std::bit_cast<std::uint64_t>(compiled.predicted_time))
      << "seed " << seed << ": sim " << sim.predicted_time << " vs codegen "
      << compiled.predicted_time;
  EXPECT_EQ(sim.events, compiled.events) << "seed " << seed;
  EXPECT_EQ(sim.processes, compiled.processes) << "seed " << seed;
  ASSERT_EQ(compiled.per_process_finish.size(), sim.per_process_finish.size())
      << "seed " << seed;
  for (std::size_t pid = 0; pid < sim.per_process_finish.size(); ++pid) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sim.per_process_finish[pid]),
              std::bit_cast<std::uint64_t>(compiled.per_process_finish[pid]))
        << "seed " << seed << " pid " << pid;
  }

  const auto analytic = prophet::analytic::AnalyticBackend()
                            .prepare(program)
                            ->estimate(params, options);
  ASSERT_GT(sim.predicted_time, 0.0) << "seed " << seed;
  EXPECT_LT(std::abs(analytic.predicted_time - sim.predicted_time) /
                sim.predicted_time,
            0.15)
      << "seed " << seed << ": analytic " << analytic.predicted_time
      << " vs sim " << sim.predicted_time;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomModelThreeWay,
                         ::testing::Values(1u, 7u, 42u, 1234u));

/// AnalyticEstimator::evaluate_batch over random models, which run code
/// fragments and read pid in costs and guards.  Three lane sets:
///  - np=1..8 nodes=1..4 ppn=1..2 in 8-lane chunks: each chunk shares one
///    np, so every pid is walked once across the chunk;
///  - the same lanes with np turning fastest: each 8-lane chunk walks
///    eight inputs, one per np;
///  - one np (2..8, by seed) x nodes=1..4 x ppn=1..2 x cpu_speed {1, 2}.
///    Random models read no topology, so lanes that differ only in nodes
///    and ppn share a walk input.  In that order (cpu_speed fastest),
///    2-lane chunks walk two distinct inputs and 8-lane chunks two
///    inputs of four lanes each; with cpu_speed slowest, 8-lane chunks
///    share one walk.
/// Each lane must reproduce evaluate() to the bit, and no lane may fall
/// back to lane-by-lane evaluation.
TEST(RandomModelBatch, PidByPidWalkMatchesScalarOverThreeHundredSeeds) {
  using prophet::machine::SystemParameters;
  std::vector<SystemParameters> grid;
  for (int np = 1; np <= 8; ++np) {
    for (int nodes = 1; nodes <= 4; ++nodes) {
      for (int ppn = 1; ppn <= 2; ++ppn) {
        SystemParameters params;
        params.processes = np;
        params.nodes = nodes;
        params.processors_per_node = ppn;
        grid.push_back(params);
      }
    }
  }
  const auto speeds_fastest = [](int np) {
    std::vector<SystemParameters> lanes;
    for (int nodes = 1; nodes <= 4; ++nodes) {
      for (int ppn = 1; ppn <= 2; ++ppn) {
        for (const double speed : {1.0, 2.0}) {
          SystemParameters params;
          params.processes = np;
          params.nodes = nodes;
          params.processors_per_node = ppn;
          params.cpu_speed = speed;
          lanes.push_back(params);
        }
      }
    }
    return lanes;
  };
  // np turns fastest: each 8-lane chunk spans every np, so each lane is a
  // walk input of its own.
  std::vector<SystemParameters> np_fastest;
  for (int nodes = 1; nodes <= 4; ++nodes) {
    for (int ppn = 1; ppn <= 2; ++ppn) {
      for (int np = 1; np <= 8; ++np) {
        SystemParameters params;
        params.processes = np;
        params.nodes = nodes;
        params.processors_per_node = ppn;
        np_fastest.push_back(params);
      }
    }
  }
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  std::size_t lanes_fallback = 0;
  for (std::uint64_t seed = 1; seed <= 300 && !HasFailure(); ++seed) {
    const prophet::analytic::AnalyticEstimator estimator(
        prophet::models::random_model(seed, 30));
    const auto check = [&](std::span<const SystemParameters> set,
                           std::size_t width) {
      for (std::size_t begin = 0; begin < set.size(); begin += width) {
        const auto lanes = set.subspan(begin, width);
        const auto batched =
            estimator.evaluate_batch(lanes, nullptr, nullptr, &lanes_fallback);
        ASSERT_EQ(batched.size(), lanes.size());
        for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
          const auto scalar = estimator.evaluate(lanes[lane]);
          const auto& got = batched[lane];
          EXPECT_EQ(bits(got.predicted_time), bits(scalar.predicted_time))
              << "seed " << seed << " np " << lanes[lane].processes
              << " width " << width << " lane " << begin + lane;
          ASSERT_EQ(got.per_process_finish.size(),
                    scalar.per_process_finish.size());
          for (std::size_t pid = 0; pid < scalar.per_process_finish.size();
               ++pid) {
            EXPECT_EQ(bits(got.per_process_finish[pid]),
                      bits(scalar.per_process_finish[pid]))
                << "seed " << seed << " np " << lanes[lane].processes
                << " width " << width << " lane " << begin + lane << " pid "
                << pid;
          }
        }
      }
    };
    check(grid, 8);
    check(np_fastest, 8);
    auto speeds = speeds_fastest(2 + static_cast<int>(seed % 7));
    check(speeds, 2);
    check(speeds, 8);
    std::stable_partition(
        speeds.begin(), speeds.end(),
        [](const SystemParameters& params) { return params.cpu_speed == 1.0; });
    check(speeds, 8);
  }
  EXPECT_EQ(lanes_fallback, 0u);
}

/// Statistics handler sanity over random models.
TEST(StatisticsHandler, CountsMatchModel) {
  const prophet::uml::Model model = prophet::models::random_model(99, 30);
  prophet::traverse::DepthFirstNavigator navigator;
  prophet::traverse::StatisticsHandler handler;
  prophet::traverse::Traverser traverser;
  traverser.traverse(model, navigator, handler);
  std::size_t nodes = 0;
  std::size_t edges = 0;
  for (const auto& diagram : model.diagrams()) {
    nodes += diagram->node_count();
    edges += diagram->edge_count();
  }
  EXPECT_EQ(handler.diagrams(), model.diagrams().size());
  EXPECT_EQ(handler.nodes(), nodes);
  EXPECT_EQ(handler.edges(), edges);
  EXPECT_GT(handler.by_stereotype().at("action+"), 0u);
  EXPECT_FALSE(handler.report().empty());
}

}  // namespace
