// Backend cross-validation, three ways: for every deterministic built-in
// model, over the parameter grids the paper's evaluation (Sec. 5)
// sweeps, one shared lowering feeds all three engines.  The analytic
// estimator must land inside the 15% acceptance envelope against the
// discrete-event simulator (the deterministic built-ins land far inside
// it: the walk/replay reproduces the simulator's timeline, and the
// node-bottleneck bound reproduces facility serialization exactly for
// SPMD phases); the generated-code evaluator must reproduce the
// simulator bit for bit — no envelope, equality of the underlying
// 64-bit patterns.  An OpenMP region model, which no registry entry
// covers, holds the simulator and the generated code to the same bits.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "openmp_region_model.hpp"
#include "prophet/analytic/backend.hpp"
#include "prophet/cgen/backend.hpp"
#include "prophet/interp/interpreter.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/pipeline/scenario.hpp"
#include "prophet/prophet.hpp"
#include "prophet/uml/model.hpp"

namespace analytic = prophet::analytic;
namespace machine = prophet::machine;

namespace {

constexpr double kEnvelope = 0.15;

double relative_error(double candidate, double reference) {
  if (reference == 0) {
    return candidate == 0 ? 0 : 1;
  }
  return std::abs(candidate - reference) / reference;
}

void expect_cross_validated(const std::string& name,
                            const prophet::uml::Model& model,
                            const machine::SystemParameters& params,
                            double envelope = kEnvelope) {
  const auto scenario = [&] {
    return name + " np=" + std::to_string(params.processes) +
           " nn=" + std::to_string(params.nodes) +
           " ppn=" + std::to_string(params.processors_per_node);
  };
  const auto program = prophet::lower::lower(model);
  prophet::estimator::EstimationOptions no_trace;
  no_trace.collect_trace = false;
  no_trace.collect_machine_report = false;

  const auto reference = analytic::SimulationBackend()
                             .prepare(program)
                             ->estimate(params, no_trace);
  const auto predicted = analytic::AnalyticBackend()
                             .prepare(program)
                             ->estimate(params, no_trace)
                             .predicted_time;
  EXPECT_LT(relative_error(predicted, reference.predicted_time), envelope)
      << scenario() << ": analytic " << predicted << " vs sim "
      << reference.predicted_time;

  // Grid sweeps re-prepare per scenario; the content-addressed compile
  // cache makes every repeat a dlopen of the already-built object.
  const auto compiled = prophet::cgen::CodegenBackend()
                            .prepare(program)
                            ->estimate(params, no_trace);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(compiled.predicted_time),
            std::bit_cast<std::uint64_t>(reference.predicted_time))
      << scenario() << ": codegen " << compiled.predicted_time << " vs sim "
      << reference.predicted_time;
  EXPECT_EQ(compiled.events, reference.events) << scenario();
  EXPECT_EQ(compiled.processes, reference.processes) << scenario();
}

machine::SystemParameters sp(int np, int nodes, int ppn) {
  machine::SystemParameters params;
  params.processes = np;
  params.nodes = nodes;
  params.processors_per_node = ppn;
  return params;
}

TEST(BackendCrossValidation, SampleModelWithinEnvelope) {
  const auto model = prophet::models::sample_model();
  for (const int np : {1, 2, 4, 8}) {
    for (const int nodes : {1, 2}) {
      for (const int ppn : {1, 2}) {
        expect_cross_validated("@sample", model, sp(np, nodes, ppn));
      }
    }
  }
}

TEST(BackendCrossValidation, Kernel6WithinEnvelope) {
  const auto model = prophet::models::kernel6_model(64, 16, 1e-8);
  for (const int np : {1, 2, 4, 8}) {
    for (const int nodes : {1, 2}) {
      for (const int ppn : {1, 2}) {
        expect_cross_validated("@kernel6", model, sp(np, nodes, ppn));
      }
    }
  }
}

TEST(BackendCrossValidation, DetailedKernel6WithinEnvelope) {
  const auto model = prophet::models::kernel6_detailed_model(32, 4, 1e-8);
  for (const int np : {1, 4}) {
    expect_cross_validated("@kernel6-detailed", model, sp(np, 1, 1));
  }
}

TEST(BackendCrossValidation, PingPongWithinEnvelope) {
  // Two ranks; intra-node (nodes=1) and inter-node (nodes=2) transfers.
  const auto model = prophet::models::pingpong_model(1024, 8);
  expect_cross_validated("@pingpong", model, sp(2, 1, 1));
  expect_cross_validated("@pingpong", model, sp(2, 1, 2));
  expect_cross_validated("@pingpong", model, sp(2, 2, 1));
  const auto large = prophet::models::pingpong_model(1 << 20, 4);
  expect_cross_validated("@pingpong-1MiB", large, sp(2, 2, 1));
}

TEST(BackendCrossValidation, EveryRegisteredModelOverItsDefaultGrid) {
  // The registry contract: every built-in workload cross-validates over
  // its own default grid — the same sweep CI gates with
  // `prophetc sweep @name --backend=all --max-rel-error`.  A new
  // registry entry buys this coverage automatically, three engines
  // included.
  for (const auto& entry : prophet::models::Registry::builtin().entries()) {
    const auto model = entry.make();
    const auto grid = prophet::pipeline::ScenarioGrid::parse(
        entry.default_grid, entry.default_params);
    for (const auto& params : grid.expand()) {
      expect_cross_validated("@" + entry.name, model, params);
    }
  }
}

TEST(BackendCrossValidation, RandomStructuredModelsWithinEnvelope) {
  // Property-style: seeded random structured models (no communication,
  // guarded decisions, nested activities and loops) must stay inside the
  // envelope too — they exercise fragments, locals and pid-dependence.
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL}) {
    const auto model = prophet::models::random_model(seed, 24);
    for (const int np : {1, 3, 8}) {
      expect_cross_validated("random" + std::to_string(seed), model,
                             sp(np, 2, 1));
    }
  }
}

TEST(BackendCrossValidation, OpenMpRegionSimulatorAndCodegenBitForBit) {
  // Threads of a region share a workshared loop, an OpenMP barrier and a
  // critical section.  Only the simulator and the generated code are
  // compared: the analytic engine bounds the lock from below by its total
  // demand, while the simulator queues arrivals at it (ROADMAP).
  const auto program =
      prophet::lower::lower(prophet::integration::openmp_region_model());
  prophet::estimator::EstimationOptions no_trace;
  no_trace.collect_trace = false;
  no_trace.collect_machine_report = false;
  const auto simulator = analytic::SimulationBackend().prepare(program);
  const auto compiled = prophet::cgen::CodegenBackend().prepare(program);
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  int points = 0;
  for (int np = 1; np <= 4; ++np) {
    for (int nodes = 1; nodes <= 2; ++nodes) {
      for (int ppn = 1; ppn <= 4; ++ppn) {
        for (int nt = 1; nt <= 4; ++nt) {
          machine::SystemParameters params = sp(np, nodes, ppn);
          params.threads_per_process = nt;
          const std::string scenario =
              "np=" + std::to_string(np) + " nn=" + std::to_string(nodes) +
              " ppn=" + std::to_string(ppn) + " nt=" + std::to_string(nt);
          const auto reference = simulator->estimate(params, no_trace);
          const auto candidate = compiled->estimate(params, no_trace);
          EXPECT_EQ(bits(candidate.predicted_time),
                    bits(reference.predicted_time))
              << scenario << ": codegen " << candidate.predicted_time
              << " vs sim " << reference.predicted_time;
          EXPECT_EQ(candidate.events, reference.events) << scenario;
          ASSERT_EQ(candidate.per_process_finish.size(),
                    reference.per_process_finish.size())
              << scenario;
          for (std::size_t pid = 0;
               pid < reference.per_process_finish.size(); ++pid) {
            EXPECT_EQ(bits(candidate.per_process_finish[pid]),
                      bits(reference.per_process_finish[pid]))
                << scenario << " pid " << pid;
          }
          ++points;
        }
      }
    }
  }
  EXPECT_EQ(points, 128);
}

}  // namespace
