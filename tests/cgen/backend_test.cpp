// The codegen backend behind the PreparedModel contract: bit-identical
// predictions against the simulator, shared non-null lowering, compile
// cache reuse across prepares, race-free concurrent estimates, the
// guard contract (structured limit trips), a private runtime copy in
// each evaluator, and the single-engine factory.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "prophet/analytic/backend.hpp"
#include "prophet/cgen/backend.hpp"
#include "prophet/cgen/prelude.hpp"
#include "prophet/estimator/backend.hpp"
#include "prophet/guard/guard.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/models/builtins.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/uml/builder.hpp"

namespace cgen = prophet::cgen;
namespace estimator = prophet::estimator;
namespace guard = prophet::guard;

namespace {

prophet::machine::SystemParameters sp(int np, int nodes = 1, int ppn = 1) {
  prophet::machine::SystemParameters params;
  params.processes = np;
  params.nodes = nodes;
  params.processors_per_node = ppn;
  return params;
}

estimator::EstimationOptions no_trace() {
  estimator::EstimationOptions options;
  options.collect_trace = false;
  return options;
}

/// EXPECT the two reports carry bit-for-bit identical numbers.
void expect_bit_identical(const estimator::PredictionReport& reference,
                          const estimator::PredictionReport& candidate) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reference.predicted_time),
            std::bit_cast<std::uint64_t>(candidate.predicted_time))
      << "sim " << reference.predicted_time << " vs codegen "
      << candidate.predicted_time;
  EXPECT_EQ(reference.events, candidate.events);
  EXPECT_EQ(reference.processes, candidate.processes);
  ASSERT_EQ(reference.per_process_finish.size(),
            candidate.per_process_finish.size());
  for (std::size_t pid = 0; pid < reference.per_process_finish.size(); ++pid) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reference.per_process_finish[pid]),
              std::bit_cast<std::uint64_t>(candidate.per_process_finish[pid]))
        << "pid " << pid;
  }
}

TEST(CodegenBackend, BitIdenticalToTheSimulator) {
  const auto model = prophet::models::kernel6_detailed_model(32, 4, 1e-8);
  const auto program = prophet::lower::lower(model);
  const auto prepared = cgen::CodegenBackend().prepare(program);
  const auto sim = prophet::analytic::SimulationBackend().prepare(program);
  for (const int np : {1, 2, 4}) {
    expect_bit_identical(sim->estimate(sp(np), no_trace()),
                         prepared->estimate(sp(np), no_trace()));
  }
}

TEST(CodegenBackend, SharesTheLoweringItWasPreparedFrom) {
  const auto program = prophet::lower::lower(prophet::models::sample_model());
  const auto prepared = cgen::CodegenBackend().prepare(program);
  ASSERT_NE(prepared->lowering(), nullptr);
  EXPECT_EQ(prepared->lowering().get(), program.get());
}

TEST(CodegenBackend, SecondPrepareHitsTheCompileCache) {
  cgen::CodegenOptions options;
  options.toolchain.cache_dir =
      ::testing::TempDir() + "/cgen-backend-cache-test";
  // TempDir() persists across runs; the first prepare must be cold.
  std::filesystem::remove_all(options.toolchain.cache_dir);
  const cgen::CodegenBackend backend(options);
  const auto program = prophet::lower::lower(prophet::models::sample_model());

  const auto first = backend.prepare(program);
  const auto* cold = dynamic_cast<const cgen::CodegenPrepared*>(first.get());
  ASSERT_NE(cold, nullptr);
  EXPECT_FALSE(cold->cache_hit());
  EXPECT_GT(cold->prepare_seconds(), 0.0);
  EXPECT_TRUE(std::ifstream(cold->object_path()).good())
      << cold->object_path();

  const auto second = backend.prepare(program);
  const auto* warm = dynamic_cast<const cgen::CodegenPrepared*>(second.get());
  ASSERT_NE(warm, nullptr);
  EXPECT_TRUE(warm->cache_hit());
  EXPECT_EQ(warm->object_path(), cold->object_path());
  // Both handles stay independently usable.
  expect_bit_identical(first->estimate(sp(2), no_trace()),
                       second->estimate(sp(2), no_trace()));
}

/// A <<loop+>> over GN (3) of a 1 s action whose fragment decrements the
/// global GN: the bound is read once, and every process writes GN.
prophet::uml::Model global_writer() {
  namespace uml = prophet::uml;
  uml::ModelBuilder mb("Loop");
  mb.global("GN", uml::VariableType::Real, "3");
  uml::DiagramBuilder body = mb.diagram("body");
  body.sequence({body.initial(), body.action("Work").cost("1").code(
                                     "GN = GN - 1;"),
                 body.final_node()});
  uml::DiagramBuilder main = mb.diagram("main");
  main.sequence(
      {main.initial(), main.loop("Repeat", body, "GN"), main.final_node()});
  uml::Model model = std::move(mb).build();
  model.set_main_diagram(main.id());
  return model;
}

TEST(CodegenBackend, ConcurrentEstimatesAreRaceFree) {
  // Each thread estimates at its own np, and the run state (globals the
  // fragments write included) is the thread's own: every result matches
  // a serial estimate at that np.
  for (auto&& model : {prophet::models::kernel6_model(64, 16, 1e-8),
                       global_writer()}) {
    const auto prepared =
        cgen::CodegenBackend().prepare(prophet::lower::lower(model));
    std::vector<estimator::PredictionReport> expected;
    for (int np = 1; np <= 8; ++np) {
      expected.push_back(prepared->estimate(sp(np, 2, 2), no_trace()));
    }
    std::vector<estimator::PredictionReport> reports(expected.size());
    std::vector<std::thread> threads;
    threads.reserve(reports.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
      threads.emplace_back([&prepared, &reports, i] {
        reports[i] = prepared->estimate(sp(static_cast<int>(i) + 1, 2, 2),
                                        no_trace());
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    for (std::size_t i = 0; i < reports.size(); ++i) {
      expect_bit_identical(expected[i], reports[i]);
    }
  }
}

TEST(CodegenBackend, LoopTripLimitTripsStructured) {
  const auto program =
      prophet::lower::lower(prophet::models::spin_model(1e6));
  const auto prepared = cgen::CodegenBackend().prepare(program);
  guard::Limits limits;
  limits.max_loop_trips = 100;
  guard::Budget budget(limits);
  auto options = no_trace();
  options.budget = &budget;
  try {
    (void)prepared->estimate(sp(1), options);
    FAIL() << "expected ResourceExhausted";
  } catch (const guard::ResourceExhausted& tripped) {
    EXPECT_EQ(tripped.limit(), guard::LimitKind::LoopTrips);
    EXPECT_EQ(tripped.stage(), "cgen-loop");
    EXPECT_GE(tripped.usage().loop_trips, 100u);
  }
}

TEST(CodegenBackend, GuardErrorsOutliveTheirEvaluatorHandle) {
  // The loop-trip charge runs in the object's copy of the runtime, so
  // the error it throws carries the object's vtable.  The error must
  // stay usable after the handle that loaded the object is gone: here
  // the temporary prepared model is destroyed while the error unwinds.
  const auto program =
      prophet::lower::lower(prophet::models::spin_model(1e6));
  guard::Limits limits;
  limits.max_loop_trips = 100;
  guard::Budget budget(limits);
  auto options = no_trace();
  options.budget = &budget;
  try {
    (void)cgen::CodegenBackend().prepare(program)->estimate(sp(1), options);
    FAIL() << "expected ResourceExhausted";
  } catch (const guard::ResourceExhausted& tripped) {
    EXPECT_EQ(std::string(tripped.what())
                  .rfind("loop_trips limit (100) exceeded in cgen-loop", 0),
              0u)
        << tripped.what();
  }
}

TEST(CodegenBackend, SimEventLimitTripsStructured) {
  const auto program =
      prophet::lower::lower(prophet::models::spin_model(1e6));
  const auto prepared = cgen::CodegenBackend().prepare(program);
  guard::Limits limits;
  limits.max_sim_events = 50;
  guard::Budget budget(limits);
  auto options = no_trace();
  options.budget = &budget;
  EXPECT_THROW((void)prepared->estimate(sp(1), options),
               guard::ResourceExhausted);
}

TEST(CodegenBackend, TrippedLimitReadsAsInTheSimulator) {
  // The simulator's VM counts instructions that the generated evaluator
  // runs as plain C++, and the two take different times; the text of a
  // tripped limit names only the limit, its bound and the stage, so the
  // two engines raise one text for one job.
  prophet::uml::ModelBuilder mb("Costly");
  prophet::uml::DiagramBuilder main = mb.diagram("main");
  prophet::uml::DiagramBuilder body = mb.diagram("body");
  body.sequence({body.initial(), body.action("Work").cost("0.001 * (pid + 1)"),
                 body.final_node()});
  main.sequence({main.initial(), main.loop("Trips", body, "1000000", "i"),
                 main.final_node()});
  const auto program = prophet::lower::lower(std::move(mb).build());
  guard::Limits limits;
  limits.max_sim_events = 50;
  const auto what = [&](const estimator::Backend& backend) {
    guard::Budget budget(limits);
    auto options = no_trace();
    options.budget = &budget;
    try {
      (void)backend.prepare(program)->estimate(sp(2), options);
    } catch (const guard::ResourceExhausted& tripped) {
      EXPECT_EQ(tripped.limit(), guard::LimitKind::SimEvents);
      EXPECT_GT(tripped.usage().sim_events, 50u);
      return std::string(tripped.what());
    }
    ADD_FAILURE() << "expected ResourceExhausted";
    return std::string();
  };
  const std::string simulated = what(prophet::analytic::SimulationBackend());
  EXPECT_EQ(simulated, "sim_events limit (50) exceeded in sim-engine");
  EXPECT_EQ(what(cgen::CodegenBackend()), simulated);
}

TEST(CodegenBackend, UnlimitedEstimateMatchesLimitedBelowTheBound) {
  // The guard contract: enforcing generous limits must not perturb the
  // prediction by a single bit.
  const auto program = prophet::lower::lower(prophet::models::sample_model());
  const auto prepared = cgen::CodegenBackend().prepare(program);
  const auto plain = prepared->estimate(sp(2), no_trace());
  guard::Limits limits;
  limits.max_sim_events = 1000000;
  limits.max_loop_trips = 1000000;
  guard::Budget budget(limits);
  auto options = no_trace();
  options.budget = &budget;
  expect_bit_identical(plain, prepared->estimate(sp(2), options));
}

TEST(CodegenBackend, EvaluatorExportsOnlyItsEntryPoint) {
  // An evaluator's statically linked copy of the runtime acts on the
  // host's engine, machine model and budget, and must bind to nothing
  // else: its dynamic symbol table defines the entry point and no
  // prophet:: symbol.
  const auto program = prophet::lower::lower(
      prophet::models::Registry::builtin().make("@stencil2d"));
  const auto prepared = cgen::CodegenBackend().prepare(program);
  const auto* handle =
      dynamic_cast<const cgen::CodegenPrepared*>(prepared.get());
  ASSERT_NE(handle, nullptr);
  std::string output;
  ASSERT_EQ(cgen::run_command("nm -D --defined-only -C " +
                                  handle->object_path() + " 2>&1",
                              &output),
            0)
      << output;
  bool entry_point = false;
  std::istringstream lines(output);
  for (std::string line; std::getline(lines, line);) {
    EXPECT_EQ(line.find("prophet::"), std::string::npos) << line;
    entry_point = entry_point ||
                  line.ends_with(std::string(" ") + cgen::kEvaluatorSymbol);
  }
  EXPECT_TRUE(entry_point) << output;
}

/// True when the factory builds `engine` as a `Backend`.
template <typename Backend>
bool builds(estimator::BackendKind engine) {
  return dynamic_cast<const Backend*>(cgen::make_backend(engine).get()) !=
         nullptr;
}

TEST(CodegenBackend, FactoryCoversEverySingleEngine) {
  EXPECT_TRUE(builds<prophet::analytic::SimulationBackend>(
      estimator::BackendKind::Simulation));
  EXPECT_TRUE(builds<prophet::analytic::AnalyticBackend>(
      estimator::BackendKind::Analytic));
  EXPECT_TRUE(builds<cgen::CodegenBackend>(estimator::BackendKind::Codegen));
  // Cross-validating selections run several engines — not a single
  // backend the factory could return.
  for (const estimator::BackendKind selection :
       {estimator::BackendKind::Both, estimator::BackendKind::SimCodegen,
        estimator::BackendKind::AnalyticCodegen,
        estimator::BackendKind::All}) {
    EXPECT_THROW((void)cgen::make_backend(selection), std::invalid_argument)
        << estimator::to_string(selection);
  }
}

}  // namespace
