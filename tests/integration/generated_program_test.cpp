// The paper's output against the simulator.  For every registry model,
// three random seeds, five models that once made the two disagree and an
// OpenMP region model, the Fig. 5 transformer's C++ is compiled and
// loaded by the codegen engine and run over a wide grid of system
// parameters.  Each run must predict exactly what SimulationBackend
// predicts on the same lowering: the predicted time, the event count and
// every process's finish time, bit for bit.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "openmp_region_model.hpp"
#include "prophet/analytic/backend.hpp"
#include "prophet/cgen/backend.hpp"
#include "prophet/check/checker.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/uml/builder.hpp"

namespace uml = prophet::uml;

namespace {

/// The predicted time, the events and each "pid:finish" of `report`,
/// doubles as %a.
std::string bits(const prophet::estimator::PredictionReport& report) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a %llu", report.predicted_time,
                static_cast<unsigned long long>(report.events));
  std::string line = buffer;
  for (std::size_t pid = 0; pid < report.per_process_finish.size(); ++pid) {
    std::snprintf(buffer, sizeof buffer, " %zu:%a", pid,
                  report.per_process_finish[pid]);
    line += buffer;
  }
  return line;
}

/// One input model: a registry reference, or a model built here.
struct Case {
  std::string name;  // printed as the test's parameter
  std::string reference;
  uml::Model (*build)() = nullptr;
  int max_threads = 1;  // the grid runs nt = 1..max_threads
};

/// gtest prints a case by its name.
void PrintTo(const Case& input, std::ostream* out) { *out << input.name; }

/// One 1 s action inside a <<loop+>> over `iterations`; the action runs
/// `code` first.
uml::Model loop_model(const std::string& iterations, const std::string& code) {
  uml::ModelBuilder mb("Loop");
  mb.global("GN", uml::VariableType::Real, "3");
  uml::DiagramBuilder body = mb.diagram("body");
  uml::NodeRef binit = body.initial();
  uml::NodeRef work = body.action("Work").cost("1");
  if (!code.empty()) {
    work.code(code);
  }
  uml::NodeRef bfin = body.final_node();
  body.sequence({binit, work, bfin});
  uml::DiagramBuilder main = mb.diagram("main");
  uml::NodeRef init = main.initial();
  uml::NodeRef loop = main.loop("Repeat", body, iterations);
  uml::NodeRef fin = main.final_node();
  main.sequence({init, loop, fin});
  uml::Model model = std::move(mb).build();
  model.set_main_diagram(main.id());
  return model;
}

/// Generated loops ran the ceiling of a fractional bound ...
uml::Model fractional_bound() { return loop_model("2.5", ""); }

/// ... and evaluated the bound again on every trip.
uml::Model bound_read_once() { return loop_model("GN", "GN = GN - 1;"); }

/// A costed action followed by the action named `name`.
uml::Model two_actions(const std::string& name, bool stereotyped) {
  uml::ModelBuilder mb("Two \"actions\"");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef first = d.action("First").cost("0.5 + pid");
  uml::NodeRef second = d.action(name).cost("2");
  if (!stereotyped) {
    second.node().set_stereotype("");
  }
  uml::NodeRef fin = d.final_node();
  d.sequence({init, first, second, fin});
  return std::move(mb).build();
}

/// An unstereotyped action (a zero-cost compute) failed to generate.
uml::Model unstereotyped_action() { return two_actions("Plain", false); }

/// A quote in an element name broke the generated string literal.
uml::Model quoted_name() { return two_actions("say \"hi\"", true); }

/// A fork (whose generated form did not compile with g++ 12), the five
/// collectives, and costs mixing integer variables, pid, tid and
/// booleans, which C++ would compute in integers.
uml::Model fork_and_collectives() {
  uml::ModelBuilder mb("Fork");
  mb.global("K", uml::VariableType::Integer, "7");
  mb.global("J", uml::VariableType::Integer, "2");
  mb.function("F", {"x"}, "x / 4 + K / J");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fork = d.fork();
  uml::NodeRef a = d.action("A").cost("F(pid) + (pid > 0 && K < 9 ? 1 : 2)");
  uml::NodeRef b = d.action("B").cost("K / J + -(pid < 1) + (pid || tid)");
  uml::NodeRef c = d.action("C").cost("pid / (tid + 1)");
  uml::NodeRef join = d.join();
  uml::NodeRef bcast = d.broadcast("Bcast", "0", "1024");
  uml::NodeRef reduce = d.reduce("Reduce", "np - 1", "2048");
  uml::NodeRef all = d.allreduce("All", "K * 8");
  uml::NodeRef scatter = d.scatter("Scatter", "0", "512");
  uml::NodeRef gather = d.gather("Gather", "0", "512");
  uml::NodeRef fin = d.final_node();
  d.flow(init, fork);
  d.flow(fork, a);
  d.flow(fork, b);
  d.flow(b, c);
  d.flow(a, join);
  d.flow(c, join);
  d.sequence({join, bcast, reduce, all, scatter, gather, fin});
  return std::move(mb).build();
}

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const auto& name : prophet::models::Registry::builtin().names()) {
    out.push_back({name, "@" + name});
  }
  for (const char* seed : {"7", "42", "1234"}) {
    out.push_back({std::string("random-seed") + seed,
                   std::string("@random(seed=") + seed + ",size=24)"});
  }
  out.push_back({"loop-fractional-bound", "", fractional_bound});
  out.push_back({"loop-bound-read-once", "", bound_read_once});
  out.push_back({"unstereotyped-action", "", unstereotyped_action});
  out.push_back({"quoted-name", "", quoted_name});
  out.push_back({"fork-and-collectives", "", fork_and_collectives});
  out.push_back({"openmp-region", "",
                 prophet::integration::openmp_region_model, 4});
  return out;
}

class GeneratedProgram : public ::testing::TestWithParam<Case> {};

TEST_P(GeneratedProgram, MatchesSimulatorBitForBit) {
  const Case& input = GetParam();
  const auto& registry = prophet::models::Registry::builtin();
  const auto program = prophet::lower::lower(
      input.build ? input.build() : registry.make(input.reference));
  const auto diagnostics =
      prophet::check::ModelChecker().check(program->model());
  ASSERT_TRUE(diagnostics.ok()) << diagnostics.to_string();
  const auto generated = prophet::cgen::CodegenBackend().prepare(program);
  const auto simulator =
      prophet::analytic::SimulationBackend().prepare(program);
  prophet::estimator::EstimationOptions options;
  options.collect_trace = false;
  options.collect_machine_report = false;
  for (int np = 1; np <= 16; ++np) {
    for (int nodes = 1; nodes <= 4; ++nodes) {
      for (int ppn = 1; ppn <= 4; ++ppn) {
        if (input.name == "pingpong" && np != 2) {
          continue;  // defined for two ranks
        }
        for (int nt = 1; nt <= input.max_threads; ++nt) {
          prophet::machine::SystemParameters params;
          params.processes = np;
          params.nodes = nodes;
          params.processors_per_node = ppn;
          params.threads_per_process = nt;
          EXPECT_EQ(bits(generated->estimate(params, options)),
                    bits(simulator->estimate(params, options)))
              << "np,nodes,ppn,nt = " << np << "," << nodes << "," << ppn
              << "," << nt;
        }
      }
    }
  }
}

// ctest names each case after the model: .../MatchesSimulatorBitForBit/sample.
INSTANTIATE_TEST_SUITE_P(, GeneratedProgram, ::testing::ValuesIn(cases()));

}  // namespace
