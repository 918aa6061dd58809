// Run-time errors, three ways: the simulator, the analytic estimator and
// the generated evaluator all read each node's operation and successors
// from one lowering, evaluate through one expression VM rule (calls and
// site labels) and apply one set of workload rules, so a malformed node,
// a failing expression or a bad workload fails with the same text in
// every engine — and only when a walk reaches it.  The models here are
// built unchecked: the model checker would reject each of them before
// any engine ran.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "prophet/analytic/backend.hpp"
#include "prophet/cgen/backend.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/uml/builder.hpp"

namespace analytic = prophet::analytic;
namespace uml = prophet::uml;

namespace {

/// Two processes, each on its own processor.
prophet::machine::SystemParameters two_processes() {
  prophet::machine::SystemParameters params;
  params.processes = 2;
  params.processors_per_node = 2;
  return params;
}

/// What each engine (simulator, analytic, codegen) raises for `model`,
/// "" for an engine that evaluates it cleanly.
std::array<std::string, 3> engine_errors(const uml::Model& model) {
  const auto program = prophet::lower::lower(model);
  prophet::estimator::EstimationOptions options;
  options.collect_trace = false;
  options.collect_machine_report = false;
  const auto error_of = [&](const prophet::estimator::Backend& backend) {
    try {
      (void)backend.prepare(program)->estimate(two_processes(), options);
    } catch (const std::exception& error) {
      return std::string(error.what());
    }
    return std::string();
  };
  return {error_of(analytic::SimulationBackend()),
          error_of(analytic::AnalyticBackend()),
          error_of(prophet::cgen::CodegenBackend())};
}

/// A malformed model and the error a walk reaching its defect raises.
struct Malformed {
  uml::Model model;
  std::string error;
};

/// The node the main diagram's initial node flows into, and the error.
using Parts = std::pair<uml::NodeRef, std::string>;

/// Builds a model with a global X = 0 whose main diagram runs from its
/// initial node into what `body` adds (given the diagram's final node).
template <typename Body>
Malformed malformed(Body body) {
  uml::ModelBuilder mb("Malformed");
  mb.global("X", uml::VariableType::Real, "0");
  uml::DiagramBuilder d = mb.diagram("main");
  const uml::NodeRef init = d.initial();
  const uml::NodeRef fin = d.final_node();
  Parts parts = body(mb, d, fin);
  d.flow(init, parts.first);
  return {std::move(mb).build_unchecked(), std::move(parts.second)};
}

/// A one-action body diagram for loops.
uml::DiagramBuilder loop_body(uml::ModelBuilder& mb) {
  uml::DiagramBuilder body = mb.diagram("body");
  body.sequence(
      {body.initial(), body.action("W").cost("1"), body.final_node()});
  return body;
}

/// Expects every engine to raise `error` for each case's model.
void expect_one_text(const std::vector<Malformed>& cases) {
  for (const Malformed& malformed_case : cases) {
    const auto errors = engine_errors(malformed_case.model);
    EXPECT_EQ(errors[0], malformed_case.error) << "simulator";
    EXPECT_EQ(errors[1], malformed_case.error) << "analytic";
    EXPECT_EQ(errors[2], malformed_case.error) << "codegen";
  }
}

TEST(EngineAgreement, StructuralErrorsAreRaisedOnlyWhenReached) {
  std::vector<Malformed> cases;
  // A decision whose guards all fail and that has no `else`.
  cases.push_back(malformed([](uml::ModelBuilder&, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    const uml::NodeRef decision = d.decision("D");
    const uml::NodeRef a = d.action("A").cost("1");
    const uml::NodeRef b = d.action("B").cost("2");
    d.flow(decision, a, "X > 3");
    d.flow(decision, b, "X > 4");
    d.flow(a, fin);
    d.flow(b, fin);
    return Parts{decision, "decision " + decision.id() +
                               ": no guard holds and no 'else' edge"};
  }));
  // An action with two unguarded out-edges (raised after it runs).
  cases.push_back(malformed([](uml::ModelBuilder&, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    const uml::NodeRef a = d.action("A").cost("1");
    const uml::NodeRef b = d.action("B").cost("2");
    d.flow(a, b);
    d.flow(a, fin);
    d.flow(b, fin);
    return Parts{a,
                 "node " + a.id() + " has multiple unguarded outgoing edges"};
  }));
  // A fork whose branches reach different joins.
  cases.push_back(malformed([](uml::ModelBuilder&, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    const uml::NodeRef fork = d.fork("F");
    const uml::NodeRef a = d.action("A").cost("1");
    const uml::NodeRef b = d.action("B").cost("2");
    const uml::NodeRef j1 = d.join("J1");
    const uml::NodeRef j2 = d.join("J2");
    d.flow(fork, a);
    d.flow(fork, b);
    d.flow(a, j1);
    d.flow(b, j2);
    d.flow(j1, fin);
    d.flow(j2, fin);
    return Parts{fork, "fork " + fork.id() +
                           ": branches reach different joins ('" + j1.id() +
                           "' vs '" + j2.id() + "')"};
  }));
  // A join with two out-edges, resumed past after a fork...
  cases.push_back(malformed([](uml::ModelBuilder&, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    const uml::NodeRef fork = d.fork("F");
    const uml::NodeRef a = d.action("A").cost("1");
    const uml::NodeRef b = d.action("B").cost("2");
    const uml::NodeRef join = d.join("J");
    const uml::NodeRef c = d.action("C").cost("3");
    d.flow(fork, a);
    d.flow(fork, b);
    d.flow(a, join);
    d.flow(b, join);
    d.flow(join, c);
    d.flow(join, fin);
    d.flow(c, fin);
    return Parts{fork, "join " + join.id() + " has multiple outgoing edges"};
  }));
  // ...and a join walked over without a fork, in the plain wording.
  cases.push_back(malformed([](uml::ModelBuilder&, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    const uml::NodeRef join = d.join("J");
    const uml::NodeRef c = d.action("C").cost("3");
    d.flow(join, c);
    d.flow(join, fin);
    d.flow(c, fin);
    return Parts{join, "node " + join.id() +
                           " has multiple unguarded outgoing edges"};
  }));
  // An action stereotype no engine executes.
  cases.push_back(malformed([](uml::ModelBuilder&, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    const uml::NodeRef a = d.action("A").cost("1");
    a.node().set_stereotype("teleport");
    d.flow(a, fin);
    return Parts{a, "node " + a.id() +
                        ": unsupported stereotype <<teleport>> on an action "
                        "node"};
  }));
  // A <<loop+>> with a negative trip count.
  cases.push_back(malformed([](uml::ModelBuilder& mb, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    const uml::NodeRef loop = d.loop("L", loop_body(mb), "X - 2");
    d.flow(loop, fin);
    return Parts{loop,
                 "loop " + loop.id() + ": iteration count is negative or NaN"};
  }));
  // A fragment that assigns an undeclared variable.
  cases.push_back(malformed([](uml::ModelBuilder&, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    const uml::NodeRef a = d.action("A").cost("1").code("Y = 1;");
    d.flow(a, fin);
    return Parts{a, "code fragment at node " + a.id() +
                        " assigns undeclared variable 'Y'"};
  }));
  expect_one_text(cases);

  // The same defects on a branch that is never taken: every engine
  // evaluates cleanly, to the same prediction.
  const Malformed unreachable = malformed([](uml::ModelBuilder& mb,
                                             uml::DiagramBuilder& d,
                                             const uml::NodeRef& fin) {
    const uml::NodeRef decision = d.decision("D");
    const uml::NodeRef good = d.action("Good").cost("0.5");
    const uml::NodeRef stalled = d.decision("Stalled");
    const uml::NodeRef unknown = d.action("Unknown").cost("1");
    unknown.node().set_stereotype("teleport");
    const uml::NodeRef split = d.action("Split").cost("1");
    const uml::NodeRef loop = d.loop("L", loop_body(mb), "X - 2");
    const uml::NodeRef writer = d.action("Writer").code("Y = 1;");
    const uml::NodeRef fork = d.fork("F");
    const uml::NodeRef j1 = d.join("J1");
    const uml::NodeRef j2 = d.join("J2");
    d.flow(decision, good, "X < 1");
    d.flow(decision, stalled, "else");
    d.flow(good, fin);
    d.flow(stalled, unknown, "X > 3");
    d.flow(unknown, split);
    d.flow(split, loop);
    d.flow(split, writer);
    d.flow(loop, fork);
    d.flow(writer, fork);
    d.flow(fork, j1);
    d.flow(fork, j2);
    d.flow(j1, fin);
    d.flow(j1, j2);
    d.flow(j2, fin);
    return Parts{decision, ""};
  });
  const auto errors = engine_errors(unreachable.model);
  EXPECT_EQ(errors[0], "") << "simulator";
  EXPECT_EQ(errors[1], "") << "analytic";
  EXPECT_EQ(errors[2], "") << "codegen";
  const auto program = prophet::lower::lower(unreachable.model);
  const double simulated = analytic::SimulationBackend()
                               .prepare(program)
                               ->estimate(two_processes())
                               .predicted_time;
  EXPECT_GT(simulated, 0);
  EXPECT_EQ(analytic::AnalyticBackend()
                .prepare(program)
                ->estimate(two_processes())
                .predicted_time,
            simulated);
  EXPECT_EQ(prophet::cgen::CodegenBackend()
                .prepare(program)
                ->estimate(two_processes())
                .predicted_time,
            simulated);
}

TEST(EngineAgreement, EvaluationErrorsCarryTheirSite) {
  std::vector<Malformed> cases;
  // A decision guard reading an unknown name.
  cases.push_back(malformed([](uml::ModelBuilder&, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    const uml::NodeRef decision = d.decision("D");
    const uml::NodeRef a = d.action("A").cost("1");
    const uml::EdgeRef guarded = d.flow(decision, a, "Q > 0");
    d.flow(decision, fin, "else");
    d.flow(a, fin);
    return Parts{decision, "guard of edge " + guarded.edge().id() +
                               ": unknown variable 'Q'"};
  }));
  // A global and a local initializer reading one.
  cases.push_back(malformed([](uml::ModelBuilder& mb, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    mb.global("G", uml::VariableType::Real, "Q + 1");
    const uml::NodeRef a = d.action("A").cost("1");
    d.flow(a, fin);
    return Parts{a, "initializer of variable G: unknown variable 'Q'"};
  }));
  cases.push_back(malformed([](uml::ModelBuilder& mb, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    mb.local("L", uml::VariableType::Real, "Q * 2");
    const uml::NodeRef a = d.action("A").cost("1");
    d.flow(a, fin);
    return Parts{a, "initializer of variable L: unknown variable 'Q'"};
  }));
  // A cost-function body reading one: the body has no site of its own,
  // so the error carries its caller's.
  cases.push_back(malformed([](uml::ModelBuilder& mb, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    mb.function("F", {"n"}, "n + Q");
    const uml::NodeRef a = d.action("A").cost("F(1)");
    d.flow(a, fin);
    return Parts{a, "node " + a.id() + ", tag 'cost': unknown variable 'Q'"};
  }));
  expect_one_text(cases);
}

TEST(EngineAgreement, CostFunctionsNestSixtyFiveCallsDeep) {
  const auto calling = [](int n) {
    uml::ModelBuilder mb("Depth");
    mb.function("F", {"n"}, "n > 0 ? F(n - 1) : 1");
    uml::DiagramBuilder d = mb.diagram("main");
    d.sequence({d.initial(),
                d.action("A").cost("F(" + std::to_string(n) + ") * 0.001"),
                d.final_node()});
    return std::move(mb).build_unchecked();
  };
  // F(64) is 65 nested calls: every engine evaluates it, alike.
  const uml::Model deepest = calling(64);
  EXPECT_EQ(engine_errors(deepest), (std::array<std::string, 3>{}));
  const auto program = prophet::lower::lower(deepest);
  const double simulated = analytic::SimulationBackend()
                               .prepare(program)
                               ->estimate(two_processes())
                               .predicted_time;
  EXPECT_EQ(analytic::AnalyticBackend()
                .prepare(program)
                ->estimate(two_processes())
                .predicted_time,
            simulated);
  EXPECT_EQ(prophet::cgen::CodegenBackend()
                .prepare(program)
                ->estimate(two_processes())
                .predicted_time,
            simulated);
  // F(65) is one call too many: one text in every engine.
  const auto errors = engine_errors(calling(65));
  EXPECT_TRUE(errors[0].ends_with("cost-function call depth exceeded (cycle?)"))
      << errors[0];
  EXPECT_EQ(errors[1], errors[0]) << "analytic";
  EXPECT_EQ(errors[2], errors[0]) << "codegen";
}

TEST(EngineAgreement, BadWorkloadsNameTheirElement) {
  std::vector<Malformed> cases;
  // A negative and a NaN compute cost.
  for (const char* cost : {"-1", "0 / 0"}) {
    cases.push_back(malformed([cost](uml::ModelBuilder&,
                                     uml::DiagramBuilder& d,
                                     const uml::NodeRef& fin) {
      const uml::NodeRef a = d.action("A").cost(cost);
      d.flow(a, fin);
      return Parts{a, "ActionPlus 'A': negative or NaN cost"};
    }));
  }
  // An <<ompfor>> with a negative iteration count.
  cases.push_back(malformed([](uml::ModelBuilder&, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    const uml::NodeRef w = d.omp_for("W", "-3", "0.001");
    d.flow(w, fin);
    return Parts{w, "WorkshareElement 'W': iteration count is negative or NaN"};
  }));
  // An <<ompparallel>> asking for no threads.
  cases.push_back(malformed([](uml::ModelBuilder& mb, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    const uml::NodeRef region = d.omp_parallel("R", loop_body(mb), "0");
    d.flow(region, fin);
    return Parts{region, "parallel region 'R': num_threads must be >= 1"};
  }));
  // Peers outside the run's ranks 0..np-1: a destination, a source and
  // a root.
  cases.push_back(malformed([](uml::ModelBuilder&, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    const uml::NodeRef send = d.send("S", "7", "8");
    d.flow(send, fin);
    return Parts{send, "SendElement 'S': dest 7 outside 0..1"};
  }));
  cases.push_back(malformed([](uml::ModelBuilder&, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    const uml::NodeRef recv = d.recv("R", "pid - 2", "8");
    d.flow(recv, fin);
    return Parts{recv, "RecvElement 'R': source -2 outside 0..1"};
  }));
  cases.push_back(malformed([](uml::ModelBuilder&, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    const uml::NodeRef broadcast = d.broadcast("B", "9", "8");
    d.flow(broadcast, fin);
    return Parts{broadcast, "CollectiveElement 'B': root 9 outside 0..1"};
  }));
  expect_one_text(cases);
}

TEST(EngineAgreement, UnstructuredCyclesTripTheStepLimit) {
  // A decision that loops back through a merge while its guard holds: a
  // cycle without <<loop+>>, which every walk stops at its step limit.
  // In the first cycle an action's hold returns each process to the
  // engine once a trip; the other two never yield, so a walk that nested
  // a coroutine resumption per node or per element would overflow its
  // stack (without tail calls, as in Debug and sanitized builds) before
  // the limit.
  std::vector<Malformed> cases;
  cases.push_back(malformed([](uml::ModelBuilder&, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    const uml::NodeRef merge = d.merge("M");
    const uml::NodeRef a = d.action("A").cost("0.001");
    const uml::NodeRef decision = d.decision("D");
    d.flow(merge, a);
    d.flow(a, decision);
    d.flow(decision, merge, "X < 1");
    d.flow(decision, fin, "else");
    return Parts{merge, "diagram " + d.id() +
                            ": walk exceeded step limit (unstructured cycle "
                            "without <<loop+>>?)"};
  }));
  // A zero-cost action: the cycle runs to the limit within one event,
  // each trip a sub-process that completes without suspending.
  cases.push_back(malformed([](uml::ModelBuilder&, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    const uml::NodeRef merge = d.merge("M");
    const uml::NodeRef a = d.action("A").cost("0");
    const uml::NodeRef decision = d.decision("D");
    d.flow(merge, a);
    d.flow(a, decision);
    d.flow(decision, merge, "X < 1");
    d.flow(decision, fin, "else");
    return Parts{merge, "diagram " + d.id() +
                            ": walk exceeded step limit (unstructured cycle "
                            "without <<loop+>>?)"};
  }));
  cases.push_back(malformed([](uml::ModelBuilder&, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    const uml::NodeRef merge = d.merge("M");
    const uml::NodeRef decision = d.decision("D");
    d.flow(merge, decision);
    d.flow(decision, merge, "X < 1");
    d.flow(decision, fin, "else");
    return Parts{merge, "diagram " + d.id() +
                            ": walk exceeded step limit (unstructured cycle "
                            "without <<loop+>>?)"};
  }));
  expect_one_text(cases);
}

TEST(EngineAgreement, ZeroCostLoopsRunInOneEvent) {
  // A checked <<loop+>> of a million trips over a zero-cost action: no
  // trip suspends, so each process runs its loop within its first event.
  // The simulator and the generated evaluator agree to the bit, events
  // included, without growing the stack per trip.
  uml::ModelBuilder mb("ZeroCostLoop");
  uml::StepBuilder main(mb, "main");
  main.begin_loop("L", "1000000", "i").compute("W", "0").end_loop().done();
  const auto program = prophet::lower::lower(std::move(mb).build());
  prophet::estimator::EstimationOptions options;
  options.collect_trace = false;
  options.collect_machine_report = false;
  const auto sim = analytic::SimulationBackend().prepare(program)->estimate(
      two_processes(), options);
  const auto native =
      prophet::cgen::CodegenBackend().prepare(program)->estimate(
          two_processes(), options);
  EXPECT_EQ(sim.predicted_time, 0.0);
  EXPECT_EQ(sim.events, 2u);  // one per process
  EXPECT_EQ(std::bit_cast<std::uint64_t>(native.predicted_time),
            std::bit_cast<std::uint64_t>(sim.predicted_time));
  EXPECT_EQ(native.events, sim.events);
  EXPECT_EQ(native.per_process_finish, sim.per_process_finish);
}

}  // namespace
