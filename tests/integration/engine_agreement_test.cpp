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
#include "same_finish.hpp"

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
  // A cost reading one.
  cases.push_back(malformed([](uml::ModelBuilder&, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    const uml::NodeRef a = d.action("A").cost("Q + 1");
    d.flow(a, fin);
    return Parts{a, "node " + a.id() + ", tag 'cost': unknown variable 'Q'"};
  }));
  // Names bound elsewhere: a global initialized from a later global or
  // from a local, and a cost-function body reading a local.
  cases.push_back(malformed([](uml::ModelBuilder& mb, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    mb.global("G", uml::VariableType::Real, "H + 1");
    mb.global("H", uml::VariableType::Real, "1");
    const uml::NodeRef a = d.action("A").cost("1");
    d.flow(a, fin);
    return Parts{a, "initializer of variable G: unknown variable 'H'"};
  }));
  cases.push_back(malformed([](uml::ModelBuilder& mb, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    mb.local("L", uml::VariableType::Real, "1");
    mb.global("G", uml::VariableType::Real, "L + 1");
    const uml::NodeRef a = d.action("A").cost("1");
    d.flow(a, fin);
    return Parts{a, "initializer of variable G: unknown variable 'L'"};
  }));
  cases.push_back(malformed([](uml::ModelBuilder& mb, uml::DiagramBuilder& d,
                               const uml::NodeRef& fin) {
    mb.local("L", uml::VariableType::Real, "1");
    mb.function("F", {}, "L + 1");
    const uml::NodeRef a = d.action("A").cost("F()");
    d.flow(a, fin);
    return Parts{a, "node " + a.id() + ", tag 'cost': unknown variable 'L'"};
  }));
  expect_one_text(cases);
}

/// A model whose main diagram runs one action `name` with cost `cost`
/// after `declare` added what the cost reads.
template <typename Declare>
uml::Model one_action(const std::string& name, const std::string& cost,
                      Declare declare) {
  uml::ModelBuilder mb("OneAction");
  declare(mb);
  uml::DiagramBuilder d = mb.diagram("main");
  d.sequence({d.initial(), d.action(name).cost(cost), d.final_node()});
  return std::move(mb).build_unchecked();
}

TEST(EngineAgreement, GeneratedCodeBindsAndCallsLikeTheVm) {
  // Where a printer can part from the VM: integer variables a long
  // cannot hold, names C++ or the unit itself takes, calls with too few
  // or too many arguments, recursion, an unstructured while-loop and
  // labelled walks with forks, loops and regions.  The generated
  // evaluator predicts the simulator's bits on each.
  using uml::VariableType;
  std::vector<std::pair<std::string, uml::Model>> models;
  models.emplace_back("integer 1e300",
                      one_action("A", "K > 1e299 ? 1 : 2", [](auto& mb) {
                        mb.global("K", VariableType::Integer, "1e300");
                      }));
  models.emplace_back("integer NaN",
                      one_action("A", "K != K ? 1 : 2", [](auto& mb) {
                        mb.global("K", VariableType::Integer, "0 / 0");
                      }));
  models.emplace_back("global pid", one_action("A", "pid", [](auto& mb) {
                        mb.global("pid", VariableType::Real, "7");
                      }));
  for (const char* name : {"T", "ctx", "int"}) {
    models.emplace_back(std::string("global ") + name,
                        one_action("T", name, [name](auto& mb) {
                          mb.global(name, VariableType::Real, "1");
                        }));
  }
  models.emplace_back("missing argument",
                      one_action("A", "F(1)", [](auto& mb) {
                        mb.function("F", {"a", "b"}, "a + b + 1");
                      }));
  models.emplace_back("extra argument",
                      one_action("A", "F(1, 2)", [](auto& mb) {
                        mb.function("F", {"a"}, "a + 1");
                      }));
  models.emplace_back("recursion", one_action("A", "F(3)", [](auto& mb) {
                        mb.function("F", {"n"}, "n > 0 ? F(n - 1) : 1");
                      }));
  {
    // A merge, an action adding 0.25 to X, and a decision back to the
    // merge while X < 1.
    uml::ModelBuilder mb("WhileLoop");
    mb.global("X", VariableType::Real, "0");
    uml::DiagramBuilder d = mb.diagram("main");
    const uml::NodeRef init = d.initial();
    const uml::NodeRef merge = d.merge("M");
    const uml::NodeRef a = d.action("A").cost("0.001").code("X = X + 0.25;");
    const uml::NodeRef decision = d.decision("D");
    const uml::NodeRef fin = d.final_node();
    d.sequence({init, merge, a, decision});
    d.flow(decision, merge, "X < 1");
    d.flow(decision, fin, "else");
    models.emplace_back("while-loop", std::move(mb).build_unchecked());
  }
  {
    // Labelled walks with forks: a fork whose first branch decides
    // straight into the join, and a nested fork, run twice by a cycle.
    uml::ModelBuilder mb("LabelledForks");
    mb.local("R", VariableType::Real, "0");
    uml::DiagramBuilder d = mb.diagram("main");
    const uml::NodeRef init = d.initial();
    const uml::NodeRef merge = d.merge("M");
    const uml::NodeRef fork = d.fork("F");
    const uml::NodeRef decision = d.decision("D");
    const uml::NodeRef a = d.action("A").cost("1");
    const uml::NodeRef inner = d.fork("F2");
    const uml::NodeRef b = d.action("B").cost("2");
    const uml::NodeRef c = d.action("C").cost("0.5 * (pid + 1)");
    const uml::NodeRef inner_join = d.join("J2");
    const uml::NodeRef join = d.join("J");
    const uml::NodeRef count = d.action("Count").cost("0").code("R = R + 1;");
    const uml::NodeRef again = d.decision("Again");
    const uml::NodeRef fin = d.final_node();
    d.sequence({init, merge, fork});
    d.flow(fork, decision);
    d.flow(fork, inner);
    d.flow(decision, join, "pid > 0");
    d.flow(decision, a, "else");
    d.flow(a, join);
    d.flow(inner, b);
    d.flow(inner, c);
    d.flow(b, inner_join);
    d.flow(c, inner_join);
    d.flow(inner_join, join);
    d.sequence({join, count, again});
    d.flow(again, merge, "R < 2");
    d.flow(again, fin, "else");
    models.emplace_back("labelled forks", std::move(mb).build_unchecked());
  }
  {
    // A labelled body inside a loop, reading the loop variable and a
    // local, and one inside a parallel region, reading tid.
    uml::ModelBuilder mb("LabelledBodies");
    mb.local("C", VariableType::Real, "0");
    uml::DiagramBuilder counted = mb.diagram("counted");
    const uml::NodeRef cinit = counted.initial();
    const uml::NodeRef cmerge = counted.merge("M");
    const uml::NodeRef work =
        counted.action("W").cost("0.001 * k + 0.01").code("C = C + 1;");
    const uml::NodeRef more = counted.decision("More");
    const uml::NodeRef cfin = counted.final_node();
    counted.sequence({cinit, cmerge, work, more});
    counted.flow(more, cmerge, "C < 2 * (k + 1)");
    counted.flow(more, cfin, "else");
    uml::DiagramBuilder team = mb.diagram("team");
    const uml::NodeRef tinit = team.initial();
    const uml::NodeRef tmerge = team.merge("TM");
    const uml::NodeRef step = team.action("S").cost("0.001 * (tid + 1)");
    const uml::NodeRef spin = team.decision("Spin");
    const uml::NodeRef tfin = team.final_node();
    team.sequence({tinit, tmerge, step, spin});
    team.flow(spin, tmerge, "tid > 5");
    team.flow(spin, tfin, "else");
    uml::DiagramBuilder main = mb.diagram("main");
    main.sequence({main.initial(), main.loop("L", counted, "3", "k"),
                   main.omp_parallel("R", team, "3"), main.final_node()});
    uml::Model model = std::move(mb).build_unchecked();
    model.set_main_diagram(main.id());
    models.emplace_back("labelled bodies", std::move(model));
  }
  prophet::estimator::EstimationOptions options;
  options.collect_trace = false;
  options.collect_machine_report = false;
  for (const auto& [name, model] : models) {
    const auto program = prophet::lower::lower(model);
    const auto simulator = analytic::SimulationBackend().prepare(program);
    const auto generated = prophet::cgen::CodegenBackend().prepare(program);
    for (int np = 1; np <= 4; ++np) {
      for (int nodes = 1; nodes <= 2; ++nodes) {
        for (int ppn = 1; ppn <= 2; ++ppn) {
          prophet::machine::SystemParameters params;
          params.processes = np;
          params.nodes = nodes;
          params.processors_per_node = ppn;
          const auto expected = simulator->estimate(params, options);
          const auto actual = generated->estimate(params, options);
          const std::string point = name + " at np=" + std::to_string(np) +
                                    " nodes=" + std::to_string(nodes) +
                                    " ppn=" + std::to_string(ppn);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.predicted_time),
                    std::bit_cast<std::uint64_t>(expected.predicted_time))
              << point;
          EXPECT_EQ(actual.events, expected.events) << point;
          EXPECT_TRUE(prophet::testing::same_finish(
              actual.per_process_finish, expected.per_process_finish))
              << point;
        }
      }
    }
  }
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
  EXPECT_TRUE(prophet::testing::same_finish(native.per_process_finish,
                                            sim.per_process_finish));
}

}  // namespace
