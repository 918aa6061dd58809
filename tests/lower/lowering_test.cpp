// lower::ModelProgram: the shared lowering layer behind every backend.
// Differential coverage: for every registry workload both backends must
// observe the *same* lowering (pointer-equal when shared, count-equal
// when lowered independently) and predict bit-identically whether
// prepared from a model or from a shared lowering.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "prophet/analytic/analytic.hpp"
#include "prophet/analytic/backend.hpp"
#include "prophet/cgen/backend.hpp"
#include "prophet/estimator/backend.hpp"
#include "prophet/expr/compile.hpp"
#include "prophet/interp/interpreter.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/models/builtins.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/pipeline/batch.hpp"
#include "prophet/uml/builder.hpp"
#include "same_finish.hpp"

namespace analytic = prophet::analytic;
namespace cgen = prophet::cgen;
namespace estimator = prophet::estimator;
namespace interp = prophet::interp;
namespace lower = prophet::lower;
namespace machine = prophet::machine;
namespace models = prophet::models;
namespace uml = prophet::uml;

namespace {

machine::SystemParameters params_np(int np, int nodes = 1, int ppn = 1) {
  machine::SystemParameters params;
  params.processes = np;
  params.nodes = nodes;
  params.processors_per_node = ppn;
  return params;
}

// --- TagKind table -----------------------------------------------------------

TEST(TagKind, RoundTripsThroughNameAndBack) {
  for (std::size_t i = 0; i < lower::kTagKindCount; ++i) {
    const auto kind = static_cast<lower::TagKind>(i);
    const auto back = lower::tag_kind(lower::tag_name(kind));
    ASSERT_TRUE(back.has_value()) << lower::tag_name(kind);
    EXPECT_EQ(*back, kind);
  }
}

TEST(TagKind, UnknownTagNamesAreNotExpressionTags) {
  EXPECT_FALSE(lower::tag_kind("code").has_value());
  EXPECT_FALSE(lower::tag_kind("id").has_value());
  EXPECT_FALSE(lower::tag_kind("").has_value());
  EXPECT_FALSE(lower::tag_kind("costs").has_value());
}

TEST(TagKind, NamedAccessorsAliasTheTagArray) {
  const uml::Model model = models::sample_model();
  const auto program = lower::lower(model);
  for (const auto& diagram : model.diagrams()) {
    for (const auto& node : diagram->nodes()) {
      const lower::NodePrograms& programs = program->at(*node);
      EXPECT_EQ(&programs.cost(), &programs.tag(lower::TagKind::Cost));
      EXPECT_EQ(&programs.num_threads(),
                &programs.tag(lower::TagKind::NumThreads));
    }
  }
}

// --- ModelProgram structure --------------------------------------------------

/// The operation a node's kind and stereotype name, spelled out here
/// independently of lower.cpp's decoding table.
lower::Operation expected_operation(const uml::Node& node) {
  using lower::Operation;
  const std::string& stereotype = node.stereotype();
  switch (node.kind()) {
    case uml::NodeKind::Initial:
      return Operation::Initial;
    case uml::NodeKind::Final:
      return Operation::Final;
    case uml::NodeKind::Merge:
      return Operation::Merge;
    case uml::NodeKind::Decision:
      return Operation::Decision;
    case uml::NodeKind::Fork:
      return Operation::Fork;
    case uml::NodeKind::Join:
      return Operation::Join;
    case uml::NodeKind::Loop:
      return Operation::Loop;
    case uml::NodeKind::Activity:
      if (stereotype == "ompparallel") {
        return Operation::Region;
      }
      return stereotype == "ompcritical" ? Operation::Critical
                                         : Operation::Inline;
    case uml::NodeKind::Action:
      break;
  }
  if (stereotype.empty() || stereotype == "action+") {
    return Operation::Compute;
  }
  if (stereotype == "send") {
    return Operation::Send;
  }
  if (stereotype == "recv") {
    return Operation::Recv;
  }
  if (stereotype == "barrier") {
    return Operation::Barrier;
  }
  if (stereotype == "broadcast" || stereotype == "reduce" ||
      stereotype == "allreduce" || stereotype == "scatter" ||
      stereotype == "gather") {
    return Operation::Collective;
  }
  if (stereotype == "ompfor") {
    return Operation::OmpFor;
  }
  return stereotype == "ompbarrier" ? Operation::OmpBarrier
                                    : Operation::Unsupported;
}

/// Checks the lowered control-flow table of `model` against the UML
/// model it was lowered from: one entry per node in diagram order, each
/// node's operation, body diagram and successors (in edge order),
/// each diagram's initial node and step limit.
void expect_lowered_table(const std::string& name, const uml::Model& model) {
  const auto program = lower::lower(model);
  EXPECT_EQ(&program->model(), &model) << name;
  ASSERT_EQ(program->diagrams().size(), model.diagrams().size()) << name;
  EXPECT_EQ(program->diagrams()[static_cast<std::size_t>(program->entry())]
                .diagram,
            model.main_diagram())
      << name;
  std::size_t count = 0;
  for (std::size_t d = 0; d < model.diagrams().size(); ++d) {
    const uml::ActivityDiagram& diagram = *model.diagrams()[d];
    const lower::DiagramProgram& flow = program->diagrams()[d];
    EXPECT_EQ(flow.diagram, &diagram) << name;
    EXPECT_EQ(flow.step_limit, 1000000u + 1000u * diagram.node_count())
        << name;
    ASSERT_EQ(flow.nodes.size(), diagram.node_count()) << name;
    ASSERT_GE(flow.initial, 0) << name << " " << diagram.id();
    EXPECT_EQ(flow.nodes[static_cast<std::size_t>(flow.initial)].node,
              diagram.initial())
        << name;
    // A successor index names the node the edge's target id names.
    const auto node_at = [&flow](int index) -> const uml::Node* {
      return index < 0 ? nullptr
                       : flow.nodes[static_cast<std::size_t>(index)].node;
    };
    for (std::size_t i = 0; i < flow.nodes.size(); ++i) {
      const uml::Node& node = *diagram.nodes()[i];
      const lower::NodePrograms& lowered = flow.nodes[i];
      const std::string where = name + " node " + node.id();
      EXPECT_EQ(lowered.node, &node) << where;
      EXPECT_EQ(&program->at(node), &lowered) << where;
      EXPECT_GT(lowered.uid, 0) << where;
      EXPECT_EQ(lowered.op, expected_operation(node)) << where;
      EXPECT_NE(lowered.op, lower::Operation::Unsupported) << where;
      if (lowered.op == lower::Operation::Collective) {
        EXPECT_EQ(prophet::workload::to_string(lowered.collective),
                  node.stereotype())
            << where;
      }
      if (node.kind() == uml::NodeKind::Activity ||
          node.kind() == uml::NodeKind::Loop) {
        ASSERT_GE(lowered.body, 0) << where;
        EXPECT_EQ(program->diagrams()[static_cast<std::size_t>(lowered.body)]
                      .diagram,
                  model.diagram(node.subdiagram_id()))
            << where;
      } else {
        EXPECT_EQ(lowered.body, -1) << where;
      }
      EXPECT_TRUE(lowered.defect.empty()) << where << ": " << lowered.defect;
      std::vector<const uml::ControlFlow*> outgoing;
      for (const auto& edge : diagram.edges()) {
        if (edge->source() == node.id()) {
          outgoing.push_back(edge.get());
        }
      }
      if (lowered.op == lower::Operation::Decision ||
          lowered.op == lower::Operation::Fork) {
        ASSERT_EQ(lowered.branches.size(), outgoing.size()) << where;
        int first_else = -1;
        for (std::size_t k = 0; k < outgoing.size(); ++k) {
          const lower::Branch& branch = lowered.branches[k];
          EXPECT_EQ(branch.edge, outgoing[k]) << where;
          EXPECT_EQ(node_at(branch.target),
                    diagram.node(outgoing[k]->target()))
              << where;
          EXPECT_EQ(branch.guard != nullptr,
                    outgoing[k]->has_guard() && !outgoing[k]->is_else())
              << where;
          EXPECT_EQ(branch.is_else, outgoing[k]->is_else()) << where;
          if (outgoing[k]->is_else() && first_else < 0) {
            first_else = static_cast<int>(k);
          }
        }
        if (lowered.op == lower::Operation::Decision) {
          EXPECT_EQ(lowered.fallback, first_else) << where;
        }
      } else {
        ASSERT_LE(outgoing.size(), 1u) << where;
        EXPECT_EQ(node_at(lowered.next),
                  outgoing.empty() ? nullptr
                                   : diagram.node(outgoing[0]->target()))
            << where;
        EXPECT_TRUE(lowered.branches.empty()) << where;
      }
      ++count;
    }
  }
  EXPECT_EQ(program->stats().nodes, count) << name;
  // np/nt/nn/ppn occupy the first slots of every model's slot space.
  EXPECT_GE(program->slot_count(), 4u) << name;
  EXPECT_EQ(program->stats().slots, program->slot_count()) << name;
}

TEST(ModelProgram, CoversEveryNodeOfEveryDiagram) {
  for (const auto& entry : models::Registry::builtin().entries()) {
    expect_lowered_table("@" + entry.name, entry.make());
  }
  expect_lowered_table("sample", models::sample_model());

  // A decision's guarded edges keep edge order around interleaved
  // `else` edges; the first `else` edge is the fallback.
  uml::ModelBuilder mb("Guards");
  mb.global("X", uml::VariableType::Real, "2");
  uml::DiagramBuilder d = mb.diagram("main");
  const uml::NodeRef init = d.initial();
  const uml::NodeRef decision = d.decision("D");
  const uml::NodeRef merge = d.merge("M");
  const uml::NodeRef fin = d.final_node();
  std::vector<uml::NodeRef> arms;
  for (int k = 0; k < 4; ++k) {
    arms.push_back(d.action("A" + std::to_string(k)).cost("1"));
    d.flow(arms.back(), merge);
  }
  d.flow(init, decision);
  d.flow(decision, arms[0], "X > 3");
  d.flow(decision, arms[1], "else");
  d.flow(decision, arms[2], "X > 1");
  d.flow(decision, arms[3], "else");
  d.flow(merge, fin);
  const uml::Model guards = std::move(mb).build_unchecked();
  expect_lowered_table("guards", guards);
  const auto program = lower::lower(guards);
  const lower::NodePrograms& lowered = program->at(decision.node());
  ASSERT_EQ(lowered.branches.size(), 4u);
  EXPECT_NE(lowered.branches[0].guard, nullptr);
  EXPECT_EQ(lowered.branches[1].guard, nullptr);
  EXPECT_NE(lowered.branches[2].guard, nullptr);
  EXPECT_EQ(lowered.branches[3].guard, nullptr);
  EXPECT_EQ(lowered.fallback, 1);
}

TEST(ModelProgram, ForeignNodeIsRejected) {
  const auto program = lower::lower(models::sample_model());
  const uml::Model other = models::sample_model();
  const uml::Node& foreign = **other.main_diagram()->nodes().begin();
  EXPECT_THROW((void)program->at(foreign), std::out_of_range);
}

TEST(ModelProgram, UidOfMatchesInterpreterAndRejectsUnknownIds) {
  const uml::Model model = models::sample_model();
  const auto program = lower::lower(model);
  const interp::Interpreter interpreter(model);
  for (const auto& diagram : model.diagrams()) {
    for (const auto& node : diagram->nodes()) {
      EXPECT_EQ(program->uid_of(node->id()), interpreter.uid_of(node->id()));
    }
  }
  EXPECT_THROW((void)program->uid_of("zz"), lower::LowerError);
}

TEST(ModelProgram, OwningLowerKeepsTheModelAlive) {
  lower::ModelProgramPtr program = lower::lower(models::sample_model());
  // The temporary is gone; the program's model reference must not dangle.
  EXPECT_NE(program->model().main_diagram(), nullptr);
  EXPECT_GT(program->stats().nodes, 0u);
  EXPECT_GT(program->stats().expr_programs, 0u);
  EXPECT_GT(program->stats().bytecode_bytes, 0u);
}

TEST(ModelProgram, LoweringErrorsCarryTheBackendMessageText) {
  uml::ModelBuilder mb("bad");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef a = d.action("A").cost("1 +");
  uml::NodeRef fin = d.final_node();
  d.sequence({init, a, fin});
  const std::string node_id = a.id();
  const uml::Model model = std::move(mb).build();
  try {
    (void)lower::lower(model);
    FAIL() << "expected LowerError";
  } catch (const lower::LowerError& error) {
    // The same text InterpretError/AnalyticError carried before the
    // shared layer existed — wrapping preserves what() verbatim.
    EXPECT_NE(
        std::string(error.what()).find("tag 'cost' of node " + node_id),
        std::string::npos)
        << error.what();
  }
}

TEST(ModelProgram, ProblemsKeepTheirOrder) {
  // One defect of each kind, declared out of problem order: the repeated
  // name before the broken body, functions before the variable, and the
  // bad guard in a later diagram than the bad tag.
  uml::ModelBuilder mb("EveryDefect");
  mb.function("F", {}, "0.001");
  mb.function("F", {}, "0.002");
  mb.function("H", {}, "2 *");
  mb.global("G", uml::VariableType::Real, "(1");
  uml::DiagramBuilder main = mb.diagram("main");
  uml::DiagramBuilder side = mb.diagram("side");
  uml::NodeRef tag = main.action("A").cost("1 +");
  uml::NodeRef fragment = main.action("B").code("x == 1");
  uml::NodeRef body = main.activity("Missing", "no-such-diagram");
  uml::NodeRef again = main.activity("Again", main);
  main.sequence({main.initial(), tag, fragment, body, again,
                 main.final_node()});
  uml::NodeRef choose = side.decision("Choose");
  uml::NodeRef done = side.final_node();
  side.sequence({side.initial(), choose});
  const std::string edge = side.flow(choose, done, "np <").edge().id();
  side.flow(choose, done, "else");
  uml::Model model = std::move(mb).build_unchecked();
  model.set_main_diagram("no-such-diagram");

  const lower::ModelProgram program(model);
  std::vector<lower::ProblemKind> kinds;
  std::vector<std::string> wheres;
  for (const lower::Problem& problem : program.problems()) {
    kinds.push_back(problem.kind);
    wheres.push_back(problem.message.substr(0, problem.message.find(':')));
  }
  using Kind = lower::ProblemKind;
  EXPECT_EQ(kinds, (std::vector<Kind>{Kind::Initializer, Kind::Function,
                                      Kind::Guard, Kind::Tag, Kind::Fragment,
                                      Kind::Body, Kind::MainDiagram,
                                      Kind::DuplicateFunction,
                                      Kind::Nesting}));
  EXPECT_EQ(wheres,
            (std::vector<std::string>{
                "initializer of variable G", "cost function H",
                "guard of edge " + edge, "tag 'cost' of node " + tag.id(),
                "code fragment at node " + fragment.id(),
                "node " + body.id() +
                    " references unknown diagram 'no-such-diagram'",
                "model has no resolvable main diagram", "cost function F",
                "diagram " + main.id()}));
  try {
    (void)lower::lower(model);
    FAIL() << "lowered a model with every kind of defect";
  } catch (const lower::LowerError& error) {
    EXPECT_EQ(std::string(error.what()), program.problems().front().message);
  }
}

// --- Cost functions ---------------------------------------------------------

/// Cost functions F (0.001), F (0.002) and G (0.003), and one action
/// costing G(): the second F repeats a name.
uml::Model repeated_function_model() {
  uml::ModelBuilder mb("RepeatedFunction");
  mb.function("F", {}, "0.001");
  mb.function("F", {}, "0.002");
  mb.function("G", {}, "0.003");
  uml::DiagramBuilder main = mb.diagram("main");
  main.sequence({main.initial(), main.action("Work").cost("G()"),
                 main.final_node()});
  return std::move(mb).build_unchecked();
}

TEST(CostFunctions, RepeatedNameIsAProblemAndIdsKeepTheirBodies) {
  // A function id names a function by its first declaration, and so does
  // the body at that id: G() reaches G's body, not the second F's.
  const uml::Model model = repeated_function_model();
  const lower::ModelProgram program(model);
  ASSERT_EQ(program.problems().size(), 1u);
  const lower::Problem& problem = program.problems().front();
  EXPECT_EQ(problem.kind, lower::ProblemKind::DuplicateFunction);
  EXPECT_EQ(problem.function, &model.cost_functions()[1]);
  EXPECT_EQ(problem.message, "cost function F: duplicate cost-function name");
  EXPECT_EQ(problem.detail, "duplicate cost-function name");
  ASSERT_EQ(program.functions().size(), 2u);
  EXPECT_EQ(program.function_id("F"), 0);
  EXPECT_EQ(program.function_id("G"), 1);
  const prophet::expr::EvalContext ctx;
  EXPECT_EQ(program.functions()[0].eval(ctx), 0.001);
  EXPECT_EQ(program.functions()[1].eval(ctx), 0.003);
  // Each declaration keeps its own body for the checker.
  EXPECT_EQ(program.declared_function(0).eval(ctx), 0.001);
  EXPECT_EQ(program.declared_function(1).eval(ctx), 0.002);
  EXPECT_EQ(program.declared_function(2).eval(ctx), 0.003);
  try {
    (void)lower::lower(model);
    FAIL() << "lowered a repeated cost-function name";
  } catch (const lower::LowerError& error) {
    EXPECT_EQ(std::string(error.what()),
              "cost function F: duplicate cost-function name");
  }
}

TEST(CostFunctions, UncheckedSweepFailsOnARepeatedName) {
  // Without the checker every engine's job fails with the lowering's
  // text; none prices G() with the second F's body.
  prophet::pipeline::BatchOptions options;
  options.threads = 1;
  options.run_checker = false;
  options.backend = estimator::BackendKind::All;
  prophet::pipeline::BatchRunner runner(options);
  runner.add_model("repeated", repeated_function_model());
  runner.add_scenario(0, params_np(1));
  runner.add_scenario(0, params_np(2, 1, 2));
  const auto report = runner.run();
  ASSERT_EQ(report.results.size(), 2u);
  for (const auto& result : report.results) {
    EXPECT_FALSE(result.ok);
    EXPECT_NE(
        result.error.find(": cost function F: duplicate cost-function name"),
        std::string::npos)
        << result.error;
  }
}

// --- One lowering behind every backend ---------------------------------------

TEST(SharedLowering, BothBackendsConsumeTheSameProgramInstance) {
  for (const auto& entry : models::Registry::builtin().entries()) {
    const uml::Model model = entry.make();
    const lower::ModelProgramPtr program = lower::lower(model);
    const auto sim = analytic::SimulationBackend().prepare(program);
    const auto ana = analytic::AnalyticBackend().prepare(program);
    // The API contract of the redesign: backends do not lower, so a
    // future backend shares this exact instance too.
    EXPECT_EQ(sim->lowering().get(), program.get()) << entry.name;
    EXPECT_EQ(ana->lowering().get(), program.get()) << entry.name;
  }
}

TEST(SharedLowering, IndependentPreparesReportIdenticalCounts) {
  for (const auto& entry : models::Registry::builtin().entries()) {
    const uml::Model model = entry.make();
    const auto sim = analytic::SimulationBackend().prepare(model);
    const auto ana = analytic::AnalyticBackend().prepare(model);
    const lower::LoweringStats& a = sim->lowering()->stats();
    const lower::LoweringStats& b = ana->lowering()->stats();
    EXPECT_EQ(a.expr_programs, b.expr_programs) << entry.name;
    EXPECT_EQ(a.nodes, b.nodes) << entry.name;
    EXPECT_EQ(a.slots, b.slots) << entry.name;
    EXPECT_EQ(a.bytecode_bytes, b.bytecode_bytes) << entry.name;
    // And both agree with a third, direct lowering.
    const auto direct = lower::lower(model);
    EXPECT_EQ(a.nodes, direct->stats().nodes) << entry.name;
    EXPECT_EQ(a.slots, direct->stats().slots) << entry.name;
    EXPECT_EQ(a.expr_programs, direct->stats().expr_programs) << entry.name;
    EXPECT_EQ(a.bytecode_bytes, direct->stats().bytecode_bytes) << entry.name;
  }
}

TEST(SharedLowering, PredictionsAreBitIdenticalToPerBackendLowering) {
  for (const auto& entry : models::Registry::builtin().entries()) {
    const uml::Model model = entry.make();
    const lower::ModelProgramPtr program = lower::lower(model);
    const auto params = entry.default_params;
    for (const estimator::BackendKind kind :
         {estimator::BackendKind::Simulation,
          estimator::BackendKind::Analytic}) {
      const auto backend = cgen::make_backend(kind);
      const auto shared = backend->prepare(program);
      const auto own = backend->prepare(model);
      const auto from_shared = shared->estimate(params);
      const auto from_own = own->estimate(params);
      EXPECT_EQ(from_shared.predicted_time, from_own.predicted_time)
          << entry.name << " @ " << estimator::to_string(kind);
      EXPECT_EQ(from_shared.events, from_own.events) << entry.name;
      EXPECT_TRUE(prophet::testing::same_finish(from_shared.per_process_finish,
                                                from_own.per_process_finish))
          << entry.name;
    }
  }
}

TEST(SharedLowering, EstimatorConstructedFromSharedLoweringMatchesDirect) {
  const uml::Model model = models::kernel6_model(64, 16, 1e-8);
  const auto program = lower::lower(model);
  const analytic::AnalyticEstimator from_program(program);
  const analytic::AnalyticEstimator from_model(model);
  EXPECT_EQ(from_program.lowering().get(), program.get());
  const auto params = params_np(4, 2, 2);
  EXPECT_EQ(from_program.evaluate(params).predicted_time,
            from_model.evaluate(params).predicted_time);
  EXPECT_EQ(from_program.lowering()->stats().expr_programs,
            from_model.lowering()->stats().expr_programs);
}

TEST(SharedLowering, NullProgramsAreRejected) {
  EXPECT_THROW(analytic::AnalyticEstimator(lower::ModelProgramPtr()),
               analytic::AnalyticError);
  EXPECT_THROW((void)analytic::SimulationBackend().prepare(
                   lower::ModelProgramPtr()),
               interp::InterpretError);
}

// --- Diagram nesting ---------------------------------------------------------

/// A main diagram running a 1 s action, then an activity over itself.
uml::Model self_nesting() {
  uml::ModelBuilder mb("SelfNesting");
  uml::DiagramBuilder main = mb.diagram("main");
  main.sequence({main.initial(), main.action("A").cost("1"),
                 main.activity("Again", main), main.final_node()});
  return std::move(mb).build_unchecked();
}

TEST(DiagramNesting, SelfNestingActivityIsRejected) {
  const uml::Model model = self_nesting();
  const std::string main = model.diagrams()[0]->id();
  try {
    (void)lower::lower(model);
    FAIL() << "lowered a diagram that nests itself";
  } catch (const lower::LowerError& error) {
    EXPECT_EQ(std::string(error.what()),
              "diagram " + main + ": cyclic diagram nesting via '" + main +
                  "'");
  }
}

TEST(DiagramNesting, CycleThroughALoopAndAnActivityIsRejected) {
  uml::ModelBuilder mb("TwoDiagramCycle");
  uml::DiagramBuilder main = mb.diagram("main");
  uml::DiagramBuilder body = mb.diagram("body");
  main.sequence({main.initial(), main.loop("L", body, "2"),
                 main.final_node()});
  body.sequence({body.initial(), body.activity("Back", main),
                 body.final_node()});
  const uml::Model model = std::move(mb).build_unchecked();
  try {
    (void)lower::lower(model);
    FAIL() << "lowered a cycle of diagram nesting";
  } catch (const lower::LowerError& error) {
    EXPECT_EQ(std::string(error.what()),
              "diagram " + body.id() + ": cyclic diagram nesting via '" +
                  main.id() + "'");
  }
}

TEST(DiagramNesting, UncheckedSweepFailsItsJobs) {
  // Without the checker, the lowering stops the model before any engine
  // walks it: every job fails with the one text.
  prophet::pipeline::BatchOptions options;
  options.threads = 1;
  options.run_checker = false;
  options.backend = estimator::BackendKind::All;
  prophet::pipeline::BatchRunner runner(options);
  runner.add_model("self", self_nesting());
  runner.add_scenario(0, params_np(1));
  runner.add_scenario(0, params_np(2, 1, 2));
  const auto report = runner.run();
  ASSERT_EQ(report.results.size(), 2u);
  for (const auto& result : report.results) {
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("cyclic diagram nesting"), std::string::npos)
        << result.error;
  }
}

}  // namespace
