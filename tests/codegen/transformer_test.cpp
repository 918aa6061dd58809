// Code generator: Fig. 4 mapping, Fig. 5 stages, structured control flow,
// identifier sanitization, error handling.
#include <gtest/gtest.h>

#include "prophet/codegen/transformer.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/prophet.hpp"

namespace codegen = prophet::codegen;
namespace lower = prophet::lower;
namespace uml = prophet::uml;

namespace {

const codegen::Transformer kTransformer;

/// The lowering the stages read (it owns the model).
lower::ModelProgramPtr lowered(uml::Model model) {
  return lower::lower(std::move(model));
}

TEST(Sanitize, Identifiers) {
  EXPECT_EQ(codegen::sanitize_identifier("Kernel6"), "Kernel6");
  EXPECT_EQ(codegen::sanitize_identifier("Kernel 6"), "Kernel_6");
  EXPECT_EQ(codegen::sanitize_identifier("a-b.c"), "a_b_c");
  EXPECT_EQ(codegen::sanitize_identifier("6pack"), "e_6pack");
  EXPECT_EQ(codegen::sanitize_identifier(""), "e_");
}

TEST(Fig4, Kernel6Mapping) {
  // Fig. 4: the element Kernel6 maps to an ActionPlus instance whose
  // execute() receives the cost function FK6.
  const uml::Model model = prophet::models::kernel6_model(100, 10, 1e-9);
  const std::string cpp = kTransformer.transform(model);
  EXPECT_NE(cpp.find("ActionPlus Kernel6(ctx, \"Kernel6\");"),
            std::string::npos)
      << cpp;
  EXPECT_NE(cpp.find("Kernel6.execute("), std::string::npos);
  EXPECT_NE(cpp.find("FK6());"), std::string::npos);
  EXPECT_NE(cpp.find("double FK6() { return"), std::string::npos);
}

TEST(Fig5, SelectionFindsAllStereotypedElements) {
  const auto program = lowered(prophet::models::sample_model());
  const auto elements = kTransformer.select_performance_elements(*program);
  // SA1, SA2, A1, SA (activity), A2, A4.
  EXPECT_EQ(elements.size(), 6u);
  for (const auto* element : elements) {
    EXPECT_TRUE(element->node->has_stereotype());
  }
}

TEST(Fig5, GlobalsStage) {
  const std::string globals =
      kTransformer.emit_globals(*lowered(prophet::models::sample_model()));
  EXPECT_NE(globals.find("double GV = 0;"), std::string::npos);
  EXPECT_NE(globals.find("double P = 0;"), std::string::npos);
}

TEST(Fig5, IntegerGlobalsHoldTruncatedDoubles) {
  // As in the VM: a long holds neither 1e300 nor NaN.
  const auto program = lowered(prophet::models::kernel6_model(64, 4, 1e-9));
  const std::string globals = kTransformer.emit_globals(*program);
  EXPECT_NE(globals.find("double N = 0;"), std::string::npos);
  EXPECT_NE(globals.find("double M = 0;"), std::string::npos);
  EXPECT_NE(globals.find("double c = 0;"), std::string::npos);
  EXPECT_EQ(globals.find("long"), std::string::npos);

  uml::ModelBuilder mb("M");
  mb.global("P", uml::VariableType::Real, "3");
  mb.global("K", uml::VariableType::Integer, "P / 2");
  uml::DiagramBuilder d = mb.diagram("main");
  d.sequence({d.initial(), d.action("A").cost("1").code("K = K + 0.5;"),
              d.final_node()});
  const std::string cpp =
      kTransformer.transform(*lowered(std::move(mb).build_unchecked()));
  EXPECT_NE(cpp.find("K = std::trunc(P / 2.0);"), std::string::npos) << cpp;
  EXPECT_NE(cpp.find("K = std::trunc(K + 0.5);"), std::string::npos);
}

TEST(Fig5, CostFunctionStageOrdersDependencies) {
  uml::ModelBuilder mb("M");
  // Declared caller-first; emission must flip the order.
  mb.function("Caller", {}, "Callee() * 2");
  mb.function("Callee", {}, "0.5");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fin = d.final_node();
  d.flow(init, fin);
  const std::string functions =
      kTransformer.emit_cost_functions(*lowered(std::move(mb).build()));
  const auto callee_pos = functions.find("double Callee");
  const auto caller_pos = functions.find("double Caller");
  ASSERT_NE(callee_pos, std::string::npos);
  ASSERT_NE(caller_pos, std::string::npos);
  EXPECT_LT(callee_pos, caller_pos);
}

TEST(Fig5, CyclicCostFunctionsAreDeclaredFirst) {
  // A call cycle prints as it runs in the VM: each function counts its
  // call depth and raises the VM's text one call past the limit.
  uml::ModelBuilder mb("M");
  mb.function("F", {}, "G()");
  mb.function("G", {}, "F()");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fin = d.final_node();
  d.flow(init, fin);
  const std::string functions =
      kTransformer.emit_cost_functions(*lowered(std::move(mb).build()));
  const auto declared = functions.find("double F(unsigned depth);");
  const auto defined = functions.find("double F(unsigned depth) {");
  ASSERT_NE(declared, std::string::npos) << functions;
  ASSERT_NE(defined, std::string::npos) << functions;
  EXPECT_LT(declared, defined);
  EXPECT_NE(functions.find("return G(depth + 1);"), std::string::npos);
  EXPECT_NE(functions.find("cost-function call depth exceeded (cycle?)"),
            std::string::npos);
}

TEST(Fig5, ParameterizedFunctions) {
  uml::ModelBuilder mb("M");
  mb.function("F", {"pid", "x"}, "pid * x");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fin = d.final_node();
  d.flow(init, fin);
  const std::string functions =
      kTransformer.emit_cost_functions(*lowered(std::move(mb).build()));
  EXPECT_NE(functions.find("double F(double pid, double x)"),
            std::string::npos);
}

TEST(Fig5, LocalsStage) {
  uml::ModelBuilder mb("M");
  mb.local("L", uml::VariableType::Real, "2.5");
  mb.local("K", uml::VariableType::Integer);
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fin = d.final_node();
  d.flow(init, fin);
  const std::string locals =
      kTransformer.emit_locals(*lowered(std::move(mb).build()));
  EXPECT_NE(locals.find("double L = 2.5;"), std::string::npos);
  EXPECT_NE(locals.find("double K = 0.0;"), std::string::npos);
}

TEST(Fig5, DeclarationStageUsesRuntimeClasses) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef a = d.action("A").cost("1");
  uml::NodeRef s = d.send("S", "1", "8");
  uml::NodeRef r = d.recv("R", "0", "8");
  uml::NodeRef bar = d.barrier("Bar");
  uml::NodeRef red = d.reduce("Red", "0", "8");
  uml::NodeRef fin = d.final_node();
  d.sequence({init, a, s, r, bar, red, fin});
  const std::string decls =
      kTransformer.emit_declarations(*lowered(std::move(mb).build()));
  EXPECT_NE(decls.find("ActionPlus A(ctx, \"A\");"), std::string::npos);
  EXPECT_NE(decls.find("SendElement S(ctx, \"S\");"), std::string::npos);
  EXPECT_NE(decls.find("RecvElement R(ctx, \"R\");"), std::string::npos);
  EXPECT_NE(decls.find("BarrierElement Bar(ctx, \"Bar\");"),
            std::string::npos);
  EXPECT_NE(decls.find("CollectiveElement Red(ctx, \"Red\", "
                       "prophet::workload::CollectiveKind::Reduce);"),
            std::string::npos);
}

TEST(Fig5, DuplicateNamesDisambiguated) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef a = d.action("X").cost("1");
  uml::NodeRef b = d.action("X").cost("2");
  uml::NodeRef fin = d.final_node();
  d.sequence({init, a, b, fin});
  const std::string decls =
      kTransformer.emit_declarations(*lowered(std::move(mb).build()));
  EXPECT_NE(decls.find("ActionPlus X(ctx"), std::string::npos);
  EXPECT_NE(decls.find("ActionPlus X_n3(ctx"), std::string::npos) << decls;
}

TEST(Flow, LoopBecomesForStatement) {
  const std::string flow = kTransformer.emit_flow(
      *lowered(prophet::models::kernel6_detailed_model(10, 2, 1e-9)));
  // loop_trips evaluates the bound once and truncates it; the loop
  // variable is the trip index, as in the engines.
  EXPECT_NE(flow.find("for (const double L : loop_trips(M, \"n11\")) {"),
            std::string::npos)
      << flow;
}

TEST(Flow, TriangularLoopBound) {
  const uml::Model model =
      prophet::models::kernel6_detailed_model(10, 2, 1e-9);
  const std::string cpp = kTransformer.transform(model);
  EXPECT_NE(cpp.find("i2 + 1.0"), std::string::npos) << cpp;
}

TEST(Flow, ForkBecomesForkJoin) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef fork = d.fork();
  uml::NodeRef a = d.action("A").cost("1");
  uml::NodeRef b = d.action("B").cost("2");
  uml::NodeRef join = d.join();
  uml::NodeRef fin = d.final_node();
  d.flow(init, fork);
  d.flow(fork, a);
  d.flow(fork, b);
  d.flow(a, join);
  d.flow(b, join);
  d.flow(join, fin);
  const std::string flow =
      kTransformer.emit_flow(*lowered(std::move(mb).build()));
  // Named branch lambdas outlive the spawned branches, which are joined
  // in order.
  EXPECT_NE(flow.find("branches[1] = spawn(ctx, branch1());"),
            std::string::npos)
      << flow;
  EXPECT_NE(flow.find("co_await branch;"), std::string::npos);
  EXPECT_NE(flow.find("[&]() -> prophet::sim::Process {"),
            std::string::npos);
}

TEST(Flow, DecisionWithoutElseGetsRuntimeGuardError) {
  uml::ModelBuilder mb("M");
  mb.global("X", uml::VariableType::Real);
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef dec = d.decision("Choice");
  uml::NodeRef a = d.action("A").cost("1");
  uml::NodeRef b = d.action("B").cost("2");
  uml::NodeRef merge = d.merge();
  uml::NodeRef fin = d.final_node();
  d.flow(init, dec);
  d.flow(dec, a, "X > 0");
  d.flow(dec, b, "X < 0");
  d.flow(a, merge);
  d.flow(b, merge);
  d.flow(merge, fin);
  const std::string flow =
      kTransformer.emit_flow(*lowered(std::move(mb).build()));
  EXPECT_NE(flow.find("} else if (X < 0.0) {"), std::string::npos) << flow;
  EXPECT_NE(flow.find("throw_error(\"decision n2: no guard holds and no "
                      "'else' edge\");"),
            std::string::npos)
      << flow;
}

TEST(Flow, OmpParallelEmitsRegionLambda) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder body = mb.diagram("body");
  uml::NodeRef binit = body.initial();
  uml::NodeRef w = body.omp_for("W", "100", "0.001");
  uml::NodeRef bfin = body.final_node();
  body.sequence({binit, w, bfin});
  uml::DiagramBuilder main = mb.diagram("main");
  uml::NodeRef init = main.initial();
  uml::NodeRef region = main.omp_parallel("R", body, "nt");
  uml::NodeRef fin = main.final_node();
  main.sequence({init, region, fin});
  uml::Model model = std::move(mb).build();
  model.set_main_diagram(main.id());
  const std::string cpp = kTransformer.transform(model);
  EXPECT_NE(cpp.find("parallel_region(ctx, static_cast<int>(nt)"),
            std::string::npos)
      << cpp;
  // The workshare element is declared inside the lambda (thread context),
  // not at function scope.
  const auto lambda_pos = cpp.find("[&](prophet::workload::ModelContext");
  const auto decl_pos = cpp.find("WorkshareElement W(ctx, \"W\");");
  ASSERT_NE(lambda_pos, std::string::npos);
  ASSERT_NE(decl_pos, std::string::npos);
  EXPECT_GT(decl_pos, lambda_pos);
}

TEST(Flow, UidVariableSubstitutedWithLiteral) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef a = d.action("A").cost("uid * 0.001");
  uml::NodeRef fin = d.final_node();
  d.sequence({init, a, fin});
  const std::string flow =
      kTransformer.emit_flow(*lowered(std::move(mb).build()));
  // A's uid is 2 (initial gets 1).
  EXPECT_NE(flow.find("2.0 * 0.001"), std::string::npos) << flow;
}

TEST(Flow, UnstructuredBackEdgePrintsLabelledBlocks) {
  // A back edge does not nest: the diagram walks as labelled blocks,
  // counting its steps against the engines' limit.
  uml::ModelBuilder mb("M");
  mb.global("X", uml::VariableType::Real);
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef a = d.action("A").cost("1");
  uml::NodeRef dec = d.decision();
  uml::NodeRef fin = d.final_node();
  d.flow(init, a);
  d.flow(a, dec);
  d.flow(dec, a, "X > 0");  // back edge loop
  d.flow(dec, fin, "else");
  const std::string flow =
      kTransformer.emit_flow(*lowered(std::move(mb).build()));
  EXPECT_NE(flow.find("if (X > 0.0) goto L1;"), std::string::npos) << flow;
  EXPECT_NE(flow.find("walk exceeded step limit"), std::string::npos);
}

TEST(Flow, BranchEndingBeforeItsMergePrintsLabelledBlocks) {
  // A C++ block cannot leave the walk early, so a branch that reaches a
  // final node while the other branch continues past the merge walks as
  // labelled blocks: the final node ends the walk.
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef dec = d.decision();
  uml::NodeRef a = d.action("A").cost("1");
  uml::NodeRef early = d.final_node();
  uml::NodeRef b = d.action("B").cost("2");
  uml::NodeRef merge = d.merge();
  uml::NodeRef c = d.action("C").cost("3");
  uml::NodeRef fin = d.final_node();
  d.flow(init, dec);
  d.flow(dec, a, "pid > 0");
  d.flow(a, early);
  d.flow(dec, b, "else");
  d.sequence({b, merge, c, fin});
  const std::string flow =
      kTransformer.emit_flow(*lowered(std::move(mb).build()));
  EXPECT_NE(flow.find("goto end;"), std::string::npos) << flow;
  EXPECT_NE(flow.find("co_await C.execute("), std::string::npos);
}

TEST(Errors, MissingSubdiagram) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef act = d.activity("X", "ghost");
  uml::NodeRef fin = d.final_node();
  d.sequence({init, act, fin});
  const uml::Model model = std::move(mb).build();
  EXPECT_THROW((void)kTransformer.transform(model), codegen::TransformError);
}

TEST(Errors, UnparseableCostExpression) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef a = d.action("A").cost("1 +");
  uml::NodeRef fin = d.final_node();
  d.sequence({init, a, fin});
  const uml::Model model = std::move(mb).build();
  EXPECT_THROW((void)kTransformer.transform(model), codegen::TransformError);
}

TEST(Options, MainOnlyWhenRequested) {
  const uml::Model model = prophet::models::sample_model();
  EXPECT_EQ(kTransformer.transform(model).find("int main("),
            std::string::npos);
  codegen::TransformOptions options;
  options.emit_main = true;
  const codegen::Transformer with_main(options);
  EXPECT_NE(with_main.transform(model).find("int main("),
            std::string::npos);
}

TEST(Emitter, IndentationAndBalance) {
  codegen::CppEmitter emitter;
  emitter.open("if (x) {");
  emitter.line("y();");
  emitter.close();
  EXPECT_EQ(emitter.text(), "if (x) {\n  y();\n}\n");
  EXPECT_THROW(emitter.dedent(), std::logic_error);
}

}  // namespace
