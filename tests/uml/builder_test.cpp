// StepBuilder structured construction + ModelBuilder validation.
//
// The misuse cases mirror the classic authoring mistakes: scopes left
// open, steps outside an arm, duplicate activity names, one-sided
// communication.  Each must surface as a BuildDiagnostic / BuildError,
// never as a structurally malformed model.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "prophet/check/checker.hpp"
#include "prophet/uml/builder.hpp"
#include "prophet/uml/model.hpp"
#include "prophet/uml/profile.hpp"

namespace uml = prophet::uml;

namespace {

const uml::Node* find_node(const uml::Model& model, std::string_view name) {
  for (const auto& diagram : model.diagrams()) {
    for (const auto& node : diagram->nodes()) {
      if (node->name() == name) {
        return node.get();
      }
    }
  }
  return nullptr;
}

bool any_diagnostic_contains(const std::vector<uml::BuildDiagnostic>& found,
                             std::string_view text) {
  return std::any_of(found.begin(), found.end(),
                     [text](const uml::BuildDiagnostic& diagnostic) {
                       return diagnostic.message.find(text) !=
                              std::string::npos;
                     });
}

TEST(StepBuilder, LinearChainBuildsCheckerCleanModel) {
  uml::ModelBuilder mb("Chain");
  mb.global("N", uml::VariableType::Integer, "8");
  mb.function("F", {}, "0.001 * N");
  uml::StepBuilder steps(mb, "main");
  steps.compute("A", "F()").compute("B", "2 * F()").done();
  const uml::Model model = std::move(mb).build();

  const prophet::check::ModelChecker checker;
  const auto diagnostics = checker.check(model);
  EXPECT_TRUE(diagnostics.ok()) << diagnostics.to_string();
  ASSERT_NE(model.main_diagram(), nullptr);
  // Initial -> A -> B -> Final.
  EXPECT_EQ(model.main_diagram()->node_count(), 4u);
  EXPECT_EQ(model.main_diagram()->edge_count(), 3u);
}

TEST(StepBuilder, LoopScopeCreatesBodyDiagram) {
  uml::ModelBuilder mb("Loops");
  uml::StepBuilder steps(mb, "main");
  steps.begin_loop("Outer", "4", "i")
      .begin_loop("Inner", "i + 1", "k")
      .compute("W", "1e-6")
      .end_loop()
      .end_loop()
      .done();
  const uml::Model model = std::move(mb).build();

  const uml::Node* outer = find_node(model, "Outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->kind(), uml::NodeKind::Loop);
  EXPECT_EQ(outer->tag_string(uml::tag::kIterations), "4");
  const auto* body = model.diagram(outer->subdiagram_id());
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(body->name(), "Outer.body");
  const uml::Node* inner = find_node(model, "Inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->tag_string(uml::tag::kLoopVar), "k");

  const prophet::check::ModelChecker checker;
  EXPECT_TRUE(checker.check(model).ok());
}

TEST(StepBuilder, BranchScopeWiresGuardsAndProbTags) {
  uml::ModelBuilder mb("Branches");
  uml::StepBuilder steps(mb, "main");
  steps.compute("Pre", "1e-3")
      .begin_branch("Kind")
      .when("pid % 4 == 0", 0.25)
      .compute("Heavy", "4e-3")
      .otherwise(0.75)
      .compute("Light", "1e-3")
      .end_branch()
      .compute("Post", "1e-3")
      .done();
  const uml::Model model = std::move(mb).build();

  const auto* main = model.main_diagram();
  ASSERT_NE(main, nullptr);
  const uml::Node* decision = find_node(model, "Kind");
  ASSERT_NE(decision, nullptr);
  EXPECT_EQ(decision->kind(), uml::NodeKind::Decision);
  std::vector<const uml::ControlFlow*> outgoing;
  for (const auto& edge : main->edges()) {
    if (edge->source() == decision->id()) {
      outgoing.push_back(edge.get());
    }
  }
  ASSERT_EQ(outgoing.size(), 2u);
  EXPECT_EQ(outgoing[0]->guard(), "pid % 4 == 0");
  EXPECT_EQ(outgoing[0]->tag_number(uml::tag::kProb), 0.25);
  EXPECT_TRUE(outgoing[1]->is_else());
  EXPECT_EQ(outgoing[1]->tag_number(uml::tag::kProb), 0.75);

  const prophet::check::ModelChecker checker;
  EXPECT_TRUE(checker.check(model).ok());
}

TEST(StepBuilder, EmptyBranchArmGoesStraightToMerge) {
  uml::ModelBuilder mb("EmptyArm");
  uml::StepBuilder steps(mb, "main");
  steps.begin_branch()
      .when("pid == 0")
      .compute("RootWork", "1e-3")
      .otherwise()  // no steps: decision -> merge directly
      .end_branch()
      .done();
  const uml::Model model = std::move(mb).build();

  const auto* main = model.main_diagram();
  const uml::Node* work = find_node(model, "RootWork");
  ASSERT_NE(work, nullptr);
  // The else edge leads from the decision straight to the merge.
  bool found_else_to_merge = false;
  for (const auto& edge : main->edges()) {
    if (edge->is_else()) {
      const uml::Node* target = main->node(edge->target());
      ASSERT_NE(target, nullptr);
      EXPECT_EQ(target->kind(), uml::NodeKind::Merge);
      found_else_to_merge = true;
    }
  }
  EXPECT_TRUE(found_else_to_merge);

  const prophet::check::ModelChecker checker;
  EXPECT_TRUE(checker.check(model).ok());
}

TEST(StepBuilder, SpmdRegionScopeEmitsOmpParallel) {
  uml::ModelBuilder mb("Region");
  uml::StepBuilder steps(mb, "main");
  steps.begin_spmd("Par", "4")
      .omp_for("Work", "1024", "1e-6")
      .end_spmd()
      .done();
  const uml::Model model = std::move(mb).build();

  const uml::Node* region = find_node(model, "Par");
  ASSERT_NE(region, nullptr);
  EXPECT_EQ(region->stereotype(), uml::stereo::kOmpParallel);
  EXPECT_EQ(region->tag_string(uml::tag::kNumThreads), "4");
  const auto* body = model.diagram(region->subdiagram_id());
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(body->name(), "Par.body");
}

TEST(StepBuilder, MatchedSendRecvPairValidates) {
  uml::ModelBuilder mb("Comm");
  uml::StepBuilder steps(mb, "main");
  steps.begin_branch()
      .when("pid == 0")
      .send("Ping", "1", "1024", 7)
      .otherwise()
      .recv("PingRecv", "0", "1024", 7)
      .end_branch()
      .done();
  EXPECT_NO_THROW((void)std::move(mb).build());
}

// --- Misuse diagnostics ---------------------------------------------------

TEST(BuilderValidation, UnclosedLoopScopeIsAnError) {
  uml::ModelBuilder mb("M");
  uml::StepBuilder steps(mb, "main");
  steps.begin_loop("L", "4").compute("W", "1e-6").done();  // no end_loop()
  EXPECT_TRUE(any_diagnostic_contains(mb.validate(), "unclosed loop scope"));
  EXPECT_THROW((void)std::move(mb).build(), uml::BuildError);
}

TEST(BuilderValidation, UnclosedBranchScopeIsAnError) {
  uml::ModelBuilder mb("M");
  uml::StepBuilder steps(mb, "main");
  steps.begin_branch("D").when("pid == 0").compute("W", "1e-6").done();
  EXPECT_TRUE(any_diagnostic_contains(mb.validate(), "unclosed branch scope"));
  EXPECT_THROW((void)std::move(mb).build(), uml::BuildError);
}

TEST(BuilderValidation, MismatchedEndLoopIsAnError) {
  uml::ModelBuilder mb("M");
  uml::StepBuilder steps(mb, "main");
  steps.compute("W", "1e-6").end_loop().done();
  EXPECT_TRUE(any_diagnostic_contains(mb.validate(),
                                      "end_loop() without an open loop"));
  EXPECT_THROW((void)std::move(mb).build(), uml::BuildError);
}

TEST(BuilderValidation, StepBeforeWhenIsAnError) {
  uml::ModelBuilder mb("M");
  uml::StepBuilder steps(mb, "main");
  steps.begin_branch().compute("Stray", "1e-6").end_branch().done();
  EXPECT_TRUE(any_diagnostic_contains(mb.validate(),
                                      "before when()/otherwise()"));
  EXPECT_THROW((void)std::move(mb).build(), uml::BuildError);
}

TEST(BuilderValidation, WhenOutsideBranchIsAnError) {
  uml::ModelBuilder mb("M");
  uml::StepBuilder steps(mb, "main");
  steps.when("pid == 0").done();
  EXPECT_TRUE(
      any_diagnostic_contains(mb.validate(), "when() outside a branch"));
  EXPECT_THROW((void)std::move(mb).build(), uml::BuildError);
}

TEST(BuilderValidation, UnfinishedSequenceIsAnError) {
  uml::ModelBuilder mb("M");
  uml::StepBuilder steps(mb, "main");
  steps.compute("W", "1e-6");  // no done()
  EXPECT_TRUE(any_diagnostic_contains(mb.validate(),
                                      "never finished with done()"));
  EXPECT_THROW((void)std::move(mb).build(), uml::BuildError);
}

TEST(BuilderValidation, DuplicateDiagramNamesAreAnError) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder a = mb.diagram("stage");
  uml::DiagramBuilder b = mb.diagram("stage");
  (void)a;
  (void)b;
  EXPECT_TRUE(any_diagnostic_contains(mb.validate(),
                                      "duplicate activity diagram name"));
  EXPECT_THROW((void)std::move(mb).build(), uml::BuildError);
}

TEST(BuilderValidation, SendWithoutRecvPartnerIsAnError) {
  uml::ModelBuilder mb("M");
  uml::StepBuilder steps(mb, "main");
  steps.send("Lonely", "1", "64", 3).done();
  const auto diagnostics = mb.validate();
  EXPECT_TRUE(any_diagnostic_contains(diagnostics, "no matching recv"));
  EXPECT_TRUE(any_diagnostic_contains(diagnostics, "message tag 3"));
  EXPECT_THROW((void)std::move(mb).build(), uml::BuildError);
}

TEST(BuilderValidation, RecvWithoutSendPartnerIsAnError) {
  uml::ModelBuilder mb("M");
  uml::StepBuilder steps(mb, "main");
  steps.recv("Orphan", "0", "64").done();
  EXPECT_TRUE(any_diagnostic_contains(mb.validate(), "no matching send"));
  EXPECT_THROW((void)std::move(mb).build(), uml::BuildError);
}

TEST(BuilderValidation, MismatchedMessageTagsAreAnError) {
  uml::ModelBuilder mb("M");
  uml::StepBuilder steps(mb, "main");
  steps.begin_branch()
      .when("pid == 0")
      .send("Ping", "1", "64", 1)
      .otherwise()
      .recv("PingRecv", "0", "64", 2)  // wrong tag: never matches
      .end_branch()
      .done();
  const auto diagnostics = mb.validate();
  EXPECT_TRUE(any_diagnostic_contains(diagnostics, "no matching recv"));
  EXPECT_TRUE(any_diagnostic_contains(diagnostics, "no matching send"));
}

TEST(BuilderValidation, ProbOutsideUnitIntervalIsAnError) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef init = d.initial();
  uml::NodeRef decision = d.decision();
  uml::NodeRef yes = d.action("Y").cost("1e-6");
  uml::NodeRef no = d.action("N").cost("1e-6");
  uml::NodeRef merge = d.merge();
  uml::NodeRef fin = d.final_node();
  d.flow(init, decision);
  d.flow(decision, yes, "pid == 0").prob(1.5);
  d.flow(decision, no, "else");
  d.flow(yes, merge);
  d.flow(no, merge);
  d.flow(merge, fin);
  EXPECT_TRUE(any_diagnostic_contains(mb.validate(), "outside [0, 1]"));
  EXPECT_THROW((void)std::move(mb).build(), uml::BuildError);
}

TEST(BuilderValidation, BuildErrorAggregatesDiagnostics) {
  uml::ModelBuilder mb("M");
  uml::StepBuilder steps(mb, "main");
  steps.send("Lonely", "1", "64").end_loop().done();
  try {
    (void)std::move(mb).build();
    FAIL() << "build() should have thrown";
  } catch (const uml::BuildError& error) {
    EXPECT_GE(error.diagnostics().size(), 2u);
    EXPECT_NE(std::string(error.what()).find("model construction failed"),
              std::string::npos);
  }
}

TEST(BuilderValidation, BuildUncheckedBypassesValidation) {
  uml::ModelBuilder mb("M");
  uml::StepBuilder steps(mb, "main");
  steps.send("Lonely", "1", "64").done();
  EXPECT_NO_THROW((void)std::move(mb).build_unchecked());
}

TEST(BuilderValidation, CleanModelHasNoDiagnostics) {
  uml::ModelBuilder mb("M");
  uml::StepBuilder steps(mb, "main");
  steps.compute("W", "1e-6").done();
  EXPECT_TRUE(mb.validate().empty());
  EXPECT_NO_THROW((void)std::move(mb).build());
}

}  // namespace
