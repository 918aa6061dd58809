// UML metamodel: tagged values, profiles, elements, diagrams, builder.
#include <gtest/gtest.h>

#include "prophet/uml/builder.hpp"
#include "prophet/uml/model.hpp"
#include "prophet/uml/profile.hpp"
#include "prophet/uml/sysparams.hpp"
#include "prophet/uml/tags.hpp"

namespace uml = prophet::uml;

namespace {

TEST(Tags, TypeOfValue) {
  EXPECT_EQ(uml::type_of(uml::TagValue(std::int64_t{3})),
            uml::TagType::Integer);
  EXPECT_EQ(uml::type_of(uml::TagValue(2.5)), uml::TagType::Real);
  EXPECT_EQ(uml::type_of(uml::TagValue(std::string("x"))),
            uml::TagType::String);
  EXPECT_EQ(uml::type_of(uml::TagValue(true)), uml::TagType::Boolean);
}

TEST(Tags, ToString) {
  EXPECT_EQ(uml::to_string(uml::TagValue(std::int64_t{10})), "10");
  EXPECT_EQ(uml::to_string(uml::TagValue(std::string("SAMPLE"))), "SAMPLE");
  EXPECT_EQ(uml::to_string(uml::TagValue(true)), "true");
}

TEST(Tags, ParseRoundTrip) {
  for (const auto& [type, text] :
       {std::pair{uml::TagType::Integer, "42"},
        std::pair{uml::TagType::Real, "2.5"},
        std::pair{uml::TagType::String, "hello"},
        std::pair{uml::TagType::Boolean, "true"}}) {
    const auto value = uml::parse_tag_value(type, text);
    ASSERT_TRUE(value.has_value()) << text;
    EXPECT_EQ(uml::type_of(*value), type);
    EXPECT_EQ(uml::to_string(*value), text);
  }
}

TEST(Tags, ParseRejectsNonConforming) {
  EXPECT_FALSE(uml::parse_tag_value(uml::TagType::Integer, "abc"));
  EXPECT_FALSE(uml::parse_tag_value(uml::TagType::Integer, "1.5"));
  EXPECT_FALSE(uml::parse_tag_value(uml::TagType::Real, "zz"));
  EXPECT_FALSE(uml::parse_tag_value(uml::TagType::Boolean, "maybe"));
}

TEST(Profile, Fig1ActionPlusDefinition) {
  // Fig. 1a: <<action+>> extends Action with id/type/time.
  const uml::Profile profile = uml::standard_profile();
  const uml::Stereotype* action = profile.find(uml::stereo::kActionPlus);
  ASSERT_NE(action, nullptr);
  EXPECT_EQ(action->base(), uml::Metaclass::Action);
  ASSERT_NE(action->tag("id"), nullptr);
  EXPECT_EQ(action->tag("id")->type, uml::TagType::Integer);
  ASSERT_NE(action->tag("type"), nullptr);
  EXPECT_EQ(action->tag("type")->type, uml::TagType::String);
  ASSERT_NE(action->tag("time"), nullptr);
  EXPECT_EQ(action->tag("time")->type, uml::TagType::Real);
}

TEST(Profile, StandardProfileCoversPaperBuildingBlocks) {
  const uml::Profile profile = uml::standard_profile();
  for (const auto name :
       {uml::stereo::kActionPlus, uml::stereo::kActivityPlus,
        uml::stereo::kLoopPlus, uml::stereo::kSend, uml::stereo::kRecv,
        uml::stereo::kBarrier, uml::stereo::kBroadcast, uml::stereo::kReduce,
        uml::stereo::kAllReduce, uml::stereo::kScatter, uml::stereo::kGather,
        uml::stereo::kOmpParallel, uml::stereo::kOmpFor,
        uml::stereo::kOmpCritical, uml::stereo::kOmpBarrier}) {
    EXPECT_NE(profile.find(name), nullptr) << name;
  }
}

TEST(Profile, TagsCanBeArbitrarilyExtended) {
  // "The set of tag definitions ... can be arbitrarily extended" (Sec 2.1).
  uml::Profile profile = uml::standard_profile();
  auto custom = uml::Stereotype("gpu+", uml::Metaclass::Action,
                                {{"kernel", uml::TagType::String, true}});
  profile.add(std::move(custom));
  ASSERT_NE(profile.find("gpu+"), nullptr);
  EXPECT_TRUE(profile.find("gpu+")->tag("kernel")->required);
}

TEST(Element, Fig1UsageExample) {
  // Fig. 1b: SampleAction with {id = 1, type = SAMPLE, time = 10}.
  uml::Node node("n1", "SampleAction", uml::NodeKind::Action);
  node.set_stereotype(std::string(uml::stereo::kActionPlus));
  node.set_tag("id", uml::TagValue(std::int64_t{1}));
  node.set_tag("type", uml::TagValue(std::string("SAMPLE")));
  node.set_tag("time", uml::TagValue(10.0));
  EXPECT_EQ(node.tag_number("id"), 1.0);
  EXPECT_EQ(node.tag_string("type"), "SAMPLE");
  EXPECT_EQ(node.tag_number("time"), 10.0);
  EXPECT_TRUE(node.has_stereotype());
}

TEST(Element, SetTagOverwrites) {
  uml::Node node("n1", "A", uml::NodeKind::Action);
  node.set_tag("k", uml::TagValue(1.0));
  node.set_tag("k", uml::TagValue(2.0));
  EXPECT_EQ(node.tags().size(), 1u);
  EXPECT_EQ(node.tag_number("k"), 2.0);
  EXPECT_TRUE(node.remove_tag("k"));
  EXPECT_FALSE(node.has_tag("k"));
}

TEST(Diagram, EdgesAndLookup) {
  uml::ActivityDiagram diagram("d1", "main");
  diagram.add_node(
      std::make_unique<uml::Node>("n1", "I", uml::NodeKind::Initial));
  diagram.add_node(
      std::make_unique<uml::Node>("n2", "A", uml::NodeKind::Action));
  diagram.add_edge(std::make_unique<uml::ControlFlow>("f1", "n1", "n2"));
  EXPECT_EQ(diagram.node_count(), 2u);
  EXPECT_EQ(diagram.initial()->id(), "n1");
  ASSERT_EQ(diagram.edge_count(), 1u);
  EXPECT_EQ(diagram.edges()[0]->source(), "n1");
  EXPECT_EQ(diagram.edges()[0]->target(), "n2");
  EXPECT_EQ(diagram.node("zz"), nullptr);
}

TEST(Diagram, GuardClassification) {
  uml::ControlFlow guarded("f1", "a", "b", "GV > 0");
  uml::ControlFlow else_edge("f2", "a", "c", "else");
  uml::ControlFlow plain("f3", "b", "c");
  EXPECT_TRUE(guarded.has_guard());
  EXPECT_FALSE(guarded.is_else());
  EXPECT_TRUE(else_edge.is_else());
  EXPECT_FALSE(plain.has_guard());
}

TEST(Builder, GeneratesDeterministicIds) {
  auto build = [] {
    uml::ModelBuilder mb("M");
    uml::DiagramBuilder d = mb.diagram("main");
    uml::NodeRef a = d.action("A");
    uml::NodeRef b = d.action("B");
    d.flow(a, b);
    return std::move(mb).build();
  };
  const uml::Model first = build();
  const uml::Model second = build();
  ASSERT_EQ(first.diagrams().size(), 1u);
  EXPECT_EQ(first.diagrams()[0]->id(), second.diagrams()[0]->id());
  EXPECT_EQ(first.diagrams()[0]->nodes()[0]->id(),
            second.diagrams()[0]->nodes()[0]->id());
}

TEST(Builder, FirstDiagramBecomesMain) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d1 = mb.diagram("one");
  uml::DiagramBuilder d2 = mb.diagram("two");
  (void)d2;
  const uml::Model model = std::move(mb).build();
  EXPECT_EQ(model.main_diagram_id(), d1.id());
}

TEST(Builder, CommunicationElementsCarryTags) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef send = d.send("S", "pid + 1", "1024", 7);
  EXPECT_EQ(send.node().stereotype(), uml::stereo::kSend);
  EXPECT_EQ(send.node().tag_string(uml::tag::kDest), "pid + 1");
  EXPECT_EQ(send.node().tag_string(uml::tag::kSize), "1024");
  EXPECT_EQ(send.node().tag_number(uml::tag::kMsgTag), 7.0);
  uml::NodeRef reduce = d.reduce("R", "0", "8", "sum");
  EXPECT_EQ(reduce.node().tag_string(uml::tag::kOp), "sum");
}

TEST(Builder, LoopReferencesBodyDiagram) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder body = mb.diagram("body");
  uml::DiagramBuilder main = mb.diagram("main");
  uml::NodeRef loop = main.loop("L", body, "N", "i");
  EXPECT_EQ(loop.node().kind(), uml::NodeKind::Loop);
  EXPECT_EQ(loop.node().subdiagram_id(), body.id());
  EXPECT_EQ(loop.node().tag_string(uml::tag::kIterations), "N");
  EXPECT_EQ(loop.node().tag_string(uml::tag::kLoopVar), "i");
}

TEST(Model, VariableScopes) {
  uml::ModelBuilder mb("M");
  mb.global("G", uml::VariableType::Real, "1");
  mb.local("L", uml::VariableType::Integer, "2");
  const uml::Model model = std::move(mb).build();
  EXPECT_EQ(model.variables().size(), 2u);
  ASSERT_NE(model.variable("G"), nullptr);
  EXPECT_EQ(model.variable("G")->scope, uml::VariableScope::Global);
  EXPECT_EQ(model.variable("L")->scope, uml::VariableScope::Local);
  EXPECT_EQ(model.variable("L")->type, uml::VariableType::Integer);
  EXPECT_EQ(model.variable("missing"), nullptr);
}

TEST(Model, CostFunctionLookup) {
  uml::ModelBuilder mb("M");
  mb.function("F", {"x"}, "x * 2");
  const uml::Model model = std::move(mb).build();
  ASSERT_NE(model.cost_function("F"), nullptr);
  EXPECT_EQ(model.cost_function("F")->parameters.size(), 1u);
  EXPECT_EQ(model.cost_function("G"), nullptr);
}

TEST(Model, ElementCount) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::NodeRef a = d.initial();
  uml::NodeRef b = d.action("A");
  d.flow(a, b);
  const uml::Model model = std::move(mb).build();
  // 1 diagram + 2 nodes + 1 edge.
  EXPECT_EQ(model.element_count(), 4u);
}

TEST(SysParams, Names) {
  EXPECT_TRUE(uml::is_system_parameter("pid"));
  EXPECT_TRUE(uml::is_system_parameter("np"));
  EXPECT_TRUE(uml::is_system_parameter("ppn"));
  EXPECT_FALSE(uml::is_system_parameter("P"));
  EXPECT_EQ(uml::system_parameter_names().size(), 7u);
}

TEST(ExpressionTags, PerStereotype) {
  EXPECT_EQ(uml::expression_tags(uml::stereo::kActionPlus).size(), 1u);
  EXPECT_EQ(uml::expression_tags(uml::stereo::kSend).size(), 2u);
  EXPECT_EQ(uml::expression_tags(uml::stereo::kOmpFor).size(), 2u);
  EXPECT_TRUE(uml::expression_tags("unknown").empty());
  EXPECT_TRUE(uml::expression_tags(uml::stereo::kBarrier).empty());
}

}  // namespace
