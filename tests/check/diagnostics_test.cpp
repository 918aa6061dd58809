// The checker's full output, pinned: a corpus of malformed models and,
// in diagnostics_corpus.txt, the exact `Diagnostics::to_string()` the
// standard checker prints for each.  It covers every defect the rules
// that read expressions and diagram nesting report — syntax errors,
// unknown names, undefined functions, loop variables read outside their
// bodies, locals read by cost functions, call cycles, missing or unknown
// body diagrams and cyclic nesting — in tags, guards, initializers and
// function bodies, plus a model with several defects at once and the
// five probes on which the checker once disagreed with the engines
// (checker_probes.hpp).
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "checker_probes.hpp"
#include "prophet/check/checker.hpp"
#include "prophet/uml/builder.hpp"

namespace check = prophet::check;
namespace uml = prophet::uml;

namespace {

/// One corpus entry: its name in diagnostics_corpus.txt and its model.
struct Row {
  const char* name;
  uml::Model (*build)();
};

/// Cost functions without parameters, as {name, body} pairs.
using Functions = std::vector<std::pair<std::string, std::string>>;

/// initial -> A (cost `cost`) -> final over a global GV = 0, with the
/// cost functions `fns`.
uml::Model one_action(const std::string& cost, const Functions& fns = {}) {
  uml::ModelBuilder mb("M");
  mb.global("GV", uml::VariableType::Real, "0");
  for (const auto& [name, body] : fns) {
    mb.function(name, {}, body);
  }
  uml::DiagramBuilder d = mb.diagram("main");
  d.sequence({d.initial(), d.action("A").cost(cost), d.final_node()});
  return std::move(mb).build_unchecked();
}

/// initial -> D; D [guard] -> A, D [else] -> B; A, B -> final, over a
/// global GV = 0.
uml::Model guarded(const std::string& guard) {
  uml::ModelBuilder mb("M");
  mb.global("GV", uml::VariableType::Real, "0");
  uml::DiagramBuilder d = mb.diagram("main");
  const uml::NodeRef init = d.initial();
  const uml::NodeRef dec = d.decision("D");
  const uml::NodeRef a = d.action("A").cost("0.001");
  const uml::NodeRef b = d.action("B").cost("0.002");
  const uml::NodeRef fin = d.final_node();
  d.flow(init, dec);
  d.flow(dec, a, guard);
  d.flow(dec, b, "else");
  d.flow(a, fin);
  d.flow(b, fin);
  return std::move(mb).build_unchecked();
}

/// A clean one-action model whose global X has the initializer `init`.
uml::Model initialized(const std::string& init) {
  uml::ModelBuilder mb("M");
  mb.global("X", uml::VariableType::Real, init);
  uml::DiagramBuilder d = mb.diagram("main");
  d.sequence({d.initial(), d.action("A").cost("0.001"), d.final_node()});
  return std::move(mb).build_unchecked();
}

/// A loop `L` (variable k) in main over `body`; after it, a decision
/// guarded by `k > 0` and an action costing `k * 0.001`, both outside
/// the body.
uml::Model loop_variable_outside_body() {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder main = mb.diagram("main");
  uml::DiagramBuilder body = mb.diagram("body");
  const uml::NodeRef init = main.initial();
  const uml::NodeRef loop = main.loop("L", body, "4", "k");
  const uml::NodeRef dec = main.decision("D");
  const uml::NodeRef a = main.action("A").cost("k * 0.001");
  const uml::NodeRef merge = main.merge("M");
  const uml::NodeRef fin = main.final_node();
  main.flow(init, loop);
  main.flow(loop, dec);
  main.flow(dec, a, "k > 0");
  main.flow(dec, merge, "else");
  main.flow(a, merge);
  main.flow(merge, fin);
  const uml::NodeRef binit = body.initial();
  const uml::NodeRef work = body.action("W").cost("0.001 * (k + 1)");
  body.sequence({binit, work, body.final_node()});
  return std::move(mb).build_unchecked();
}

/// Loops nest bodies two deep: main's loop L1 (k) runs outer, which runs
/// the activity S (diagram inner) and the loop L2 (j) over deepest.
/// inner sees k but not j; deepest sees both; side, nested by main's
/// activity T outside any loop, sees neither.
uml::Model loop_variables_in_nested_bodies() {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder main = mb.diagram("main");
  uml::DiagramBuilder outer = mb.diagram("outer");
  uml::DiagramBuilder inner = mb.diagram("inner");
  uml::DiagramBuilder deepest = mb.diagram("deepest");
  uml::DiagramBuilder side = mb.diagram("side");
  const uml::NodeRef minit = main.initial();
  const uml::NodeRef l1 = main.loop("L1", outer, "2", "k");
  const uml::NodeRef t = main.activity("T", side);
  main.sequence({minit, l1, t, main.final_node()});
  const uml::NodeRef oinit = outer.initial();
  const uml::NodeRef s = outer.activity("S", inner);
  const uml::NodeRef l2 = outer.loop("L2", deepest, "3", "j");
  outer.sequence({oinit, s, l2, outer.final_node()});
  const uml::NodeRef iinit = inner.initial();
  const uml::NodeRef i1 = inner.action("I1").cost("k * 0.001");
  const uml::NodeRef i2 = inner.action("I2").cost("j * 0.001");
  inner.sequence({iinit, i1, i2, inner.final_node()});
  const uml::NodeRef dinit = deepest.initial();
  const uml::NodeRef w = deepest.action("W").cost("(k + j) * 0.001");
  deepest.sequence({dinit, w, deepest.final_node()});
  const uml::NodeRef sinit = side.initial();
  const uml::NodeRef x = side.action("X").cost("k + j");
  side.sequence({sinit, x, side.final_node()});
  return std::move(mb).build_unchecked();
}

/// A cost function reading a loop variable: only node expressions inside
/// the loop's body see it.
uml::Model function_reads_loop_variable() {
  uml::ModelBuilder mb("M");
  mb.function("F", {}, "k + 1");
  uml::DiagramBuilder main = mb.diagram("main");
  uml::DiagramBuilder body = mb.diagram("body");
  const uml::NodeRef minit = main.initial();
  const uml::NodeRef loop = main.loop("L", body, "2", "k");
  main.sequence({minit, loop, main.final_node()});
  const uml::NodeRef binit = body.initial();
  const uml::NodeRef work = body.action("W").cost("F()");
  body.sequence({binit, work, body.final_node()});
  return std::move(mb).build_unchecked();
}

/// A cost function reading a local variable.
uml::Model function_reads_local() {
  uml::ModelBuilder mb("M");
  mb.local("L", uml::VariableType::Real, "2");
  mb.function("F", {}, "L * 0.001");
  uml::DiagramBuilder d = mb.diagram("main");
  d.sequence({d.initial(), d.action("A").cost("F()"), d.final_node()});
  return std::move(mb).build_unchecked();
}

/// main's activity X whose body diagram is `body_id` ("" for none).
uml::Model composite(const std::string& body_id) {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  d.sequence({d.initial(), d.activity("X", body_id), d.final_node()});
  return std::move(mb).build_unchecked();
}

/// A composite node built without any `diagram` tag.
uml::Model composite_without_tag() {
  uml::Model model("M");
  auto diagram = std::make_unique<uml::ActivityDiagram>("d1", "main");
  diagram->add_node(
      std::make_unique<uml::Node>("n1", "I", uml::NodeKind::Initial));
  diagram->add_node(
      std::make_unique<uml::Node>("n2", "X", uml::NodeKind::Activity));
  diagram->add_node(
      std::make_unique<uml::Node>("n3", "F", uml::NodeKind::Final));
  diagram->add_edge(std::make_unique<uml::ControlFlow>("f1", "n1", "n2"));
  diagram->add_edge(std::make_unique<uml::ControlFlow>("f2", "n2", "n3"));
  model.add_diagram(std::move(diagram));
  return model;
}

/// main nests itself through an activity.
uml::Model self_nesting() {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder d = mb.diagram("main");
  d.sequence({d.initial(), d.activity("Again", d), d.final_node()});
  return std::move(mb).build_unchecked();
}

/// a nests b through an activity, and b nests a through a loop.
uml::Model two_diagram_nesting() {
  uml::ModelBuilder mb("M");
  uml::DiagramBuilder a = mb.diagram("a");
  uml::DiagramBuilder b = mb.diagram("b");
  a.sequence({a.initial(), a.activity("ToB", b), a.final_node()});
  b.sequence({b.initial(), b.loop("ToA", a, "2", "k"), b.final_node()});
  return std::move(mb).build_unchecked();
}

/// Several defects at once: a bad initializer, a function cycle through
/// an undefined call and a local, a tag that does not parse, an unknown
/// name in a guard, a decision without `else`, an unknown body diagram
/// and a loop variable read outside its body.
uml::Model several_defects() {
  uml::ModelBuilder mb("Several");
  mb.global("GV", uml::VariableType::Real, "2 *");
  mb.local("LV", uml::VariableType::Real);
  mb.function("F", {"x"}, "G(x) + LV");
  mb.function("G", {"y"}, "F(y) * Missing(y)");
  uml::DiagramBuilder main = mb.diagram("main");
  uml::DiagramBuilder body = mb.diagram("body");
  const uml::NodeRef init = main.initial();
  const uml::NodeRef loop = main.loop("L", body, "n +", "k");
  const uml::NodeRef dec = main.decision("D");
  const uml::NodeRef a = main.action("A").cost("F(k) + (");
  const uml::NodeRef b = main.action("B").cost("mystery + k");
  const uml::NodeRef c = main.activity("C", "ghost");
  const uml::NodeRef fin = main.final_node();
  main.flow(init, loop);
  main.flow(loop, dec);
  main.flow(dec, a, "unknown_flag > 0");
  main.flow(dec, b, "GV < 1");
  main.flow(a, c);
  main.flow(b, c);
  main.flow(c, fin);
  const uml::NodeRef binit = body.initial();
  const uml::NodeRef work = body.action("W").cost("G(k)");
  body.sequence({binit, work, body.final_node()});
  return std::move(mb).build_unchecked();
}

/// The probe of checker_probes.hpp named `name`.
uml::Model probe(const std::string& name) {
  for (auto& candidate : prophet::test::checker_probes()) {
    if (candidate.name == name) {
      return std::move(candidate.model);
    }
  }
  ADD_FAILURE() << "no probe named " << name;
  return uml::Model("missing");
}

uml::Model tag_syntax() { return one_action("0.001 +"); }
uml::Model guard_syntax() { return guarded("GV >"); }
uml::Model initializer_syntax() { return initialized("1 +"); }
uml::Model function_syntax() { return one_action("F()", {{"F", "1 +"}}); }
uml::Model tag_unknown_name() { return one_action("mystery * 2"); }
uml::Model guard_unknown_name() { return guarded("mystery > 0"); }
uml::Model initializer_unknown_name() { return initialized("mystery + 1"); }
uml::Model function_unknown_name() {
  return one_action("F()", {{"F", "mystery * 2"}});
}
uml::Model tag_undefined_function() { return one_action("FMissing()"); }
uml::Model guard_undefined_function() { return guarded("FMissing() > 0"); }
uml::Model initializer_undefined_function() {
  return initialized("FMissing()");
}
uml::Model function_undefined_function() {
  return one_action("F()", {{"F", "FMissing() + 1"}});
}
uml::Model two_function_cycle() {
  return one_action("F()", {{"F", "G() + 1"}, {"G", "F() * 2"}});
}
uml::Model three_function_cycle() {
  const Functions fns = {{"F", "G() + 1"}, {"G", "H() + 1"}, {"H", "F()"}};
  return one_action("F()", fns);
}
uml::Model composite_with_empty_body() { return composite(""); }
uml::Model composite_with_unknown_body() { return composite("ghost"); }
uml::Model function_reads_pid() { return probe("function_reads_pid"); }
uml::Model loop_default_variable() { return probe("loop_default_variable"); }
uml::Model fragment_comparison() { return probe("fragment_comparison"); }
uml::Model guard_on_action_edge() { return probe("guard_on_action_edge"); }
uml::Model dead_branch_unknown_name() {
  return probe("dead_branch_unknown_name");
}

const Row kCorpus[] = {
    {"tag_syntax", tag_syntax},
    {"guard_syntax", guard_syntax},
    {"initializer_syntax", initializer_syntax},
    {"function_syntax", function_syntax},
    {"tag_unknown_name", tag_unknown_name},
    {"guard_unknown_name", guard_unknown_name},
    {"initializer_unknown_name", initializer_unknown_name},
    {"function_unknown_name", function_unknown_name},
    {"tag_undefined_function", tag_undefined_function},
    {"guard_undefined_function", guard_undefined_function},
    {"initializer_undefined_function", initializer_undefined_function},
    {"function_undefined_function", function_undefined_function},
    {"loop_variable_outside_body", loop_variable_outside_body},
    {"loop_variables_in_nested_bodies", loop_variables_in_nested_bodies},
    {"function_reads_loop_variable", function_reads_loop_variable},
    {"function_reads_local", function_reads_local},
    {"two_function_cycle", two_function_cycle},
    {"three_function_cycle", three_function_cycle},
    {"composite_with_empty_body", composite_with_empty_body},
    {"composite_without_body_tag", composite_without_tag},
    {"composite_with_unknown_body", composite_with_unknown_body},
    {"self_nesting", self_nesting},
    {"two_diagram_nesting", two_diagram_nesting},
    {"several_defects", several_defects},
    {"function_reads_pid", function_reads_pid},
    {"loop_default_variable", loop_default_variable},
    {"fragment_comparison", fragment_comparison},
    {"guard_on_action_edge", guard_on_action_edge},
    {"dead_branch_unknown_name", dead_branch_unknown_name},
};

/// Row name -> the checker's expected output.
using Outputs = std::map<std::string, std::string>;

/// The expected output of each row, read from diagnostics_corpus.txt.
Outputs expected_outputs() {
  std::string path = PROPHET_SOURCE_DIR;
  path += "/tests/check/diagnostics_corpus.txt";
  std::ifstream in(path);
  Outputs expected;
  std::string* row = nullptr;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("== ", 0) == 0) {
      row = &expected[line.substr(3)];
    } else if (row != nullptr && line.rfind('#', 0) != 0) {
      *row += line + "\n";
    }
  }
  return expected;
}

/// Names a row in test output.
void PrintTo(const Row& row, std::ostream* out) { *out << row.name; }

class PinnedDiagnostics : public ::testing::TestWithParam<Row> {};

TEST_P(PinnedDiagnostics, ToString) {
  static const Outputs expected = expected_outputs();
  const Row& row = GetParam();
  const auto it = expected.find(row.name);
  ASSERT_NE(it, expected.end()) << "no expected output for " << row.name;
  const std::string actual =
      check::ModelChecker().check(row.build()).to_string();
  EXPECT_EQ(actual, it->second);
}

/// A row's test-name suffix.
std::string name_of(const ::testing::TestParamInfo<Row>& info) {
  return info.param.name;
}

using ::testing::ValuesIn;
INSTANTIATE_TEST_SUITE_P(Corpus, PinnedDiagnostics, ValuesIn(kCorpus), name_of);

}  // namespace
