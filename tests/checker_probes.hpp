// The five probe models on which the model checker and the lowering used
// to disagree: each one either passed the check and failed in every
// engine, or failed the check although every engine ran it.  The checker
// now reads the lowering, so it agrees with the engines on all five.
// Shared by the checker's pinned-diagnostics corpus and the property
// test that a model the checker passes always lowers.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "prophet/uml/builder.hpp"

namespace prophet::test {

/// One probe: a name (usable as a test-parameter name) and its model.
struct CheckerProbe {
  std::string name;
  uml::Model model;
};

/// initial -> A -> final over a global X = 0, where A is an <<action+>>
/// with the cost `cost` and the code fragment `code` (if any), and
/// `guard` (if any) guards the edge from A to the final node.
inline uml::Model action_probe(std::string cost, std::string code = {},
                               std::string guard = {}) {
  uml::ModelBuilder mb("Probe");
  mb.global("X", uml::VariableType::Real, "0");
  uml::DiagramBuilder d = mb.diagram("main");
  const uml::NodeRef init = d.initial();
  uml::NodeRef a = d.action("A").cost(std::move(cost));
  if (!code.empty()) {
    a.code(std::move(code));
  }
  const uml::NodeRef fin = d.final_node();
  d.flow(init, a);
  d.flow(a, fin, std::move(guard));
  return std::move(mb).build_unchecked();
}

/// The five probes, in the order the checker's history lists them.
inline std::vector<CheckerProbe> checker_probes() {
  std::vector<CheckerProbe> probes;
  {
    // A cost function reads `pid`, which only node expressions see.
    uml::ModelBuilder mb("Probe");
    mb.function("F", {}, "0.001 * (pid + 1)");
    uml::DiagramBuilder d = mb.diagram("main");
    d.sequence({d.initial(), d.action("A").cost("F()"), d.final_node()});
    uml::Model model = std::move(mb).build_unchecked();
    probes.push_back({"function_reads_pid", std::move(model)});
  }
  {
    // A loop with an empty `var` binds the default loop variable `i`.
    uml::ModelBuilder mb("Probe");
    uml::DiagramBuilder main = mb.diagram("main");
    uml::DiagramBuilder body = mb.diagram("body");
    const uml::NodeRef loop = main.loop("L", body, "3", "");
    main.sequence({main.initial(), loop, main.final_node()});
    const uml::NodeRef work = body.action("W").cost("0.001 * (i + 1)");
    body.sequence({body.initial(), work, body.final_node()});
    uml::Model model = std::move(mb).build_unchecked();
    probes.push_back({"loop_default_variable", std::move(model)});
  }
  probes.push_back({"fragment_comparison", action_probe("0.001", "X == 1;")});
  probes.push_back({"guard_on_action_edge", action_probe("0.001", {}, "1 +")});
  uml::Model dead_branch = action_probe("1 ? 0.001 : mystery");
  probes.push_back({"dead_branch_unknown_name", std::move(dead_branch)});
  return probes;
}

}  // namespace prophet::test
