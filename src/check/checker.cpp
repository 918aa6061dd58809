#include "prophet/check/checker.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string_view>
#include <tuple>
#include <utility>

#include "prophet/uml/sysparams.hpp"

namespace prophet::check {
namespace {

using lower::ModelProgram;
using lower::ProblemKind;
using uml::ActivityDiagram;
using uml::ControlFlow;
using uml::Model;
using uml::Node;
using uml::NodeKind;

std::string loc_diagram(const ActivityDiagram& diagram) {
  return "diagram " + diagram.id() + " (" + diagram.name() + ")";
}

std::string loc_node(const ActivityDiagram& diagram, const Node& node) {
  std::string out = loc_diagram(diagram) + " / node " + node.id();
  if (!node.name().empty()) {
    out += " (" + node.name() + ")";
  }
  return out;
}

std::string loc_edge(const ActivityDiagram& diagram, const ControlFlow& edge) {
  return loc_diagram(diagram) + " / edge " + edge.id();
}

bool is_identifier(std::string_view text) {
  if (text.empty()) {
    return false;
  }
  if (!std::isalpha(static_cast<unsigned char>(text[0])) && text[0] != '_') {
    return false;
  }
  return std::all_of(text.begin(), text.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  });
}

/// A node that carries performance semantics (selected by the Fig. 5
/// algorithm's stereotype filter, lines 1-8).
bool is_performance_element(const Node& node) {
  return node.has_stereotype();
}

/// A diagram's edges grouped by one endpoint's id, in edge order, from
/// one sort: `of(id)` holds what a scan of the edges for `id` finds
/// (repeated and dangling ids included), without a scan per node.
class EdgeLists {
 public:
  /// An edge under its endpoint's id, with its place in the edge order.
  using Entry = std::tuple<std::string_view, std::size_t, const ControlFlow*>;

  EdgeLists(const ActivityDiagram& diagram,
            const std::string& (ControlFlow::*endpoint)() const) {
    for (const auto& edge : diagram.edges()) {
      entries_.emplace_back(((*edge).*endpoint)(), entries_.size(),
                            edge.get());
    }
    std::sort(entries_.begin(), entries_.end());  // by id, then edge order
  }

  [[nodiscard]] std::span<const Entry> of(std::string_view id) const {
    const auto first = std::partition_point(
        entries_.begin(), entries_.end(),
        [id](const Entry& entry) { return std::get<0>(entry) < id; });
    return {first, std::partition_point(first, entries_.end(),
                                        [id](const Entry& entry) {
                                          return std::get<0>(entry) == id;
                                        })};
  }

 private:
  std::vector<Entry> entries_;
};

/// Per lowered diagram, the slots of the loop variables its walks bind:
/// a loop's variable in the loop's body, and whatever a nesting site
/// binds in the diagram it nests, to a fixpoint.
std::vector<std::vector<bool>> bound_loop_slots(const ModelProgram& program) {
  const auto diagrams = program.diagrams();
  std::vector<std::vector<bool>> bound(
      diagrams.size(), std::vector<bool>(program.slot_count()));
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t d = 0; d < diagrams.size(); ++d) {
      for (const auto& node : diagrams[d].nodes) {
        if (node.body < 0) {
          continue;
        }
        auto& body = bound[static_cast<std::size_t>(node.body)];
        for (std::size_t slot = 0; slot < body.size(); ++slot) {
          const bool binds = bound[d][slot] ||
                             (node.op == lower::Operation::Loop &&
                              slot == node.loop_var_slot);
          if (binds && !body[slot]) {
            body[slot] = true;
            changed = true;
          }
        }
      }
    }
  }
  return bound;
}

// --- Rules -------------------------------------------------------------------

class MainDiagramRule final : public Rule {
 public:
  MainDiagramRule()
      : Rule("main-diagram", "the model has a resolvable main diagram",
             Severity::Error) {}
  void run(const ModelProgram& program, RuleContext& ctx) const override {
    const Model& model = program.model();
    if (model.diagrams().empty()) {
      ctx.report("model " + model.name(), "model contains no diagrams");
      return;
    }
    if (model.main_diagram_id().empty()) {
      ctx.report("model " + model.name(), "no main diagram designated");
      return;
    }
    if (model.main_diagram() == nullptr) {
      ctx.report("model " + model.name(),
                 "main diagram '" + model.main_diagram_id() + "' not found");
    }
  }
};

class UniqueIdsRule final : public Rule {
 public:
  UniqueIdsRule()
      : Rule("unique-ids",
             "diagram, node and edge ids are unique across the model",
             Severity::Error) {}
  void run(const ModelProgram& program, RuleContext& ctx) const override {
    // An element that claims an id: a diagram, or one of its nodes or
    // edges.  Its location is spelled out only when an id repeats.
    struct Element {
      const ActivityDiagram* diagram = nullptr;
      const Node* node = nullptr;
      const ControlFlow* edge = nullptr;

      [[nodiscard]] std::string location() const {
        if (node != nullptr) {
          return loc_node(*diagram, *node);
        }
        if (edge != nullptr) {
          return loc_edge(*diagram, *edge);
        }
        return loc_diagram(*diagram);
      }
    };
    std::map<std::string_view, Element> seen;  // id -> first claimant
    auto claim = [&](std::string_view id, const Element& element) {
      auto [it, inserted] = seen.emplace(id, element);
      if (!inserted) {
        ctx.report(element.location(), "id '" + std::string(id) +
                                           "' already used at " +
                                           it->second.location());
      }
    };
    for (const auto& diagram : program.model().diagrams()) {
      claim(diagram->id(), {diagram.get()});
      for (const auto& node : diagram->nodes()) {
        claim(node->id(), {diagram.get(), node.get()});
      }
      for (const auto& edge : diagram->edges()) {
        claim(edge->id(), {diagram.get(), nullptr, edge.get()});
      }
    }
  }
};

class InitialNodeRule final : public Rule {
 public:
  InitialNodeRule()
      : Rule("initial-node", "each diagram has exactly one initial node",
             Severity::Error) {}
  void run(const ModelProgram& program, RuleContext& ctx) const override {
    for (const auto& diagram : program.model().diagrams()) {
      std::size_t count = 0;
      for (const auto& node : diagram->nodes()) {
        if (node->kind() == NodeKind::Initial) {
          ++count;
        }
      }
      if (count == 0) {
        ctx.report(loc_diagram(*diagram), "diagram has no initial node");
      } else if (count > 1) {
        ctx.report(loc_diagram(*diagram),
                   "diagram has " + std::to_string(count) +
                       " initial nodes; exactly one is required");
      }
    }
  }
};

class InitialFinalEdgesRule final : public Rule {
 public:
  InitialFinalEdgesRule()
      : Rule("initial-final-edges",
             "initial nodes have one outgoing and no incoming edge; final "
             "nodes have no outgoing edges",
             Severity::Error) {}
  void run(const ModelProgram& program, RuleContext& ctx) const override {
    for (const auto& diagram : program.model().diagrams()) {
      const EdgeLists outgoing(*diagram, &ControlFlow::source);
      const EdgeLists incoming(*diagram, &ControlFlow::target);
      for (const auto& node : diagram->nodes()) {
        const auto in = incoming.of(node->id()).size();
        const auto out = outgoing.of(node->id()).size();
        if (node->kind() == NodeKind::Initial) {
          if (in != 0) {
            ctx.report(loc_node(*diagram, *node),
                       "initial node has incoming edges");
          }
          if (out != 1) {
            ctx.report(loc_node(*diagram, *node),
                       "initial node must have exactly one outgoing edge, "
                       "has " +
                           std::to_string(out));
          }
        } else if (node->kind() == NodeKind::Final && out != 0) {
          ctx.report(loc_node(*diagram, *node),
                     "final node has outgoing edges");
        }
      }
    }
  }
};

class EdgeEndpointsRule final : public Rule {
 public:
  EdgeEndpointsRule()
      : Rule("edge-endpoints",
             "every edge connects two nodes of its own diagram",
             Severity::Error) {}
  void run(const ModelProgram& program, RuleContext& ctx) const override {
    for (const auto& diagram : program.model().diagrams()) {
      for (const auto& edge : diagram->edges()) {
        if (diagram->node(edge->source()) == nullptr) {
          ctx.report(loc_edge(*diagram, *edge),
                     "source '" + edge->source() + "' not in diagram");
        }
        if (diagram->node(edge->target()) == nullptr) {
          ctx.report(loc_edge(*diagram, *edge),
                     "target '" + edge->target() + "' not in diagram");
        }
        if (edge->source() == edge->target()) {
          ctx.report(Severity::Warning, loc_edge(*diagram, *edge),
                     "self-loop edge");
        }
      }
    }
  }
};

class ConnectivityRule final : public Rule {
 public:
  ConnectivityRule()
      : Rule("connectivity",
             "non-initial nodes have predecessors; non-final nodes have "
             "successors",
             Severity::Warning) {}
  void run(const ModelProgram& program, RuleContext& ctx) const override {
    for (const auto& diagram : program.model().diagrams()) {
      const EdgeLists outgoing(*diagram, &ControlFlow::source);
      const EdgeLists incoming(*diagram, &ControlFlow::target);
      for (const auto& node : diagram->nodes()) {
        if (node->kind() != NodeKind::Initial &&
            incoming.of(node->id()).empty()) {
          ctx.report(loc_node(*diagram, *node), "node has no incoming edge");
        }
        if (node->kind() != NodeKind::Final &&
            outgoing.of(node->id()).empty()) {
          ctx.report(loc_node(*diagram, *node), "node has no outgoing edge");
        }
      }
    }
  }
};

class ReachabilityRule final : public Rule {
 public:
  ReachabilityRule()
      : Rule("node-reachable",
             "every node is reachable from the diagram's initial node",
             Severity::Warning) {}
  void run(const ModelProgram& program, RuleContext& ctx) const override {
    for (const auto& diagram : program.model().diagrams()) {
      const Node* initial = diagram->initial();
      if (initial == nullptr) {
        continue;  // initial-node rule reports this
      }
      const EdgeLists outgoing(*diagram, &ControlFlow::source);
      std::set<std::string_view> reached{initial->id()};
      std::vector<std::string_view> frontier{initial->id()};
      while (!frontier.empty()) {
        const std::string_view id = frontier.back();
        frontier.pop_back();
        for (const auto& [source, position, edge] : outgoing.of(id)) {
          if (reached.insert(edge->target()).second) {
            frontier.push_back(edge->target());
          }
        }
      }
      for (const auto& node : diagram->nodes()) {
        if (reached.find(node->id()) == reached.end()) {
          ctx.report(loc_node(*diagram, *node),
                     "node unreachable from initial node");
        }
      }
    }
  }
};

class DecisionGuardsRule final : public Rule {
 public:
  DecisionGuardsRule()
      : Rule("decision-guards",
             "decision nodes have >=2 guarded outgoing edges, at most one "
             "'else', and parseable guards",
             Severity::Error) {}
  void run(const ModelProgram& program, RuleContext& ctx) const override {
    for (const auto& flow : program.diagrams()) {
      const ActivityDiagram& diagram = *flow.diagram;
      for (const auto& node : flow.nodes) {
        if (node.op != lower::Operation::Decision) {
          continue;
        }
        // A decision's branches are its outgoing edges, in edge order.
        const auto& branches = node.branches;
        if (branches.size() < 2) {
          ctx.report(loc_node(diagram, *node.node),
                     "decision node needs at least two outgoing edges, has " +
                         std::to_string(branches.size()));
        }
        std::size_t else_count = 0;
        for (const lower::Branch& branch : branches) {
          if (!branch.edge->has_guard()) {
            ctx.report(loc_edge(diagram, *branch.edge),
                       "edge leaving a decision node lacks a guard");
            continue;
          }
          if (branch.is_else) {
            ++else_count;
            continue;
          }
          if (branch.guard == nullptr) {
            ctx.report(loc_edge(diagram, *branch.edge),
                       "guard '" + branch.edge->guard() + "' does not parse");
          }
        }
        if (else_count > 1) {
          ctx.report(loc_node(diagram, *node.node),
                     "decision node has multiple 'else' edges");
        }
        if (else_count == 0) {
          ctx.report(Severity::Warning, loc_node(diagram, *node.node),
                     "decision node has no 'else' edge; execution stalls when "
                     "no guard holds");
        }
      }
      // Guards on edges leaving no decision are ignored by the walk, but
      // lowering parses them too.
      for (const auto& edge : diagram.edges()) {
        if (!edge->has_guard() || edge->is_else() ||
            program.guard(*edge) != nullptr) {
          continue;
        }
        const Node* source = diagram.node(edge->source());
        if (source == nullptr || source->kind() != NodeKind::Decision) {
          ctx.report(loc_edge(diagram, *edge),
                     "guard '" + edge->guard() + "' does not parse");
        }
      }
    }
  }
};

class GuardContextRule final : public Rule {
 public:
  GuardContextRule()
      : Rule("guard-context",
             "guards only appear on edges leaving decision nodes",
             Severity::Warning) {}
  void run(const ModelProgram& program, RuleContext& ctx) const override {
    for (const auto& diagram : program.model().diagrams()) {
      for (const auto& edge : diagram->edges()) {
        if (!edge->has_guard()) {
          continue;
        }
        const Node* source = diagram->node(edge->source());
        if (source != nullptr && source->kind() != NodeKind::Decision) {
          ctx.report(loc_edge(*diagram, *edge),
                     "guard on edge leaving a non-decision node is ignored");
        }
      }
    }
  }
};

class StereotypeKnownRule final : public Rule {
 public:
  StereotypeKnownRule()
      : Rule("stereotype-known",
             "applied stereotypes are defined in the model's profile",
             Severity::Error) {}
  void run(const ModelProgram& program, RuleContext& ctx) const override {
    const Model& model = program.model();
    for (const auto& diagram : model.diagrams()) {
      for (const auto& node : diagram->nodes()) {
        if (node->has_stereotype() &&
            model.profile().find(node->stereotype()) == nullptr) {
          ctx.report(loc_node(*diagram, *node),
                     "stereotype <<" + node->stereotype() +
                         ">> not defined in profile '" +
                         model.profile().name() + "'");
        }
      }
    }
  }
};

class TagConformanceRule final : public Rule {
 public:
  TagConformanceRule()
      : Rule("tag-conformance",
             "tagged values conform to the stereotype's tag definitions",
             Severity::Error) {}
  void run(const ModelProgram& program, RuleContext& ctx) const override {
    const Model& model = program.model();
    for (const auto& diagram : model.diagrams()) {
      for (const auto& node : diagram->nodes()) {
        if (!node->has_stereotype()) {
          continue;
        }
        const uml::Stereotype* stereotype =
            model.profile().find(node->stereotype());
        if (stereotype == nullptr) {
          continue;  // stereotype-known rule reports this
        }
        for (const auto& tagged : node->tags()) {
          const uml::TagDefinition* definition = stereotype->tag(tagged.name);
          if (definition == nullptr) {
            ctx.report(Severity::Warning, loc_node(*diagram, *node),
                       "tag '" + tagged.name + "' not defined for <<" +
                           node->stereotype() + ">>");
            continue;
          }
          if (uml::type_of(tagged.value) != definition->type) {
            ctx.report(loc_node(*diagram, *node),
                       "tag '" + tagged.name + "' has type " +
                           std::string(uml::to_string(
                               uml::type_of(tagged.value))) +
                           ", profile declares " +
                           std::string(uml::to_string(definition->type)));
          }
        }
        for (const auto& definition : stereotype->tags()) {
          if (definition.required && !node->has_tag(definition.name)) {
            ctx.report(loc_node(*diagram, *node),
                       "required tag '" + definition.name + "' of <<" +
                           node->stereotype() + ">> is missing");
          }
        }
      }
    }
  }
};

class ExpressionTagsRule final : public Rule {
 public:
  ExpressionTagsRule()
      : Rule("expression-tags",
             "expression-valued tags contain parseable expressions",
             Severity::Error) {}
  void run(const ModelProgram& program, RuleContext& ctx) const override {
    for (const auto& problem : program.problems()) {
      std::string_view tag = problem.tag;
      if (problem.kind == ProblemKind::Fragment) {
        tag = uml::tag::kCode;
      } else if (problem.kind != ProblemKind::Tag) {
        continue;
      }
      ctx.report(loc_node(*problem.diagram, *problem.node),
                 "tag '" + std::string(tag) + "' = '" +
                     problem.node->tag_string(tag) + "': " + problem.detail);
    }
  }
};

class ExpressionVisibilityRule final : public Rule {
 public:
  ExpressionVisibilityRule()
      : Rule("expression-visibility",
             "identifiers used by element expressions are declared variables, "
             "loop variables, system parameters, or defined cost functions",
             Severity::Error) {}
  void run(const ModelProgram& program, RuleContext& ctx) const override {
    // Declared variables and system parameters are visible everywhere;
    // every other slot holds a loop variable, visible where walks bind it.
    std::vector<bool> everywhere(program.slot_count());
    for (std::size_t slot = 0; slot < everywhere.size(); ++slot) {
      const std::string& name =
          program.symbols().name_of(static_cast<expr::Slot>(slot));
      everywhere[slot] = program.model().variable(name) != nullptr ||
                         uml::is_system_parameter(name);
    }
    const auto bound = bound_loop_slots(program);
    for (std::size_t d = 0; d < program.diagrams().size(); ++d) {
      const lower::DiagramProgram& flow = program.diagrams()[d];
      // Reports the variables `compiled` (the text `text`) reads that
      // nothing binds in this diagram, then the functions it calls that
      // no one defines.
      const auto check = [&](const expr::Compiled& compiled,
                             const std::string& text,
                             const std::string& location) {
        const expr::Unresolved unresolved = expr::unresolved(compiled);
        std::vector<std::string> unknown = unresolved.variables;
        for (const expr::Slot slot : compiled.referenced_slots()) {
          if (!everywhere[slot] && !bound[d][slot]) {
            unknown.push_back(program.symbols().name_of(slot));
          }
        }
        std::sort(unknown.begin(), unknown.end());
        for (const auto& name : unknown) {
          ctx.report(location,
                     "unknown variable '" + name + "' in '" + text + "'");
        }
        for (const auto& name : unresolved.functions) {
          ctx.report(location, "undefined cost function '" + name + "' in '" +
                                   text + "'");
        }
      };
      for (const auto& node : flow.nodes) {
        for (const auto tag : uml::expression_tags(node.node->stereotype())) {
          const auto kind = lower::tag_kind(tag);
          if (kind && node.tag(*kind)) {
            check(*node.tag(*kind), node.node->tag_string(tag),
                  loc_node(*flow.diagram, *node.node));
          }
        }
      }
      // Guards use the same namespace.
      for (const auto& edge : flow.diagram->edges()) {
        if (const expr::Compiled* guard = program.guard(*edge)) {
          check(*guard, edge->guard(), loc_edge(*flow.diagram, *edge));
        }
      }
    }
  }
};

class CostFunctionsRule final : public Rule {
 public:
  CostFunctionsRule()
      : Rule("cost-functions",
             "cost-function bodies parse, reference only parameters, "
             "globals, system parameters and other cost functions, and have "
             "no cyclic dependencies",
             Severity::Error) {}
  void run(const ModelProgram& program, RuleContext& ctx) const override {
    const auto& functions = program.model().cost_functions();
    std::map<std::string, std::set<std::string>> calls;
    for (const auto& problem : program.problems()) {
      if (problem.kind == ProblemKind::DuplicateFunction) {
        ctx.report("function " + problem.function->name, problem.detail);
      }
    }
    // CallUser ids name functions by their first declaration.
    std::vector<const std::string*> name_of(functions.size());
    for (const auto& fn : functions) {
      if (const auto id = program.function_id(fn.name)) {
        name_of[static_cast<std::size_t>(*id)] = &fn.name;
      }
    }
    for (std::size_t f = 0; f < functions.size(); ++f) {
      const uml::CostFunction& fn = functions[f];
      const std::string location = "function " + fn.name;
      if (!is_identifier(fn.name)) {
        ctx.report(location, "name is not a valid identifier");
      }
      const auto problems = program.problems();
      const auto problem = std::find_if(
          problems.begin(), problems.end(), [&](const auto& p) {
            return p.kind == ProblemKind::Function && p.function == &fn;
          });
      if (problem != problems.end()) {
        ctx.report(location, "body does not parse: " + problem->detail);
        continue;
      }
      // What the body reads that a call cannot see (generated cost
      // functions live at file scope, Fig. 8a: they see parameters,
      // globals and the structural system parameters), each name with
      // its declaration, if it has one.
      const expr::Compiled& body = program.declared_function(f);
      const expr::Unresolved unresolved = expr::unresolved(body);
      std::vector<std::pair<std::string, const uml::Variable*>> unseen;
      for (const auto& name : unresolved.variables) {
        unseen.emplace_back(name, nullptr);
      }
      for (const expr::Slot slot : body.referenced_slots()) {
        const std::string& name = program.symbols().name_of(slot);
        const uml::Variable* variable = program.model().variable(name);
        const bool structural =
            slot == program.np_slot() || slot == program.nt_slot() ||
            slot == program.nn_slot() || slot == program.ppn_slot();
        if (variable != nullptr ? variable->scope != uml::VariableScope::Global
                                : !structural) {
          unseen.emplace_back(name, variable);
        }
      }
      std::sort(unseen.begin(), unseen.end());
      for (const auto& [name, variable] : unseen) {
        ctx.report(location, variable != nullptr
                                 ? "references local variable '" + name +
                                       "'; cost functions can only use "
                                       "globals and parameters"
                                 : "unknown variable '" + name + "'");
      }
      for (const auto& name : unresolved.functions) {
        ctx.report(location, "calls undefined function '" + name + "'");
      }
      auto& callees = calls[fn.name];
      for (const expr::Instr& in : body.code()) {
        if (in.op == expr::Op::CallUser) {
          callees.insert(*name_of[static_cast<std::size_t>(in.a)]);
        }
      }
    }
    // Cycle detection over the call graph (iterative DFS with colors).
    std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
    for (const auto& fn : functions) {
      if (color[fn.name] != 0) {
        continue;
      }
      std::vector<std::pair<std::string, std::size_t>> stack{{fn.name, 0}};
      color[fn.name] = 1;
      while (!stack.empty()) {
        auto& [name, next] = stack.back();
        const auto& callees = calls[name];
        if (next >= callees.size()) {
          color[name] = 2;
          stack.pop_back();
          continue;
        }
        auto it = callees.begin();
        std::advance(it, next);
        ++next;
        const std::string& callee = *it;
        if (color[callee] == 1) {
          ctx.report("function " + name,
                     "cyclic cost-function dependency via '" + callee + "'");
        } else if (color[callee] == 0) {
          color[callee] = 1;
          stack.push_back({callee, 0});
        }
      }
    }
  }
};

class SubdiagramsRule final : public Rule {
 public:
  SubdiagramsRule()
      : Rule("subdiagrams",
             "composite nodes reference existing diagrams and the diagram "
             "hierarchy is acyclic",
             Severity::Error) {}
  void run(const ModelProgram& program, RuleContext& ctx) const override {
    for (const auto& problem : program.problems()) {
      if (problem.kind == ProblemKind::Body) {
        const std::string sub = problem.node->subdiagram_id();
        ctx.report(loc_node(*problem.diagram, *problem.node),
                   sub.empty() ? "composite node lacks a 'diagram' tag"
                               : "references unknown diagram '" + sub + "'");
      } else if (problem.kind == ProblemKind::Nesting) {
        ctx.report("diagram " + problem.diagram->id(),
                   "cyclic diagram nesting via '" +
                       problem.node->subdiagram_id() + "'");
      }
    }
  }
};

class ForkJoinRule final : public Rule {
 public:
  ForkJoinRule()
      : Rule("fork-join",
             "forks have >=2 outgoing edges, joins >=2 incoming, and each "
             "diagram balances forks with joins",
             Severity::Error) {}
  void run(const ModelProgram& program, RuleContext& ctx) const override {
    for (const auto& flow : program.diagrams()) {
      std::optional<EdgeLists> incoming;  // built at the first join
      std::size_t forks = 0;
      std::size_t joins = 0;
      for (const auto& node : flow.nodes) {
        if (node.op == lower::Operation::Fork) {
          ++forks;
          // A fork's branches are its outgoing edges.
          const auto out = node.branches.size();
          if (out < 2) {
            ctx.report(loc_node(*flow.diagram, *node.node),
                       "fork needs at least two outgoing edges, has " +
                           std::to_string(out));
          }
        } else if (node.op == lower::Operation::Join) {
          ++joins;
          if (!incoming) {
            incoming.emplace(*flow.diagram, &ControlFlow::target);
          }
          const auto in = incoming->of(node.node->id()).size();
          if (in < 2) {
            ctx.report(loc_node(*flow.diagram, *node.node),
                       "join needs at least two incoming edges, has " +
                           std::to_string(in));
          }
        }
      }
      if (forks != joins) {
        ctx.report(Severity::Warning, loc_diagram(*flow.diagram),
                   "diagram has " + std::to_string(forks) + " fork(s) but " +
                       std::to_string(joins) + " join(s)");
      }
    }
  }
};

class VariablesRule final : public Rule {
 public:
  VariablesRule()
      : Rule("variables",
             "variable names are unique, valid identifiers, do not shadow "
             "system parameters, and initializers parse",
             Severity::Error) {}
  void run(const ModelProgram& program, RuleContext& ctx) const override {
    const Model& model = program.model();
    std::set<std::string> seen;
    for (std::size_t v = 0; v < model.variables().size(); ++v) {
      const uml::Variable& variable = model.variables()[v];
      const std::string location = "variable " + variable.name;
      if (!is_identifier(variable.name)) {
        ctx.report(location, "name is not a valid identifier");
      }
      if (!seen.insert(variable.name).second) {
        ctx.report(location, "duplicate variable name");
      }
      if (uml::is_system_parameter(variable.name)) {
        ctx.report(location, "name shadows system parameter '" +
                                 variable.name + "'");
      }
      if (model.cost_function(variable.name) != nullptr) {
        ctx.report(location, "name collides with a cost function");
      }
      // Lowering left out the initializer that does not parse.
      if (!variable.initializer.empty() &&
          !program.variables()[v].initializer) {
        ctx.report(location, "initializer '" + variable.initializer +
                                 "' does not parse");
      }
    }
  }
};

class ElementNamesRule final : public Rule {
 public:
  ElementNamesRule()
      : Rule("element-names",
             "performance modeling elements have non-empty, distinct names "
             "(they become C++ identifiers)",
             Severity::Warning) {}
  void run(const ModelProgram& program, RuleContext& ctx) const override {
    std::map<std::string, std::string> seen;  // name -> location
    for (const auto& diagram : program.model().diagrams()) {
      for (const auto& node : diagram->nodes()) {
        if (!is_performance_element(*node)) {
          continue;
        }
        if (node->name().empty()) {
          ctx.report(loc_node(*diagram, *node),
                     "performance modeling element has no name");
          continue;
        }
        auto [it, inserted] = seen.emplace(node->name(),
                                           loc_node(*diagram, *node));
        if (!inserted) {
          ctx.report(loc_node(*diagram, *node),
                     "element name '" + node->name() +
                         "' also used at " + it->second +
                         "; generated identifiers will be disambiguated");
        }
      }
    }
  }
};

}  // namespace

std::string_view to_string(Severity severity) {
  switch (severity) {
    case Severity::Error:
      return "error";
    case Severity::Warning:
      return "warning";
    case Severity::Info:
      return "info";
  }
  return "unknown";
}

std::optional<Severity> severity_from_string(std::string_view text) {
  if (text == "error") {
    return Severity::Error;
  }
  if (text == "warning") {
    return Severity::Warning;
  }
  if (text == "info") {
    return Severity::Info;
  }
  return std::nullopt;
}

std::string Diagnostic::to_string() const {
  return std::string(check::to_string(severity)) + " [" + rule + "] " +
         location + ": " + message;
}

void Diagnostics::add(Diagnostic diagnostic) {
  items_.push_back(std::move(diagnostic));
}

std::size_t Diagnostics::error_count() const {
  return static_cast<std::size_t>(
      std::count_if(items_.begin(), items_.end(), [](const Diagnostic& d) {
        return d.severity == Severity::Error;
      }));
}

std::size_t Diagnostics::warning_count() const {
  return static_cast<std::size_t>(
      std::count_if(items_.begin(), items_.end(), [](const Diagnostic& d) {
        return d.severity == Severity::Warning;
      }));
}

std::vector<const Diagnostic*> Diagnostics::from_rule(
    std::string_view rule) const {
  std::vector<const Diagnostic*> result;
  for (const auto& diagnostic : items_) {
    if (diagnostic.rule == rule) {
      result.push_back(&diagnostic);
    }
  }
  return result;
}

std::string Diagnostics::to_string() const {
  std::ostringstream out;
  for (const auto& diagnostic : items_) {
    out << diagnostic.to_string() << '\n';
  }
  return out.str();
}

void RuleContext::report(std::string location, std::string message) {
  report(severity_, std::move(location), std::move(message));
}

void RuleContext::report(Severity severity, std::string location,
                         std::string message) {
  // An MCF override to a *lower* severity also caps explicit reports, so
  // demoting a rule to "warning" reliably silences its errors.
  if (severity < severity_) {
    severity = severity_;
  }
  sink_->add(Diagnostic{severity, rule_, std::move(location),
                        std::move(message)});
}

ModelChecker::ModelChecker() : ModelChecker(true) {}

ModelChecker::ModelChecker(bool load_standard_rules) {
  if (load_standard_rules) {
    register_standard_rules(*this);
  }
}

ModelChecker ModelChecker::empty() { return ModelChecker(false); }

void ModelChecker::add(std::unique_ptr<Rule> rule) {
  for (auto& entry : entries_) {
    if (entry.rule->name() == rule->name()) {
      entry.rule = std::move(rule);
      return;
    }
  }
  entries_.push_back(Entry{std::move(rule), true, std::nullopt});
}

bool ModelChecker::set_enabled(std::string_view rule, bool enabled) {
  for (auto& entry : entries_) {
    if (entry.rule->name() == rule) {
      entry.enabled = enabled;
      return true;
    }
  }
  return false;
}

bool ModelChecker::set_severity(std::string_view rule, Severity severity) {
  for (auto& entry : entries_) {
    if (entry.rule->name() == rule) {
      entry.severity_override = severity;
      return true;
    }
  }
  return false;
}

bool ModelChecker::is_enabled(std::string_view rule) const {
  for (const auto& entry : entries_) {
    if (entry.rule->name() == rule) {
      return entry.enabled;
    }
  }
  return false;
}

std::vector<std::string> ModelChecker::rule_names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& entry : entries_) {
    names.push_back(entry.rule->name());
  }
  return names;
}

void ModelChecker::configure(const xml::Document& mcf) {
  if (!mcf.has_root() || mcf.root().name() != "mcf") {
    configuration_notes_.push_back("MCF root element must be <mcf>");
    return;
  }
  for (const auto* rule : mcf.root().children_named("rule")) {
    const std::string name = rule->attr_or("name", "");
    if (name.empty()) {
      configuration_notes_.push_back("MCF <rule> without name attribute");
      continue;
    }
    bool known = false;
    if (auto enabled = rule->attr("enabled")) {
      known = set_enabled(name, *enabled == "true");
    }
    if (auto severity_text = rule->attr("severity")) {
      if (auto severity = severity_from_string(*severity_text)) {
        known = set_severity(name, *severity) || known;
      } else {
        configuration_notes_.push_back("MCF rule '" + name +
                                       "': unknown severity '" +
                                       std::string(*severity_text) + "'");
      }
    }
    if (!known && !rule->has_attr("enabled") &&
        !rule->has_attr("severity")) {
      known = is_enabled(name);
    }
    if (!known) {
      bool exists = false;
      for (const auto& entry : entries_) {
        exists = exists || entry.rule->name() == name;
      }
      if (!exists) {
        configuration_notes_.push_back("MCF references unknown rule '" +
                                       name + "'");
      }
    }
  }
}

Diagnostics ModelChecker::check(const uml::Model& model) const {
  return check(lower::ModelProgram(model));
}

Diagnostics ModelChecker::check(const lower::ModelProgram& program) const {
  Diagnostics diagnostics;
  for (const auto& note : configuration_notes_) {
    diagnostics.add(Diagnostic{Severity::Info, "mcf", "configuration", note});
  }
  for (const auto& entry : entries_) {
    if (!entry.enabled) {
      continue;
    }
    const Severity severity =
        entry.severity_override.value_or(entry.rule->default_severity());
    RuleContext ctx(diagnostics, entry.rule->name(), severity);
    entry.rule->run(program, ctx);
  }
  return diagnostics;
}

void register_standard_rules(ModelChecker& checker) {
  checker.add(std::make_unique<MainDiagramRule>());
  checker.add(std::make_unique<UniqueIdsRule>());
  checker.add(std::make_unique<InitialNodeRule>());
  checker.add(std::make_unique<InitialFinalEdgesRule>());
  checker.add(std::make_unique<EdgeEndpointsRule>());
  checker.add(std::make_unique<ConnectivityRule>());
  checker.add(std::make_unique<ReachabilityRule>());
  checker.add(std::make_unique<DecisionGuardsRule>());
  checker.add(std::make_unique<GuardContextRule>());
  checker.add(std::make_unique<StereotypeKnownRule>());
  checker.add(std::make_unique<TagConformanceRule>());
  checker.add(std::make_unique<ExpressionTagsRule>());
  checker.add(std::make_unique<ExpressionVisibilityRule>());
  checker.add(std::make_unique<CostFunctionsRule>());
  checker.add(std::make_unique<SubdiagramsRule>());
  checker.add(std::make_unique<ForkJoinRule>());
  checker.add(std::make_unique<VariablesRule>());
  checker.add(std::make_unique<ElementNamesRule>());
}

}  // namespace prophet::check
