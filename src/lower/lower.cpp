#include "prophet/lower/lower.hpp"

#include <chrono>
#include <set>
#include <unordered_map>
#include <utility>

#include "prophet/expr/eval.hpp"
#include "prophet/expr/parser.hpp"
#include "prophet/obs/obs.hpp"
#include "prophet/uml/sysparams.hpp"

namespace prophet::lower {
namespace {

using uml::Model;
using uml::Node;
using uml::NodeKind;

/// One `name = expression;` assignment of an associated code fragment
/// (parse-time form; lowered to a CompiledAssignment).
struct Assignment {
  std::string target;
  expr::ExprPtr value;
};

/// The tag-name -> TagKind dispatch table.  Adding an expression tag is
/// one row here (plus its TagKind value) — both backends pick it up
/// through the shared NodePrograms array, no per-backend edits.
struct TagRow {
  std::string_view name;
  TagKind kind;
};

constexpr TagRow kTagTable[] = {
    {uml::tag::kCost, TagKind::Cost},
    {uml::tag::kDest, TagKind::Dest},
    {uml::tag::kSource, TagKind::Source},
    {uml::tag::kSize, TagKind::Size},
    {uml::tag::kRoot, TagKind::Root},
    {uml::tag::kIterations, TagKind::Iterations},
    {uml::tag::kIterCost, TagKind::IterCost},
    {uml::tag::kNumThreads, TagKind::NumThreads},
};
static_assert(std::size(kTagTable) == kTagKindCount,
              "every TagKind needs exactly one table row");

/// Splits a code fragment into `name = expr` assignments; each statement
/// that is no parseable assignment goes to `fail` (with why) and is left
/// out.
template <class Fail>
std::vector<Assignment> parse_code_fragment(const std::string& text,
                                            const Fail& fail) {
  std::vector<Assignment> assignments;
  std::size_t start = 0;
  while (start < text.size()) {
    auto end = text.find(';', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    std::string statement = text.substr(start, end - start);
    start = end + 1;
    // Trim whitespace.
    const auto first = statement.find_first_not_of(" \t\r\n");
    if (first == std::string::npos) {
      continue;
    }
    const auto last = statement.find_last_not_of(" \t\r\n");
    statement = statement.substr(first, last - first + 1);
    const auto equals = statement.find('=');
    // Reject '==' and missing '='.
    if (equals == std::string::npos || equals + 1 >= statement.size() ||
        statement[equals + 1] == '=') {
      fail("statement '" + statement + "' is not an assignment");
      continue;
    }
    std::string target = statement.substr(0, equals);
    const auto target_end = target.find_last_not_of(" \t\r\n");
    target = target.substr(0, target_end + 1);
    try {
      assignments.push_back(
          {target, expr::parse(statement.substr(equals + 1))});
    } catch (const expr::SyntaxError& error) {
      fail(error.what());
    }
  }
  return assignments;
}

/// The loop-variable name bound by a <<loop+>> node ("i" by default).
std::string loop_var_name(const Node& node) {
  std::string var = node.tag_string(uml::tag::kLoopVar);
  if (var.empty()) {
    var = "i";
  }
  return var;
}

/// The action-stereotype -> operation table: the one place a stereotype
/// string is decoded into what an action does.
struct ActionRow {
  std::string_view stereotype;
  Operation op;
  workload::CollectiveKind collective = workload::CollectiveKind::Broadcast;
};

constexpr ActionRow kActionTable[] = {
    {uml::stereo::kActionPlus, Operation::Compute},
    {"", Operation::Compute},
    {uml::stereo::kSend, Operation::Send},
    {uml::stereo::kRecv, Operation::Recv},
    {uml::stereo::kBarrier, Operation::Barrier},
    {uml::stereo::kBroadcast, Operation::Collective,
     workload::CollectiveKind::Broadcast},
    {uml::stereo::kReduce, Operation::Collective,
     workload::CollectiveKind::Reduce},
    {uml::stereo::kAllReduce, Operation::Collective,
     workload::CollectiveKind::AllReduce},
    {uml::stereo::kScatter, Operation::Collective,
     workload::CollectiveKind::Scatter},
    {uml::stereo::kGather, Operation::Collective,
     workload::CollectiveKind::Gather},
    {uml::stereo::kOmpFor, Operation::OmpFor},
    {uml::stereo::kOmpBarrier, Operation::OmpBarrier},
};

/// The operation of each node kind whose stereotype does not matter.
constexpr std::pair<NodeKind, Operation> kKindTable[] = {
    {NodeKind::Initial, Operation::Initial},
    {NodeKind::Final, Operation::Final},
    {NodeKind::Merge, Operation::Merge},
    {NodeKind::Decision, Operation::Decision},
    {NodeKind::Fork, Operation::Fork},
    {NodeKind::Join, Operation::Join},
    {NodeKind::Loop, Operation::Loop},
};

/// Decodes what `node` does from its kind and stereotype, and reads the
/// constant tags that operation uses, with their defaults.
void decode_operation(const Node& node, NodePrograms& out) {
  for (const auto& [kind, op] : kKindTable) {
    if (kind == node.kind()) {
      out.op = op;
      return;
    }
  }
  const std::string& stereotype = node.stereotype();
  if (node.kind() == NodeKind::Activity) {
    if (stereotype == uml::stereo::kOmpParallel) {
      out.op = Operation::Region;
    } else if (stereotype == uml::stereo::kOmpCritical) {
      out.op = Operation::Critical;
      out.lock = node.tag_string(uml::tag::kCriticalName);
      if (out.lock.empty()) {
        out.lock = "default";
      }
    } else {
      out.op = Operation::Inline;  // <<activity+>> or unstereotyped
    }
    return;
  }
  out.op = Operation::Unsupported;  // an action, until a row matches
  for (const auto& row : kActionTable) {
    if (row.stereotype == stereotype) {
      out.op = row.op;
      out.collective = row.collective;
      break;
    }
  }
  switch (out.op) {
    case Operation::Compute:
      out.time = node.tag_number(uml::tag::kTime);
      break;
    case Operation::Send:
    case Operation::Recv:
      out.msgtag =
          static_cast<int>(node.tag_number(uml::tag::kMsgTag).value_or(0));
      break;
    case Operation::OmpFor:
      out.schedule = node.tag_string(uml::tag::kSchedule);
      if (out.schedule.empty()) {
        out.schedule = "static";
      }
      out.chunk = static_cast<std::int64_t>(
          node.tag_number(uml::tag::kChunk).value_or(0));
      break;
    case Operation::Unsupported:
      out.defect = "node " + node.id() + ": unsupported stereotype <<" +
                   stereotype + ">> on an action node";
      break;
    default:
      break;
  }
}

/// Resolves the successors of every node of `diagram` into `flow` from
/// one pass over its edges: the single next node, or a decision's or
/// fork's branches in edge order.
void resolve_successors(
    const uml::ActivityDiagram& diagram,
    const std::map<const uml::ControlFlow*, expr::Compiled>& guards,
    DiagramProgram& flow) {
  const auto& nodes = diagram.nodes();
  // Node ids resolve to the first node carrying them, like
  // ActivityDiagram::node().
  std::unordered_map<std::string_view, int> index;
  index.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    index.emplace(nodes[i]->id(), static_cast<int>(i));
  }
  const auto index_of = [&index](std::string_view id) {
    const auto it = index.find(id);
    return it == index.end() ? -1 : it->second;
  };
  std::vector<std::vector<const uml::ControlFlow*>> outgoing(nodes.size());
  for (const auto& edge : diagram.edges()) {
    if (const int source = index_of(edge->source()); source >= 0) {
      outgoing[static_cast<std::size_t>(source)].push_back(edge.get());
    }
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& node = *nodes[i];
    NodePrograms& out = flow.nodes[i];
    const auto& edges =
        outgoing[static_cast<std::size_t>(index_of(node.id()))];
    if (out.op == Operation::Decision || out.op == Operation::Fork) {
      out.branches.reserve(edges.size());
      for (const uml::ControlFlow* edge : edges) {
        Branch& branch = out.branches.emplace_back();
        branch.edge = edge;
        branch.target = index_of(edge->target());
        if (const auto guard = guards.find(edge); guard != guards.end()) {
          branch.guard = &guard->second;
        }
        branch.is_else = edge->is_else();
        branch.prob = edge->tag_number(uml::tag::kProb);
        out.probabilistic = out.probabilistic || branch.prob.has_value();
        if (branch.is_else && out.fallback < 0) {
          out.fallback = static_cast<int>(out.branches.size() - 1);
        }
        if (out.op == Operation::Fork && branch.target < 0) {
          out.defect = "fork " + node.id() + ": dangling edge";
        }
      }
      if (out.op == Operation::Decision && out.fallback < 0) {
        out.defect = "decision " + node.id() +
                     ": no guard holds and no 'else' edge";
      }
      continue;
    }
    if (edges.size() == 1) {
      out.next = index_of(edges[0]->target());
    } else if (edges.size() > 1 && out.op != Operation::Unsupported) {
      out.defect =
          "node " + node.id() + " has multiple unguarded outgoing edges";
      if (out.op == Operation::Join) {
        out.join_defect = "join " + node.id() + " has multiple outgoing edges";
      }
    }
  }
}

}  // namespace

std::string fork_join_error(const DiagramProgram& diagram,
                            const NodePrograms& fork,
                            std::span<const int> joins) {
  const auto id = [&diagram](int join) -> std::string {
    return join < 0 ? std::string()
                    : diagram.nodes[static_cast<std::size_t>(join)].node->id();
  };
  for (std::size_t i = 1; i < joins.size(); ++i) {
    if (joins[i] != joins[0]) {
      return "fork " + fork.node->id() + ": branches reach different joins ('" +
             id(joins[0]) + "' vs '" + id(joins[i]) + "')";
    }
  }
  if (joins.empty() || joins[0] < 0) {
    return "fork " + fork.node->id() + ": branches do not reach a join";
  }
  return {};
}

std::string_view stereotype_name(Operation op,
                                 workload::CollectiveKind collective) {
  for (const auto& row : kActionTable) {
    if (row.op == op &&
        (op != Operation::Collective || row.collective == collective)) {
      return row.stereotype;
    }
  }
  return {};
}

std::optional<TagKind> tag_kind(std::string_view name) {
  for (const auto& row : kTagTable) {
    if (row.name == name) {
      return row.kind;
    }
  }
  return std::nullopt;  // no evaluation site reads other expression tags
}

std::string_view tag_name(TagKind kind) {
  for (const auto& row : kTagTable) {
    if (row.kind == kind) {
      return row.name;
    }
  }
  return {};  // unreachable: the static_assert pins full coverage
}

ModelProgram::ModelProgram(const uml::Model& model) : model_(&model) {
  const Model& m = model;

  // Times one expr::compile call and folds it into the stats.
  const auto compile_timed = [this](const expr::Expr& ast,
                                    const expr::SymbolTable& table,
                                    std::string site) {
    const auto start = std::chrono::steady_clock::now();
    expr::Compiled program = expr::compile(ast, table, std::move(site));
    stats_.expr_compile_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    ++stats_.expr_programs;
    stats_.bytecode_bytes += program.size() * sizeof(expr::Instr);
    return program;
  };

  // Records a defect of the element `problem` names; its text is
  // `where`, then `detail` (the parser's message) when there is one.
  const auto record = [this](Problem problem, std::string where,
                             std::string detail = {}) {
    problem.message =
        detail.empty() ? std::move(where) : where + ": " + detail;
    problem.detail = std::move(detail);
    problems_.push_back(std::move(problem));
  };
  // Parses `text`, or records why it does not parse and returns null.
  const auto parse = [&record](const std::string& text, Problem problem,
                               std::string where) -> expr::ExprPtr {
    try {
      return expr::parse(text);
    } catch (const expr::SyntaxError& error) {
      record(std::move(problem), std::move(where), error.what());
      return nullptr;
    }
  };

  // ---- Phase 1: names.  Every name that any dynamic scope could bind
  // gets exactly one slot; resolution precedence is realized by which
  // storage a frame entry points at.
  expr::SymbolTable base;
  slot_np_ = base.add_variable(std::string(uml::sysparam::kProcesses));
  slot_nt_ = base.add_variable(std::string(uml::sysparam::kThreads));
  slot_nn_ = base.add_variable(std::string(uml::sysparam::kNodes));
  slot_ppn_ =
      base.add_variable(std::string(uml::sysparam::kProcessorsPerNode));
  for (const auto& variable : m.variables()) {
    base.add_variable(variable.name);
  }
  for (const auto& diagram : m.diagrams()) {
    for (const auto& node : diagram->nodes()) {
      if (node->kind() == NodeKind::Loop) {
        base.add_variable(loop_var_name(*node));
      }
    }
  }
  // Ids name functions by their first declaration; a repeated name is
  // recorded after every parse problem.
  std::vector<const uml::CostFunction*> repeated;
  for (const auto& fn : m.cost_functions()) {
    if (!function_ids_.emplace(fn.name, base.add_function(fn.name)).second) {
      repeated.push_back(&fn);
    }
  }
  nslots_ = base.slot_count();

  node_table_ = base;
  node_table_.bind_ambient(std::string(uml::sysparam::kProcessId),
                           expr::Ambient::Pid);
  node_table_.bind_ambient(std::string(uml::sysparam::kThreadId),
                           expr::Ambient::Tid);
  node_table_.bind_ambient(std::string(uml::sysparam::kElementUid),
                           expr::Ambient::Uid);

  // ---- Phase 2: uids.  Explicit `id` tags win; the rest get sequential
  // numbers skipping claimed values.
  std::set<int> claimed;
  for (const auto& diagram : m.diagrams()) {
    for (const auto& node : diagram->nodes()) {
      if (auto id = node->tag(uml::tag::kId)) {
        if (const auto* value = std::get_if<std::int64_t>(&*id)) {
          uids_[node->id()] = static_cast<int>(*value);
          claimed.insert(static_cast<int>(*value));
        }
      }
    }
  }
  int next = 1;
  for (const auto& diagram : m.diagrams()) {
    for (const auto& node : diagram->nodes()) {
      if (uids_.find(node->id()) == uids_.end()) {
        while (claimed.find(next) != claimed.end()) {
          ++next;
        }
        uids_[node->id()] = next;
        claimed.insert(next);
      }
    }
  }

  // ---- Phase 3: expressions where they land.  Each is parsed and
  // compiled into the slot that holds its program, in model order, so
  // problems keep the order the historical builds threw them in.
  for (const auto& variable : m.variables()) {
    CompiledVariable& compiled = variables_.emplace_back();
    compiled.name = variable.name;
    compiled.slot = *base.slot_of(variable.name);
    compiled.scope = variable.scope;
    compiled.coerce_int = variable.type == uml::VariableType::Integer;
    if (!variable.initializer.empty()) {
      std::string site = "initializer of variable " + variable.name;
      if (const auto ast = parse(
              variable.initializer,
              {.kind = ProblemKind::Initializer, .variable = &variable},
              site)) {
        compiled.initializer =
            compile_timed(*ast, node_table_, std::move(site));
      }
    }
  }
  functions_.reserve(function_ids_.size());
  for (std::size_t f = 0; f < m.cost_functions().size(); ++f) {
    const uml::CostFunction& fn = m.cost_functions()[f];
    expr::Compiled body;
    if (const auto ast =
            parse(fn.body, {.kind = ProblemKind::Function, .function = &fn},
                  "cost function " + fn.name)) {
      // Function bodies see their parameters, globals and the structural
      // system parameters — never pid/tid/uid or locals, mirroring the
      // file-scope C++ functions of Fig. 8a.
      expr::SymbolTable fn_table = base;
      for (const auto& parameter : fn.parameters) {
        fn_table.add_parameter(parameter);
      }
      body = compile_timed(*ast, fn_table, {});
    }
    if (static_cast<std::size_t>(function_ids_.at(fn.name)) ==
        functions_.size()) {
      functions_.push_back(std::move(body));
    } else {
      repeated_functions_.emplace(f, std::move(body));
    }
  }
  for (const auto& diagram : m.diagrams()) {
    for (const auto& edge : diagram->edges()) {
      if (edge->has_guard() && !edge->is_else()) {
        std::string site = "guard of edge " + edge->id();
        if (const auto ast = parse(edge->guard(),
                                   {.kind = ProblemKind::Guard,
                                    .diagram = diagram.get(),
                                    .edge = edge.get()},
                                   site)) {
          guards_.emplace(edge.get(),
                          compile_timed(*ast, node_table_, std::move(site)));
        }
      }
    }
  }
  diagrams_.reserve(m.diagrams().size());
  for (const auto& diagram : m.diagrams()) {
    DiagramProgram& flow = diagrams_.emplace_back();
    flow.nodes.reserve(diagram->node_count());
    for (const auto& node : diagram->nodes()) {
      NodePrograms& programs = flow.nodes.emplace_back();
      programs.uid = uids_.at(node->id());
      if (node->kind() == NodeKind::Loop) {
        programs.loop_var_slot = *base.slot_of(loop_var_name(*node));
      }
      for (const auto name : uml::expression_tags(node->stereotype())) {
        if (!node->has_tag(name)) {
          continue;
        }
        const std::string text = node->tag_string(name);
        if (text.empty()) {
          continue;
        }
        const auto ast =
            parse(text,
                  {.kind = ProblemKind::Tag,
                   .diagram = diagram.get(),
                   .node = node.get(),
                   .tag = name},
                  "tag '" + std::string(name) + "' of node " + node->id());
        if (const auto kind = tag_kind(name); ast != nullptr && kind) {
          programs.tags[static_cast<std::size_t>(*kind)] = compile_timed(
              *ast, node_table_,
              "node " + node->id() + ", tag '" + std::string(name) + "'");
        }
      }
      if (node->has_tag(uml::tag::kCode)) {
        const std::string code = node->tag_string(uml::tag::kCode);
        const std::string site = "code fragment at node " + node->id();
        for (auto& assignment :
             parse_code_fragment(code, [&](std::string detail) {
               record({.kind = ProblemKind::Fragment,
                       .diagram = diagram.get(),
                       .node = node.get()},
                      site, std::move(detail));
             })) {
          CompiledAssignment& compiled = programs.fragment.emplace_back();
          compiled.name = std::move(assignment.target);
          compiled.value =
              compile_timed(*assignment.value, node_table_, site);
          // Static write-target resolution: the tree walker consulted
          // the per-process locals map first, then the globals map —
          // both hold exactly the declared variables of that scope.
          bool local = false;
          bool global = false;
          for (const auto& variable : m.variables()) {
            if (variable.name != compiled.name) {
              continue;
            }
            local = local || variable.scope == uml::VariableScope::Local;
            global = global || variable.scope == uml::VariableScope::Global;
          }
          if (local || global) {
            compiled.target = local ? CompiledAssignment::Target::Local
                                    : CompiledAssignment::Target::Global;
            compiled.slot = *base.slot_of(compiled.name);
          }
          if (const uml::Variable* declared = m.variable(compiled.name)) {
            compiled.coerce_int =
                declared->type == uml::VariableType::Integer;
          }
          ++stats_.fragment_assignments;
        }
      }
      // Composite nodes must reference existing diagrams.
      if ((node->kind() == NodeKind::Activity ||
           node->kind() == NodeKind::Loop) &&
          m.diagram(node->subdiagram_id()) == nullptr) {
        record({.kind = ProblemKind::Body,
                .diagram = diagram.get(),
                .node = node.get()},
               "node " + node->id() + " references unknown diagram '" +
                   node->subdiagram_id() + "'");
      }
    }
  }
  if (m.main_diagram() == nullptr) {
    record({.kind = ProblemKind::MainDiagram},
           "model has no resolvable main diagram");
  }
  for (const uml::CostFunction* fn : repeated) {
    record({.kind = ProblemKind::DuplicateFunction, .function = fn},
           "cost function " + fn->name, "duplicate cost-function name");
  }

  // ---- Phase 4: control flow.  Each node's operation, constant tags,
  // body diagram and successors, and each diagram's entry and step
  // limit, resolved once so no engine decodes the UML model.  Diagram
  // ids resolve to the first diagram carrying them, like
  // Model::diagram(); an unknown id resolves to -1.
  std::unordered_map<std::string_view, int> diagram_index;
  diagram_index.reserve(m.diagrams().size());
  for (std::size_t d = 0; d < m.diagrams().size(); ++d) {
    diagram_index.emplace(m.diagrams()[d]->id(), static_cast<int>(d));
  }
  const auto diagram_of = [&diagram_index](std::string_view id) {
    const auto it = diagram_index.find(id);
    return it == diagram_index.end() ? -1 : it->second;
  };
  entry_ = diagram_of(m.main_diagram_id());
  for (std::size_t d = 0; d < m.diagrams().size(); ++d) {
    const uml::ActivityDiagram& diagram = *m.diagrams()[d];
    DiagramProgram& flow = diagrams_[d];
    flow.diagram = &diagram;
    flow.step_limit = 1000000ULL + 1000ULL * diagram.node_count();
    const auto& nodes = diagram.nodes();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const Node& node = *nodes[i];
      NodePrograms& programs = flow.nodes[i];
      programs.node = &node;
      decode_operation(node, programs);
      if (node.kind() == NodeKind::Activity || node.kind() == NodeKind::Loop) {
        programs.body = diagram_of(node.subdiagram_id());
      }
      if (flow.initial < 0 && node.kind() == NodeKind::Initial) {
        flow.initial = static_cast<int>(i);
      }
      nodes_.emplace(&node, &programs);
    }
    if (flow.initial < 0) {
      flow.defect = "diagram " + diagram.id() + " has no initial node";
    }
    resolve_successors(diagram, guards_, flow);
  }

  // ---- Phase 5: no diagram nests itself, directly or through others.
  // Every walk, and the printed program, nests bodies at their call
  // sites.  Each back edge of the depth-first search is one problem
  // (once per diagram and nested diagram).
  std::vector<int> state(diagrams_.size(), 0);  // 1: on the path, 2: done
  const auto visit = [this, &state, &record](const auto& self,
                                             std::size_t d) -> void {
    state[d] = 1;
    std::set<int> reported;  // nested diagrams already reported from d
    for (const auto& node : diagrams_[d].nodes) {
      const auto body = static_cast<std::size_t>(node.body);
      if (node.body >= 0 && state[body] == 0) {
        self(self, body);
      } else if (node.body >= 0 && state[body] == 1 &&
                 reported.insert(node.body).second) {
        record({.kind = ProblemKind::Nesting,
                .diagram = diagrams_[d].diagram,
                .node = node.node},
               "diagram " + diagrams_[d].diagram->id() +
                   ": cyclic diagram nesting via '" +
                   diagrams_[body].diagram->id() + "'");
      }
    }
    state[d] = 2;
  };
  for (std::size_t d = 0; d < diagrams_.size(); ++d) {
    if (state[d] == 0) {
      visit(visit, d);
    }
  }

  stats_.nodes = nodes_.size();
  stats_.slots = nslots_;
  stats_.guards = guards_.size();
  stats_.functions = functions_.size();
  stats_.variables = variables_.size();
}

const expr::Compiled& ModelProgram::declared_function(
    std::size_t declaration) const {
  if (const auto it = repeated_functions_.find(declaration);
      it != repeated_functions_.end()) {
    return it->second;
  }
  return functions_[static_cast<std::size_t>(
      *function_id(model_->cost_functions()[declaration].name))];
}

std::optional<int> ModelProgram::function_id(std::string_view name) const {
  const auto it = function_ids_.find(name);
  if (it == function_ids_.end()) {
    return std::nullopt;
  }
  return it->second;
}

int ModelProgram::uid_of(const std::string& node_id) const {
  const auto it = uids_.find(node_id);
  if (it == uids_.end()) {
    throw LowerError("unknown node id '" + node_id + "'");
  }
  return it->second;
}

ModelProgramPtr lower(const uml::Model& model) {
  auto program = std::make_shared<ModelProgram>(model);
  if (!program->problems().empty()) {
    throw LowerError(program->problems().front().message);
  }
  return program;
}

ModelProgramPtr lower(uml::Model&& model) {
  // Lower first (borrowing; the program is not const until returned),
  // then move the model in.  The lowered state keys nodes and edges by
  // pointer; both are heap-allocated and owned through the model's
  // diagram list, so they are stable across the move, and re-pointing
  // the model itself after the move is safe.
  const auto program = std::const_pointer_cast<ModelProgram>(lower(model));
  program->owned_.emplace(std::move(model));
  program->model_ = &*program->owned_;
  return program;
}

void fold(obs::Registry& metrics, const LoweringStats& stats) {
  metrics.counter("lower.expr_programs").add(stats.expr_programs);
  metrics.counter("lower.nodes").add(stats.nodes);
  metrics.counter("lower.slots").add(stats.slots);
  metrics.counter("lower.guards").add(stats.guards);
  metrics.counter("lower.functions").add(stats.functions);
  metrics.counter("lower.variables").add(stats.variables);
  metrics.counter("lower.fragment_assignments")
      .add(stats.fragment_assignments);
  metrics.counter("lower.bytecode_bytes").add(stats.bytecode_bytes);
  metrics.timer("lower.expr_compile_seconds")
      .add_seconds(stats.expr_compile_seconds);
}

}  // namespace prophet::lower
