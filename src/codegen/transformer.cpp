#include "prophet/codegen/transformer.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "prophet/expr/cppgen.hpp"

namespace prophet::codegen {
namespace {

using expr::escape_cpp;
using lower::Branch;
using lower::DiagramProgram;
using lower::ModelProgram;
using lower::NodePrograms;
using lower::Operation;
using lower::TagKind;
using lower::is_control;

/// Where the emission of a path continues once a throw, or a decision
/// whose branches all end, has finished it: nowhere.
constexpr int kEnded = -2;

/// Decisions and forks nested deeper than this are taken for a cycle.
constexpr std::size_t kMaxStructureDepth = 256;

/// The runtime class each element operation is declared as (Fig. 5 line
/// 26), by class name; the other elements map to control flow.
constexpr std::pair<Operation, std::string_view> kRuntimeClasses[] = {
    {Operation::Compute, "ActionPlus"},
    {Operation::Barrier, "BarrierElement"},
    {Operation::Collective, "CollectiveElement"},
    {Operation::Critical, "CriticalElement"},
    {Operation::OmpBarrier, "OmpBarrierElement"},
    {Operation::Recv, "RecvElement"},
    {Operation::Send, "SendElement"},
    {Operation::OmpFor, "WorkshareElement"},
};

std::string throw_statement(const std::string& message) {
  return "throw std::runtime_error(\"" + escape_cpp(message) + "\");";
}

std::string variable_type(const lower::CompiledVariable& variable) {
  return variable.coerce_int ? "long" : "double";
}

[[noreturn]] void fail_cyclic(const DiagramProgram& diagram) {
  throw TransformError(
      "diagram " + diagram.diagram->id() +
      ": cyclic or unboundedly nested control flow; model loops with "
      "<<loop+>> instead of back edges");
}

int exit_of(const DiagramProgram& diagram, const NodePrograms& node,
            std::size_t depth);

/// The first node of kind `until` (Merge or Join) a path from `index`
/// reaches, skipping the decisions and forks nested on it; -1 when the
/// path ends first.
int reach(const DiagramProgram& diagram, int index, Operation until,
          std::size_t depth) {
  for (std::size_t steps = 0; index >= 0; ++steps) {
    if (steps > diagram.nodes.size()) {
      fail_cyclic(diagram);
    }
    const NodePrograms& node = diagram.nodes[static_cast<std::size_t>(index)];
    if (node.op == until) {
      return index;
    }
    if (node.op == Operation::Final) {
      return -1;
    }
    if (node.op == Operation::Decision || node.op == Operation::Fork) {
      const int exit = exit_of(diagram, node, depth + 1);
      if (exit < 0) {
        return -1;  // every branch of the nested decision ends
      }
      index = diagram.nodes[static_cast<std::size_t>(exit)].next;
    } else {
      index = node.next;
    }
  }
  return -1;
}

/// Where the branches of `node` come together: a decision's common merge
/// (-1 when every branch a walk can take ends first) or a fork's common
/// join.  One walker serves both; unstructured flow throws.
int exit_of(const DiagramProgram& diagram, const NodePrograms& node,
            std::size_t depth) {
  if (depth > kMaxStructureDepth) {
    fail_cyclic(diagram);
  }
  const bool fork = node.op == Operation::Fork;
  const std::string& id = node.node->id();
  int exit = -1;
  for (std::size_t b = 0; b < node.branches.size(); ++b) {
    const Branch& branch = node.branches[b];
    if (!fork && branch.guard == nullptr &&
        static_cast<int>(b) != node.fallback) {
      continue;  // an unguarded edge no walk takes
    }
    const int reached = reach(diagram, branch.target,
                              fork ? Operation::Join : Operation::Merge,
                              depth);
    if (fork && reached < 0) {
      throw TransformError("fork " + id + ": a branch does not reach a join");
    }
    if (reached >= 0 && exit >= 0 && reached != exit) {
      throw TransformError(
          fork ? "fork " + id + ": branches reach different join nodes"
               : "decision " + id +
                     ": branches converge on different merge nodes");
    }
    exit = reached >= 0 ? reached : exit;
  }
  if (fork && exit < 0) {
    throw TransformError("fork " + id + " has no outgoing edges");
  }
  return exit;
}

/// Marks in `seen` the diagrams that run in the context of diagram
/// `index`: itself and the bodies it reaches, except parallel-region
/// bodies — those run with a thread context and declare their elements
/// in the region's lambda.
void mark_domain(const ModelProgram& program, int index,
                 std::vector<bool>& seen) {
  if (seen[static_cast<std::size_t>(index)]) {
    return;
  }
  seen[static_cast<std::size_t>(index)] = true;
  for (const auto& node :
       program.diagrams()[static_cast<std::size_t>(index)].nodes) {
    if (node.body >= 0 && node.op != Operation::Region) {
      mark_domain(program, node.body, seen);
    }
  }
}

/// Prints a lowered program as C++: expressions, element declarations
/// and the execution flow (Fig. 5 lines 29-35), where each decision
/// becomes an if/else chain up to its merge and each fork a fork_join()
/// up to its join.
class Printer {
 public:
  Printer(const ModelProgram& program, CppEmitter& out)
      : program_(program), out_(out) {
    for (const auto& variable : program.variables()) {
      if (variable.coerce_int) {
        integer_slots_.push_back(variable.slot);
      }
    }
    std::sort(integer_slots_.begin(), integer_slots_.end());
    std::set<std::string> used;
    for (const auto& diagram : program.diagrams()) {
      for (const auto& node : diagram.nodes) {
        if (is_control(node.op)) {
          continue;
        }
        std::string name = sanitize_identifier(node.node->name());
        if (!used.insert(name).second) {
          // Disambiguate duplicates with the element id (Fig. 4's mapping
          // assumes distinct names; the element-names rule warns).
          name = sanitize_identifier(name + "_" + node.node->id());
          used.insert(name);
        }
        names_.emplace(&node, std::move(name));
      }
    }
  }

  /// `code` as C++, run by the element with uid `uid` (0 elsewhere).
  [[nodiscard]] std::string expr(
      const expr::Compiled& code, int uid = 0,
      std::span<const std::string> parameters = {}) const {
    return expr::to_cpp(
        code, {&program_.symbols(), integer_slots_, parameters, uid});
  }

  /// A variable's initial value: zero without an initializer; integer
  /// variables truncate.
  [[nodiscard]] std::string initializer(
      const lower::CompiledVariable& variable) const {
    if (!variable.initializer.has_value()) {
      return variable.coerce_int ? "0" : "0.0";
    }
    const std::string value = expr(*variable.initializer);
    return variable.coerce_int ? "static_cast<long>(" + value + ")" : value;
  }

  /// Declares the elements with a runtime class (Fig. 5 lines 24-28) of
  /// the diagrams `selected` marks.
  void declare(const std::vector<bool>& selected) {
    for (std::size_t d = 0; d < selected.size(); ++d) {
      if (!selected[d]) {
        continue;
      }
      for (const auto& node : program_.diagrams()[d].nodes) {
        for (const auto& [op, type] : kRuntimeClasses) {
          if (op != node.op) {
            continue;
          }
          std::string extra;
          if (op == Operation::Collective) {
            extra = ", prophet::workload::CollectiveKind::" +
                    std::string(workload::enumerator_name(node.collective));
          } else if (op == Operation::Critical) {
            extra = ", \"" + escape_cpp(node.lock) + "\"";
          }
          out_.line(std::string(type) + " " + names_.at(&node) + "(ctx, \"" +
                    escape_cpp(node.node->name()) + "\"" + extra + ");");
        }
      }
    }
  }

  /// Lines 20-23: the local variables, initialized.
  void locals() {
    for (const auto& variable : program_.variables()) {
      if (variable.scope == uml::VariableScope::Local) {
        out_.line("[[maybe_unused]] " + variable_type(variable) + " " +
                  variable.name + " = " + initializer(variable) + ";");
      }
    }
  }

  /// Emits the walk of diagram `index`.
  void flow(int index) {
    const DiagramProgram& diagram =
        program_.diagrams()[static_cast<std::size_t>(index)];
    if (diagram.initial < 0) {
      out_.line(throw_statement(diagram.defect));
    } else {
      emit_until(diagram, diagram.initial, -1, false);
    }
  }

 private:
  /// Tag `kind` of `node`; an absent tag reads 0.0, as in the engines.
  [[nodiscard]] std::string tag(const NodePrograms& node,
                                TagKind kind) const {
    const auto& code = node.tag(kind);
    return code.has_value() ? expr(*code, node.uid) : "0.0";
  }

  /// Emits nodes from `index` until `stop`, a final node or a dead end.
  /// `continues`: code follows this path, which therefore may not end
  /// the walk — a C++ block cannot leave its enclosing diagram.
  void emit_until(const DiagramProgram& diagram, int index, int stop,
                  bool continues) {
    for (std::size_t steps = 0; index != stop && index != kEnded; ++steps) {
      if (index < 0 || diagram.nodes[static_cast<std::size_t>(index)].op ==
                           Operation::Final) {
        if (continues) {
          throw TransformError("diagram " + diagram.diagram->id() +
                               ": a branch ends the walk before its merge "
                               "or join");
        }
        return;
      }
      if (steps > diagram.nodes.size()) {
        fail_cyclic(diagram);
      }
      index = emit_node(diagram, diagram.nodes[static_cast<std::size_t>(index)],
                        stop, continues);
    }
  }

  /// Emits one node; returns where the walk continues: its successor, or
  /// nowhere where it raises its lowered defect.
  int emit_node(const DiagramProgram& diagram, const NodePrograms& node,
                int stop, bool continues) {
    if (node.op == Operation::Decision) {
      return decision(diagram, node, stop, continues);
    }
    if (node.op == Operation::Fork) {
      return fork(diagram, node);
    }
    if (!is_control(node.op)) {
      fragment(node);
      element(node);
    }
    if (!node.defect.empty()) {
      out_.line(throw_statement(node.defect));
      return kEnded;
    }
    return node.next;
  }

  void fragment(const NodePrograms& node) {
    if (node.fragment.empty()) {
      return;
    }
    out_.line("// code associated with " + escape_cpp(node.node->name()));
    for (const auto& assignment : node.fragment) {
      if (assignment.target == lower::CompiledAssignment::Target::Undeclared) {
        out_.line(throw_statement("code fragment at node " + node.node->id() +
                                  " assigns undeclared variable '" +
                                  assignment.name + "'"));
      } else {
        out_.line(program_.symbols().name_of(assignment.slot) + " = " +
                  expr(assignment.value, node.uid) + ";");
      }
    }
  }

  /// The element's operation: an execute() call, a region, a block or a
  /// loop.  Unsupported actions have none; their defect raises next.
  void element(const NodePrograms& node) {
    const std::string execute = "co_await " + names_.at(&node) +
                                ".execute(" + std::to_string(node.uid) +
                                ", pid, tid";
    switch (node.op) {
      case Operation::Compute: {
        std::string cost = "0.0";
        if (node.cost().has_value()) {
          cost = tag(node, TagKind::Cost);
        } else if (node.time.has_value()) {
          cost = expr::cpp_double(*node.time);
        }
        out_.line(execute + ", " + cost + ");");
        break;
      }
      case Operation::Send:
      case Operation::Recv:
        out_.line(execute + ", static_cast<int>(" +
                  tag(node, node.op == Operation::Send ? TagKind::Dest
                                                       : TagKind::Source) +
                  "), " + tag(node, TagKind::Size) + ", " +
                  std::to_string(node.msgtag) + ");");
        break;
      case Operation::Barrier:
      case Operation::OmpBarrier:
        out_.line(execute + ");");
        break;
      case Operation::Collective:
        out_.line(execute + ", " + tag(node, TagKind::Size) + ", " +
                  (node.tag(TagKind::Root).has_value()
                       ? "static_cast<int>(" + tag(node, TagKind::Root) + ")"
                       : std::string("0")) +
                  ");");
        break;
      case Operation::OmpFor:
        out_.line(execute + ", " + tag(node, TagKind::Iterations) + ", " +
                  tag(node, TagKind::IterCost) + ", \"" +
                  escape_cpp(node.schedule) + "\", " +
                  std::to_string(node.chunk) + ");");
        break;
      case Operation::Region:
        out_.open("co_await prophet::workload::parallel_region(ctx, " +
                  (node.num_threads().has_value()
                       ? "static_cast<int>(" + tag(node, TagKind::NumThreads) +
                             ")"
                       : std::string("static_cast<int>(nt)")) +
                  ", " + std::to_string(node.uid) + ", \"" +
                  escape_cpp(node.node->name()) + "\",");
        lambda("[&](prophet::workload::ModelContext ctx) -> "
               "prophet::sim::Process {",
               node.body, /*region=*/true);
        break;
      case Operation::Critical:
        out_.open(execute + ",");
        lambda("[&]() -> prophet::sim::Process {", node.body, false);
        break;
      case Operation::Inline:
        // The content nests within the enclosing flow as a block (Fig. 8b
        // lines 79-82).
        out_.line("{  // activity " + escape_cpp(node.node->name()));
        out_.indent();
        flow(node.body);
        out_.close();
        break;
      case Operation::Loop:
        // loop_trips evaluates the bound once and truncates it, as the
        // engines run a loop.
        out_.open("for (const double " +
                  program_.symbols().name_of(node.loop_var_slot) +
                  " : loop_trips(" + tag(node, TagKind::Iterations) + ", \"" +
                  escape_cpp(node.node->id()) + "\")) {  // loop " +
                  escape_cpp(node.node->name()));
        flow(node.body);
        out_.close();
        break;
      default:
        break;
    }
  }

  /// The coroutine lambda running diagram `body`, closing the call it is
  /// the last argument of.  A region's lambda binds the thread's tid and
  /// declares its domain's elements, which run with the thread context.
  void lambda(const std::string& header, int body, bool region) {
    out_.open(header);
    if (region) {
      out_.line("const int tid = ctx.tid;  // thread-private id");
      std::vector<bool> domain(program_.diagrams().size(), false);
      mark_domain(program_, body, domain);
      declare(domain);
    }
    flow(body);
    out_.line("co_return;");
    out_.close(");");
    out_.dedent();  // balance the call-expression open()
  }

  int decision(const DiagramProgram& diagram, const NodePrograms& node,
               int stop, bool continues) {
    const int merge = exit_of(diagram, node, 0);
    const auto branch = [&](int target) {
      emit_until(diagram, target, merge >= 0 ? merge : stop,
                 merge >= 0 || continues);
    };
    const auto otherwise = [&] {
      if (node.fallback < 0) {
        out_.line(throw_statement(node.defect));
      } else {
        branch(node.branches[static_cast<std::size_t>(node.fallback)].target);
      }
    };
    bool first = true;
    for (const Branch& guarded : node.branches) {
      if (guarded.guard == nullptr) {
        continue;  // unguarded and `else` edges are never taken by a guard
      }
      if (!first) {
        out_.dedent();
      }
      out_.open((first ? "if (" : "} else if (") +
                expr(*guarded.guard, node.uid) + ") {");
      first = false;
      branch(guarded.target);
    }
    if (first) {
      otherwise();  // no guard: every walk takes the fallback
    } else {
      out_.dedent();
      out_.open("} else {");
      otherwise();
      out_.close();
    }
    return merge >= 0 ? merge : kEnded;
  }

  int fork(const DiagramProgram& diagram, const NodePrograms& node) {
    const int join = exit_of(diagram, node, 0);
    // The branches are built before the co_await: g++ 12 rejects a braced
    // list inside a co_await expression.
    out_.open("{  // fork");
    out_.open(
        "std::vector<std::function<prophet::sim::Process()>> branches{");
    for (std::size_t b = 0; b < node.branches.size(); ++b) {
      out_.open("[&]() -> prophet::sim::Process {");
      emit_until(diagram, node.branches[b].target, join, true);
      out_.line("co_return;");
      out_.close(b + 1 < node.branches.size() ? "," : "");
    }
    out_.close(";");
    out_.line(
        "co_await prophet::workload::fork_join(ctx, std::move(branches));");
    out_.close();
    const NodePrograms& after =
        diagram.nodes[static_cast<std::size_t>(join)];
    if (!after.join_defect.empty()) {
      out_.line(throw_statement(after.join_defect));
      return kEnded;
    }
    return after.next;
  }

  const ModelProgram& program_;
  CppEmitter& out_;
  std::vector<expr::Slot> integer_slots_;
  std::unordered_map<const NodePrograms*, std::string> names_;
};

}  // namespace

void CppEmitter::line(std::string_view text) {
  for (int i = 0; i < depth_ * indent_width_; ++i) {
    text_ += ' ';
  }
  text_ += text;
  text_ += '\n';
}

void CppEmitter::blank() { text_ += '\n'; }

void CppEmitter::open(std::string_view header) {
  line(header);
  ++depth_;
}

void CppEmitter::close(std::string_view suffix) {
  dedent();
  line("}" + std::string(suffix));
}

void CppEmitter::dedent() {
  if (depth_ == 0) {
    throw std::logic_error("CppEmitter: unbalanced dedent");
  }
  --depth_;
}

std::string sanitize_identifier(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      out += c;
    } else {
      out += '_';
    }
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out.front()))) {
    out = "e_" + out;
  }
  return out;
}

Transformer::Transformer(TransformOptions options)
    : options_(std::move(options)) {}

std::vector<const NodePrograms*> Transformer::select_performance_elements(
    const ModelProgram& program) const {
  // Fig. 5 lines 1-8: FORALL diagrams, FORALL elements, select those the
  // lowering resolved to a performance modeling element.
  std::vector<const NodePrograms*> elements;
  for (const auto& diagram : program.diagrams()) {
    for (const auto& node : diagram.nodes) {
      if (!is_control(node.op)) {
        elements.push_back(&node);
      }
    }
  }
  return elements;
}

std::string Transformer::emit_globals(const ModelProgram& program) const {
  CppEmitter out;
  for (const auto& variable : program.variables()) {
    if (variable.scope == uml::VariableScope::Global) {
      out.line(variable_type(variable) + " " + variable.name + " = 0;");
    }
  }
  return out.text();
}

std::string Transformer::emit_cost_functions(
    const ModelProgram& program) const {
  // Callees precede callers (the bodies are plain C++ function
  // definitions, Fig. 8a lines 31-54): repeatedly take the first
  // (model-order) function whose called functions are all emitted.
  const auto functions = program.functions();
  std::vector<bool> emitted(functions.size(), false);
  std::vector<std::size_t> ordered;
  while (ordered.size() < functions.size()) {
    const std::size_t before = ordered.size();
    for (std::size_t id = 0; id < functions.size(); ++id) {
      const auto code = functions[id].code();
      if (!emitted[id] &&
          std::all_of(code.begin(), code.end(), [&](const expr::Instr& in) {
            return in.op != expr::Op::CallUser ||
                   emitted[static_cast<std::size_t>(in.a)];
          })) {
        emitted[id] = true;
        ordered.push_back(id);
      }
    }
    if (ordered.size() == before) {
      throw TransformError("cyclic cost-function dependencies");
    }
  }
  CppEmitter out;
  const Printer printer(program, out);
  for (const std::size_t id : ordered) {
    const uml::CostFunction& fn = program.model().cost_functions()[id];
    std::string params;
    for (const auto& parameter : fn.parameters) {
      params += (params.empty() ? "double " : ", double ") + parameter;
    }
    out.line("double " + fn.name + "(" + params + ") { return " +
             printer.expr(functions[id], 0, fn.parameters) + "; }");
  }
  return out.text();
}

std::string Transformer::emit_locals(const ModelProgram& program) const {
  CppEmitter out;
  Printer(program, out).locals();
  return out.text();
}

std::string Transformer::emit_declarations(
    const ModelProgram& program) const {
  CppEmitter out;
  Printer(program, out).declare(
      std::vector<bool>(program.diagrams().size(), true));
  return out.text();
}

std::string Transformer::emit_flow(const ModelProgram& program) const {
  CppEmitter out;
  Printer(program, out).flow(program.entry());
  return out.text();
}

std::string Transformer::transform(const uml::Model& model) const {
  lower::ModelProgramPtr program;
  try {
    program = lower::lower(model);
  } catch (const lower::LowerError& error) {
    throw TransformError(error.what());
  }
  return transform(*program);
}

std::string Transformer::transform(const ModelProgram& program) const {
  CppEmitter out;
  Printer printer(program, out);
  out.line("// Generated by Performance Prophet — C++ representation of "
           "performance model '" +
           escape_cpp(program.model().name()) + "'.");
  out.raw(R"(// Regenerate from the UML model; do not edit.
#include <cmath>
#include <stdexcept>
#include <utility>
)");
  if (options_.emit_main) {
    out.raw("#include <cstdio>\n#include <cstdlib>\n");
  }
  out.raw(R"(
#include "prophet/estimator/estimator.hpp"
#include "prophet/workload/runtime.hpp"

)");
  for (const auto& [op, type] : kRuntimeClasses) {
    out.line("using prophet::workload::" + std::string(type) + ";");
  }
  out.raw(R"(using prophet::workload::loop_trips;

// -- System parameters (bound per estimation run) --
namespace {
double np = 1;
double nt = 1;
double nn = 1;
double ppn = 1;
}  // namespace

// -- Global variables (Fig. 5 lines 9-12) --
)");
  out.raw(emit_globals(program));
  out.raw("\n// -- Cost functions (Fig. 5 lines 13-18) --\n");
  out.raw(emit_cost_functions(program));
  out.blank();
  out.open("void prophet_init_globals() {");
  for (const auto& variable : program.variables()) {
    if (variable.scope == uml::VariableScope::Global) {
      out.line(variable.name + " = " + printer.initializer(variable) + ";");
    }
  }
  out.close();
  out.raw(R"(
void prophet_bind_system(const prophet::machine::SystemParameters& sp) {
  np = sp.processes;
  nt = sp.threads_per_process;
  nn = sp.nodes;
  ppn = sp.processors_per_node;
}

// -- Program (Fig. 5 lines 19-35) --
prophet::sim::Process prophet_model(prophet::workload::ModelContext ctx) {
  [[maybe_unused]] const int pid = ctx.pid;
  [[maybe_unused]] const int tid = ctx.tid;
  // -- Local variables (lines 20-23) --
)");
  out.indent();
  printer.locals();
  out.line("// -- Performance modeling elements (lines 24-28) --");
  // Elements are declared at function scope except in parallel-region
  // domains, which declare theirs inside the region lambdas.
  std::vector<bool> in_regions(program.diagrams().size(), false);
  for (const auto* element : select_performance_elements(program)) {
    if (element->op == Operation::Region) {
      mark_domain(program, element->body, in_regions);
    }
  }
  in_regions.flip();
  printer.declare(in_regions);
  out.line("// -- Execution flow (lines 29-35) --");
  printer.flow(program.entry());
  out.line("co_return;");
  out.close();
  out.raw(R"(
prophet::estimator::FunctionModel prophet_program() {
  return prophet::estimator::FunctionModel(
      [](const prophet::machine::SystemParameters& sp) {
        prophet_bind_system(sp);
        prophet_init_globals();
      },
      [](prophet::workload::ModelContext ctx) {
        return prophet_model(std::move(ctx));
      });
}
)");
  if (options_.emit_main) {
    out.raw(R"(
int main(int argc, char** argv) {
  prophet::machine::SystemParameters sp;
  if (argc > 1) sp.processes = std::atoi(argv[1]);
  if (argc > 2) sp.nodes = std::atoi(argv[2]);
  if (argc > 3) sp.processors_per_node = std::atoi(argv[3]);
  if (argc > 4) sp.threads_per_process = std::atoi(argv[4]);
  prophet::estimator::SimulationManager manager(sp);
  auto program = prophet_program();
  const auto report = manager.run(program);
  std::printf("%s", report.summary().c_str());
  return 0;
}
)");
  }
  return out.text();
}

}  // namespace prophet::codegen
