#include "prophet/codegen/transformer.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
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

/// Raised while a diagram is printed in structured form when its
/// decisions and forks do not nest; the diagram then prints as labelled
/// blocks.
struct Unstructured {};

[[noreturn]] void unstructured() { throw Unstructured{}; }

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

/// C++20 keywords and alternative tokens, and the macros the prelude's
/// standard headers define that a model name could hit.
constexpr std::string_view kKeywords =
    "alignas alignof and and_eq asm auto bitand bitor bool break case catch "
    "char char8_t char16_t char32_t class compl concept const consteval "
    "constexpr constinit const_cast continue co_await co_return co_yield "
    "decltype default delete do double dynamic_cast else enum explicit "
    "export extern false float for friend goto if inline int long mutable "
    "namespace new noexcept not not_eq nullptr operator or or_eq private "
    "protected public register reinterpret_cast requires return short "
    "signed sizeof static static_assert static_cast struct switch template "
    "this thread_local throw true try typedef typeid typename union "
    "unsigned using virtual void volatile wchar_t while xor xor_eq NULL NAN "
    "INFINITY HUGE_VAL M_PI M_E errno assert offsetof";

/// The names a cost-function body may read besides model names.
constexpr std::string_view kBodyNames =
    "np nt nn ppn depth args std prophet throw_eval";

/// The names the unit itself declares or uses, and what `using namespace
/// prophet::cgen` brings in.
constexpr std::string_view kUnitNames =
    "ctx pid tid np nt nn ppn budget depth args steps joins branches branch "
    "walk self entry reached none start_run prophet_model set_budget run_np "
    "run_nt run_nn run_ppn run_budget prophet_cgen_evaluator main std "
    "prophet ActionPlus BarrierElement CollectiveElement CriticalElement "
    "OmpBarrierElement RecvElement SendElement WorkshareElement loop_trips "
    "EvalFault throw_eval throw_error throw_at_site throw_different_joins "
    "at_site charge_loop_trips spawn Evaluator kEvaluatorSymbol "
    "EvaluatorEntry";

/// The identifiers of one C++ scope: every claim gets a name that no
/// other claim, keyword or reserved name has.
class Names {
 public:
  /// A scope where the keywords and the space-separated `reserved` are
  /// taken.
  explicit Names(std::string_view reserved) {
    for (const std::string_view words : {kKeywords, reserved}) {
      for (std::size_t at = 0; at < words.size();) {
        const std::size_t end = std::min(words.find(' ', at), words.size());
        taken_.emplace(words.substr(at, end - at));
        at = end + 1;
      }
    }
  }

  /// `name` as an identifier; when taken, `name_<suffix>`, then that with
  /// `_2`, `_3`, ... appended.
  std::string claim(std::string_view name, std::string_view suffix) {
    std::string candidate = sanitize_identifier(name);
    if (!available(candidate)) {
      const std::string base =
          sanitize_identifier(candidate + "_" + std::string(suffix));
      candidate = base;
      for (int n = 2; !available(candidate); ++n) {
        candidate = base + "_" + std::to_string(n);
      }
    }
    taken_.insert(candidate);
    return candidate;
  }

  /// Keeps later claims off `name`.
  void avoid(const std::string& name) { taken_.insert(name); }

 private:
  /// Free, and not a fork's `branch<n>`.
  [[nodiscard]] bool available(const std::string& name) const {
    const bool branch =
        name.size() > 6 && name.starts_with("branch") &&
        std::all_of(name.begin() + 6, name.end(), [](char c) {
          return std::isdigit(static_cast<unsigned char>(c)) != 0;
        });
    return !branch && taken_.find(name) == taken_.end();
  }

  std::set<std::string, std::less<>> taken_;
};

/// `throw_error("<message>");`.
std::string throw_statement(const std::string& message) {
  return "throw_error(\"" + escape_cpp(message) + "\");";
}

/// The message a walk raises past its diagram's step limit.
std::string step_limit_error(const DiagramProgram& diagram) {
  return "diagram " + diagram.diagram->id() +
         ": walk exceeded step limit (unstructured cycle without "
         "<<loop+>>?)";
}

/// True when printed expression `text` may raise (to_cpp wraps exactly
/// those sited programs in at_site).
bool may_raise(const std::string& text) { return text.starts_with("at_site("); }

int exit_of(const DiagramProgram& diagram, const NodePrograms& node,
            std::size_t depth);

/// The first node of kind `until` (Merge or Join) a path from `index`
/// reaches, skipping the decisions and forks nested on it; -1 when the
/// path ends first.  A join on the way to a merge would stop a fork
/// branch there, so it does not nest.
int reach(const DiagramProgram& diagram, int index, Operation until,
          std::size_t depth) {
  for (std::size_t steps = 0; index >= 0; ++steps) {
    if (steps > diagram.nodes.size()) {
      unstructured();
    }
    const NodePrograms& node = diagram.nodes[static_cast<std::size_t>(index)];
    if (node.op == until) {
      return index;
    }
    if (node.op == Operation::Final) {
      return -1;
    }
    if (node.op == Operation::Join) {
      unstructured();
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
/// join.  One walker serves both; flow that does not nest raises
/// Unstructured.
int exit_of(const DiagramProgram& diagram, const NodePrograms& node,
            std::size_t depth) {
  if (depth > kMaxStructureDepth) {
    unstructured();
  }
  const bool fork = node.op == Operation::Fork;
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
    if ((fork && reached < 0) ||
        (reached >= 0 && exit >= 0 && reached != exit)) {
      unstructured();
    }
    exit = reached >= 0 ? reached : exit;
  }
  if (fork && exit < 0) {
    unstructured();  // a fork without branches
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

/// Slot -> the C++ expression reading its binding; empty when unbound.
using Bindings = std::vector<std::string>;

/// One printed cost function: a function body against one run frame.
/// The frame of the execution flow gives each function its model name;
/// a global initializer that calls a function before every global it
/// reads is bound gets a variant of its own.
struct Variant {
  int function = 0;
  Bindings run;  // what the body reads
  std::string name;
  bool raises = false;
};

/// Prints a lowered program as C++ (Fig. 5): names, run state, cost
/// functions, the hooks and the execution flow.  A diagram whose
/// decisions and forks nest prints structured — each decision an if/else
/// chain up to its merge, each fork spawned branches up to its join; any
/// other diagram prints as labelled blocks that walk it as the engines
/// do.  Every read binds as it does in the VM where it runs.
class Printer {
 public:
  explicit Printer(const ModelProgram& program) : program_(program) {
    // Model names in order of precedence: globals, cost functions,
    // locals, elements, loop variables.  Storage is per slot, as in the
    // VM.
    const auto claim_variables = [&](uml::VariableScope scope,
                                     const char* suffix, auto& names) {
      for (const auto& variable : program.variables()) {
        if (variable.scope == scope && !names.contains(variable.slot)) {
          names[variable.slot] = names_.claim(variable.name, suffix);
        }
      }
    };
    claim_variables(uml::VariableScope::Global, "g", global_names_);
    const auto& functions = program.model().cost_functions();
    for (std::size_t id = 0; id < program.functions().size(); ++id) {
      function_names_.push_back(names_.claim(functions[id].name, "f"));
    }
    for (std::size_t id = 0; id < program.functions().size(); ++id) {
      // A parameter takes no name its body may read: a global, a cost
      // function or a name of the unit's.  Later claims avoid it.
      Names scope(kBodyNames);
      for (const auto& [slot, name] : global_names_) {
        scope.avoid(name);
      }
      for (const auto& name : function_names_) {
        scope.avoid(name);
      }
      auto& parameters = parameter_names_.emplace_back();
      for (const auto& parameter : functions[id].parameters) {
        parameters.push_back(scope.claim(parameter, "p"));
        names_.avoid(parameters.back());
      }
    }
    claim_variables(uml::VariableScope::Local, "l", local_names_);
    for (const auto& diagram : program.diagrams()) {
      for (const auto& node : diagram.nodes) {
        // Disambiguate duplicates with the element id (Fig. 4's mapping
        // assumes distinct names; the element-names rule warns).
        if (!runtime_class(node.op).empty()) {
          element_names_[&node] =
              names_.claim(node.node->name(), node.node->id());
        }
      }
    }
    for (const auto& diagram : program.diagrams()) {
      for (const auto& node : diagram.nodes) {
        if (node.op == Operation::Loop &&
            !loop_names_.contains(node.loop_var_slot)) {
          loop_names_[node.loop_var_slot] = names_.claim(
              program.symbols().name_of(node.loop_var_slot), node.node->id());
        }
      }
    }
    run_ = structural();
    for (const auto& [slot, name] : global_names_) {
      run_[slot] = name;
    }
    analyze_calls();
    for (std::size_t id = 0; id < program.functions().size(); ++id) {
      (void)variant(static_cast<int>(id), run_);
    }
  }

  /// Lines 9-12: the run state, one thread_local per global slot.
  void globals(CppEmitter& out) {
    for (const auto& [slot, name] : global_names_) {
      out.line("thread_local double " + name + " = 0;");
    }
  }

  /// Lines 13-18: every printed cost function, callees before callers
  /// wherever the call graph allows; with a call cycle every function is
  /// declared first.
  void functions(CppEmitter& out) {
    std::vector<std::string> definitions;
    std::vector<std::vector<int>> callees;
    // Printing a body may ask for more variants.
    for (std::size_t v = 0; v < variants_.size(); ++v) {
      const Variant printed = variants_[v];
      const auto id = static_cast<std::size_t>(printed.function);
      calls_.clear();
      const std::string body = print(program_.functions()[id], printed.run,
                                     printed.run, {}, {}, 0,
                                     parameter_names_[id], true);
      callees.push_back(calls_);
      definitions.push_back(signature(printed) +
                            (deep_ ? " {\n  if (depth > " +
                                         std::to_string(expr::kMaxCallDepth) +
                                         ") {\n    return throw_eval(\"cost-"
                                         "function call depth exceeded "
                                         "(cycle?)\");\n  }\n  return " +
                                         body + ";\n}"
                                   : " { return " + body + "; }"));
    }
    for (std::size_t v = 0; deep_ && v < variants_.size(); ++v) {
      out.line(signature(variants_[v]) + ";");
    }
    std::vector<char> emitted(variants_.size(), 0);
    const auto emit = [&](const auto& self, std::size_t v) -> void {
      if (std::exchange(emitted[v], 1) == 0) {
        for (const int callee : callees[v]) {
          self(self, static_cast<std::size_t>(callee));
        }
        out.raw(definitions[v] + "\n");
      }
    };
    for (std::size_t v = 0; v < variants_.size(); ++v) {
      emit(emit, v);
    }
  }

  /// The start_run hook's body: binds the system parameters, then
  /// initializes the globals in declaration order, each seeing only the
  /// globals before it.
  void start_run(CppEmitter& out) {
    out.line("np = run_np;");
    out.line("nt = run_nt;");
    out.line("nn = run_nn;");
    out.line("ppn = run_ppn;");
    Bindings run = structural();
    for (const auto& variable : program_.variables()) {
      if (variable.scope != uml::VariableScope::Global) {
        continue;
      }
      const std::string& name = global_names_.at(variable.slot);
      out.line(name + " = " + initializer(variable, run, run, {}, {}) + ";");
      run[variable.slot] = name;
    }
  }

  /// Lines 20-23: the local variables, initialized in declaration order,
  /// each seeing only the locals before it.  Leaves the flow's bindings.
  void locals(CppEmitter& out) {
    flow_ = run_;
    for (const auto& variable : program_.variables()) {
      if (variable.scope != uml::VariableScope::Local) {
        continue;
      }
      const std::string& name = local_names_.at(variable.slot);
      const std::string value =
          initializer(variable, flow_, run_, "pid", "tid");
      out.line((flow_[variable.slot] != name ? "[[maybe_unused]] double "
                                             : "") +
               name + " = " + value + ";");
      flow_[variable.slot] = name;
    }
  }

  /// Declares the elements with a runtime class (Fig. 5 lines 24-28) of
  /// the diagrams `selected` marks.
  void declare(CppEmitter& out, const std::vector<bool>& selected) {
    for (std::size_t d = 0; d < selected.size(); ++d) {
      if (!selected[d]) {
        continue;
      }
      for (const auto& node : program_.diagrams()[d].nodes) {
        const std::string_view type = runtime_class(node.op);
        if (type.empty()) {
          continue;
        }
        std::string extra;
        if (node.op == Operation::Collective) {
          extra = ", prophet::workload::CollectiveKind::" +
                  std::string(workload::enumerator_name(node.collective));
        } else if (node.op == Operation::Critical) {
          extra = ", \"" + escape_cpp(node.lock) + "\"";
        }
        out.line(std::string(type) + " " + element_names_.at(&node) +
                 "(ctx, \"" + escape_cpp(node.node->name()) + "\"" + extra +
                 ");");
      }
    }
  }

  /// Lines 29-35: the walk of diagram `index` (after locals()).
  void flow(CppEmitter& out, int index) {
    out_ = &out;
    flow(index);
  }

 private:
  /// The run frame before any global is bound: the system parameters.
  [[nodiscard]] Bindings structural() const {
    Bindings run(program_.slot_count());
    run[program_.np_slot()] = "np";
    run[program_.nt_slot()] = "nt";
    run[program_.nn_slot()] = "nn";
    run[program_.ppn_slot()] = "ppn";
    return run;
  }

  [[nodiscard]] static std::string_view runtime_class(Operation op) {
    for (const auto& [candidate, type] : kRuntimeClasses) {
      if (candidate == op) {
        return type;
      }
    }
    return {};
  }

  // --- Cost functions --------------------------------------------------

  /// Which slots each body reads, through its callees too, and whether
  /// calls may nest deeper than the VM allows (a call cycle, or a chain
  /// longer than kMaxCallDepth): then every function takes its depth.
  void analyze_calls() {
    const auto functions = program_.functions();
    reads_.resize(functions.size());
    std::vector<std::set<int>> calls(functions.size());
    for (std::size_t id = 0; id < functions.size(); ++id) {
      for (const expr::Instr& in : functions[id].code()) {
        if (in.op == expr::Op::CallUser) {
          calls[id].insert(in.a);
        }
      }
      const auto slots = functions[id].referenced_slots();
      reads_[id].insert(slots.begin(), slots.end());
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (std::size_t id = 0; id < functions.size(); ++id) {
        for (const int callee : calls[id]) {
          for (const expr::Slot slot :
               reads_[static_cast<std::size_t>(callee)]) {
            changed = reads_[id].insert(slot).second || changed;
          }
        }
      }
    }
    // The longest call chain from each function; on a cycle it grows
    // until it passes the limit.
    std::vector<std::size_t> chain(functions.size(), 1);
    for (bool changed = true; changed && !deep_;) {
      changed = false;
      for (std::size_t id = 0; id < functions.size(); ++id) {
        for (const int callee : calls[id]) {
          const std::size_t via = chain[static_cast<std::size_t>(callee)] + 1;
          if (via > chain[id]) {
            chain[id] = via;
            changed = true;
            deep_ = deep_ || via > expr::kMaxCallDepth;
          }
        }
      }
    }
  }

  /// The variant of function `id` that runs against `run`: the
  /// function's own name when it reads what the flow's run frame binds.
  int variant(int id, const Bindings& run) {
    const auto& reads = reads_[static_cast<std::size_t>(id)];
    std::string key = std::to_string(id);
    bool full = true;
    for (const expr::Slot slot : reads) {
      key += '\0' + run[slot];
      full = full && run[slot] == run_[slot];
    }
    if (const auto found = variant_ids_.find(key);
        found != variant_ids_.end()) {
      return found->second;
    }
    const std::string& base = function_names_[static_cast<std::size_t>(id)];
    Variant made{id, run, base, deep_};
    if (!full) {
      made.name = names_.claim(base + "_v" + std::to_string(variants_.size()),
                               "f");
    }
    if (!made.raises) {
      const expr::Compiled& body =
          program_.functions()[static_cast<std::size_t>(id)];
      for (const expr::Instr& in : body.code()) {
        if (in.op == expr::Op::Throw ||
            (in.op == expr::Op::LoadSlot &&
             run[static_cast<std::size_t>(in.a)].empty()) ||
            (in.op == expr::Op::CallUser &&
             variants_[static_cast<std::size_t>(variant(in.a, run))]
                 .raises)) {
          made.raises = true;
        }
      }
    }
    const auto index = static_cast<int>(variants_.size());
    variants_.push_back(std::move(made));
    variant_ids_.emplace(std::move(key), index);
    return index;
  }

  /// `double F(double x, ...)`, plus the call depth when calls count it.
  [[nodiscard]] std::string signature(const Variant& variant) const {
    std::string params;
    for (const auto& parameter :
         parameter_names_[static_cast<std::size_t>(variant.function)]) {
      params += (params.empty() ? "double " : ", double ") + parameter;
    }
    if (deep_) {
      params += params.empty() ? "unsigned depth" : ", unsigned depth";
    }
    return "double " + variant.name + "(" + params + ")";
  }

  // --- Expressions -----------------------------------------------------

  /// `code` as C++ where `slots` binds the names, calls see `run`, the
  /// ambients are `pid`/`tid` (0 when empty) and `uid`; `body` inside a
  /// cost function, whose calls nest one deeper.
  [[nodiscard]] std::string print(const expr::Compiled& code,
                                  const Bindings& slots, const Bindings& run,
                                  std::string_view pid, std::string_view tid,
                                  int uid,
                                  std::span<const std::string> parameters = {},
                                  bool body = false) {
    expr::CppNames names;
    names.slots = slots;
    names.parameters = parameters;
    names.pid = pid;
    names.tid = tid;
    names.uid = uid;
    names.callee = [&](int id) {
      const int v = variant(id, run);
      calls_.push_back(v);
      const Variant& callee = variants_[static_cast<std::size_t>(v)];
      return expr::CppCallee{
          callee.name,
          parameter_names_[static_cast<std::size_t>(id)].size(),
          callee.raises, deep_ ? (body ? "depth + 1" : "1") : ""};
    };
    return expr::to_cpp(code, names);
  }

  /// A variable's initial value under `slots` (zero without an
  /// initializer); integer variables truncate.
  [[nodiscard]] std::string initializer(
      const lower::CompiledVariable& variable, const Bindings& slots,
      const Bindings& run, std::string_view pid, std::string_view tid) {
    if (!variable.initializer.has_value()) {
      return "0.0";
    }
    if (const auto value = variable.initializer->constant();
        value.has_value() && variable.coerce_int) {
      return expr::cpp_double(std::trunc(*value));
    }
    const std::string value =
        print(*variable.initializer, slots, run, pid, tid, 0);
    return variable.coerce_int ? "std::trunc(" + value + ")" : value;
  }

  /// `code` run by the element with uid `uid` in the flow.
  [[nodiscard]] std::string expr(const expr::Compiled& code, int uid) {
    if (checking_shape_) {
      return "0.0";
    }
    return print(code, flow_, run_, "pid", "tid", uid);
  }

  /// Tag `kind` of `node`; an absent tag reads 0.0, as in the engines.
  [[nodiscard]] std::string tag(const NodePrograms& node, TagKind kind) {
    const auto& code = node.tag(kind);
    return code.has_value() ? expr(*code, node.uid) : "0.0";
  }

  // --- Execution flow --------------------------------------------------

  /// Emits the walk of diagram `index`, in the form its shape allows.
  void flow(int index) {
    const DiagramProgram& diagram =
        program_.diagrams()[static_cast<std::size_t>(index)];
    if (checking_shape_) {
      return;  // checking a diagram's shape prints none of its bodies
    }
    if (diagram.initial < 0) {
      out_->line(throw_statement(diagram.defect));
    } else if (structured(index)) {
      emit_until(diagram, diagram.initial, -1, false);
    } else {
      labelled(diagram);
    }
  }

  /// True when diagram `index` prints structured (once per diagram).
  bool structured(int index) {
    auto [known, inserted] = structured_.emplace(index, true);
    if (inserted) {
      const DiagramProgram& diagram =
          program_.diagrams()[static_cast<std::size_t>(index)];
      CppEmitter discarded;
      CppEmitter* const out = std::exchange(out_, &discarded);
      checking_shape_ = true;
      try {
        emit_until(diagram, diagram.initial, -1, false);
      } catch (const Unstructured&) {
        known->second = false;
      }
      checking_shape_ = false;
      out_ = out;
    }
    return known->second;
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
          unstructured();  // a branch ends the walk before its merge
        }
        return;
      }
      if (steps > diagram.nodes.size()) {
        unstructured();
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
      out_->line(throw_statement(node.defect));
      return kEnded;
    }
    return node.next;
  }

  void fragment(const NodePrograms& node) {
    if (node.fragment.empty()) {
      return;
    }
    out_->line("// code associated with " + escape_cpp(node.node->name()));
    for (const auto& assignment : node.fragment) {
      std::string value = expr(assignment.value, node.uid);
      using Target = lower::CompiledAssignment::Target;
      if (assignment.target == Target::Undeclared) {
        out_->line("static_cast<void>(" + value + ");");
        out_->line(throw_statement("code fragment at node " + node.node->id() +
                                   " assigns undeclared variable '" +
                                   assignment.name + "'"));
        continue;
      }
      if (assignment.coerce_int) {
        value = "std::trunc(" + value + ")";
      }
      out_->line((assignment.target == Target::Local
                      ? local_names_.at(assignment.slot)
                      : global_names_.at(assignment.slot)) +
                 " = " + value + ";");
    }
  }

  /// `co_await <name>.execute(<uid>, pid, tid<rest>);`, where `rest`
  /// formats the tags the VM evaluates in order.  When more than one may
  /// raise, they go through a braced list first, which C++ evaluates in
  /// order.
  template <class Rest>
  void execute(const NodePrograms& node, std::vector<std::string> tags,
               Rest rest) {
    const std::string call = "co_await " + element_names_.at(&node) +
                             ".execute(" + std::to_string(node.uid) +
                             ", pid, tid";
    if (std::count_if(tags.begin(), tags.end(), may_raise) < 2) {
      out_->line(call + rest(tags) + ");");
      return;
    }
    std::string list;
    for (std::size_t k = 0; k < tags.size(); ++k) {
      list += (k == 0 ? "" : ", ") + tags[k];
      tags[k] = "args[" + std::to_string(k) + "]";
    }
    out_->open("{");
    out_->line("const double args[] = {" + list + "};");
    out_->line(call + rest(tags) + ");");
    out_->close();
  }

  /// The element's operation: an execute() call, a region, a block or a
  /// loop.  Unsupported actions have none; their defect raises next.
  void element(const NodePrograms& node) {
    switch (node.op) {
      case Operation::Compute: {
        std::string cost = "0.0";
        if (node.cost().has_value()) {
          cost = tag(node, TagKind::Cost);
        } else if (node.time.has_value()) {
          cost = expr::cpp_double(*node.time);
        }
        execute(node, {cost}, [](const auto& t) { return ", " + t[0]; });
        break;
      }
      case Operation::Send:
      case Operation::Recv:
        execute(node,
                {tag(node, node.op == Operation::Send ? TagKind::Dest
                                                      : TagKind::Source),
                 tag(node, TagKind::Size)},
                [&node](const auto& t) {
                  return ", static_cast<int>(" + t[0] + "), " + t[1] + ", " +
                         std::to_string(node.msgtag);
                });
        break;
      case Operation::Barrier:
      case Operation::OmpBarrier:
        execute(node, {}, [](const auto&) { return std::string(); });
        break;
      case Operation::Collective:
        execute(node, {tag(node, TagKind::Size), tag(node, TagKind::Root)},
                [&node](const auto& t) {
                  return ", " + t[0] + ", " +
                         (node.tag(TagKind::Root).has_value()
                              ? "static_cast<int>(" + t[1] + ")"
                              : std::string("0"));
                });
        break;
      case Operation::OmpFor:
        execute(node,
                {tag(node, TagKind::Iterations), tag(node, TagKind::IterCost)},
                [&node](const auto& t) {
                  return ", " + t[0] + ", " + t[1] + ", \"" +
                         escape_cpp(node.schedule) + "\", " +
                         std::to_string(node.chunk);
                });
        break;
      case Operation::Region:
        out_->open("co_await prophet::workload::parallel_region(ctx, " +
                   (node.num_threads().has_value()
                        ? "static_cast<int>(" +
                              tag(node, TagKind::NumThreads) + ")"
                        : std::string("static_cast<int>(nt)")) +
                   ", " + std::to_string(node.uid) + ", \"" +
                   escape_cpp(node.node->name()) + "\",");
        lambda("[&](prophet::workload::ModelContext ctx) -> "
               "prophet::sim::Process {",
               node.body, /*region=*/true);
        break;
      case Operation::Critical:
        out_->open("co_await " + element_names_.at(&node) + ".execute(" +
                   std::to_string(node.uid) + ", pid, tid,");
        lambda("[&]() -> prophet::sim::Process {", node.body, false);
        break;
      case Operation::Inline:
        // The content nests within the enclosing flow as a block (Fig. 8b
        // lines 79-82).
        out_->line("{  // activity " + escape_cpp(node.node->name()));
        out_->indent();
        flow(node.body);
        out_->close();
        break;
      case Operation::Loop: {
        // loop_trips evaluates the bound once and truncates it, as the
        // engines run a loop; each trip is charged to the job's budget.
        const std::string& name = loop_names_.at(node.loop_var_slot);
        out_->open("for (const double " + name + " : loop_trips(" +
                   tag(node, TagKind::Iterations) + ", \"" +
                   escape_cpp(node.node->id()) + "\")) {  // loop " +
                   escape_cpp(node.node->name()));
        out_->line(
            "if (budget != nullptr) charge_loop_trips(*budget, "
            "\"cgen-loop\");");
        std::string outer = std::exchange(flow_[node.loop_var_slot], name);
        flow(node.body);
        flow_[node.loop_var_slot] = std::move(outer);
        out_->close();
        break;
      }
      default:
        break;
    }
  }

  /// The coroutine lambda running diagram `body`, closing the call it is
  /// the last argument of.  A region's lambda binds the thread's tid and
  /// declares its domain's elements, which run with the thread context.
  void lambda(const std::string& header, int body, bool region) {
    out_->open(header);
    if (region && !checking_shape_) {
      out_->line("const int tid = ctx.tid;  // thread-private id");
      std::vector<bool> domain(program_.diagrams().size(), false);
      mark_domain(program_, body, domain);
      declare(*out_, domain);
    }
    flow(body);
    out_->line("co_return;");
    out_->close(");");
    out_->dedent();  // balance the call-expression open()
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
        out_->line(throw_statement(node.defect));
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
        out_->dedent();
      }
      out_->open((first ? "if (" : "} else if (") +
                 expr(*guarded.guard, node.uid) + ") {");
      first = false;
      branch(guarded.target);
    }
    if (first) {
      otherwise();  // no guard: every walk takes the fallback
    } else {
      out_->dedent();
      out_->open("} else {");
      otherwise();
      out_->close();
    }
    return merge >= 0 ? merge : kEnded;
  }

  /// Spawns a fork's branches, `branch(b)` running branch b, in order up
  /// to the first dangling one, then joins each.
  template <class Spawned>
  void spawn_branches(const NodePrograms& node, Spawned branch) {
    std::size_t count = 0;
    while (count < node.branches.size() && node.branches[count].target >= 0) {
      ++count;
    }
    if (count > 0) {
      out_->line("prophet::sim::ProcessRef branches[" + std::to_string(count) +
                 "];");
    }
    for (std::size_t b = 0; b < count; ++b) {
      out_->line("branches[" + std::to_string(b) + "] = spawn(ctx, " +
                 branch(b) + ");");
    }
    if (count < node.branches.size()) {
      out_->line(throw_statement(node.defect));  // a dangling edge
    } else {
      out_->open("for (const auto& branch : branches) {");
      out_->line("co_await branch;");
      out_->close();
    }
  }

  /// A structured fork: one named coroutine lambda per branch, walking
  /// it up to the common join.  The lambdas outlive their coroutines,
  /// which reach the walk through them.
  int fork(const DiagramProgram& diagram, const NodePrograms& node) {
    const int join = exit_of(diagram, node, 0);
    out_->open("{  // fork " + escape_cpp(node.node->name()));
    for (std::size_t b = 0; b < node.branches.size(); ++b) {
      out_->open("auto branch" + std::to_string(b) +
                 " = [&]() -> prophet::sim::Process {");
      emit_until(diagram, node.branches[b].target, join, true);
      out_->line("co_return;");
      out_->close(";");
    }
    spawn_branches(node, [](std::size_t b) {
      return "branch" + std::to_string(b) + "()";
    });
    out_->close();
    const NodePrograms& after =
        diagram.nodes[static_cast<std::size_t>(join)];
    if (!after.join_defect.empty()) {
      out_->line(throw_statement(after.join_defect));
      return kEnded;
    }
    return after.next;
  }

  // --- Labelled blocks -------------------------------------------------

  /// Emits the walk of `diagram` as labelled blocks: a coroutine lambda
  /// with a label per node, a goto to each successor and the engines'
  /// step count against the diagram's limit.  A fork spawns the lambda
  /// again from each branch target; such a walk stops at the first join
  /// it reaches and records it in `*reached`.
  void labelled(const DiagramProgram& diagram) {
    const auto label = [](int index) {
      return index < 0 ? std::string("end") : "L" + std::to_string(index);
    };
    const auto go = [&](int index) { out_->line("goto " + label(index) + ";"); };
    out_->open("{  // diagram " + escape_cpp(diagram.diagram->id()) +
               ", walked as labelled blocks");
    out_->open(
        "const auto walk = [&](const auto& self, int entry, int* reached) "
        "-> prophet::sim::Process {");
    out_->line("std::uint64_t steps = 0;");
    std::set<int> entries{diagram.initial};
    for (const auto& node : diagram.nodes) {
      for (const Branch& branch : node.branches) {
        if (node.op == Operation::Fork && branch.target >= 0) {
          entries.insert(branch.target);
        }
      }
    }
    out_->open("switch (entry) {");
    for (const int entry : entries) {
      out_->line("case " + std::to_string(entry) + ": goto " + label(entry) +
                 ";");
    }
    out_->close();
    go(-1);
    for (int index = 0; index < static_cast<int>(diagram.nodes.size());
         ++index) {
      const NodePrograms& node = diagram.nodes[static_cast<std::size_t>(index)];
      out_->dedent();
      out_->line(label(index) + ":  // " + escape_cpp(node.node->id()));
      out_->indent();
      out_->line("if (++steps > " + std::to_string(diagram.step_limit) +
                 "ULL) " + throw_statement(step_limit_error(diagram)));
      switch (node.op) {
        case Operation::Final:
          go(-1);
          continue;
        case Operation::Decision:
          for (const Branch& guarded : node.branches) {
            if (guarded.guard != nullptr) {
              out_->line("if (" + expr(*guarded.guard, node.uid) + ") goto " +
                         label(guarded.target) + ";");
            }
          }
          if (node.fallback < 0) {
            out_->line(throw_statement(node.defect));
          } else {
            go(node.branches[static_cast<std::size_t>(node.fallback)].target);
          }
          continue;
        case Operation::Fork:
          labelled_fork(diagram, node, label);
          continue;
        case Operation::Join:
          out_->line("if (reached != nullptr) { *reached = " +
                     std::to_string(index) + "; co_return; }");
          break;
        default:
          if (!is_control(node.op)) {
            fragment(node);
            element(node);
          }
          break;
      }
      if (!node.defect.empty()) {
        out_->line(throw_statement(node.defect));
      } else {
        go(node.next);
      }
    }
    out_->dedent();
    out_->line(label(-1) + ":");
    out_->indent();
    out_->line("co_return;");
    out_->close(";");
    out_->line("co_await walk(walk, " + std::to_string(diagram.initial) +
               ", nullptr);");
    out_->close();
  }

  /// A fork in a labelled walk: each branch walks to the join it
  /// reaches; when the joins differ the walk raises
  /// lower::fork_join_error's text, else it goes on past the join.
  template <class Label>
  void labelled_fork(const DiagramProgram& diagram, const NodePrograms& node,
                     const Label& label) {
    const std::size_t count = node.branches.size();
    const std::string fork = "fork " + node.node->id();
    if (count == 0) {
      out_->line(throw_statement(fork + ": branches do not reach a join"));
      return;
    }
    out_->open("{  // " + escape_cpp(fork));
    out_->line("int joins[" + std::to_string(count) + "];");
    out_->line("for (int& none : joins) none = -1;");
    spawn_branches(node, [&](std::size_t b) {
      return "self(self, " + std::to_string(node.branches[b].target) +
             ", &joins[" + std::to_string(b) + "])";
    });
    // The id of the join `joins[b]` names ("" for none).
    const auto join_id = [&](std::size_t b) {
      std::string text;
      for (std::size_t j = 0; j < diagram.nodes.size(); ++j) {
        if (diagram.nodes[j].op == Operation::Join) {
          text += "joins[" + std::to_string(b) + "] == " + std::to_string(j) +
                  " ? \"" + escape_cpp(diagram.nodes[j].node->id()) + "\" : ";
        }
      }
      return text + "\"\"";
    };
    for (std::size_t b = 1; b < count; ++b) {
      out_->line("if (joins[" + std::to_string(b) + "] != joins[0]) " +
                 "throw_different_joins(\"" + escape_cpp(node.node->id()) +
                 "\", " + join_id(0) + ", " + join_id(b) + ");");
    }
    out_->line("if (joins[0] < 0) " +
               throw_statement(fork + ": branches do not reach a join"));
    for (std::size_t j = 0; j < diagram.nodes.size(); ++j) {
      const NodePrograms& after = diagram.nodes[j];
      if (after.op == Operation::Join) {
        out_->line("if (joins[0] == " + std::to_string(j) + ") " +
                   (after.join_defect.empty()
                        ? "goto " + label(after.next) + ";"
                        : throw_statement(after.join_defect)));
      }
    }
    out_->close();
  }

  const ModelProgram& program_;
  CppEmitter* out_ = nullptr;
  Names names_{kUnitNames};
  std::map<expr::Slot, std::string> global_names_;
  std::map<expr::Slot, std::string> local_names_;
  std::map<expr::Slot, std::string> loop_names_;
  std::unordered_map<const NodePrograms*, std::string> element_names_;
  std::vector<std::string> function_names_;
  std::vector<std::vector<std::string>> parameter_names_;
  Bindings run_;   // the run frame the flow's calls see
  Bindings flow_;  // the flow's bindings (after the locals)
  std::vector<std::set<expr::Slot>> reads_;
  bool deep_ = false;
  std::vector<Variant> variants_;
  std::map<std::string, int> variant_ids_;
  std::vector<int> calls_;  // variants the body being printed calls
  std::map<int, bool> structured_;
  bool checking_shape_ = false;
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

namespace {

/// One Fig. 5 stage, printed alone.
template <class Stage>
std::string stage(const ModelProgram& program, Stage print) {
  CppEmitter out;
  Printer printer(program);
  print(printer, out);
  return out.text();
}

}  // namespace

std::string Transformer::emit_globals(const ModelProgram& program) const {
  return stage(program, [](Printer& p, CppEmitter& out) { p.globals(out); });
}

std::string Transformer::emit_cost_functions(
    const ModelProgram& program) const {
  return stage(program,
               [](Printer& p, CppEmitter& out) { p.functions(out); });
}

std::string Transformer::emit_locals(const ModelProgram& program) const {
  return stage(program, [](Printer& p, CppEmitter& out) { p.locals(out); });
}

std::string Transformer::emit_declarations(
    const ModelProgram& program) const {
  return stage(program, [&program](Printer& p, CppEmitter& out) {
    p.declare(out, std::vector<bool>(program.diagrams().size(), true));
  });
}

std::string Transformer::emit_flow(const ModelProgram& program) const {
  return stage(program, [&program](Printer& p, CppEmitter& out) {
    CppEmitter locals;
    p.locals(locals);
    p.flow(out, program.entry());
  });
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
  Printer printer(program);
  // The hooks print first: a global initializer may ask for a variant
  // of a cost function.
  CppEmitter start;
  start.indent();
  printer.start_run(start);
  CppEmitter process;
  process.indent();
  process.line("[[maybe_unused]] const int pid = ctx.pid;");
  process.line("[[maybe_unused]] const int tid = ctx.tid;");
  process.line("// -- Local variables (lines 20-23) --");
  printer.locals(process);
  process.line("// -- Performance modeling elements (lines 24-28) --");
  // Elements are declared at function scope except in parallel-region
  // domains, which declare theirs inside the region lambdas.
  std::vector<bool> domain(program.diagrams().size(), false);
  mark_domain(program, program.entry(), domain);
  printer.declare(process, domain);
  process.line("// -- Execution flow (lines 29-35) --");
  printer.flow(process, program.entry());
  process.line("co_return;");

  CppEmitter out;
  out.line("// Generated by Performance Prophet — C++ representation of "
           "performance model '" +
           escape_cpp(program.model().name()) + "'.");
  out.line("// Regenerate from the UML model; do not edit.");
  out.line("#include \"prophet/cgen/prelude.hpp\"");
  if (options_.emit_main) {
    out.raw(R"(
#include <cstdio>
#include <cstdlib>

#include "prophet/estimator/estimator.hpp"
)");
  }
  out.raw("\nnamespace {\n\nusing namespace prophet::cgen;\n");
  for (const auto& [op, type] : kRuntimeClasses) {
    out.line("using prophet::workload::" + std::string(type) + ";");
  }
  out.raw(R"(using prophet::workload::loop_trips;

// -- Run state: system parameters, budget, globals (Fig. 5 lines 9-12) --
thread_local double np = 1;
thread_local double nt = 1;
thread_local double nn = 1;
thread_local double ppn = 1;
thread_local prophet::guard::Budget* budget = nullptr;
)");
  printer.globals(out);
  out.raw("\n// -- Cost functions (Fig. 5 lines 13-18) --\n");
  printer.functions(out);
  out.raw(R"(
void start_run(int run_np, int run_nt, int run_nn, int run_ppn) {
)");
  out.raw(start.text());
  out.raw(R"(}

// -- Program (Fig. 5 lines 19-35) --
prophet::sim::Process prophet_model(prophet::workload::ModelContext ctx) {
)");
  out.raw(process.text());
  out.raw(R"(}

void set_budget(prophet::guard::Budget* run_budget) { budget = run_budget; }

}  // namespace

// The unit compiles with -fvisibility=hidden; only the entry point opts
// back into the dynamic symbol table.
extern "C" __attribute__((visibility("default")))
const prophet::cgen::Evaluator* prophet_cgen_evaluator() {
  static constexpr prophet::cgen::Evaluator kEvaluator{
      &start_run, &prophet_model, &set_budget};
  return &kEvaluator;
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
  prophet::estimator::EvaluatorModel model(*prophet_cgen_evaluator());
  const auto report = prophet::estimator::SimulationManager(sp).run(model);
  std::printf("%s", report.summary().c_str());
  return 0;
}
)");
  }
  return out.text();
}

}  // namespace prophet::codegen
