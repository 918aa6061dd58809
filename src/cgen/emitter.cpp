#include "prophet/cgen/emitter.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "prophet/expr/cppgen.hpp"
#include "prophet/uml/model.hpp"

namespace prophet::cgen {
namespace {

using expr::Op;
using expr::escape_cpp;
using lower::DiagramProgram;
using lower::NodePrograms;
using lower::Operation;
using lower::TagKind;

/// A double as a C++ literal that round-trips bit-exactly (hexfloat; the
/// NaN/infinity special cases have no literal spelling).
std::string double_literal(double value) {
  if (std::isnan(value)) {
    return "std::numeric_limits<double>::quiet_NaN()";
  }
  if (std::isinf(value)) {
    return value > 0 ? "std::numeric_limits<double>::infinity()"
                     : "(-std::numeric_limits<double>::infinity())";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  if (buffer[0] == '-') {
    return "(" + std::string(buffer) + ")";
  }
  return buffer;
}

/// The evaluation environment a transliterated expression runs in: which
/// frame expression C++ slots load through, and the ambient pid/tid/uid
/// expressions (mirroring interp's make_context call sites).
struct ExprEnv {
  std::string frame;        // e.g. "f.s" or "g_run_frame"
  std::string pid = "0.0";  // C++ expression yielding double
  std::string tid = "0.0";
  std::string uid = "0.0";
  bool has_args = false;  // inside a cost-function body (args/nargs)
};

/// Net stack effect of one instruction (operands popped -> result
/// pushed), mirroring the VM's documented [-pop +push] contract.
int stack_delta(const expr::Instr& instr) {
  switch (instr.op) {
    case Op::PushConst:
    case Op::LoadSlot:
    case Op::LoadSlotOrPid:
    case Op::LoadSlotOrTid:
    case Op::LoadSlotOrUid:
    case Op::LoadArg:
    case Op::LoadPid:
    case Op::LoadTid:
    case Op::LoadUid:
      return 1;
    case Op::Neg:
    case Op::Not:
    case Op::ToBool:
    case Op::Abs:
    case Op::Ceil:
    case Op::Cos:
    case Op::Exp:
    case Op::Floor:
    case Op::Log:
    case Op::Log10:
    case Op::Log2:
    case Op::Round:
    case Op::Sin:
    case Op::Sqrt:
    case Op::Tan:
    case Op::Tanh:
    case Op::Jump:
      return 0;
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::Div:
    case Op::Mod:
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge:
    case Op::Eq:
    case Op::Ne:
    case Op::Max:
    case Op::Min:
    case Op::Pow:
    case Op::JumpIfFalse:
    case Op::JumpIfTrue:
      return -1;
    case Op::CallUser:
      return 1 - static_cast<int>(instr.b);
    case Op::Throw:
      return 0;  // no successors
  }
  return 0;
}

/// Transliterates one compiled expression into a C++ expression string:
/// either the folded constant literal, or an immediately-invoked lambda
/// whose body is the bytecode as straight-line statements — one operand
/// stack local per compile-time stack position, `goto` for the VM's jump
/// targets.  The arithmetic reproduces the VM operation for operation,
/// so results (and EvalError messages) are bit-identical.  A program
/// with a site runs its lambda through `at_site`, which prefixes the
/// errors it raises with that site exactly as Compiled::eval does.
class ExprTransliterator {
 public:
  ExprTransliterator(const expr::Compiled& program, const ExprEnv& env,
                     std::string indent)
      : program_(program), env_(env), indent_(std::move(indent)) {}

  [[nodiscard]] std::string emit() {
    if (const auto folded = program_.constant()) {
      return double_literal(*folded);
    }
    compute_heights();
    std::ostringstream body;
    const std::string inner = indent_ + "  ";
    if (!program_.site().empty()) {
      body << "at_site(\"" << escape_cpp(program_.site()) << "\", ";
    }
    body << "[&]() -> double {\n";
    for (std::size_t k = 0; k < program_.max_stack(); ++k) {
      body << inner << "double s" << k << " = 0.0;\n";
    }
    const auto code = program_.code();
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (target_[i]) {
        body << indent_ << " L" << i << ":;\n";
      }
      if (height_[i] < 0) {
        continue;  // unreachable (dead code behind Throw/Jump)
      }
      body << inner << statement(code[i], i, height_[i]) << "\n";
    }
    if (target_[code.size()]) {
      body << indent_ << " L" << code.size() << ":;\n";
    }
    if (height_[code.size()] > 0) {
      body << inner << "return s" << (height_[code.size()] - 1) << ";\n";
    } else {
      body << inner << "return 0.0;  // unreachable: program always throws\n";
    }
    body << indent_ << (program_.site().empty() ? "}()" : "})");
    return body.str();
  }

 private:
  /// Abstract interpretation of stack heights: the VM's compiler emits
  /// programs where every instruction has one consistent entry height,
  /// so a single flow-propagation pass assigns each its stack locals.
  void compute_heights() {
    const auto code = program_.code();
    height_.assign(code.size() + 1, -1);
    target_.assign(code.size() + 1, false);
    std::vector<std::size_t> work;
    height_[0] = 0;
    if (!code.empty()) {
      work.push_back(0);
    }
    auto relax = [&](std::size_t index, int h) {
      if (index > code.size()) {
        return;
      }
      if (height_[index] < 0) {
        height_[index] = h;
        if (index < code.size()) {
          work.push_back(index);
        }
      }
    };
    while (!work.empty()) {
      const std::size_t i = work.back();
      work.pop_back();
      const expr::Instr& instr = code[i];
      const int out = height_[i] + stack_delta(instr);
      switch (instr.op) {
        case Op::Jump:
          target_[static_cast<std::size_t>(instr.a)] = true;
          relax(static_cast<std::size_t>(instr.a), out);
          break;
        case Op::JumpIfFalse:
        case Op::JumpIfTrue:
          target_[static_cast<std::size_t>(instr.a)] = true;
          relax(static_cast<std::size_t>(instr.a), out);
          relax(i + 1, out);
          break;
        case Op::Throw:
          break;  // terminates this path
        default:
          relax(i + 1, out);
          break;
      }
    }
  }

  [[nodiscard]] std::string slot_ref(std::int32_t slot) const {
    return env_.frame + "[" + std::to_string(slot) + "]";
  }

  [[nodiscard]] static std::string stack(int k) {
    return "s" + std::to_string(k);
  }

  [[nodiscard]] std::string unary(int h, std::string_view fn) const {
    return stack(h - 1) + " = std::" + std::string(fn) + "(" + stack(h - 1) +
           ");";
  }

  [[nodiscard]] std::string binary_op(int h, std::string_view op) const {
    return stack(h - 2) + " = " + stack(h - 2) + " " + std::string(op) + " " +
           stack(h - 1) + ";";
  }

  [[nodiscard]] std::string binary_fn(int h, std::string_view fn) const {
    return stack(h - 2) + " = std::" + std::string(fn) + "(" + stack(h - 2) +
           ", " + stack(h - 1) + ");";
  }

  [[nodiscard]] std::string compare(int h, std::string_view op) const {
    return stack(h - 2) + " = " + stack(h - 2) + " " + std::string(op) + " " +
           stack(h - 1) + " ? 1.0 : 0.0;";
  }

  [[nodiscard]] std::string load_fallback(const expr::Instr& instr, int h,
                                          const std::string& ambient) const {
    return "{ const double* p = " + slot_ref(instr.a) + "; " + stack(h) +
           " = p != nullptr ? *p : " + ambient + "; }";
  }

  /// The C++ statement for one instruction entered at stack height `h`.
  [[nodiscard]] std::string statement(const expr::Instr& instr,
                                      std::size_t index, int h) const {
    const auto strings = program_.strings();
    switch (instr.op) {
      case Op::PushConst:
        return stack(h) + " = " + double_literal(instr.value) + ";";
      case Op::LoadSlot:
        return stack(h) + " = load_slot(" + slot_ref(instr.a) + ", \"" +
               escape_cpp(strings[instr.b]) + "\");";
      case Op::LoadSlotOrPid:
        return load_fallback(instr, h, env_.pid);
      case Op::LoadSlotOrTid:
        return load_fallback(instr, h, env_.tid);
      case Op::LoadSlotOrUid:
        return load_fallback(instr, h, env_.uid);
      case Op::LoadArg:
        if (!env_.has_args) {
          // Node-scope evaluations pass no argument span: every LoadArg
          // falls past the arity, exactly like the VM.
          return stack(h) + " = 0.0;";
        }
        return stack(h) + " = static_cast<std::size_t>(" +
               std::to_string(instr.a) + ") < nargs ? args[" +
               std::to_string(instr.a) + "] : 0.0;";
      case Op::LoadPid:
        return stack(h) + " = " + env_.pid + ";";
      case Op::LoadTid:
        return stack(h) + " = " + env_.tid + ";";
      case Op::LoadUid:
        return stack(h) + " = " + env_.uid + ";";
      case Op::Neg:
        return stack(h - 1) + " = -" + stack(h - 1) + ";";
      case Op::Not:
        return stack(h - 1) + " = " + stack(h - 1) +
               " != 0.0 ? 0.0 : 1.0;";
      case Op::Add:
        return binary_op(h, "+");
      case Op::Sub:
        return binary_op(h, "-");
      case Op::Mul:
        return binary_op(h, "*");
      case Op::Div:
        return binary_op(h, "/");
      case Op::Mod:
        return binary_fn(h, "fmod");
      case Op::Lt:
        return compare(h, "<");
      case Op::Le:
        return compare(h, "<=");
      case Op::Gt:
        return compare(h, ">");
      case Op::Ge:
        return compare(h, ">=");
      case Op::Eq:
        return compare(h, "==");
      case Op::Ne:
        return compare(h, "!=");
      case Op::ToBool:
        return stack(h - 1) + " = " + stack(h - 1) +
               " != 0.0 ? 1.0 : 0.0;";
      case Op::Jump:
        return "goto L" + std::to_string(instr.a) + ";";
      case Op::JumpIfFalse:
        return "if (!(" + stack(h - 1) + " != 0.0)) goto L" +
               std::to_string(instr.a) + ";";
      case Op::JumpIfTrue:
        return "if (" + stack(h - 1) + " != 0.0) goto L" +
               std::to_string(instr.a) + ";";
      case Op::CallUser: {
        // The callee runs one call deeper than this program: depth 1
        // from a node-scope program, depth + 1 from a body.
        const std::string depth = env_.has_args ? "depth + 1" : "1";
        const int argc = instr.b;
        if (argc == 0) {
          return stack(h) + " = fn" + std::to_string(instr.a) +
                 "(nullptr, 0, " + depth + ");";
        }
        std::string args;
        for (int k = 0; k < argc; ++k) {
          if (k != 0) {
            args += ", ";
          }
          args += stack(h - argc + k);
        }
        return "{ const double call_args[] = {" + args + "}; " +
               stack(h - argc) + " = fn" + std::to_string(instr.a) +
               "(call_args, " + std::to_string(argc) + ", " + depth +
               "); }";
      }
      case Op::Throw:
        return "throw_eval(\"" + escape_cpp(strings[instr.a]) + "\");";
      case Op::Abs:
        return unary(h, "fabs");
      case Op::Ceil:
        return unary(h, "ceil");
      case Op::Cos:
        return unary(h, "cos");
      case Op::Exp:
        return unary(h, "exp");
      case Op::Floor:
        return unary(h, "floor");
      case Op::Log:
        return unary(h, "log");
      case Op::Log10:
        return unary(h, "log10");
      case Op::Log2:
        return unary(h, "log2");
      case Op::Max:
        return binary_fn(h, "fmax");
      case Op::Min:
        return binary_fn(h, "fmin");
      case Op::Pow:
        return binary_fn(h, "pow");
      case Op::Round:
        return unary(h, "round");
      case Op::Sin:
        return unary(h, "sin");
      case Op::Sqrt:
        return unary(h, "sqrt");
      case Op::Tan:
        return unary(h, "tan");
      case Op::Tanh:
        return unary(h, "tanh");
    }
    (void)index;
    return ";";
  }

  const expr::Compiled& program_;
  const ExprEnv& env_;
  std::string indent_;
  std::vector<int> height_;
  std::vector<bool> target_;
};

std::string emit_expr(const expr::Compiled& program, const ExprEnv& env,
                      const std::string& indent) {
  return ExprTransliterator(program, env, indent).emit();
}

/// Emits the full evaluator translation unit for one lowered model: the
/// walk of every diagram is emitted from its lowered control flow
/// (ModelProgram::diagrams()), node for node.
class Emitter {
 public:
  explicit Emitter(const lower::ModelProgram& program)
      : program_(program) {}

  [[nodiscard]] std::string emit() {
    preamble();
    forward_declarations();
    cost_functions();
    const auto diagrams = program_.diagrams();
    for (std::size_t d = 0; d < diagrams.size(); ++d) {
      diagram_walker(static_cast<int>(d), diagrams[d]);
    }
    run_entry_points();
    abi_glue();
    return out_.str();
  }

 private:
  /// The walker-scope expression environment (interp's make_context for
  /// node-scope evaluations: process frame + ambient pid/tid + node uid).
  [[nodiscard]] ExprEnv node_env(int uid) const {
    ExprEnv env;
    env.frame = "f.s";
    env.pid = "static_cast<double>(ctx.pid)";
    env.tid = "static_cast<double>(ctx.tid)";
    env.uid = std::to_string(uid) + ".0";
    return env;
  }

  /// Run-frame environment (global initializers, cost-function bodies:
  /// pid/tid/uid all zero, exactly like interp's run-scope contexts).
  [[nodiscard]] static ExprEnv run_env(bool has_args) {
    ExprEnv env;
    env.frame = "g_run_frame";
    env.has_args = has_args;
    return env;
  }

  /// `throw_error("<message>");` for a lowered defect.
  void throw_defect(const std::string& message, const std::string& indent) {
    out_ << indent << "throw_error(\"" << escape_cpp(message) << "\");\n";
  }

  void preamble() {
    out_ << "// Generated by the Performance Prophet cgen backend.  "
            "Do not edit.\n"
         << "//\n"
         << "// Specialized evaluator for model '"
         << escape_cpp(program_.model().name()) << "': every diagram\n"
         << "// is a switch-based coroutine state machine and every "
            "expression program is\n"
         << "// transliterated bytecode — semantics (and bits) match the "
            "interpreter.\n"
         << "#include \"prophet/cgen/prelude.hpp\"\n"
         << "\n"
         << "namespace {\n"
         << "\n"
         << "using namespace prophet::cgen;\n"
         << "\n"
         << "constexpr std::size_t kSlots = " << program_.slot_count()
         << ";\n"
         << "\n"
         << "/// Slot frame, copied by value so fork branches and loop "
            "bodies snapshot\n"
         << "/// their bindings (interp's Scope).\n"
         << "struct Frame {\n"
         << "  double* s[kSlots];\n"
         << "};\n"
         << "\n"
         << "// Per-run state.  thread_local so concurrent estimate() "
            "calls (each on its\n"
         << "// own thread) share nothing mutable.\n"
         << "thread_local double g_np = 1, g_nt = 1, g_nn = 1, g_ppn = 1;\n"
         << "thread_local double g_globals[kSlots];\n"
         << "thread_local double* g_run_frame[kSlots];\n"
         << "thread_local prophet::guard::Budget* g_budget = nullptr;\n"
         << "\n";
  }

  void forward_declarations() {
    for (std::size_t id = 0; id < program_.functions().size(); ++id) {
      out_ << "double fn" << id
           << "(const double* args, std::size_t nargs, unsigned depth);\n";
    }
    for (std::size_t d = 0; d < program_.diagrams().size(); ++d) {
      out_ << "prophet::sim::Process walk_d" << d
           << "(prophet::workload::ModelContext ctx, Frame f, double* "
              "locals, int start, int* stop);\n"
           << "prophet::sim::Process run_d" << d
           << "(prophet::workload::ModelContext ctx, Frame f, double* "
              "locals);\n";
    }
    out_ << "\n";
  }

  void cost_functions() {
    const auto functions = program_.functions();
    const ExprEnv env = run_env(/*has_args=*/true);
    for (std::size_t id = 0; id < functions.size(); ++id) {
      out_ << "double fn" << id
           << "(const double* args, std::size_t nargs, unsigned depth) {\n"
           << "  (void)args;\n"
           << "  (void)nargs;\n"
           << "  if (depth > " << expr::kMaxCallDepth << ") {\n"
           << "    throw_eval(\"cost-function call depth exceeded "
              "(cycle?)\");\n"
           << "  }\n"
           << "  return " << emit_expr(functions[id], env, "  ") << ";\n"
           << "}\n\n";
    }
  }

  /// Assigns optional tag `kind` of `node` to `variable` (declared by
  /// the caller); absent tags leave the variable at 0.0.
  void tag_eval(const NodePrograms& node, TagKind kind,
                const std::string& variable, const std::string& indent) {
    if (const auto& tag = node.tag(kind); tag.has_value()) {
      out_ << indent << variable << " = "
           << emit_expr(*tag, node_env(node.uid), indent) << ";\n";
    }
  }

  /// The node's code fragment (interp's run_fragment), statement for
  /// statement: evaluate, coerce, store by resolved target.
  void fragment(const NodePrograms& node, const std::string& indent) {
    for (const auto& assignment : node.fragment) {
      out_ << indent << "{\n"
           << indent << "  double value = "
           << emit_expr(assignment.value, node_env(node.uid), indent + "  ")
           << ";\n";
      if (assignment.coerce_int) {
        out_ << indent << "  value = std::trunc(value);\n";
      }
      using Target = lower::CompiledAssignment::Target;
      switch (assignment.target) {
        case Target::Local:
          out_ << indent << "  locals[" << assignment.slot
               << "] = value;\n";
          break;
        case Target::Global:
          out_ << indent << "  g_globals[" << assignment.slot
               << "] = value;\n";
          break;
        case Target::Undeclared:
          out_ << indent << "  (void)value;\n"
               << indent << "  throw_error(\"code fragment at node "
               << escape_cpp(node.node->id())
               << " assigns undeclared variable '"
               << escape_cpp(assignment.name) << "'\");\n";
          break;
      }
      out_ << indent << "}\n";
    }
  }

  /// Successor dispatch for non-decision nodes (interp's next_node).
  void next_node(const NodePrograms& node, const std::string& indent) {
    if (!node.defect.empty()) {
      throw_defect(node.defect, indent);
      return;
    }
    if (node.next < 0) {
      out_ << indent << "node = -1;  // dead end\n" << indent << "break;\n";
      return;
    }
    out_ << indent << "node = " << node.next << ";\n"
         << indent << "break;\n";
  }

  /// Guarded successor dispatch for Decision nodes: compiled guards in
  /// edge order, first else edge as fallback (interp's next_node).
  void decision_dispatch(const NodePrograms& node, const std::string& indent) {
    for (const auto& branch : node.branches) {
      if (branch.guard == nullptr) {
        continue;  // unguarded or `else` edge: never taken by a guard
      }
      out_ << indent << "if (("
           << emit_expr(*branch.guard, node_env(node.uid), indent)
           << ") != 0.0) {\n"
           << indent << "  node = " << branch.target << ";\n"
           << indent << "  break;\n" << indent << "}\n";
    }
    if (node.fallback >= 0) {
      out_ << indent << "node = "
           << node.branches[static_cast<std::size_t>(node.fallback)].target
           << ";\n"
           << indent << "break;\n";
    } else {
      throw_defect(node.defect, indent);
    }
  }

  /// The body of an action, activity or loop node's case: fragment, the
  /// operation, then the successor dispatch.
  void operation_case(const NodePrograms& node, const std::string& indent) {
    const int uid = node.uid;
    fragment(node, indent);
    const std::string name = "\"" + escape_cpp(node.node->name()) + "\"";
    const std::string exec_prefix =
        "co_await element.execute(" + std::to_string(uid) +
        ", ctx.pid, ctx.tid";
    switch (node.op) {
      case Operation::Compute:
        out_ << indent << "double cost = 0.0;\n";
        if (node.cost().has_value()) {
          tag_eval(node, TagKind::Cost, "cost", indent);
        } else if (node.time.has_value()) {
          out_ << indent << "cost = " << double_literal(*node.time) << ";\n";
        }
        out_ << indent << "prophet::workload::ActionPlus element(ctx, "
             << name << ");\n"
             << indent << exec_prefix << ", cost);\n";
        break;
      case Operation::Send:
      case Operation::Recv: {
        const bool send = node.op == Operation::Send;
        const char* peer = send ? "dest" : "source";
        out_ << indent << "double " << peer << " = 0.0;\n";
        tag_eval(node, send ? TagKind::Dest : TagKind::Source, peer, indent);
        out_ << indent << "double bytes = 0.0;\n";
        tag_eval(node, TagKind::Size, "bytes", indent);
        out_ << indent << "prophet::workload::"
             << (send ? "SendElement" : "RecvElement") << " element(ctx, "
             << name << ");\n"
             << indent << exec_prefix << ", static_cast<int>(" << peer
             << "), bytes, " << node.msgtag << ");\n";
        break;
      }
      case Operation::Barrier:
        out_ << indent << "prophet::workload::BarrierElement element(ctx, "
             << name << ");\n"
             << indent << exec_prefix << ");\n";
        break;
      case Operation::Collective:
        out_ << indent << "double bytes = 0.0;\n";
        tag_eval(node, TagKind::Size, "bytes", indent);
        out_ << indent << "double root = 0.0;\n";
        tag_eval(node, TagKind::Root, "root", indent);
        out_ << indent << "prophet::workload::CollectiveElement element(ctx, "
             << name << ", prophet::workload::CollectiveKind::"
             << workload::enumerator_name(node.collective) << ");\n"
             << indent << exec_prefix
             << ", bytes, static_cast<int>(root));\n";
        break;
      case Operation::OmpFor:
        out_ << indent << "double iterations = 0.0;\n";
        tag_eval(node, TagKind::Iterations, "iterations", indent);
        out_ << indent << "double itercost = 0.0;\n";
        tag_eval(node, TagKind::IterCost, "itercost", indent);
        out_ << indent << "prophet::workload::WorkshareElement element(ctx, "
             << name << ");\n"
             << indent << exec_prefix << ", iterations, itercost, \""
             << escape_cpp(node.schedule) << "\", " << node.chunk << "LL);\n";
        break;
      case Operation::OmpBarrier:
        out_ << indent << "prophet::workload::OmpBarrierElement element(ctx, "
             << name << ");\n"
             << indent << exec_prefix << ");\n";
        break;
      case Operation::Region:
        if (node.num_threads().has_value()) {
          out_ << indent << "double threads_value = 0.0;\n";
          tag_eval(node, TagKind::NumThreads, "threads_value", indent);
          out_ << indent
               << "const int threads = static_cast<int>(threads_value);\n";
        } else {
          out_ << indent << "const int threads = static_cast<int>(g_nt);\n";
        }
        out_ << indent << "co_await prophet::workload::parallel_region(\n"
             << indent << "    ctx, threads, " << uid << ", " << name << ",\n"
             << indent
             << "    [f, locals](prophet::workload::ModelContext tctx)\n"
             << indent << "        -> prophet::sim::Process {\n"
             << indent << "      return run_d" << node.body
             << "(tctx, f, locals);\n"
             << indent << "    });\n";
        break;
      case Operation::Critical:
        out_ << indent << "prophet::workload::CriticalElement element(ctx, "
             << name << ", \"" << escape_cpp(node.lock) << "\");\n"
             << indent << "prophet::workload::ModelContext body_ctx = ctx;\n"
             << indent << "co_await element.execute(" << uid
             << ", ctx.pid, ctx.tid,\n"
             << indent
             << "    [f, locals, body_ctx]() -> prophet::sim::Process {\n"
             << indent << "      return run_d" << node.body
             << "(body_ctx, f, locals);\n"
             << indent << "    });\n";
        break;
      case Operation::Inline:
        out_ << indent << "prophet::workload::ActivityPlus element(ctx, "
             << name << ");\n"
             << indent << "const double started = element.begin(" << uid
             << ");\n"
             << indent << "co_await run_d" << node.body
             << "(ctx, f, locals);\n"
             << indent << "element.end(" << uid << ", started);\n";
        break;
      case Operation::Loop:
        loop_body(node, indent);
        break;
      default:  // Operation::Unsupported: the successor is unreachable
        throw_defect(node.defect, indent);
        return;
    }
    next_node(node, indent);
  }

  void loop_body(const NodePrograms& node, const std::string& indent) {
    out_ << indent << "double raw = 0.0;\n";
    tag_eval(node, TagKind::Iterations, "raw", indent);
    out_ << indent << "double loop_value = 0;\n"
         << indent << "Frame lf = f;\n"
         << indent << "lf.s[" << node.loop_var_slot
         << "] = &loop_value;\n"
         << indent << "for (const double trip : prophet::workload::loop_trips("
         << "raw, \"" << escape_cpp(node.node->id()) << "\")) {\n"
         << indent << "  if (g_budget != nullptr) {\n"
         << indent << "    charge_loop_trips(*g_budget, \"cgen-loop\");\n"
         << indent << "  }\n"
         << indent << "  loop_value = trip;\n"
         << indent << "  co_await run_d" << node.body << "(ctx, lf, locals);\n"
         << indent << "}\n";
  }

  void fork_case(const DiagramProgram& diagram, const NodePrograms& node,
                 int di, const std::string& indent) {
    const std::size_t branches = node.branches.size();
    const std::string id = escape_cpp(node.node->id());
    if (branches == 0) {
      out_ << indent << "throw_error(\"fork " << id
           << ": branches do not reach a join\");\n";
      return;
    }
    out_ << indent << "int joins[" << branches << "];\n"
         << indent << "for (std::size_t b = 0; b < " << branches
         << "; ++b) {\n"
         << indent << "  joins[b] = -1;\n" << indent << "}\n"
         << indent << "{\n"
         << indent << "  prophet::sim::ProcessRef branches[" << branches
         << "];\n";
    for (std::size_t b = 0; b < branches; ++b) {
      const int target = node.branches[b].target;
      if (target < 0) {
        throw_defect(node.defect, indent + "  ");
        break;  // interp throws here; later branches never spawn
      }
      out_ << indent << "  branches[" << b << "] = spawn(ctx, walk_d" << di
           << "(ctx, f, locals, " << target << ", &joins[" << b << "]));\n";
    }
    out_ << indent << "  for (const auto& branch : branches) {\n"
         << indent << "    co_await branch;\n"
         << indent << "  }\n"
         << indent << "}\n";
    for (std::size_t b = 1; b < branches; ++b) {
      out_ << indent << "if (joins[" << b << "] != joins[0]) {\n"
           << indent << "  throw_different_joins(\"" << id << "\", node_id_d"
           << di << "(joins[0]), node_id_d" << di << "(joins[" << b
           << "]));\n"
           << indent << "}\n";
    }
    out_ << indent << "if (joins[0] < 0) {\n"
         << indent << "  throw_error(\"fork " << id
         << ": branches do not reach a join\");\n"
         << indent << "}\n"
         << indent << "switch (joins[0]) {\n";
    for (std::size_t j = 0; j < diagram.nodes.size(); ++j) {
      const NodePrograms& join = diagram.nodes[j];
      if (join.op != Operation::Join) {
        continue;
      }
      out_ << indent << "  case " << j << ":\n";
      if (!join.join_defect.empty()) {
        throw_defect(join.join_defect, indent + "    ");
      } else if (join.next < 0) {
        out_ << indent << "    co_return;\n";
      } else {
        out_ << indent << "    node = " << join.next << ";\n"
             << indent << "    break;\n";
      }
    }
    out_ << indent << "  default:\n"
         << indent << "    node = -1;\n"
         << indent << "    break;\n"
         << indent << "}\n"
         << indent << "break;\n";
  }

  void diagram_walker(int di, const DiagramProgram& diagram) {
    const auto& nodes = diagram.nodes;
    // Node-id lookup for fork/join diagnostics (indices back to element
    // ids, so generated messages match the interpreter's).
    out_ << "const char* node_id_d" << di << "(int node) {\n"
         << "  switch (node) {\n";
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      out_ << "    case " << i << ":\n"
           << "      return \"" << escape_cpp(nodes[i].node->id()) << "\";\n";
    }
    out_ << "    default:\n"
         << "      return \"\";\n"
         << "  }\n"
         << "}\n\n";

    out_ << "// Diagram '" << escape_cpp(diagram.diagram->id())
         << "': interp::Interpreter's walk, specialized.\n"
         << "prophet::sim::Process walk_d" << di
         << "(prophet::workload::ModelContext ctx, Frame f, double* locals, "
            "int start, int* stop) {\n"
         << "  (void)locals;\n"
         << "  (void)stop;\n"
         << "  int node = start;\n"
         << "  std::uint64_t steps = 0;\n"
         << "  while (node >= 0) {\n"
         << "    if (++steps > " << diagram.step_limit << "ULL) {\n"
         << "      throw_error(\"diagram " << escape_cpp(diagram.diagram->id())
         << ": walk exceeded step limit (unstructured \"\n"
         << "                  \"cycle without <<loop+>>?)\");\n"
         << "    }\n"
         << "    switch (node) {\n";
    const std::string indent = "        ";
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodePrograms& node = nodes[i];
      out_ << "      case " << i << ": {  // "
           << uml::to_string(node.node->kind()) << " '"
           << escape_cpp(node.node->id()) << "'\n";
      switch (node.op) {
        case Operation::Initial:
        case Operation::Merge:
          next_node(node, indent);
          break;
        case Operation::Final:
          out_ << indent << "co_return;\n";
          break;
        case Operation::Join:
          out_ << indent << "if (stop != nullptr) {\n"
               << indent << "  *stop = " << i << ";\n"
               << indent << "  co_return;\n"
               << indent << "}\n";
          next_node(node, indent);
          break;
        case Operation::Decision:
          decision_dispatch(node, indent);
          break;
        case Operation::Fork:
          fork_case(diagram, node, di, indent);
          break;
        default:
          operation_case(node, indent);
          break;
      }
      out_ << "      }\n";
    }
    out_ << "      default:\n"
         << "        node = -1;\n"
         << "        break;\n"
         << "    }\n"
         << "  }\n"
         << "  co_return;\n"
         << "}\n\n";

    out_ << "prophet::sim::Process run_d" << di
         << "(prophet::workload::ModelContext ctx, Frame f, double* locals) "
            "{\n";
    if (diagram.initial < 0) {
      out_ << "  throw_error(\"" << escape_cpp(diagram.defect) << "\");\n"
           << "  co_return;  // unreachable; makes this a coroutine\n";
    } else {
      out_ << "  co_await walk_d" << di << "(ctx, f, locals, "
           << diagram.initial << ", nullptr);\n";
    }
    out_ << "}\n\n";
  }

  /// Initializes the `scope` variables into `storage` in declaration
  /// order, binding each into `env.frame` as it goes (interp's
  /// bind_variables: each becomes visible to the next initializer).
  void bind_variables(uml::VariableScope scope, const ExprEnv& env,
                      const std::string& storage) {
    for (const auto& variable : program_.variables()) {
      if (variable.scope != scope) {
        continue;
      }
      const std::string slot = std::to_string(variable.slot);
      out_ << "  {  // "
           << (scope == uml::VariableScope::Global ? "global" : "local")
           << " '" << escape_cpp(variable.name) << "'\n"
           << "    double value = 0.0;\n";
      if (variable.initializer.has_value()) {
        out_ << "    value = " << emit_expr(*variable.initializer, env, "    ")
             << ";\n";
      }
      if (variable.coerce_int) {
        out_ << "    value = std::trunc(value);\n";
      }
      out_ << "    " << storage << "[" << slot << "] = value;\n"
           << "    " << env.frame << "[" << slot << "] = &" << storage << "["
           << slot << "];\n"
           << "  }\n";
    }
  }

  void run_entry_points() {
    // start_run: interp's run-start, specialized — bind structural
    // slots, zero globals, initialize the globals.
    out_ << "void start_run(const CgenParams& params) {\n"
         << "  g_np = static_cast<double>(params.processes);\n"
         << "  g_nt = static_cast<double>(params.threads_per_process);\n"
         << "  g_nn = static_cast<double>(params.nodes);\n"
         << "  g_ppn = static_cast<double>(params.processors_per_node);\n"
         << "  for (std::size_t i = 0; i < kSlots; ++i) {\n"
         << "    g_globals[i] = 0.0;\n"
         << "    g_run_frame[i] = nullptr;\n"
         << "  }\n"
         << "  g_run_frame[" << program_.np_slot() << "] = &g_np;\n"
         << "  g_run_frame[" << program_.nt_slot() << "] = &g_nt;\n"
         << "  g_run_frame[" << program_.nn_slot() << "] = &g_nn;\n"
         << "  g_run_frame[" << program_.ppn_slot() << "] = &g_ppn;\n";
    bind_variables(uml::VariableScope::Global, run_env(/*has_args=*/false),
                   "g_globals");
    out_ << "}\n\n";

    // run_process: per-process locals in this coroutine frame,
    // initialized in declaration order, then walk the main diagram.
    out_ << "prophet::sim::Process run_process("
            "prophet::workload::ModelContext ctx) {\n"
         << "  double local_values[kSlots] = {};\n"
         << "  (void)local_values;\n"
         << "  Frame f;\n"
         << "  for (std::size_t i = 0; i < kSlots; ++i) {\n"
         << "    f.s[i] = g_run_frame[i];\n"
         << "  }\n";
    ExprEnv locals_env = run_env(/*has_args=*/false);
    locals_env.frame = "f.s";
    locals_env.pid = "static_cast<double>(ctx.pid)";
    locals_env.tid = "static_cast<double>(ctx.tid)";
    bind_variables(uml::VariableScope::Local, locals_env, "local_values");
    out_ << "  co_await run_d" << program_.entry()
         << "(ctx, f, local_values);\n"
         << "}\n\n";
  }

  /// The three exported entry points, over the library's run_evaluator
  /// and free_result.
  void abi_glue() {
    out_ << R"(void set_budget(prophet::guard::Budget* budget) {
  g_budget = budget;
}

}  // namespace

// The TU compiles with -fvisibility=hidden; only these three entry
// points opt back into the dynamic symbol table.
#define PROPHET_CGEN_EXPORT extern "C" __attribute__((visibility("default")))

PROPHET_CGEN_EXPORT std::uint32_t prophet_cgen_abi_version() {
  return prophet::cgen::kCgenAbiVersion;
}

PROPHET_CGEN_EXPORT void prophet_cgen_free(prophet::cgen::CgenResult* result) {
  prophet::cgen::free_result(result);
}

PROPHET_CGEN_EXPORT std::int32_t prophet_cgen_run(
    const prophet::cgen::CgenParams* params,
    prophet::cgen::CgenResult* result) {
  static constexpr prophet::cgen::Evaluator kEvaluator{
      &start_run, &run_process, &set_budget};
  return prophet::cgen::run_evaluator(kEvaluator, params, result);
}
)";
  }

  const lower::ModelProgram& program_;
  std::ostringstream out_;
};

}  // namespace

std::string emit_evaluator(const lower::ModelProgram& program) {
  return Emitter(program).emit();
}

}  // namespace prophet::cgen
