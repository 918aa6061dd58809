#include "prophet/expr/compile.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <map>
#include <sstream>
#include <type_traits>

#include "builtins.hpp"
#include "prophet/guard/guard.hpp"
#include "prophet/obs/obs.hpp"

namespace prophet::expr {

// ---------------------------------------------------------------------------
// SymbolTable
// ---------------------------------------------------------------------------

Slot SymbolTable::add_variable(std::string name) {
  if (const auto it = slot_index_.find(std::string_view(name));
      it != slot_index_.end()) {
    return static_cast<Slot>(it->second);
  }
  const auto slot = static_cast<Slot>(slots_.size());
  slot_index_.emplace(name, slot);
  slots_.push_back(std::move(name));
  return slot;
}

void SymbolTable::bind_ambient(std::string name, Ambient kind) {
  for (auto& [existing, existing_kind] : ambients_) {
    if (existing == name) {
      existing_kind = kind;
      return;
    }
  }
  ambients_.emplace_back(std::move(name), kind);
}

void SymbolTable::bind_constant(std::string name, double value) {
  for (auto& [existing, existing_value] : constants_) {
    if (existing == name) {
      existing_value = value;
      return;
    }
  }
  constants_.emplace_back(std::move(name), value);
}

int SymbolTable::add_function(std::string name) {
  if (const auto it = function_index_.find(std::string_view(name));
      it != function_index_.end()) {
    return static_cast<int>(it->second);
  }
  const auto id = static_cast<int>(functions_.size());
  function_index_.emplace(name, static_cast<std::uint32_t>(id));
  functions_.push_back(std::move(name));
  return id;
}

void SymbolTable::add_parameter(std::string name) {
  parameters_.push_back(std::move(name));
}

std::optional<Slot> SymbolTable::slot_of(std::string_view name) const {
  if (const auto it = slot_index_.find(name); it != slot_index_.end()) {
    return static_cast<Slot>(it->second);
  }
  return std::nullopt;
}

const std::string& SymbolTable::name_of(Slot slot) const {
  return slots_.at(slot);
}

std::optional<int> SymbolTable::function_id(std::string_view name) const {
  if (const auto it = function_index_.find(name);
      it != function_index_.end()) {
    return static_cast<int>(it->second);
  }
  return std::nullopt;
}

const std::string& SymbolTable::function_name(int id) const {
  return functions_.at(static_cast<std::size_t>(id));
}

std::optional<Ambient> SymbolTable::ambient_of(std::string_view name) const {
  for (const auto& [existing, kind] : ambients_) {
    if (existing == name) {
      return kind;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

/// Lowers one Expr tree: recursive emission with constant folding, exact
/// algebraic identities and short-circuit elimination, plus stack-depth
/// bookkeeping across the branchy encodings of && / || / ?:.
class Compiler {
 public:
  explicit Compiler(const SymbolTable& table) : table_(table) {}

  [[nodiscard]] Compiled run(const Expr& expr, std::string site) {
    emit(expr);
    if (!site.empty()) {
      out_.strings_.push_back(std::move(site));
      out_.has_site_ = true;
    }
    assert(depth_ == 1);
    std::sort(out_.slots_.begin(), out_.slots_.end());
    out_.slots_.erase(std::unique(out_.slots_.begin(), out_.slots_.end()),
                      out_.slots_.end());
    out_.max_stack_ = max_depth_;
    // Batched-evaluation classification: eval_batch's instruction-stepped
    // fast path requires straight-line code, and a CallUser anywhere
    // means evaluation reaches the context's FunctionTable.
    for (const Instr& in : out_.code_) {
      if (in.op == Op::Jump || in.op == Op::JumpIfFalse ||
          in.op == Op::JumpIfTrue) {
        out_.branchless_ = false;
      } else if (in.op == Op::CallUser) {
        out_.calls_user_ = true;
      }
    }
    return std::move(out_);
  }

 private:
  /// Positional-parameter index of `name`, if declared (first wins, like
  /// the tree walker's FunctionEnv scan).
  [[nodiscard]] std::optional<int> parameter_index(
      const std::string& name) const {
    for (std::size_t i = 0; i < table_.parameters_.size(); ++i) {
      if (table_.parameters_[i] == name) {
        return static_cast<int>(i);
      }
    }
    return std::nullopt;
  }

  /// Compile-time constant binding of `name` — only when no
  /// higher-precedence resolution (parameter, slot) exists.
  [[nodiscard]] std::optional<double> constant_binding(
      const std::string& name) const {
    if (parameter_index(name) || table_.slot_of(name)) {
      return std::nullopt;
    }
    for (const auto& [existing, value] : table_.constants_) {
      if (existing == name) {
        return value;
      }
    }
    return std::nullopt;
  }

  [[nodiscard]] static bool truthy_const(double value) {
    return value != 0.0;
  }

  /// Evaluates `e` to a constant when every reachable leaf folds,
  /// honoring short-circuit semantics (a constant falsy `&&` left side
  /// makes the whole expression constant regardless of the right side,
  /// exactly as the tree walker never evaluates it).  Memoized by node:
  /// emit() and emit_binary() both consult fold results for the same
  /// subtrees, which would otherwise make compilation quadratic in
  /// expression size.
  [[nodiscard]] std::optional<double> fold(const Expr& e) const {
    if (const auto cached = fold_cache_.find(&e);
        cached != fold_cache_.end()) {
      return cached->second;
    }
    const auto result = fold_uncached(e);
    fold_cache_.emplace(&e, result);
    return result;
  }

  [[nodiscard]] std::optional<double> fold_uncached(const Expr& e) const {
    switch (e.kind()) {
      case ExprKind::Number:
        return static_cast<const NumberExpr&>(e).value();
      case ExprKind::Variable:
        return constant_binding(static_cast<const VariableExpr&>(e).name());
      case ExprKind::Unary: {
        const auto& unary = static_cast<const UnaryExpr&>(e);
        const auto value = fold(unary.operand());
        if (!value) {
          return std::nullopt;
        }
        return unary.op() == UnaryOp::Negate
                   ? -*value
                   : (truthy_const(*value) ? 0.0 : 1.0);
      }
      case ExprKind::Binary: {
        const auto& binary = static_cast<const BinaryExpr&>(e);
        const auto lhs = fold(binary.lhs());
        if (binary.op() == BinaryOp::And) {
          if (!lhs) {
            return std::nullopt;
          }
          if (!truthy_const(*lhs)) {
            return 0.0;  // right side never evaluated
          }
          const auto rhs = fold(binary.rhs());
          if (!rhs) {
            return std::nullopt;
          }
          return truthy_const(*rhs) ? 1.0 : 0.0;
        }
        if (binary.op() == BinaryOp::Or) {
          if (!lhs) {
            return std::nullopt;
          }
          if (truthy_const(*lhs)) {
            return 1.0;
          }
          const auto rhs = fold(binary.rhs());
          if (!rhs) {
            return std::nullopt;
          }
          return truthy_const(*rhs) ? 1.0 : 0.0;
        }
        const auto rhs = fold(binary.rhs());
        if (!lhs || !rhs) {
          return std::nullopt;
        }
        switch (binary.op()) {
          case BinaryOp::Add:
            return *lhs + *rhs;
          case BinaryOp::Sub:
            return *lhs - *rhs;
          case BinaryOp::Mul:
            return *lhs * *rhs;
          case BinaryOp::Div:
            return *lhs / *rhs;  // IEEE inf/nan, same as at run time
          case BinaryOp::Mod:
            return std::fmod(*lhs, *rhs);
          case BinaryOp::Lt:
            return *lhs < *rhs ? 1.0 : 0.0;
          case BinaryOp::Le:
            return *lhs <= *rhs ? 1.0 : 0.0;
          case BinaryOp::Gt:
            return *lhs > *rhs ? 1.0 : 0.0;
          case BinaryOp::Ge:
            return *lhs >= *rhs ? 1.0 : 0.0;
          case BinaryOp::Eq:
            return *lhs == *rhs ? 1.0 : 0.0;
          case BinaryOp::Ne:
            return *lhs != *rhs ? 1.0 : 0.0;
          case BinaryOp::And:
          case BinaryOp::Or:
            break;  // handled above
        }
        return std::nullopt;
      }
      case ExprKind::Call: {
        const auto& call = static_cast<const CallExpr&>(e);
        // User functions can read globals: never folded.
        if (table_.function_id(call.callee())) {
          return std::nullopt;
        }
        const detail::Builtin* builtin =
            detail::find_builtin(call.callee());
        if (builtin == nullptr ||
            static_cast<int>(call.args().size()) != builtin->arity) {
          return std::nullopt;  // lazily-thrown error path
        }
        std::vector<double> args;
        args.reserve(call.args().size());
        for (const auto& arg : call.args()) {
          const auto value = fold(*arg);
          if (!value) {
            return std::nullopt;
          }
          args.push_back(*value);
        }
        // Same libm call the VM would make — bit-identical by
        // construction on the machine that compiles and evaluates.
        return builtin->arity == 1 ? builtin->fn1(args[0])
                                   : builtin->fn2(args[0], args[1]);
      }
      case ExprKind::Conditional: {
        const auto& cond = static_cast<const ConditionalExpr&>(e);
        const auto chosen = fold(cond.cond());
        if (!chosen) {
          return std::nullopt;
        }
        return fold(truthy_const(*chosen) ? cond.then_branch()
                                          : cond.else_branch());
      }
    }
    return std::nullopt;
  }

  // --- emission helpers ----------------------------------------------------

  void note_push() {
    ++depth_;
    max_depth_ = std::max(max_depth_, depth_);
  }

  void push_const(double value) {
    out_.code_.push_back({Op::PushConst, 0, 0, value});
    note_push();
  }

  std::uint32_t intern_string(std::string text) {
    for (std::size_t i = 0; i < out_.strings_.size(); ++i) {
      if (out_.strings_[i] == text) {
        return static_cast<std::uint32_t>(i);
      }
    }
    out_.strings_.push_back(std::move(text));
    return static_cast<std::uint32_t>(out_.strings_.size() - 1);
  }

  /// Emits a forward jump with an unpatched target; returns its index.
  std::size_t emit_jump(Op op) {
    out_.code_.push_back({op, 0, 0, 0});
    if (op != Op::Jump) {
      --depth_;  // conditional jumps pop their operand
    }
    return out_.code_.size() - 1;
  }

  void patch_jump(std::size_t at) {
    out_.code_[at].a = static_cast<std::int32_t>(out_.code_.size());
  }

  void emit_load(const std::string& name) {
    if (const auto param = parameter_index(name)) {
      out_.code_.push_back({Op::LoadArg, 0, *param, 0});
      note_push();
      return;
    }
    if (const auto slot = table_.slot_of(name)) {
      out_.slots_.push_back(*slot);
      const auto ambient = table_.ambient_of(name);
      Op op = Op::LoadSlot;
      std::uint16_t b = 0;
      if (ambient == Ambient::Pid) {
        op = Op::LoadSlotOrPid;
        out_.uses_pid_tid_ = true;
      } else if (ambient == Ambient::Tid) {
        op = Op::LoadSlotOrTid;
        out_.uses_pid_tid_ = true;
      } else if (ambient == Ambient::Uid) {
        op = Op::LoadSlotOrUid;
      } else {
        b = static_cast<std::uint16_t>(
            intern_string("unknown variable '" + name + "'"));
      }
      out_.code_.push_back({op, b, static_cast<std::int32_t>(*slot), 0});
      note_push();
      return;
    }
    if (const auto constant = constant_binding(name)) {
      push_const(*constant);
      return;
    }
    if (const auto ambient = table_.ambient_of(name)) {
      Op op = Op::LoadUid;
      if (*ambient == Ambient::Pid) {
        op = Op::LoadPid;
        out_.uses_pid_tid_ = true;
      } else if (*ambient == Ambient::Tid) {
        op = Op::LoadTid;
        out_.uses_pid_tid_ = true;
      }
      out_.code_.push_back({op, 0, 0, 0});
      note_push();
      return;
    }
    emit_throw("unknown variable '" + name + "'");
  }

  /// Lazily-raised error: evaluating this instruction throws the exact
  /// message the tree walker produces for the same defect.  Counts as a
  /// push so surrounding stack accounting stays balanced (it never
  /// actually pushes — the throw unwinds the evaluation).
  void emit_throw(std::string message) {
    out_.code_.push_back(
        {Op::Throw, 0,
         static_cast<std::int32_t>(intern_string(std::move(message))), 0});
    note_push();
  }

  void emit_binary_op(BinaryOp op) {
    Op lowered = Op::Add;
    switch (op) {
      case BinaryOp::Add:
        lowered = Op::Add;
        break;
      case BinaryOp::Sub:
        lowered = Op::Sub;
        break;
      case BinaryOp::Mul:
        lowered = Op::Mul;
        break;
      case BinaryOp::Div:
        lowered = Op::Div;
        break;
      case BinaryOp::Mod:
        lowered = Op::Mod;
        break;
      case BinaryOp::Lt:
        lowered = Op::Lt;
        break;
      case BinaryOp::Le:
        lowered = Op::Le;
        break;
      case BinaryOp::Gt:
        lowered = Op::Gt;
        break;
      case BinaryOp::Ge:
        lowered = Op::Ge;
        break;
      case BinaryOp::Eq:
        lowered = Op::Eq;
        break;
      case BinaryOp::Ne:
        lowered = Op::Ne;
        break;
      case BinaryOp::And:
      case BinaryOp::Or:
        assert(false && "short-circuit ops lowered to jumps");
        break;
    }
    out_.code_.push_back({lowered, 0, 0, 0});
    --depth_;
  }

  void emit(const Expr& e) {
    if (const auto constant = fold(e)) {
      push_const(*constant);
      return;
    }
    switch (e.kind()) {
      case ExprKind::Number:
        push_const(static_cast<const NumberExpr&>(e).value());
        return;
      case ExprKind::Variable:
        emit_load(static_cast<const VariableExpr&>(e).name());
        return;
      case ExprKind::Unary: {
        const auto& unary = static_cast<const UnaryExpr&>(e);
        emit(unary.operand());
        out_.code_.push_back(
            {unary.op() == UnaryOp::Negate ? Op::Neg : Op::Not, 0, 0, 0});
        return;
      }
      case ExprKind::Binary:
        emit_binary(static_cast<const BinaryExpr&>(e));
        return;
      case ExprKind::Call:
        emit_call(static_cast<const CallExpr&>(e));
        return;
      case ExprKind::Conditional: {
        const auto& cond = static_cast<const ConditionalExpr&>(e);
        if (const auto chosen = fold(cond.cond())) {
          // Constant guard: only the taken branch is compiled; the dead
          // branch's potential errors vanish with it, exactly as the
          // tree walker never evaluates them.
          emit(truthy_const(*chosen) ? cond.then_branch()
                                     : cond.else_branch());
          return;
        }
        emit(cond.cond());
        const std::size_t to_else = emit_jump(Op::JumpIfFalse);
        const std::size_t entry_depth = depth_;
        emit(cond.then_branch());
        const std::size_t to_end = emit_jump(Op::Jump);
        patch_jump(to_else);
        depth_ = entry_depth;  // else arm starts at the branch depth
        emit(cond.else_branch());
        patch_jump(to_end);
        return;
      }
    }
  }

  void emit_binary(const BinaryExpr& binary) {
    const auto lhs_const = fold(binary.lhs());
    const auto rhs_const = fold(binary.rhs());
    switch (binary.op()) {
      case BinaryOp::And:
        // A constant falsy left side folded the whole expression; a
        // constant truthy one reduces to normalizing the right side.
        if (lhs_const) {
          emit(binary.rhs());
          out_.code_.push_back({Op::ToBool, 0, 0, 0});
          return;
        }
        {
          emit(binary.lhs());
          const std::size_t to_false = emit_jump(Op::JumpIfFalse);
          const std::size_t entry_depth = depth_;
          emit(binary.rhs());
          out_.code_.push_back({Op::ToBool, 0, 0, 0});
          const std::size_t to_end = emit_jump(Op::Jump);
          patch_jump(to_false);
          depth_ = entry_depth;
          push_const(0.0);
          patch_jump(to_end);
        }
        return;
      case BinaryOp::Or:
        if (lhs_const) {  // constant falsy left side: result is !!rhs
          emit(binary.rhs());
          out_.code_.push_back({Op::ToBool, 0, 0, 0});
          return;
        }
        {
          emit(binary.lhs());
          const std::size_t to_true = emit_jump(Op::JumpIfTrue);
          const std::size_t entry_depth = depth_;
          emit(binary.rhs());
          out_.code_.push_back({Op::ToBool, 0, 0, 0});
          const std::size_t to_end = emit_jump(Op::Jump);
          patch_jump(to_true);
          depth_ = entry_depth;
          push_const(1.0);
          patch_jump(to_end);
        }
        return;
      case BinaryOp::Mul:
        // x*1 == x and 1*x == x exactly (IEEE: sign, NaN and infinity
        // preserved), so the multiplication disappears.
        if (lhs_const && *lhs_const == 1.0 && !std::signbit(*lhs_const)) {
          emit(binary.rhs());
          return;
        }
        if (rhs_const && *rhs_const == 1.0 && !std::signbit(*rhs_const)) {
          emit(binary.lhs());
          return;
        }
        break;
      case BinaryOp::Div:
        if (rhs_const && *rhs_const == 1.0 && !std::signbit(*rhs_const)) {
          emit(binary.lhs());
          return;
        }
        break;
      case BinaryOp::Sub:
        // x-0 == x exactly for every x (including -0.0); x-(-0.0) is
        // not (it maps -0.0 to +0.0), hence the signbit check.
        if (rhs_const && *rhs_const == 0.0 && !std::signbit(*rhs_const)) {
          emit(binary.lhs());
          return;
        }
        break;
      case BinaryOp::Add:
        // Only x+(-0.0) == x is exact; x+0.0 maps -0.0 to +0.0 and is
        // deliberately left alone (see docs/expr.md).
        if (lhs_const && *lhs_const == 0.0 && std::signbit(*lhs_const)) {
          emit(binary.rhs());
          return;
        }
        if (rhs_const && *rhs_const == 0.0 && std::signbit(*rhs_const)) {
          emit(binary.lhs());
          return;
        }
        break;
      default:
        break;
    }
    emit(binary.lhs());
    emit(binary.rhs());
    emit_binary_op(binary.op());
  }

  void emit_call(const CallExpr& call) {
    // Arguments evaluate (and may throw) before any resolution error is
    // raised, matching the tree walker's order of operations.
    for (const auto& arg : call.args()) {
      emit(*arg);
    }
    const auto argc = call.args().size();
    if (const auto id = table_.function_id(call.callee())) {
      out_.code_.push_back({Op::CallUser,
                            static_cast<std::uint16_t>(argc),
                            *id, 0});
      depth_ -= argc;
      note_push();
      return;
    }
    const detail::Builtin* builtin = detail::find_builtin(call.callee());
    if (builtin == nullptr) {
      emit_throw("unknown function '" + call.callee() + "'");
      depth_ -= argc;  // the (unreachable) result replaces the args
      return;
    }
    if (static_cast<int>(argc) != builtin->arity) {
      emit_throw("function '" + call.callee() + "' expects " +
                 std::to_string(builtin->arity) + " argument(s), got " +
                 std::to_string(argc));
      depth_ -= argc;  // the (unreachable) result replaces the args
      return;
    }
    const auto index = static_cast<std::size_t>(
        builtin - detail::builtins().data());
    out_.code_.push_back(
        {static_cast<Op>(static_cast<int>(Op::Abs) + static_cast<int>(index)),
         0, 0, 0});
    if (builtin->arity == 2) {
      --depth_;
    }
  }

  const SymbolTable& table_;
  Compiled out_;
  mutable std::map<const Expr*, std::optional<double>> fold_cache_;
  std::size_t depth_ = 0;
  std::size_t max_depth_ = 0;
};

Compiled compile(const Expr& expr, const SymbolTable& table,
                 std::string site) {
  return Compiler(table).run(expr, std::move(site));
}

// ---------------------------------------------------------------------------
// Compiled: metadata
// ---------------------------------------------------------------------------

const std::string& Compiled::site() const {
  static const std::string none;
  return has_site_ ? strings_.back() : none;
}

std::optional<double> Compiled::constant() const {
  if (code_.size() == 1 && code_[0].op == Op::PushConst) {
    return code_[0].value;
  }
  return std::nullopt;
}

bool Compiled::references_slot(Slot slot) const {
  return std::binary_search(slots_.begin(), slots_.end(), slot);
}

// ---------------------------------------------------------------------------
// VM
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void throw_eval(const std::string& message) {
  throw EvalError(message);
}

/// Raises `message` from a program with site `site` running `depth`
/// calls deep: the outermost program (depth 0) prefixes its site, so a
/// called body's error carries its caller's.
[[noreturn]] void throw_at(const std::string& site, unsigned depth,
                           const std::string& message) {
  throw_eval(depth == 0 && !site.empty() ? site + ": " + message : message);
}

// What separates the two entry points' contexts: the lane width and the
// lane array of a positional argument.
constexpr std::size_t lane_width(const EvalContext& /*ctx*/) { return 1; }
std::size_t lane_width(const BatchEvalContext& ctx) { return ctx.width; }

const double* arg_lanes(const EvalContext& ctx, std::size_t index) {
  return &ctx.args[index];
}
const double* arg_lanes(const BatchEvalContext& ctx, std::size_t index) {
  return ctx.args[index];
}

/// The context a body called from `caller`, `depth` calls deep, runs
/// under (FunctionTable's rule; the arguments are the caller's to bind).
template <class Context>
Context callee_context(const Context& caller, unsigned depth) {
  if (caller.functions == nullptr) {
    throw_eval("unknown function (no user-function table bound)");
  }
  if (depth >= kMaxCallDepth) {
    throw_eval("cost-function call depth exceeded (cycle?)");
  }
  Context ctx;
  ctx.frame = caller.functions->frame;
  if constexpr (std::is_same_v<Context, BatchEvalContext>) {
    ctx.width = caller.width;
  }
  ctx.functions = caller.functions;
  ctx.counters = caller.counters;
  ctx.budget = caller.budget;
  return ctx;
}

/// Lane `lane`'s scalar view of a structure-of-arrays frame: every bound
/// slot's lane array offset by the lane.
void lane_view(std::span<double* const> lanes, std::size_t lane,
               std::span<double*> view) {
  for (std::size_t slot = 0; slot < view.size(); ++slot) {
    view[slot] = lanes[slot] != nullptr ? lanes[slot] + lane : nullptr;
  }
}

/// `size` elements of scratch: the inline room when it is large enough,
/// else `heap`, resized.
template <typename T, std::size_t N>
std::span<T> room(T (&inline_room)[N], std::vector<T>& heap,
                  std::size_t size) {
  if (size > N) {
    heap.resize(size);
    return heap;
  }
  return {inline_room, size};
}

// CallUser scratch of the batched loop: the argument lane pointers and
// the result lanes (the callee's `out` must not alias its arguments).
// Calls of up to 8 arguments across up to 64 lanes (a sweep's widest
// chunk) use the inline room, so a batched call allocates nothing; only
// wider calls spill to the vectors.  Like the operand stack, the room is
// left uninitialized: each call writes it before the callee reads it.
struct BatchCallScratch {
  const double* inline_args[8];
  double inline_out[64];
  std::vector<const double*> heap_args;
  std::vector<double> heap_out;
};
struct NoCallScratch {};

// Scratch of eval_batch_at's lane-by-lane path: each lane's view of the
// frame and of the bodies' frame, and its arguments.  Frames of up to 64
// slots and calls of up to 8 arguments use the inline room, so the path
// allocates nothing; larger ones spill to the vectors.  The room is left
// uninitialized: each lane writes it before the VM reads it.
struct LaneByLaneScratch {
  double* inline_frame[64];
  double* inline_body_frame[64];
  double inline_args[8];
  std::vector<double*> heap_frame;
  std::vector<double*> heap_body_frame;
  std::vector<double> heap_args;
};

}  // namespace

// Lane loops over the operand stack, `l` being the lane: PUSH writes a new
// top value, UNARY rewrites the top value `a` in place, BINARY pops `b`
// and rewrites the value below it, `a`.
#define PROPHET_VM_PUSH(VALUE)                    \
  do {                                            \
    double* const top = stack + sp++ * width;     \
    for (std::size_t l = 0; l < width; ++l) {     \
      top[l] = (VALUE);                           \
    }                                             \
  } while (false)
#define PROPHET_VM_UNARY(VALUE)                   \
  do {                                            \
    double* const a = stack + (sp - 1) * width;   \
    for (std::size_t l = 0; l < width; ++l) {     \
      a[l] = (VALUE);                             \
    }                                             \
  } while (false)
#define PROPHET_VM_BINARY(VALUE)                  \
  do {                                            \
    --sp;                                         \
    double* const a = stack + (sp - 1) * width;   \
    const double* const b = stack + sp * width;   \
    for (std::size_t l = 0; l < width; ++l) {     \
      a[l] = (VALUE);                             \
    }                                             \
  } while (false)

// One loop serves both entry points.  With an EvalContext the width is
// the constant 1 and every lane loop compiles to the scalar statement;
// with a BatchEvalContext each instruction runs across ctx.width lanes
// before the next one starts.  The operand stack is structure-of-arrays:
// stack value i occupies the `width` lanes at stack + i * width.  Jumps
// and lazy-error counting exist only in the scalar instantiation:
// eval_batch sends programs with jumps and every raised error through
// the scalar loop lane by lane, which counts them there.
template <class Context>
double Compiled::run(const Context& ctx, double* out, unsigned depth) const {
  constexpr bool kBatched = std::is_same_v<Context, BatchEvalContext>;
  const std::size_t width = lane_width(ctx);
  // The compiler knows the worst-case depth; typical programs fit the
  // inline buffer, so spilling to the heap is the rare path.
  constexpr std::size_t kInlineCells = kBatched ? 256 : 64;
  double inline_stack[kInlineCells];
  std::vector<double> heap_stack;
  double* stack = inline_stack;
  if (max_stack_ * width > kInlineCells) {
    heap_stack.resize(max_stack_ * width);
    stack = heap_stack.data();
  }
  std::conditional_t<kBatched, BatchCallScratch, NoCallScratch> scratch;
  std::size_t sp = 0;
  const Instr* code = code_.data();
  const std::size_t n = code_.size();
  std::size_t ip = 0;
  // Instruction counting stays off the dispatch loop's memory traffic: a
  // register-resident tally, flushed once per run (throwing paths
  // included) and only when a counter block is installed.  A batched run
  // counts each instruction once and one eval per lane.
  std::uint64_t dispatched = 0;
  struct FlushCounters {
    obs::ExprCounters* counters;
    const std::uint64_t* dispatched;
    std::size_t width;
    ~FlushCounters() {
      if (counters != nullptr) {
        counters->instructions += *dispatched;
        counters->evals += width;
        if constexpr (std::is_same_v<Context, BatchEvalContext>) {
          ++counters->batch_evals;
        }
      }
    }
  } flush{ctx.counters, &dispatched, width};
  // Budget stride: one pointer test per dispatch when disabled; when a
  // budget is installed, charge whole strides as they complete (the tail
  // is charged after the loop) so runaway expressions trip within ~1k
  // instructions while the hot path stays branch-cheap.
  constexpr std::uint64_t kBudgetStride = 1024;
  while (ip < n) {
    ++dispatched;
    if (ctx.budget != nullptr && (dispatched & (kBudgetStride - 1)) == 0) {
      ctx.budget->charge_vm_instructions(kBudgetStride, "expr-vm");
    }
    const Instr& in = code[ip];
    switch (in.op) {
      case Op::PushConst:
        PROPHET_VM_PUSH(in.value);
        break;
      case Op::LoadSlot: {
        const double* bound = ctx.frame[static_cast<std::size_t>(in.a)];
        if (bound == nullptr) {
          if constexpr (!kBatched) {
            if (ctx.counters != nullptr) {
              ++ctx.counters->lazy_errors;
            }
          }
          throw_at(site(), depth, strings_[in.b]);
        }
        PROPHET_VM_PUSH(bound[l]);
        break;
      }
      case Op::LoadSlotOrPid: {
        const double* bound = ctx.frame[static_cast<std::size_t>(in.a)];
        PROPHET_VM_PUSH(bound != nullptr ? bound[l] : ctx.pid);
        break;
      }
      case Op::LoadSlotOrTid: {
        const double* bound = ctx.frame[static_cast<std::size_t>(in.a)];
        PROPHET_VM_PUSH(bound != nullptr ? bound[l] : ctx.tid);
        break;
      }
      case Op::LoadSlotOrUid: {
        const double* bound = ctx.frame[static_cast<std::size_t>(in.a)];
        PROPHET_VM_PUSH(bound != nullptr ? bound[l] : ctx.uid);
        break;
      }
      case Op::LoadArg: {
        const auto index = static_cast<std::size_t>(in.a);
        if (index < ctx.args.size()) {
          const double* arg = arg_lanes(ctx, index);
          PROPHET_VM_PUSH(arg[l]);
        } else {
          PROPHET_VM_PUSH(0.0);
        }
        break;
      }
      case Op::LoadPid:
        PROPHET_VM_PUSH(ctx.pid);
        break;
      case Op::LoadTid:
        PROPHET_VM_PUSH(ctx.tid);
        break;
      case Op::LoadUid:
        PROPHET_VM_PUSH(ctx.uid);
        break;
      case Op::Neg:
        PROPHET_VM_UNARY(-a[l]);
        break;
      case Op::Not:
        PROPHET_VM_UNARY(a[l] != 0.0 ? 0.0 : 1.0);
        break;
      case Op::Add:
        PROPHET_VM_BINARY(a[l] + b[l]);
        break;
      case Op::Sub:
        PROPHET_VM_BINARY(a[l] - b[l]);
        break;
      case Op::Mul:
        PROPHET_VM_BINARY(a[l] * b[l]);
        break;
      case Op::Div:
        PROPHET_VM_BINARY(a[l] / b[l]);
        break;
      case Op::Mod:
        PROPHET_VM_BINARY(std::fmod(a[l], b[l]));
        break;
      case Op::Lt:
        PROPHET_VM_BINARY(a[l] < b[l] ? 1.0 : 0.0);
        break;
      case Op::Le:
        PROPHET_VM_BINARY(a[l] <= b[l] ? 1.0 : 0.0);
        break;
      case Op::Gt:
        PROPHET_VM_BINARY(a[l] > b[l] ? 1.0 : 0.0);
        break;
      case Op::Ge:
        PROPHET_VM_BINARY(a[l] >= b[l] ? 1.0 : 0.0);
        break;
      case Op::Eq:
        PROPHET_VM_BINARY(a[l] == b[l] ? 1.0 : 0.0);
        break;
      case Op::Ne:
        PROPHET_VM_BINARY(a[l] != b[l] ? 1.0 : 0.0);
        break;
      case Op::ToBool:
        PROPHET_VM_UNARY(a[l] != 0.0 ? 1.0 : 0.0);
        break;
      case Op::Jump:
        if constexpr (!kBatched) {
          ip = static_cast<std::size_t>(in.a);
          continue;
        }
        break;
      case Op::JumpIfFalse:
        if constexpr (!kBatched) {
          if (!(stack[--sp] != 0.0)) {
            ip = static_cast<std::size_t>(in.a);
            continue;
          }
        }
        break;
      case Op::JumpIfTrue:
        if constexpr (!kBatched) {
          if (stack[--sp] != 0.0) {
            ip = static_cast<std::size_t>(in.a);
            continue;
          }
        }
        break;
      case Op::CallUser: {
        const std::size_t argc = in.b;
        sp -= argc;
        try {
          Context call = callee_context(ctx, depth);
          const Compiled& body = ctx.functions->bodies[in.a];
          if constexpr (kBatched) {
            const std::span<const double*> args =
                room(scratch.inline_args, scratch.heap_args, argc);
            for (std::size_t i = 0; i < argc; ++i) {
              args[i] = stack + (sp + i) * width;
            }
            double* const result =
                room(scratch.inline_out, scratch.heap_out, width).data();
            call.args = args;
            body.eval_batch_at(call, result, depth + 1);
            std::copy_n(result, width, stack + sp * width);
          } else {
            call.args = std::span<const double>(stack + sp, argc);
            stack[sp] = body.run(call, nullptr, depth + 1);
          }
        } catch (const EvalError& error) {
          throw_at(site(), depth, error.what());
        }
        ++sp;
        break;
      }
      case Op::Throw:
        if constexpr (!kBatched) {
          if (ctx.counters != nullptr) {
            ++ctx.counters->lazy_errors;
          }
        }
        throw_at(site(), depth, strings_[static_cast<std::size_t>(in.a)]);
      case Op::Abs:
        PROPHET_VM_UNARY(std::fabs(a[l]));
        break;
      case Op::Ceil:
        PROPHET_VM_UNARY(std::ceil(a[l]));
        break;
      case Op::Cos:
        PROPHET_VM_UNARY(std::cos(a[l]));
        break;
      case Op::Exp:
        PROPHET_VM_UNARY(std::exp(a[l]));
        break;
      case Op::Floor:
        PROPHET_VM_UNARY(std::floor(a[l]));
        break;
      case Op::Log:
        PROPHET_VM_UNARY(std::log(a[l]));
        break;
      case Op::Log10:
        PROPHET_VM_UNARY(std::log10(a[l]));
        break;
      case Op::Log2:
        PROPHET_VM_UNARY(std::log2(a[l]));
        break;
      case Op::Max:
        PROPHET_VM_BINARY(std::fmax(a[l], b[l]));
        break;
      case Op::Min:
        PROPHET_VM_BINARY(std::fmin(a[l], b[l]));
        break;
      case Op::Pow:
        PROPHET_VM_BINARY(std::pow(a[l], b[l]));
        break;
      case Op::Round:
        PROPHET_VM_UNARY(std::round(a[l]));
        break;
      case Op::Sin:
        PROPHET_VM_UNARY(std::sin(a[l]));
        break;
      case Op::Sqrt:
        PROPHET_VM_UNARY(std::sqrt(a[l]));
        break;
      case Op::Tan:
        PROPHET_VM_UNARY(std::tan(a[l]));
        break;
      case Op::Tanh:
        PROPHET_VM_UNARY(std::tanh(a[l]));
        break;
    }
    ++ip;
  }
  if (ctx.budget != nullptr && (dispatched & (kBudgetStride - 1)) != 0) {
    ctx.budget->charge_vm_instructions(dispatched & (kBudgetStride - 1),
                                       "expr-vm");
  }
  const double* result = stack + (sp - 1) * width;
  if constexpr (kBatched) {
    std::copy_n(result, width, out);
  }
  return result[0];
}

#undef PROPHET_VM_PUSH
#undef PROPHET_VM_UNARY
#undef PROPHET_VM_BINARY

double Compiled::eval(const EvalContext& ctx) const {
  return run(ctx, nullptr, 0);
}

void Compiled::eval_batch(const BatchEvalContext& ctx, double* out) const {
  eval_batch_at(ctx, out, 0);
}

double call(const EvalContext& caller, int id, std::span<const double> args) {
  EvalContext ctx = callee_context(caller, 0);
  ctx.args = args;
  return caller.functions->bodies[id].run(ctx, nullptr, 1);
}

void Compiled::eval_batch_at(const BatchEvalContext& ctx, double* out,
                             unsigned depth) const {
  // Jumps make lanes diverge (short circuits, conditionals): such
  // programs run lane-by-lane below.  One lane is a scalar eval either
  // way.
  if (ctx.width > 1 && branchless_) {
    try {
      (void)run(ctx, out, depth);
      return;
    } catch (const EvalError&) {
      // Some lane raised mid-program (lazy error, cost-function failure).
      // Programs are pure, so re-running lane-by-lane reproduces every
      // completed lane's value and surfaces the scalar loop's error: the
      // lowest erroring lane, exact message, scalar counter accounting.
      // Budget exceptions (guard::GuardError) are not caught — a tripped
      // budget must propagate, not retry.
    }
  }
  // The lane-by-lane reference: every lane through the scalar VM against
  // that lane's view of the frame (and of the bodies' frame).
  LaneByLaneScratch scratch;
  const std::span<double*> frame =
      room(scratch.inline_frame, scratch.heap_frame, ctx.frame.size());
  const std::span<double> args =
      room(scratch.inline_args, scratch.heap_args, ctx.args.size());
  const bool calls = calls_user_ && ctx.functions != nullptr;
  const std::span<double*> body_frame =
      room(scratch.inline_body_frame, scratch.heap_body_frame,
           calls ? ctx.functions->frame.size() : 0);
  const FunctionTable lane_functions{
      calls ? ctx.functions->bodies : std::span<const Compiled>(), body_frame};
  for (std::size_t lane = 0; lane < ctx.width; ++lane) {
    lane_view(ctx.frame, lane, frame);
    if (calls) {
      lane_view(ctx.functions->frame, lane, body_frame);
    }
    for (std::size_t i = 0; i < args.size(); ++i) {
      args[i] = ctx.args[i][lane];
    }
    EvalContext scalar;
    scalar.frame = frame;
    scalar.args = args;
    scalar.functions = calls ? &lane_functions : nullptr;
    scalar.pid = ctx.pid;
    scalar.tid = ctx.tid;
    scalar.uid = ctx.uid;
    scalar.counters = ctx.counters;
    scalar.budget = ctx.budget;
    out[lane] = run(scalar, nullptr, depth);
  }
}

// ---------------------------------------------------------------------------
// Disassembler
// ---------------------------------------------------------------------------

namespace {

std::string_view op_name(Op op) {
  switch (op) {
    case Op::PushConst:
      return "push";
    case Op::LoadSlot:
      return "load";
    case Op::LoadSlotOrPid:
      return "load|pid";
    case Op::LoadSlotOrTid:
      return "load|tid";
    case Op::LoadSlotOrUid:
      return "load|uid";
    case Op::LoadArg:
      return "arg";
    case Op::LoadPid:
      return "pid";
    case Op::LoadTid:
      return "tid";
    case Op::LoadUid:
      return "uid";
    case Op::Neg:
      return "neg";
    case Op::Not:
      return "not";
    case Op::Add:
      return "add";
    case Op::Sub:
      return "sub";
    case Op::Mul:
      return "mul";
    case Op::Div:
      return "div";
    case Op::Mod:
      return "mod";
    case Op::Lt:
      return "lt";
    case Op::Le:
      return "le";
    case Op::Gt:
      return "gt";
    case Op::Ge:
      return "ge";
    case Op::Eq:
      return "eq";
    case Op::Ne:
      return "ne";
    case Op::ToBool:
      return "tobool";
    case Op::Jump:
      return "jmp";
    case Op::JumpIfFalse:
      return "jz";
    case Op::JumpIfTrue:
      return "jnz";
    case Op::CallUser:
      return "call";
    case Op::Throw:
      return "throw";
    case Op::Abs:
      return "abs";
    case Op::Ceil:
      return "ceil";
    case Op::Cos:
      return "cos";
    case Op::Exp:
      return "exp";
    case Op::Floor:
      return "floor";
    case Op::Log:
      return "log";
    case Op::Log10:
      return "log10";
    case Op::Log2:
      return "log2";
    case Op::Max:
      return "max";
    case Op::Min:
      return "min";
    case Op::Pow:
      return "pow";
    case Op::Round:
      return "round";
    case Op::Sin:
      return "sin";
    case Op::Sqrt:
      return "sqrt";
    case Op::Tan:
      return "tan";
    case Op::Tanh:
      return "tanh";
  }
  return "?";
}

}  // namespace

std::string Compiled::disassemble() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < code_.size(); ++i) {
    const Instr& in = code_[i];
    out << i << ": " << op_name(in.op);
    switch (in.op) {
      case Op::PushConst:
        out << ' ' << in.value;
        break;
      case Op::LoadSlot:
      case Op::LoadSlotOrPid:
      case Op::LoadSlotOrTid:
      case Op::LoadSlotOrUid:
      case Op::LoadArg:
      case Op::Jump:
      case Op::JumpIfFalse:
      case Op::JumpIfTrue:
        out << ' ' << in.a;
        break;
      case Op::CallUser:
        out << ' ' << in.a << " argc=" << in.b;
        break;
      case Op::Throw:
        out << " \"" << strings_[static_cast<std::size_t>(in.a)] << '"';
        break;
      default:
        break;
    }
    out << '\n';
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// SlotFrame
// ---------------------------------------------------------------------------

SlotFrame::SlotFrame(const SymbolTable& table)
    : values_(table.slot_count(), 0.0), pointers_(table.slot_count()) {
  for (std::size_t i = 0; i < values_.size(); ++i) {
    pointers_[i] = &values_[i];
  }
}

}  // namespace prophet::expr
