// Compilation of cost-function expressions to a slot-based bytecode VM.
//
// The tree-walking evaluator (eval.hpp) resolves every identifier through
// a virtual Environment with string-map lookups on each evaluation — fine
// for one-off checks, far too slow for the hot paths that evaluate the
// same cost tag, guard or cost-function body millions of times across a
// scenario sweep.  This header brings the paper's prepare-once discipline
// down to individual expressions: `compile()` lowers a parsed Expr into a
// flat postfix bytecode program whose variable references were resolved
// at compile time to integer *slots*, so evaluation is a tight dispatch
// loop over a pointer frame — no strings, no virtual calls, no maps.
//
// Contract with the tree-walking evaluator: for the same bindings,
// `Compiled::eval` is **bit-identical** to `expr::evaluate`, including
// IEEE edge cases (NaN, infinities, signed zero), short-circuit
// semantics of `&&` / `||` / `?:`, and the exact EvalError messages for
// unknown identifiers and built-in arity mismatches (which are detected
// at compile time but — like the tree walker — raised only if the
// offending subexpression actually executes).  The randomized
// differential test in tests/expr/compile_test.cpp pins this contract.
//
// Compilation applies constant folding (including libm built-ins over
// constant arguments), short-circuit elimination for constant guards,
// and the algebraic identities that are exact in IEEE arithmetic
// (`x*1`, `1*x`, `x/1`, `x-0`).  `x+0` is deliberately *not* rewritten
// to `x`: for x == -0.0 the sum is +0.0, so the identity would break
// bit-identity.  See docs/expr.md for the bytecode format and the full
// folding rule table.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "prophet/expr/ast.hpp"
#include "prophet/expr/eval.hpp"

namespace prophet::guard {
class Budget;
}  // namespace prophet::guard

namespace prophet::obs {
struct ExprCounters;
}  // namespace prophet::obs

namespace prophet::expr {

/// Index of a variable slot in an evaluation frame.
using Slot = std::uint32_t;

/// Identifiers whose value is supplied per evaluation call rather than
/// through the frame: the paper's `pid` / `tid` / `uid` system
/// parameters, which change per process, thread and model element while
/// a frame describes run-level and scope-level bindings.
enum class Ambient : std::uint8_t {
  Pid,  ///< modeled process id
  Tid,  ///< modeled thread id
  Uid,  ///< executing element uid
};

struct FunctionTable;

/// Cost-function calls that may be active at once; one more raises
/// "cost-function call depth exceeded (cycle?)".
inline constexpr unsigned kMaxCallDepth = 65;

/// Compile-time name resolution: maps identifiers to slots, per-call
/// ambients, constants, positional parameters and user-function ids.
///
/// Hosts populate a table once per model (or per function body), then
/// compile every expression against it.  Resolution precedence matches
/// the dynamic environments it replaces:
///   1. positional parameters (function bodies only),
///   2. variable slots (model variables, loop variables, np/nt/nn/ppn),
///   3. compile-time constants,
///   4. ambients (pid/tid/uid),
///   5. otherwise: an "unknown variable" error raised lazily at
///      evaluation time, exactly like the tree walker.
/// A name may be both a slot and an ambient (e.g. a loop variable named
/// `pid` shadows the system parameter only while bound): the compiled
/// load then falls back to the ambient when the slot is unbound.
class SymbolTable {
 public:
  /// Interns `name` as a frame slot; idempotent (same name, same slot).
  Slot add_variable(std::string name);

  /// Registers `name` as a per-call ambient value (pid/tid/uid).
  void bind_ambient(std::string name, Ambient kind);

  /// Binds `name` to a compile-time constant (folded into the program).
  void bind_constant(std::string name, double value);

  /// Registers a user function; returns its id (also idempotent).
  /// Registered names shadow the built-ins, as in the tree walker.
  int add_function(std::string name);

  /// Declares a positional parameter (function bodies); parameters
  /// resolve before any other binding, in declaration order.
  void add_parameter(std::string name);

  /// Number of slots interned so far (the minimum frame size).
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

  /// Slot of `name`, if interned.
  [[nodiscard]] std::optional<Slot> slot_of(std::string_view name) const;

  /// Name interned for `slot`.
  [[nodiscard]] const std::string& name_of(Slot slot) const;

  /// Id of a registered user function, if any.
  [[nodiscard]] std::optional<int> function_id(std::string_view name) const;

  /// Ambient binding of `name`, if any.
  [[nodiscard]] std::optional<Ambient> ambient_of(
      std::string_view name) const;

 private:
  friend class Compiler;

  /// Transparent string hash for heterogeneous (string_view) lookup.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const noexcept {
      return std::hash<std::string_view>{}(name);
    }
  };
  using NameIndex =
      std::unordered_map<std::string, std::uint32_t, NameHash,
                         std::equal_to<>>;

  std::vector<std::string> slots_;               // slot -> name
  std::vector<std::string> parameters_;          // position -> name
  std::vector<std::string> functions_;           // id -> name
  std::vector<std::pair<std::string, Ambient>> ambients_;
  std::vector<std::pair<std::string, double>> constants_;
  // Hash indexes over slots_/functions_ — lookups are O(1), so lowering
  // a model with many identifiers stays O(identifiers), not O(n^2).
  // Keys are owned copies, so copied tables stay self-contained.
  NameIndex slot_index_;
  NameIndex function_index_;
};

/// Bytecode operations.  Stack effect in brackets.
enum class Op : std::uint8_t {
  PushConst,       ///< [-0 +1] push immediate
  LoadSlot,        ///< [-0 +1] push *frame[a]; throws strings[b] when unbound
  LoadSlotOrPid,   ///< [-0 +1] push *frame[a], or ctx.pid when unbound
  LoadSlotOrTid,   ///< [-0 +1] like LoadSlotOrPid for ctx.tid
  LoadSlotOrUid,   ///< [-0 +1] like LoadSlotOrPid for ctx.uid
  LoadArg,         ///< [-0 +1] push args[a], or 0.0 past the call's arity
  LoadPid,         ///< [-0 +1] push ctx.pid
  LoadTid,         ///< [-0 +1] push ctx.tid
  LoadUid,         ///< [-0 +1] push ctx.uid
  Neg,             ///< [-1 +1] arithmetic negation
  Not,             ///< [-1 +1] logical not (1.0 / 0.0)
  Add,             ///< [-2 +1]
  Sub,             ///< [-2 +1]
  Mul,             ///< [-2 +1]
  Div,             ///< [-2 +1] IEEE semantics (inf/nan on zero divisor)
  Mod,             ///< [-2 +1] fmod semantics
  Lt,              ///< [-2 +1] comparisons yield 1.0 / 0.0
  Le,              ///< [-2 +1]
  Gt,              ///< [-2 +1]
  Ge,              ///< [-2 +1]
  Eq,              ///< [-2 +1]
  Ne,              ///< [-2 +1]
  ToBool,          ///< [-1 +1] truthy-normalize to 1.0 / 0.0
  Jump,            ///< [-0 +0] continue at instruction a
  JumpIfFalse,     ///< [-1 +0] pop; continue at a when falsy
  JumpIfTrue,      ///< [-1 +0] pop; continue at a when truthy
  CallUser,        ///< [-b +1] call user function a with b stack args
  Throw,           ///< raise EvalError(strings[a]) — lazily compiled errors
  // One direct-dispatch opcode per built-in, in kBuiltins order (sorted
  // by name), replacing the tree walker's per-call table scan.
  Abs,             ///< [-1 +1]
  Ceil,            ///< [-1 +1]
  Cos,             ///< [-1 +1]
  Exp,             ///< [-1 +1]
  Floor,           ///< [-1 +1]
  Log,             ///< [-1 +1]
  Log10,           ///< [-1 +1]
  Log2,            ///< [-1 +1]
  Max,             ///< [-2 +1] fmax semantics
  Min,             ///< [-2 +1] fmin semantics
  Pow,             ///< [-2 +1]
  Round,           ///< [-1 +1]
  Sin,             ///< [-1 +1]
  Sqrt,            ///< [-1 +1]
  Tan,             ///< [-1 +1]
  Tanh,            ///< [-1 +1]
};

/// One bytecode instruction (16 bytes; programs are flat vectors).
struct Instr {
  Op op = Op::PushConst;     ///< operation
  std::uint16_t b = 0;       ///< CallUser argc / LoadSlot error-string index
  std::int32_t a = 0;        ///< slot / arg index / jump target / fn or string id
  double value = 0;          ///< PushConst immediate
};

/// Everything one evaluation needs: the frame, per-call ambients, the
/// positional arguments of the enclosing user-function call (if any) and
/// the cost functions CallUser reaches.
///
/// `frame[slot]` points at the current binding of that slot, or is null
/// when the name is unbound in this context (the load then falls back to
/// its ambient, or raises the same "unknown variable" EvalError the tree
/// walker would).  The frame must cover every slot of the SymbolTable
/// the program was compiled against.
struct EvalContext {
  std::span<double* const> frame = {};   ///< slot -> current binding
  std::span<const double> args = {};     ///< function-call parameters
  const FunctionTable* functions = nullptr;  ///< CallUser's callees
  double pid = 0;                        ///< ambient process id
  double tid = 0;                        ///< ambient thread id
  double uid = 0;                        ///< ambient element uid
  /// Optional VM activity counters (instructions dispatched, evals,
  /// lazy-error throws).  Null — the default — disables counting; the
  /// counted values never feed back into evaluation, so results are
  /// bit-identical either way.
  obs::ExprCounters* counters = nullptr;
  /// Optional execution budget.  When set, the dispatch loop charges
  /// executed instructions against it every
  /// guard::Budget::kDeadlineStride dispatches and raises
  /// guard::ResourceExhausted / guard::Cancelled when a limit trips.
  /// Null — the default — disables the checks; like `counters`, a budget
  /// never feeds values into evaluation.
  guard::Budget* budget = nullptr;
};

/// Everything one *batched* evaluation needs: the structure-of-arrays
/// frame (each bound slot points at `width` contiguous per-lane values),
/// lane-array positional arguments, the cost functions CallUser reaches
/// and the lane-uniform ambients.
///
/// The contract mirrors EvalContext lane-wise: `eval_batch(ctx, out)`
/// leaves `out[l]` bit-identical to what `eval` would return for lane
/// l's view (frame pointers offset by l, `args[i][l]`, same ambients).
/// When any lane raises, the exception thrown is the one the scalar
/// loop would surface: the lowest erroring lane's, with its exact
/// message.  Counter and budget accounting is batched (instructions
/// count once per batched dispatch, `evals` advances by `width`);
/// counted values never feed back into evaluation.
struct BatchEvalContext {
  /// slot -> lane array (`width` contiguous doubles), or null when the
  /// slot is unbound in every lane.  Lanes of one slot may not be bound
  /// selectively — bindings are frame-uniform, values are per-lane.
  std::span<double* const> frame = {};
  std::size_t width = 1;                   ///< number of scenario lanes
  std::span<const double* const> args = {};  ///< arg -> lane array
  const FunctionTable* functions = nullptr;  ///< CallUser's callees
  double pid = 0;                          ///< lane-uniform ambient
  double tid = 0;                          ///< lane-uniform ambient
  double uid = 0;                          ///< lane-uniform ambient
  obs::ExprCounters* counters = nullptr;   ///< optional VM counters
  guard::Budget* budget = nullptr;         ///< optional execution budget
};

/// A compiled expression: flat postfix bytecode plus the static metadata
/// hosts use to skip work (constant programs, referenced slots, pid/tid
/// dependence).  Immutable after compile(); evaluation is const and
/// thread-safe (all per-call state lives on the caller's stack).
class Compiled {
 public:
  /// Runs the program.  Throws EvalError on lazily-compiled resolution
  /// errors (unknown variable/function, built-in arity mismatch), calls
  /// nested past kMaxCallDepth or a called body's error, as
  /// "<site>: <message>" when the program has a site().
  [[nodiscard]] double eval(const EvalContext& ctx) const;

  /// Runs the program across `ctx.width` scenario lanes at once, writing
  /// one result per lane to `out[0..width)`.  Bit-identical to a scalar
  /// eval() loop over the per-lane views (see BatchEvalContext).
  ///
  /// Branchless programs run through the same dispatch loop as eval(),
  /// instruction-at-a-time across all lanes: each opcode is one plain
  /// loop over the lanes performing the scalar VM's exact operation
  /// (IEEE arithmetic and compares, the same std:: libm calls).
  /// Programs with jumps (short circuits, conditionals — lane-divergent
  /// control) fall back to lane-by-lane scalar evaluation, as does any
  /// lane-raised error, so error lane order and messages always match
  /// the scalar loop (site prefix included).
  void eval_batch(const BatchEvalContext& ctx, double* out) const;

  /// Where the program sits in its model ("guard of edge f2", ...);
  /// empty for function bodies, whose errors take their caller's site.
  [[nodiscard]] const std::string& site() const;

  /// The folded constant value when the whole program reduced to one —
  /// hosts can skip the VM dispatch entirely.
  [[nodiscard]] std::optional<double> constant() const;

  /// True when the program loads `slot` (after folding).  Sorted-vector
  /// binary search; used for the analytic backend's loop-collapse and
  /// SPMD-sharing legality checks.
  [[nodiscard]] bool references_slot(Slot slot) const;

  /// All slots the program may load, sorted ascending.
  [[nodiscard]] std::span<const Slot> referenced_slots() const {
    return slots_;
  }

  /// True when evaluation may read the pid or tid ambient (directly or
  /// as an unbound-slot fallback) — the static analogue of the analytic
  /// walker's "pid queried" tracking.
  [[nodiscard]] bool may_read_pid_tid() const { return uses_pid_tid_; }

  /// True when the program contains no jump instructions (no
  /// short-circuit or conditional control flow) — the precondition for
  /// eval_batch's instruction-stepped fast path.  Computed at compile
  /// time.
  [[nodiscard]] bool branchless() const { return branchless_; }

  /// True when the program contains CallUser instructions — evaluation
  /// then needs the context's FunctionTable.  Computed at compile time.
  [[nodiscard]] bool calls_user_functions() const { return calls_user_; }

  /// Instruction count (post folding).
  [[nodiscard]] std::size_t size() const { return code_.size(); }

  /// The instructions (exposed for tests and the disassembler).
  [[nodiscard]] std::span<const Instr> code() const { return code_; }

  /// The lazy-error message table LoadSlot (index `b`) and Throw
  /// (index `a`) reference — exposed so code generators consuming the
  /// bytecode can reproduce the VM's exact EvalError messages.
  [[nodiscard]] std::span<const std::string> strings() const {
    return std::span(strings_).first(strings_.size() - (has_site_ ? 1 : 0));
  }

  /// Human-readable listing, one instruction per line (for docs/tests).
  [[nodiscard]] std::string disassemble() const;

 private:
  friend class Compiler;
  /// Applies the call rule from the host side (see expr::call).
  friend double call(const EvalContext& caller, int id,
                     std::span<const double> args);
  std::vector<Instr> code_;
  // Lazy error messages, then the site label when the program has one
  // (kept here rather than in a member of its own: a larger Compiled
  // measurably slowed the scalar VM benchmark).
  std::vector<std::string> strings_;
  std::vector<Slot> slots_;           // referenced slots, sorted
  std::size_t max_stack_ = 0;
  bool uses_pid_tid_ = false;
  bool branchless_ = true;   // no Jump/JumpIfFalse/JumpIfTrue emitted
  bool calls_user_ = false;  // contains CallUser
  bool has_site_ = false;    // strings_.back() is the site label

  // The one dispatch loop: one lane for eval (Context = EvalContext),
  // ctx.width lanes for eval_batch's fast path (BatchEvalContext).
  // Returns lane 0's result; the batched form also writes every lane to
  // `out`.  `depth` counts the calls the program runs inside; only at
  // depth 0 do its errors carry its site.
  template <class Context>
  double run(const Context& ctx, double* out, unsigned depth) const;
  // eval_batch at call depth `depth`.
  void eval_batch_at(const BatchEvalContext& ctx, double* out,
                     unsigned depth) const;
};

/// The cost functions CallUser reaches.  The VM's one call rule: body
/// `id` runs against `frame` (the run frame: globals and structural
/// parameters, not the caller's locals) with the call's arguments (past
/// the arity they read 0), zero pid/tid/uid, the caller's counters and
/// budget, one level deeper (see kMaxCallDepth).  `frame` is laid out
/// like the carrying context's: lane arrays for BatchEvalContext.
struct FunctionTable {
  std::span<const Compiled> bodies = {};  ///< by add_function id
  std::span<double* const> frame = {};    ///< slot -> binding bodies see
};

/// Calls function `id` of `caller.functions` as CallUser in a program
/// evaluated under `caller` would (errors unprefixed).
[[nodiscard]] double call(const EvalContext& caller, int id,
                          std::span<const double> args);

/// Lowers `expr` to bytecode under `table`.  Never throws for resolution
/// problems — unknown names, unknown functions and built-in arity
/// mismatches compile to instructions that raise the tree walker's exact
/// EvalError if (and only if) they execute, so models whose dead branches
/// are malformed keep evaluating identically.  `site` becomes the
/// program's site(), the prefix of the errors it raises.
[[nodiscard]] Compiled compile(const Expr& expr, const SymbolTable& table,
                               std::string site = {});

/// The names compile() could not resolve at all, each sorted and without
/// repeats: the "unknown variable" / "unknown function" errors left in
/// code a run may reach (a folded-away dead branch takes its names with
/// it).  A name bound to a slot never counts, even where a run leaves
/// the slot unbound.
struct Unresolved {
  std::vector<std::string> variables;  ///< no binding of any kind
  std::vector<std::string> functions;  ///< neither user nor built-in
};

/// What `program` could not resolve (see Unresolved).
[[nodiscard]] Unresolved unresolved(const Compiled& program);

/// Owning frame helper for simple hosts (tests, benches): one double of
/// storage per slot, all bound by default.
///
/// The interpreter and analytic estimator manage raw pointer frames
/// themselves (they layer run/process/loop bindings); SlotFrame covers
/// the common flat case.
class SlotFrame {
 public:
  /// Builds a frame for every slot of `table`, each bound to owned
  /// zero-initialized storage.
  explicit SlotFrame(const SymbolTable& table);

  /// Writes owned storage for `slot` (must be bound to owned storage).
  void set(Slot slot, double value) { values_[slot] = value; }

  /// Reads the current binding of `slot` (must be bound).
  [[nodiscard]] double get(Slot slot) const { return *pointers_[slot]; }

  /// Rebinds `slot` to external `storage` (null unbinds: loads fall back
  /// to the slot's ambient or raise "unknown variable").
  void bind(Slot slot, double* storage) { pointers_[slot] = storage; }

  /// Unbinds `slot` (see bind()).
  void unbind(Slot slot) { pointers_[slot] = nullptr; }

  /// The pointer view EvalContext::frame expects.
  [[nodiscard]] std::span<double* const> frame() const { return pointers_; }

 private:
  std::vector<double> values_;
  std::vector<double*> pointers_;
};

/// Owning structure-of-arrays frame for batched evaluation: `width`
/// scenario lanes of storage per slot, laid out slot-major
/// (`values[slot * width + lane]`) so each slot's lanes are the
/// contiguous array BatchEvalContext::frame expects — and so lane l's
/// scalar view is simply every lane array offset by l.
///
/// The batched analogue of SlotFrame: every slot bound to owned
/// zero-initialized storage by default, rebindable to external lane
/// arrays or unbindable per slot (bindings are frame-uniform across
/// lanes, values are per-lane).
class SlotBlock {
 public:
  /// Builds a `width`-lane frame covering every slot of `table`.
  SlotBlock(const SymbolTable& table, std::size_t width)
      : SlotBlock(table.slot_count(), width) {}

  /// Builds a `width`-lane frame with `slot_count` slots.
  SlotBlock(std::size_t slot_count, std::size_t width)
      : width_(width),
        values_(slot_count * width, 0.0),
        pointers_(slot_count) {
    for (std::size_t slot = 0; slot < slot_count; ++slot) {
      pointers_[slot] = values_.data() + slot * width_;
    }
  }

  /// Number of scenario lanes.
  [[nodiscard]] std::size_t width() const { return width_; }

  /// Number of slots.
  [[nodiscard]] std::size_t slot_count() const { return pointers_.size(); }

  /// Writes lane `lane` of `slot`'s owned storage.
  void set(Slot slot, std::size_t lane, double value) {
    values_[slot * width_ + lane] = value;
  }

  /// Reads lane `lane` of `slot`'s current binding (must be bound).
  [[nodiscard]] double get(Slot slot, std::size_t lane) const {
    return pointers_[slot][lane];
  }

  /// The owned lane array of `slot` (`width` doubles), regardless of the
  /// current binding.
  [[nodiscard]] double* lanes(Slot slot) {
    return values_.data() + slot * width_;
  }

  /// Rebinds `slot` to an external lane array of `width` doubles (null
  /// unbinds: loads fall back to the slot's ambient or raise "unknown
  /// variable", like SlotFrame).
  void bind(Slot slot, double* lane_array) { pointers_[slot] = lane_array; }

  /// Unbinds `slot` (see bind()).
  void unbind(Slot slot) { pointers_[slot] = nullptr; }

  /// The pointer view BatchEvalContext::frame expects.
  [[nodiscard]] std::span<double* const> frame() const { return pointers_; }

 private:
  std::size_t width_;
  std::vector<double> values_;     // slot-major: [slot * width + lane]
  std::vector<double*> pointers_;  // slot -> lane array (or external/null)
};

}  // namespace prophet::expr
