#include "prophet/expr/cppgen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "builtins.hpp"

namespace prophet::expr {
namespace {

// C++ precedence levels of the printed operators, loosest first.
constexpr int kConditional = 1;
constexpr int kEquality = 2;
constexpr int kRelational = 3;
constexpr int kAdditive = 4;
constexpr int kMultiplicative = 5;
constexpr int kUnary = 6;
constexpr int kPrimary = 7;

/// The C++ type of a printed operand, widest first.  The VM computes in
/// doubles, but comparisons yield bool and `pid` and `tid` int, which C++
/// would keep in integer arithmetic.
enum class Type : std::uint8_t { Double, Integer, Bool };

/// An infix opcode's C++ operator, precedence and result type.
struct Infix {
  Op op;
  std::string_view text;
  int precedence;
  Type type;
};

constexpr Infix kInfix[] = {
    {Op::Add, "+", kAdditive, Type::Double},
    {Op::Sub, "-", kAdditive, Type::Double},
    {Op::Mul, "*", kMultiplicative, Type::Double},
    {Op::Div, "/", kMultiplicative, Type::Double},
    {Op::Lt, "<", kRelational, Type::Bool},
    {Op::Le, "<=", kRelational, Type::Bool},
    {Op::Gt, ">", kRelational, Type::Bool},
    {Op::Ge, ">=", kRelational, Type::Bool},
    {Op::Eq, "==", kEquality, Type::Bool},
    {Op::Ne, "!=", kEquality, Type::Bool},
};

/// One printed operand: its text, its outermost operator's precedence,
/// its C++ type and whether evaluating it may raise.
struct Operand {
  std::string text;
  int precedence = kPrimary;
  Type type = Type::Double;
  bool raises = false;
};

/// `operand`, parenthesized when it binds looser than `precedence`.
std::string at(const Operand& operand, int precedence) {
  return operand.precedence < precedence ? "(" + operand.text + ")"
                                         : operand.text;
}

/// `operand` as a double (integers and bools widen explicitly).
Operand widened(Operand operand) {
  if (operand.type == Type::Double) {
    return operand;
  }
  return {"static_cast<double>(" + operand.text + ")", kPrimary,
          Type::Double, operand.raises};
}

Operand literal(double value) {
  std::string text = cpp_double(value);
  const int precedence = text.front() == '-' ? kUnary : kPrimary;
  return {std::move(text), precedence};
}

/// What raises `message` where the VM raises it.
Operand raise(std::string_view message) {
  return {"throw_eval(\"" + escape_cpp(message) + "\")", kPrimary,
          Type::Double, true};
}

/// `make(operands)`, with the operands evaluated left to right when
/// `ordered`: they then go through a braced list, which C++ evaluates in
/// order, into the lambda `make`'s text runs in.
template <class Make>
Operand in_order(std::vector<Operand> operands, bool ordered, Make make) {
  if (!ordered) {
    return make(std::move(operands));
  }
  const std::string count = std::to_string(operands.size());
  std::string list;
  for (std::size_t k = 0; k < operands.size(); ++k) {
    list += (k == 0 ? "" : ", ") + widened(std::move(operands[k])).text;
    operands[k] = {"args[" + std::to_string(k) + "]"};
  }
  const Operand body = make(std::move(operands));
  return {"[&](const double (&args)[" + count + "]) -> double { return " +
              body.text + "; }({" + list + "})",
          kPrimary, Type::Double, true};
}

/// How many of `operands` may raise.
std::size_t raising(std::span<const Operand> operands) {
  return static_cast<std::size_t>(
      std::count_if(operands.begin(), operands.end(),
                    [](const Operand& operand) { return operand.raises; }));
}

/// Prints compiled bytecode back into one expression by running the
/// program over printed operands instead of values.
class Printer {
 public:
  Printer(const Compiled& program, const CppNames& names)
      : code_(program.code()), strings_(program.strings()), names_(names) {}

  [[nodiscard]] Operand print() { return range(0, code_.size()); }

 private:
  /// The ambient `text` reads (0 when empty), an int.
  static Operand ambient(std::string_view text) {
    if (text.empty()) {
      return literal(0.0);
    }
    return {std::string(text), kPrimary, Type::Integer};
  }

  /// Prints the instructions [begin, end), which leave one value on the
  /// stack.
  Operand range(std::size_t begin, std::size_t end) {
    std::vector<Operand> stack;
    for (std::size_t i = begin; i < end; ++i) {
      const Instr& in = code_[i];
      const auto arg = static_cast<std::size_t>(in.a);
      switch (in.op) {
        case Op::PushConst:
          stack.push_back(literal(in.value));
          break;
        case Op::LoadSlot:
        case Op::LoadSlotOrPid:
        case Op::LoadSlotOrTid:
        case Op::LoadSlotOrUid:
          if (!names_.slots[arg].empty()) {
            stack.push_back({names_.slots[arg]});
          } else if (in.op == Op::LoadSlot) {
            stack.push_back(raise(strings_[in.b]));
          } else if (in.op == Op::LoadSlotOrUid) {
            stack.push_back(literal(names_.uid));
          } else {
            stack.push_back(ambient(in.op == Op::LoadSlotOrPid ? names_.pid
                                                               : names_.tid));
          }
          break;
        case Op::LoadArg:
          stack.push_back({names_.parameters[arg]});
          break;
        case Op::LoadPid:
        case Op::LoadTid:
          stack.push_back(
              ambient(in.op == Op::LoadPid ? names_.pid : names_.tid));
          break;
        case Op::LoadUid:
          stack.push_back(literal(names_.uid));
          break;
        case Op::Neg: {
          Operand& top = stack.back();
          const std::string operand = at(widened(top), kUnary);
          top = {operand.front() == '-' ? "-(" + operand + ")"
                                        : "-" + operand,
                 kUnary, Type::Double, top.raises};
          break;
        }
        case Op::Not:
          stack.back() = {"!" + at(stack.back(), kUnary), kUnary, Type::Bool,
                          stack.back().raises};
          break;
        case Op::Mod:
          call(stack, "std::fmod", 2);
          break;
        case Op::ToBool:
          if (stack.back().type != Type::Bool) {
            stack.back() = {at(stack.back(), kEquality) + " != 0.0", kEquality,
                            Type::Bool, stack.back().raises};
          }
          break;
        case Op::JumpIfFalse:
        case Op::JumpIfTrue:
          i = conditional(stack, i);
          break;
        case Op::CallUser:
          user_call(stack, in.a, in.b);
          break;
        case Op::Throw:
          // Everything after a throw up to the end of its arm is dead.
          return raise(strings_[arg]);
        case Op::Jump:
          throw std::logic_error("to_cpp: jump outside a conditional");
        default: {
          const auto* infix = std::find_if(
              std::begin(kInfix), std::end(kInfix),
              [&in](const Infix& row) { return row.op == in.op; });
          if (infix != std::end(kInfix)) {
            binary(stack, *infix);
            break;
          }
          // One opcode per built-in, in table order.
          const detail::Builtin& builtin =
              detail::builtins()[static_cast<std::size_t>(in.op) -
                                 static_cast<std::size_t>(Op::Abs)];
          const bool fabs_style = builtin.name == "abs" ||
                                  builtin.name == "min" ||
                                  builtin.name == "max";
          call(stack,
               (fabs_style ? "std::f" : "std::") + std::string(builtin.name),
               static_cast<std::size_t>(builtin.arity));
          break;
        }
      }
    }
    if (stack.size() != 1) {
      throw std::logic_error("to_cpp: unbalanced bytecode");
    }
    return std::move(stack.back());
  }

  /// The compiler's one jump shape, `cond JumpIf(L1) A Jump(L2) L1: B
  /// L2:`, as `cond ? A : B` (JumpIfFalse) or `cond ? B : A`
  /// (JumpIfTrue).  Returns the index of the shape's last instruction.
  std::size_t conditional(std::vector<Operand>& stack, std::size_t at_jump) {
    const auto other = static_cast<std::size_t>(code_[at_jump].a);
    if (other == 0 || code_[other - 1].op != Op::Jump) {
      throw std::logic_error("to_cpp: unsupported jump shape");
    }
    const auto join = static_cast<std::size_t>(code_[other - 1].a);
    Operand taken = range(at_jump + 1, other - 1);
    Operand otherwise = range(other, join);
    if (code_[at_jump].op == Op::JumpIfTrue) {
      std::swap(taken, otherwise);
    }
    // C++ converts the arms to the wider of their types.
    stack.back() = {at(stack.back(), kConditional + 1) + " ? " +
                        at(taken, kConditional + 1) + " : " +
                        at(otherwise, kConditional + 1),
                    kConditional, std::min(taken.type, otherwise.type),
                    stack.back().raises || taken.raises || otherwise.raises};
    return join - 1;
  }

  /// Moves the top `count` operands off `stack`.
  static std::vector<Operand> pop(std::vector<Operand>& stack,
                                  std::size_t count) {
    std::vector<Operand> operands(
        std::make_move_iterator(stack.end() - static_cast<long>(count)),
        std::make_move_iterator(stack.end()));
    stack.resize(stack.size() - count);
    return operands;
  }

  /// `lhs op rhs`.  Two integer or boolean operands of an arithmetic
  /// operator would compute in integers, so the left one widens.
  static void binary(std::vector<Operand>& stack, const Infix& op) {
    std::vector<Operand> operands = pop(stack, 2);
    const bool ordered = raising(operands) == 2;
    stack.push_back(in_order(
        std::move(operands), ordered, [&op](std::vector<Operand> sides) {
          Operand& lhs = sides[0];
          const Operand& rhs = sides[1];
          if (op.type == Type::Double && lhs.type != Type::Double &&
              rhs.type != Type::Double) {
            lhs = widened(std::move(lhs));
          }
          return Operand{at(lhs, op.precedence) + " " + std::string(op.text) +
                             " " + at(rhs, op.precedence + 1),
                         op.precedence, op.type, lhs.raises || rhs.raises};
        }));
  }

  /// `callee(args...)` over the top `argc` operands.
  static void call(std::vector<Operand>& stack, const std::string& callee,
                   std::size_t argc) {
    std::vector<Operand> operands = pop(stack, argc);
    const bool ordered = raising(operands) > 1;
    stack.push_back(in_order(std::move(operands), ordered,
                             [&callee](std::vector<Operand> args) {
                               return applied(callee, args, args.size(), {});
                             }));
  }

  /// `name(args...)`: the first `arity` arguments, missing ones 0.0,
  /// then `depth` when given.
  static Operand applied(const std::string& name,
                         std::span<const Operand> args, std::size_t arity,
                         const std::string& depth) {
    std::string text = name + "(";
    for (std::size_t k = 0; k < arity; ++k) {
      text += (k == 0 ? "" : ", ") +
              (k < args.size() ? args[k].text : std::string("0.0"));
    }
    if (!depth.empty()) {
      text += (arity == 0 ? "" : ", ") + depth;
    }
    return {text + ")", kPrimary, Type::Double,
            raising(args.first(std::min(arity, args.size()))) > 0};
  }

  /// A call of user function `id` with the top `argc` operands: extra
  /// arguments are evaluated, in order, and dropped.
  void user_call(std::vector<Operand>& stack, int id, std::size_t argc) {
    const CppCallee callee = names_.callee(id);
    std::vector<Operand> operands = pop(stack, argc);
    const std::size_t extra_raising =
        argc > callee.arity
            ? raising(std::span(operands).subspan(callee.arity))
            : 0;
    const bool ordered = raising(operands) > 1 || extra_raising > 0;
    Operand result = in_order(
        std::move(operands), ordered, [&callee](std::vector<Operand> args) {
          return applied(callee.name, args, callee.arity, callee.depth);
        });
    result.raises = result.raises || callee.raises;
    stack.push_back(std::move(result));
  }

  std::span<const Instr> code_;
  std::span<const std::string> strings_;
  const CppNames& names_;
};

}  // namespace

std::string to_cpp(const Compiled& program, const CppNames& names) {
  Operand printed = Printer(program, names).print();
  if (!printed.raises || program.site().empty()) {
    return std::move(printed.text);
  }
  return "at_site(\"" + escape_cpp(program.site()) +
         "\", [&]() -> double { return " + printed.text + "; })";
}

std::string cpp_double(double value) {
  if (std::isnan(value)) {
    return "(0.0 / 0.0)";
  }
  if (std::isinf(value)) {
    return value > 0 ? "(1.0 / 0.0)" : "(-1.0 / 0.0)";
  }
  std::ostringstream out;
  out.precision(17);
  out << value;
  std::string text = out.str();
  // A floating literal, so 1 / P divides in doubles as the VM does.
  if (text.find_first_of(".e") == std::string::npos) {
    text += ".0";
  }
  return text;
}

std::string escape_cpp(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char raw : text) {
    const auto c = static_cast<unsigned char>(raw);
    if (c == '\\' || c == '"') {
      out += '\\';
      out += raw;
    } else if (c == '\n' || c == '\t' || c == '\r') {
      out += c == '\n' ? "\\n" : c == '\t' ? "\\t" : "\\r";
    } else if (c < 0x20 || c == 0x7f) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\%03o", c);
      out += buffer;
    } else {
      out += raw;
    }
  }
  return out;
}

}  // namespace prophet::expr
