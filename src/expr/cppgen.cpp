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
/// doubles, but comparisons yield bool and `pid`, `tid` and integer
/// variables int or long, which C++ would keep in integer arithmetic.
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

/// One printed operand: its text, its outermost operator's precedence
/// and its C++ type.
struct Operand {
  std::string text;
  int precedence = kPrimary;
  Type type = Type::Double;
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
  return {"static_cast<double>(" + operand.text + ")"};
}

Operand literal(double value) {
  std::string text = cpp_double(value);
  const int precedence = text.front() == '-' ? kUnary : kPrimary;
  return {std::move(text), precedence};
}

/// Prints compiled bytecode back into one expression by running the
/// program over printed operands instead of values.
class Printer {
 public:
  Printer(const Compiled& program, const CppNames& names)
      : code_(program.code()), strings_(program.strings()), names_(names) {}

  [[nodiscard]] std::string print() { return range(0, code_.size()).text; }

 private:
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
          stack.push_back({names_.symbols->name_of(static_cast<Slot>(in.a)),
                           kPrimary,
                           std::binary_search(names_.integer_slots.begin(),
                                              names_.integer_slots.end(),
                                              static_cast<Slot>(in.a))
                               ? Type::Integer
                               : Type::Double});
          break;
        case Op::LoadArg:
          stack.push_back({names_.parameters[arg]});
          break;
        case Op::LoadPid:
        case Op::LoadTid:
          stack.push_back(
              {in.op == Op::LoadPid ? "pid" : "tid", kPrimary, Type::Integer});
          break;
        case Op::LoadUid:
          stack.push_back(literal(names_.uid));
          break;
        case Op::Neg: {
          const std::string operand = at(widened(stack.back()), kUnary);
          stack.back() = {operand.front() == '-' ? "-(" + operand + ")"
                                                 : "-" + operand,
                          kUnary};
          break;
        }
        case Op::Not:
          stack.back() = {"!" + at(stack.back(), kUnary), kUnary, Type::Bool};
          break;
        case Op::Mod:
          call(stack, "std::fmod", 2);
          break;
        case Op::ToBool:
          if (stack.back().type != Type::Bool) {
            stack.back() = {at(stack.back(), kEquality) + " != 0.0", kEquality,
                            Type::Bool};
          }
          break;
        case Op::JumpIfFalse:
        case Op::JumpIfTrue:
          i = conditional(stack, i);
          break;
        case Op::CallUser:
          call(stack, names_.symbols->function_name(in.a), in.b);
          break;
        case Op::Throw:
          // Everything after a throw up to the end of its arm is dead.  A
          // lambda throws it: g++ 12 aborts when a throw-expression in a
          // co_await operand runs.
          return {"[]() -> double { throw std::runtime_error(\"" +
                  escape_cpp(strings_[arg]) + "\"); }()"};
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
                    kConditional, std::min(taken.type, otherwise.type)};
    return join - 1;
  }

  /// `lhs op rhs`.  Two integer or boolean operands of an arithmetic
  /// operator would compute in integers, so the left one widens.
  static void binary(std::vector<Operand>& stack, const Infix& op) {
    const Operand rhs = std::move(stack.back());
    stack.pop_back();
    Operand& lhs = stack.back();
    if (op.type == Type::Double && lhs.type != Type::Double &&
        rhs.type != Type::Double) {
      lhs = widened(std::move(lhs));
    }
    lhs = {at(lhs, op.precedence) + " " + std::string(op.text) + " " +
               at(rhs, op.precedence + 1),
           op.precedence, op.type};
  }

  static void call(std::vector<Operand>& stack, const std::string& callee,
                   std::size_t argc) {
    std::string text = callee + "(";
    for (std::size_t k = stack.size() - argc; k < stack.size(); ++k) {
      text += (k + argc == stack.size() ? "" : ", ") + stack[k].text;
    }
    stack.resize(stack.size() - argc);
    stack.push_back({text + ")"});
  }

  std::span<const Instr> code_;
  std::span<const std::string> strings_;
  const CppNames& names_;
};

}  // namespace

std::string to_cpp(const Compiled& program, const CppNames& names) {
  return Printer(program, names).print();
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
