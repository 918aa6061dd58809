#include "prophet/expr/eval.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "builtins.hpp"

namespace prophet::expr {
namespace {

using detail::Builtin;

// Sorted by name (find_builtin binary-searches it; the compiler's
// direct-dispatch opcodes follow it).
constexpr std::array<Builtin, 16> kBuiltins{{
    {"abs", 1, [](double x) { return std::fabs(x); }, nullptr},
    {"ceil", 1, [](double x) { return std::ceil(x); }, nullptr},
    {"cos", 1, [](double x) { return std::cos(x); }, nullptr},
    {"exp", 1, [](double x) { return std::exp(x); }, nullptr},
    {"floor", 1, [](double x) { return std::floor(x); }, nullptr},
    {"log", 1, [](double x) { return std::log(x); }, nullptr},
    {"log10", 1, [](double x) { return std::log10(x); }, nullptr},
    {"log2", 1, [](double x) { return std::log2(x); }, nullptr},
    {"max", 2, nullptr, [](double a, double b) { return std::fmax(a, b); }},
    {"min", 2, nullptr, [](double a, double b) { return std::fmin(a, b); }},
    {"pow", 2, nullptr, [](double a, double b) { return std::pow(a, b); }},
    {"round", 1, [](double x) { return std::round(x); }, nullptr},
    {"sin", 1, [](double x) { return std::sin(x); }, nullptr},
    {"sqrt", 1, [](double x) { return std::sqrt(x); }, nullptr},
    {"tan", 1, [](double x) { return std::tan(x); }, nullptr},
    {"tanh", 1, [](double x) { return std::tanh(x); }, nullptr},
}};

using detail::find_builtin;

class EmptyEnvironment final : public Environment {
 public:
  [[nodiscard]] std::optional<double> variable(
      std::string_view) const override {
    return std::nullopt;
  }
  [[nodiscard]] std::optional<double> call(
      std::string_view, std::span<const double>) const override {
    return std::nullopt;
  }
};

}  // namespace

std::optional<double> MapEnvironment::variable(std::string_view name) const {
  const auto it = variables_.find(name);
  if (it == variables_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<double> MapEnvironment::call(std::string_view name,
                                           std::span<const double> args) const {
  const auto it = functions_.find(name);
  if (it == functions_.end()) {
    return std::nullopt;
  }
  return it->second(args);
}

const Environment& empty_environment() {
  static const EmptyEnvironment instance;
  return instance;
}

double evaluate(const Expr& expr, const Environment& env) {
  switch (expr.kind()) {
    case ExprKind::Number:
      return static_cast<const NumberExpr&>(expr).value();
    case ExprKind::Variable: {
      const auto& variable = static_cast<const VariableExpr&>(expr);
      if (auto value = env.variable(variable.name())) {
        return *value;
      }
      throw EvalError("unknown variable '" + variable.name() + "'");
    }
    case ExprKind::Unary: {
      const auto& unary = static_cast<const UnaryExpr&>(expr);
      const double value = evaluate(unary.operand(), env);
      switch (unary.op()) {
        case UnaryOp::Negate:
          return -value;
        case UnaryOp::Not:
          return truthy(value) ? 0.0 : 1.0;
      }
      return 0.0;
    }
    case ExprKind::Binary: {
      const auto& binary = static_cast<const BinaryExpr&>(expr);
      // Short-circuit operators evaluate the right operand lazily, exactly
      // like the && / || the code generator emits.
      if (binary.op() == BinaryOp::And) {
        if (!truthy(evaluate(binary.lhs(), env))) {
          return 0.0;
        }
        return truthy(evaluate(binary.rhs(), env)) ? 1.0 : 0.0;
      }
      if (binary.op() == BinaryOp::Or) {
        if (truthy(evaluate(binary.lhs(), env))) {
          return 1.0;
        }
        return truthy(evaluate(binary.rhs(), env)) ? 1.0 : 0.0;
      }
      const double lhs = evaluate(binary.lhs(), env);
      const double rhs = evaluate(binary.rhs(), env);
      switch (binary.op()) {
        case BinaryOp::Add:
          return lhs + rhs;
        case BinaryOp::Sub:
          return lhs - rhs;
        case BinaryOp::Mul:
          return lhs * rhs;
        case BinaryOp::Div:
          return lhs / rhs;  // IEEE semantics: inf / nan on zero divisor
        case BinaryOp::Mod:
          return std::fmod(lhs, rhs);
        case BinaryOp::Lt:
          return lhs < rhs ? 1.0 : 0.0;
        case BinaryOp::Le:
          return lhs <= rhs ? 1.0 : 0.0;
        case BinaryOp::Gt:
          return lhs > rhs ? 1.0 : 0.0;
        case BinaryOp::Ge:
          return lhs >= rhs ? 1.0 : 0.0;
        case BinaryOp::Eq:
          return lhs == rhs ? 1.0 : 0.0;
        case BinaryOp::Ne:
          return lhs != rhs ? 1.0 : 0.0;
        case BinaryOp::And:
        case BinaryOp::Or:
          break;  // handled above
      }
      return 0.0;
    }
    case ExprKind::Call: {
      const auto& call = static_cast<const CallExpr&>(expr);
      std::vector<double> args;
      args.reserve(call.args().size());
      for (const auto& arg : call.args()) {
        args.push_back(evaluate(*arg, env));
      }
      // User functions shadow built-ins, so models can redefine e.g. `log`.
      if (auto result = env.call(call.callee(), args)) {
        return *result;
      }
      const Builtin* builtin = find_builtin(call.callee());
      if (builtin == nullptr) {
        throw EvalError("unknown function '" + call.callee() + "'");
      }
      if (static_cast<int>(args.size()) != builtin->arity) {
        throw EvalError("function '" + call.callee() + "' expects " +
                        std::to_string(builtin->arity) + " argument(s), got " +
                        std::to_string(args.size()));
      }
      return builtin->arity == 1 ? builtin->fn1(args[0])
                                 : builtin->fn2(args[0], args[1]);
    }
    case ExprKind::Conditional: {
      const auto& cond = static_cast<const ConditionalExpr&>(expr);
      return truthy(evaluate(cond.cond(), env))
                 ? evaluate(cond.then_branch(), env)
                 : evaluate(cond.else_branch(), env);
    }
  }
  throw EvalError("corrupt expression tree");
}

namespace detail {

std::span<const Builtin> builtins() { return kBuiltins; }

const Builtin* find_builtin(std::string_view name) {
  const auto it = std::lower_bound(
      kBuiltins.begin(), kBuiltins.end(), name,
      [](const Builtin& builtin, std::string_view key) {
        return builtin.name < key;
      });
  if (it == kBuiltins.end() || it->name != name) {
    return nullptr;
  }
  return &*it;
}

}  // namespace detail

}  // namespace prophet::expr
