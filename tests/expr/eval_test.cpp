// Evaluator: arithmetic, comparisons, short circuits, built-ins, user
// functions, errors; analysis; C++ emission semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "prophet/expr/compile.hpp"
#include "prophet/expr/cppgen.hpp"
#include "prophet/expr/eval.hpp"
#include "prophet/expr/parser.hpp"

namespace expr = prophet::expr;

namespace {

double eval(const std::string& text, const expr::Environment& env =
                                         expr::empty_environment()) {
  return expr::evaluate(*expr::parse(text), env);
}

TEST(ExprEval, Arithmetic) {
  EXPECT_DOUBLE_EQ(eval("1 + 2 * 3"), 7.0);
  EXPECT_DOUBLE_EQ(eval("(1 + 2) * 3"), 9.0);
  EXPECT_DOUBLE_EQ(eval("10 / 4"), 2.5);
  EXPECT_DOUBLE_EQ(eval("10 % 4"), 2.0);
  EXPECT_DOUBLE_EQ(eval("7.5 % 2"), 1.5);  // fmod semantics
  EXPECT_DOUBLE_EQ(eval("-3 + 1"), -2.0);
}

TEST(ExprEval, DivisionByZeroFollowsIeee) {
  EXPECT_TRUE(std::isinf(eval("1 / 0")));
  EXPECT_TRUE(std::isnan(eval("0 / 0")));
}

TEST(ExprEval, Comparisons) {
  EXPECT_DOUBLE_EQ(eval("3 > 2"), 1.0);
  EXPECT_DOUBLE_EQ(eval("3 < 2"), 0.0);
  EXPECT_DOUBLE_EQ(eval("2 >= 2"), 1.0);
  EXPECT_DOUBLE_EQ(eval("2 <= 1"), 0.0);
  EXPECT_DOUBLE_EQ(eval("2 == 2"), 1.0);
  EXPECT_DOUBLE_EQ(eval("2 != 2"), 0.0);
}

TEST(ExprEval, LogicalOperators) {
  EXPECT_DOUBLE_EQ(eval("1 && 2"), 1.0);
  EXPECT_DOUBLE_EQ(eval("1 && 0"), 0.0);
  EXPECT_DOUBLE_EQ(eval("0 || 3"), 1.0);
  EXPECT_DOUBLE_EQ(eval("0 || 0"), 0.0);
  EXPECT_DOUBLE_EQ(eval("!0"), 1.0);
  EXPECT_DOUBLE_EQ(eval("!2"), 0.0);
}

TEST(ExprEval, ShortCircuitSkipsRightOperand) {
  // The right operand would throw (unknown variable) if evaluated.
  EXPECT_DOUBLE_EQ(eval("0 && nope"), 0.0);
  EXPECT_DOUBLE_EQ(eval("1 || nope"), 1.0);
  EXPECT_THROW(eval("1 && nope"), expr::EvalError);
}

TEST(ExprEval, Ternary) {
  EXPECT_DOUBLE_EQ(eval("1 ? 10 : 20"), 10.0);
  EXPECT_DOUBLE_EQ(eval("0 ? 10 : 20"), 20.0);
}

TEST(ExprEval, Builtins) {
  EXPECT_DOUBLE_EQ(eval("sqrt(16)"), 4.0);
  EXPECT_DOUBLE_EQ(eval("pow(2, 10)"), 1024.0);
  EXPECT_DOUBLE_EQ(eval("abs(-3)"), 3.0);
  EXPECT_DOUBLE_EQ(eval("min(2, 5)"), 2.0);
  EXPECT_DOUBLE_EQ(eval("max(2, 5)"), 5.0);
  EXPECT_DOUBLE_EQ(eval("floor(2.7)"), 2.0);
  EXPECT_DOUBLE_EQ(eval("ceil(2.2)"), 3.0);
  EXPECT_DOUBLE_EQ(eval("round(2.5)"), 3.0);
  EXPECT_DOUBLE_EQ(eval("log2(8)"), 3.0);
  EXPECT_NEAR(eval("exp(log(5))"), 5.0, 1e-12);
  EXPECT_NEAR(eval("sin(0)"), 0.0, 1e-12);
  EXPECT_NEAR(eval("cos(0)"), 1.0, 1e-12);
}

TEST(ExprEval, BuiltinArityChecked) {
  EXPECT_THROW(eval("sqrt(1, 2)"), expr::EvalError);
  EXPECT_THROW(eval("pow(2)"), expr::EvalError);
}

TEST(ExprEval, Variables) {
  expr::MapEnvironment env;
  env.set("P", 16.0);
  EXPECT_DOUBLE_EQ(eval("0.000001 * P * P + 0.001", env), 0.001256);
  EXPECT_THROW(eval("Q", env), expr::EvalError);
}

TEST(ExprEval, CostFunctions) {
  expr::MapEnvironment env;
  env.set("P", 16.0);
  env.define("FA1", [](std::span<const double>) { return 0.25; });
  env.define("scale",
             [](std::span<const double> args) { return args[0] * 2; });
  EXPECT_DOUBLE_EQ(eval("FA1() + 1", env), 1.25);
  EXPECT_DOUBLE_EQ(eval("scale(P)", env), 32.0);
}

TEST(ExprEval, CostFunctionsShadowBuiltins) {
  expr::MapEnvironment env;
  env.define("sqrt", [](std::span<const double>) { return 99.0; });
  EXPECT_DOUBLE_EQ(eval("sqrt(16)", env), 99.0);
}

TEST(ExprEval, UnknownFunctionThrows) {
  EXPECT_THROW(eval("mystery(1)"), expr::EvalError);
}

// --- C++ emission -------------------------------------------------------------

/// `text` compiled (variables a, b, c, x and P as slots bound to their
/// names, FSA2 a one-parameter user function, pid the ambient), then
/// printed as C++.
std::string cpp(const std::string& text) {
  expr::SymbolTable table;
  std::vector<std::string> slots;
  for (const char* name : {"a", "b", "c", "x", "P"}) {
    table.add_variable(name);
    slots.emplace_back(name);
  }
  table.add_function("FSA2");
  table.bind_ambient("pid", expr::Ambient::Pid);
  expr::CppNames names;
  names.slots = slots;
  names.callee = [](int) { return expr::CppCallee{"FSA2", 1, false, {}}; };
  return expr::to_cpp(expr::compile(*expr::parse(text), table), names);
}

TEST(ExprCppGen, Literals) {
  EXPECT_EQ(cpp("1"), "1.0");
  EXPECT_EQ(cpp("2.5"), "2.5");
}

TEST(ExprCppGen, ArithmeticShape) {
  EXPECT_EQ(cpp("0.000001*P*P + 0.001"),
            "9.9999999999999995e-07 * P * P + 0.001");
}

TEST(ExprCppGen, ModBecomesFmod) {
  EXPECT_EQ(cpp("a % b"), "std::fmod(a, b)");
}

TEST(ExprCppGen, BuiltinsPrefixed) {
  EXPECT_EQ(cpp("sqrt(P)"), "std::sqrt(P)");
  EXPECT_EQ(cpp("abs(x)"), "std::fabs(x)");
  EXPECT_EQ(cpp("min(a, b)"), "std::fmin(a, b)");
}

TEST(ExprCppGen, UserCallsUntouched) {
  EXPECT_EQ(cpp("FSA2(pid)"), "FSA2(pid)");
}

TEST(ExprCppGen, ParenthesizationPreservesMeaning) {
  EXPECT_EQ(cpp("(a + b) * c"), "(a + b) * c");
  EXPECT_EQ(cpp("a - (b - c)"), "a - (b - c)");
}

TEST(ExprCppGen, ShortCircuitsPrintAsConditionals) {
  EXPECT_EQ(cpp("a < c && b"), "a < c ? b != 0.0 : 0.0");
  EXPECT_EQ(cpp("a || b < c"), "a ? 1.0 : b < c");
}

TEST(ExprCppGen, IntegerOperandsWidenToDouble) {
  // int / int would truncate and -(bool) would lose the sign of zero.
  EXPECT_EQ(cpp("pid / pid"), "static_cast<double>(pid) / pid");
  EXPECT_EQ(cpp("-(a < b)"), "-static_cast<double>(a < b)");
  EXPECT_EQ(cpp("pid / 2"), "pid / 2.0");
}

TEST(ExprCppGen, LazyErrorsThrowOnlyWhenRun) {
  EXPECT_EQ(cpp("a > 0 ? nope(1) : 2"),
            "a > 0.0 ? throw_eval(\"unknown function 'nope'\") : 2.0");
}

TEST(ExprCppGen, RaisingOperandsRunInOrder) {
  // C++ leaves the order of + operands open; the VM raises the left one's
  // error first, so two operands that may raise go through a braced list.
  expr::SymbolTable table;
  table.add_variable("a");
  table.add_variable("b");
  const std::vector<std::string> unbound(2);
  expr::CppNames names;
  names.slots = unbound;
  EXPECT_EQ(expr::to_cpp(expr::compile(*expr::parse("a + b"), table), names),
            "[&](const double (&args)[2]) -> double { return args[0] + "
            "args[1]; }({throw_eval(\"unknown variable 'a'\"), "
            "throw_eval(\"unknown variable 'b'\")})");
}

/// Property: for pure-arithmetic expressions, evaluating the C++ printed
/// from the compiled program via a second parse must equal direct
/// evaluation (the printed C++ is cost-language syntax apart from the
/// std:: prefixes, which we strip by testing operator-only expressions
/// here).
class CppGenSemantics : public ::testing::TestWithParam<const char*> {};

TEST_P(CppGenSemantics, ReparsedCppValueMatches) {
  expr::MapEnvironment env;
  env.set("a", 3.5);
  env.set("b", -2.0);
  env.set("c", 7.0);
  const auto original = expr::parse(GetParam());
  const double direct = expr::evaluate(*original, env);
  std::string cpp_text = cpp(GetParam());
  // Make the emitted text valid cost-language again.
  for (const char* prefix : {"std::fmod", "std::fmin", "std::fmax",
                             "std::fabs", "std::sqrt", "std::pow"}) {
    std::string bare = prefix + 5;  // strip "std::"
    std::size_t pos;
    while ((pos = cpp_text.find(prefix)) != std::string::npos) {
      cpp_text.replace(pos, std::string(prefix).size(), bare);
    }
  }
  // fmod/fmin/fmax/fabs are not cost-language builtins; map back.
  auto replace_all = [&cpp_text](const std::string& from,
                                 const std::string& to) {
    std::size_t pos;
    while ((pos = cpp_text.find(from)) != std::string::npos) {
      cpp_text.replace(pos, from.size(), to);
    }
  };
  replace_all("fmod", "mod_call");
  replace_all("fmin", "min");
  replace_all("fmax", "max");
  replace_all("fabs", "abs");
  expr::MapEnvironment env2;
  env2.set("a", 3.5);
  env2.set("b", -2.0);
  env2.set("c", 7.0);
  env2.define("mod_call", [](std::span<const double> args) {
    return std::fmod(args[0], args[1]);
  });
  const double via_cpp = expr::evaluate(*expr::parse(cpp_text), env2);
  EXPECT_DOUBLE_EQ(direct, via_cpp) << GetParam() << " -> " << cpp_text;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CppGenSemantics,
    ::testing::Values("a + b * c", "(a + b) * c", "a / b - c", "a % c",
                      "-a * b", "a < c && b < 0", "a > c || b > 0",
                      "a > 0 ? b : c", "min(a, c) + max(b, 0)",
                      "abs(b) + sqrt(c)", "pow(a, 2) - c",
                      "a - b - c", "a / b / c"));

}  // namespace
