// Bytecode compiler + VM: folding, slots, ambients, lazy errors, and the
// randomized differential test pinning bit-identity against the
// tree-walking evaluator (including NaN/inf/signed-zero edge cases and
// missing-identifier error behaviour).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <variant>
#include <vector>

#include "prophet/expr/compile.hpp"
#include "prophet/expr/eval.hpp"
#include "prophet/expr/parser.hpp"

namespace expr = prophet::expr;

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Compiles and evaluates `text` with no bindings at all.
double run(const std::string& text) {
  const expr::SymbolTable table;
  const expr::Compiled program = expr::compile(*expr::parse(text), table);
  return program.eval({});
}

TEST(ExprCompile, ArithmeticMatchesTreeWalk) {
  for (const char* text :
       {"1 + 2 * 3", "(1 + 2) * 3", "10 / 4", "10 % 4", "7.5 % 2",
        "-3 + 1", "1 / 0", "3 > 2", "2 <= 1", "2 == 2", "2 != 2",
        "1 && 2", "1 && 0", "0 || 3", "!0", "!2", "1 ? 2 : 3",
        "0 ? 2 : 3", "sqrt(16)", "pow(2, 10)", "min(3, 4)", "max(3, 4)"}) {
    EXPECT_EQ(run(text),
              expr::evaluate(*expr::parse(text), expr::empty_environment()))
        << text;
  }
}

TEST(ExprCompile, ConstantExpressionsFoldToOneInstruction) {
  for (const char* text :
       {"1 + 2 * 3", "sqrt(16)", "2 < 3 && 4 < 5", "1 ? 42 : 0",
        "-(2 + 3)", "pow(2, 0.5) / log(2)"}) {
    const expr::SymbolTable table;
    const expr::Compiled program = expr::compile(*expr::parse(text), table);
    EXPECT_EQ(program.size(), 1u) << text << "\n" << program.disassemble();
    ASSERT_TRUE(program.constant().has_value()) << text;
    EXPECT_EQ(*program.constant(),
              expr::evaluate(*expr::parse(text), expr::empty_environment()))
        << text;
  }
}

TEST(ExprCompile, ShortCircuitConstantsDropDeadOperands) {
  // The dead side contains errors the tree walker never evaluates; the
  // compiled program must not raise them either.
  EXPECT_EQ(run("0 && nope"), 0.0);
  EXPECT_EQ(run("1 || nope"), 1.0);
  EXPECT_EQ(run("1 ? 7 : nope"), 7.0);
  EXPECT_EQ(run("0 ? nope : 7"), 7.0);
  EXPECT_EQ(run("0 && sqrt(1, 2)"), 0.0);
  EXPECT_THROW(run("1 && nope"), expr::EvalError);
}

TEST(ExprCompile, ExactIdentitiesSimplify) {
  expr::SymbolTable table;
  table.add_variable("x");
  for (const char* text : {"x * 1", "1 * x", "x / 1", "x - 0"}) {
    const expr::Compiled program = expr::compile(*expr::parse(text), table);
    EXPECT_EQ(program.size(), 1u) << text << "\n" << program.disassemble();
  }
}

TEST(ExprCompile, AddZeroIsNotSimplified) {
  // x + 0.0 maps -0.0 to +0.0, so folding it away would break
  // bit-identity with the tree walker.
  expr::SymbolTable table;
  const expr::Slot x = table.add_variable("x");
  const expr::Compiled program = expr::compile(*expr::parse("x + 0"), table);
  EXPECT_GT(program.size(), 1u);
  expr::SlotFrame frame(table);
  frame.set(x, -0.0);
  expr::EvalContext ctx;
  ctx.frame = frame.frame();
  const double sum = program.eval(ctx);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sum),
            std::bit_cast<std::uint64_t>(0.0));  // +0.0, not -0.0
}

TEST(ExprCompile, IdentityPreservesNegativeZeroAndNan) {
  expr::SymbolTable table;
  const expr::Slot x = table.add_variable("x");
  const expr::Compiled program = expr::compile(*expr::parse("x * 1"), table);
  expr::SlotFrame frame(table);
  expr::EvalContext ctx;
  ctx.frame = frame.frame();
  frame.set(x, -0.0);
  EXPECT_TRUE(std::signbit(program.eval(ctx)));
  frame.set(x, kNan);
  EXPECT_TRUE(std::isnan(program.eval(ctx)));
}

TEST(ExprCompile, SlotsResolveWithoutStrings) {
  expr::SymbolTable table;
  const expr::Slot p = table.add_variable("P");
  const expr::Slot np = table.add_variable("np");
  const expr::Compiled program = expr::compile(
      *expr::parse("0.000001 * P * P + 0.001 + sqrt(P) / (np + 1)"), table);
  expr::SlotFrame frame(table);
  frame.set(p, 16.0);
  frame.set(np, 4.0);
  expr::EvalContext ctx;
  ctx.frame = frame.frame();

  expr::MapEnvironment env;
  env.set("P", 16.0);
  env.set("np", 4.0);
  const double reference = expr::evaluate(
      *expr::parse("0.000001 * P * P + 0.001 + sqrt(P) / (np + 1)"), env);
  EXPECT_EQ(program.eval(ctx), reference);
  EXPECT_TRUE(program.references_slot(p));
  EXPECT_TRUE(program.references_slot(np));
}

TEST(ExprCompile, UnboundSlotThrowsTreeWalkMessage) {
  expr::SymbolTable table;
  const expr::Slot x = table.add_variable("x");
  const expr::Compiled program = expr::compile(*expr::parse("x + 1"), table);
  expr::SlotFrame frame(table);
  frame.unbind(x);
  expr::EvalContext ctx;
  ctx.frame = frame.frame();
  try {
    (void)program.eval(ctx);
    FAIL() << "expected EvalError";
  } catch (const expr::EvalError& error) {
    EXPECT_STREQ(error.what(), "unknown variable 'x'");
  }
}

TEST(ExprCompile, AmbientsAndSlotFallback) {
  expr::SymbolTable table;
  table.bind_ambient("pid", expr::Ambient::Pid);
  table.bind_ambient("tid", expr::Ambient::Tid);
  table.bind_ambient("uid", expr::Ambient::Uid);
  // `i` is a loop variable named like nothing else; `pid` is also a
  // slot (e.g. a loop variable shadowing the system parameter).
  const expr::Slot pid_slot = table.add_variable("pid");
  const expr::Compiled program =
      expr::compile(*expr::parse("pid * 100 + tid * 10 + uid"), table);
  EXPECT_TRUE(program.may_read_pid_tid());

  expr::SlotFrame frame(table);
  expr::EvalContext ctx;
  ctx.frame = frame.frame();
  ctx.pid = 3;
  ctx.tid = 2;
  ctx.uid = 7;
  frame.unbind(pid_slot);  // not shadowed: ambient pid
  EXPECT_EQ(program.eval(ctx), 327.0);
  frame.bind(pid_slot, nullptr);
  frame.set(pid_slot, 0);  // still unbound
  double shadowed = 9;
  frame.bind(pid_slot, &shadowed);  // loop binding active
  EXPECT_EQ(program.eval(ctx), 927.0);
}

TEST(ExprCompile, ConstantBindingFoldsThrough) {
  expr::SymbolTable table;
  table.bind_constant("uid", 42.0);
  const expr::Compiled program =
      expr::compile(*expr::parse("uid * 2 + 1"), table);
  EXPECT_EQ(program.size(), 1u);
  EXPECT_EQ(program.constant(), 85.0);
}

TEST(ExprCompile, ParametersResolveFirstAndPadWithZero) {
  expr::SymbolTable table;
  table.add_variable("a");  // would be a slot, but the parameter wins
  table.add_parameter("a");
  table.add_parameter("b");
  const expr::Compiled program =
      expr::compile(*expr::parse("a * 10 + b"), table);
  expr::EvalContext ctx;
  const std::vector<double> args{3.0};
  ctx.args = args;  // b missing: pads with 0.0, like FunctionEnv
  EXPECT_EQ(program.eval(ctx), 30.0);
}

TEST(ExprCompile, CostFunctionsShadowBuiltins) {
  expr::SymbolTable table;
  ASSERT_EQ(table.add_function("log"), 0);
  const expr::Compiled program = expr::compile(*expr::parse("log(2)"), table);
  expr::SymbolTable body_table = table;
  body_table.add_parameter("x");
  const expr::Compiled bodies[] = {
      expr::compile(*expr::parse("x * 100"), body_table)};
  const expr::FunctionTable functions{bodies, {}};
  expr::EvalContext ctx;
  ctx.functions = &functions;
  EXPECT_EQ(program.eval(ctx), 200.0);
}

TEST(ExprCompile, LazyErrorsMatchTreeWalkMessages) {
  const auto expect_message = [](const std::string& text,
                                 const std::string& message) {
    try {
      (void)run(text);
      FAIL() << text;
    } catch (const expr::EvalError& error) {
      EXPECT_EQ(std::string(error.what()), message) << text;
    }
  };
  expect_message("nope(1)", "unknown function 'nope'");
  expect_message("sqrt(1, 2)", "function 'sqrt' expects 1 argument(s), got 2");
  expect_message("pow(1)", "function 'pow' expects 2 argument(s), got 1");
  expect_message("ghost + 1", "unknown variable 'ghost'");
}

// ---------------------------------------------------------------------------
// Randomized differential test
// ---------------------------------------------------------------------------

/// Either a value (compared bit-for-bit) or an EvalError message.
using Outcome = std::variant<std::uint64_t, std::string>;

Outcome tree_outcome(const expr::Expr& e, const expr::Environment& env) {
  try {
    return std::bit_cast<std::uint64_t>(expr::evaluate(e, env));
  } catch (const expr::EvalError& error) {
    return std::string(error.what());
  }
}

Outcome vm_outcome(const expr::Compiled& program,
                   const expr::EvalContext& ctx) {
  try {
    return std::bit_cast<std::uint64_t>(program.eval(ctx));
  } catch (const expr::EvalError& error) {
    return std::string(error.what());
  }
}

/// Structured random expression source: every node kind, the full
/// operator set, bound/unbound variables, user functions and built-ins
/// called with right and wrong arity.
class RandomExpr {
 public:
  explicit RandomExpr(std::mt19937& rng) : rng_(&rng) {}

  [[nodiscard]] expr::ExprPtr gen(int depth) {
    const int pick = depth <= 0 ? next(2) : next(10);
    switch (pick) {
      case 0:
        return std::make_unique<expr::NumberExpr>(number());
      case 1: {
        const char* names[] = {"a", "b", "c", "ghost"};
        return std::make_unique<expr::VariableExpr>(names[next(4)]);
      }
      case 2:
        return std::make_unique<expr::UnaryExpr>(
            next(2) == 0 ? expr::UnaryOp::Negate : expr::UnaryOp::Not,
            gen(depth - 1));
      case 3:
      case 4:
      case 5:
      case 6: {
        const expr::BinaryOp ops[] = {
            expr::BinaryOp::Add, expr::BinaryOp::Sub, expr::BinaryOp::Mul,
            expr::BinaryOp::Div, expr::BinaryOp::Mod, expr::BinaryOp::Lt,
            expr::BinaryOp::Le,  expr::BinaryOp::Gt,  expr::BinaryOp::Ge,
            expr::BinaryOp::Eq,  expr::BinaryOp::Ne,  expr::BinaryOp::And,
            expr::BinaryOp::Or};
        return std::make_unique<expr::BinaryExpr>(
            ops[next(13)], gen(depth - 1), gen(depth - 1));
      }
      case 7:
      case 8:
        return call(depth);
      default:
        return std::make_unique<expr::ConditionalExpr>(
            gen(depth - 1), gen(depth - 1), gen(depth - 1));
    }
  }

 private:
  [[nodiscard]] int next(int bound) {
    return static_cast<int>((*rng_)() % static_cast<unsigned>(bound));
  }

  [[nodiscard]] double number() {
    const double interesting[] = {0.0,   -0.0, 1.0,    -1.0,  2.0,
                                  0.5,   -3.5, 1e300,  -1e-3, 1e-300,
                                  kNan,  kInf, -kInf,  7.25,  42.0};
    return interesting[next(15)];
  }

  [[nodiscard]] expr::ExprPtr call(int depth) {
    std::vector<expr::ExprPtr> args;
    switch (next(6)) {
      case 0: {  // unary built-in, correct arity
        const char* names[] = {"sqrt", "abs", "floor", "ceil", "log2",
                               "exp"};
        args.push_back(gen(depth - 1));
        return std::make_unique<expr::CallExpr>(names[next(6)],
                                                std::move(args));
      }
      case 1: {  // binary built-in, correct arity
        const char* names[] = {"pow", "min", "max"};
        args.push_back(gen(depth - 1));
        args.push_back(gen(depth - 1));
        return std::make_unique<expr::CallExpr>(names[next(3)],
                                                std::move(args));
      }
      case 2: {  // built-in, wrong arity (lazy error path)
        args.push_back(gen(depth - 1));
        args.push_back(gen(depth - 1));
        return std::make_unique<expr::CallExpr>("sqrt", std::move(args));
      }
      case 3: {  // unknown function (lazy error path)
        args.push_back(gen(depth - 1));
        return std::make_unique<expr::CallExpr>("mystery", std::move(args));
      }
      case 4: {  // user function shadowing a built-in
        args.push_back(gen(depth - 1));
        return std::make_unique<expr::CallExpr>("log", std::move(args));
      }
      default: {  // user function, variable arity (pads with zero)
        const int argc = next(3);
        for (int i = 0; i < argc; ++i) {
          args.push_back(gen(depth - 1));
        }
        return std::make_unique<expr::CallExpr>("blend", std::move(args));
      }
    }
  }

  std::mt19937* rng_;
};

TEST(ExprCompileDifferential, BitIdenticalToTreeWalkOnRandomExpressions) {
  std::mt19937 rng(20260730);
  RandomExpr source(rng);

  expr::SymbolTable table;
  const expr::Slot slot_a = table.add_variable("a");
  const expr::Slot slot_b = table.add_variable("b");
  const expr::Slot slot_c = table.add_variable("c");
  ASSERT_EQ(table.add_function("log"), 0);
  ASSERT_EQ(table.add_function("blend"), 1);

  // Shared cost functions: "log" shadows the built-in, "blend" exercises
  // argument padding and reads the frame bodies see.  Both evaluation
  // paths run the same parsed bodies: the VM compiled, the tree walker
  // with the arguments bound to the parameters (missing ones read 0).
  const expr::ExprPtr log_body = expr::parse("x * 3 + 1");
  const expr::ExprPtr blend_body = expr::parse("(0.25 + x) * 0.5 + y - c");
  expr::SymbolTable body_table = table;
  body_table.add_parameter("x");
  body_table.add_parameter("y");
  const expr::Compiled bodies[] = {expr::compile(*log_body, body_table),
                                   expr::compile(*blend_body, body_table)};
  const auto walk_body = [](const expr::Expr& body, double c) {
    return [&body, c](std::span<const double> args) {
      expr::MapEnvironment env;
      env.set("x", args.size() > 0 ? args[0] : 0.0);
      env.set("y", args.size() > 1 ? args[1] : 0.0);
      env.set("c", c);
      return expr::evaluate(body, env);
    };
  };

  const double values[] = {0.0,  -0.0,  1.0,   -2.5, 1e300, -1e300,
                           kNan, kInf, -kInf, 0.125, 3.0,   -1.0};
  int errors_seen = 0;
  int values_seen = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const expr::ExprPtr e = source.gen(4);
    const expr::Compiled program = expr::compile(*e, table);
    for (int binding = 0; binding < 4; ++binding) {
      const double a = values[rng() % 12];
      const double b = values[rng() % 12];
      const double c = values[rng() % 12];

      expr::MapEnvironment env;  // "ghost" stays unbound
      env.set("a", a);
      env.set("b", b);
      env.set("c", c);
      env.define("log", walk_body(*log_body, c));
      env.define("blend", walk_body(*blend_body, c));

      expr::SlotFrame frame(table);
      frame.set(slot_a, a);
      frame.set(slot_b, b);
      frame.set(slot_c, c);
      const expr::FunctionTable functions{bodies, frame.frame()};
      expr::EvalContext ctx;
      ctx.frame = frame.frame();
      ctx.functions = &functions;

      const Outcome expected = tree_outcome(*e, env);
      const Outcome actual = vm_outcome(program, ctx);
      ASSERT_EQ(expected, actual)
          << "trial " << trial << " binding " << binding << "\n"
          << program.disassemble();
      if (std::holds_alternative<std::string>(expected)) {
        ++errors_seen;
      } else {
        ++values_seen;
      }
    }
  }
  // The generator must exercise both the value and the error paths.
  EXPECT_GT(errors_seen, 50);
  EXPECT_GT(values_seen, 200);
}

}  // namespace
