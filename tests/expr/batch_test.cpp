// Batched expression VM: SlotBlock layout, the eval_batch fast path and
// its lane-by-lane fallback, the counter and budget accounting of both
// VM entry points, and the randomized differential suite pinning
// bit-identity against per-lane Compiled::eval at several lane widths —
// including NaN/inf/signed-zero lanes and lazy-error lanes (the error
// must fire for the lowest erroring lane, with the scalar loop's exact
// message).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "prophet/expr/compile.hpp"
#include "prophet/expr/parser.hpp"
#include "prophet/guard/guard.hpp"
#include "prophet/obs/obs.hpp"

namespace expr = prophet::expr;
namespace guard = prophet::guard;
namespace obs = prophet::obs;

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// A scalar evaluation outcome: the result's bit pattern, or the error
/// message.  Comparing bit patterns (not values) pins NaN payloads and
/// signed zeros.
using Outcome = std::variant<std::uint64_t, std::string>;

Outcome scalar_outcome(const expr::Compiled& program,
                       const expr::EvalContext& ctx) {
  try {
    return std::bit_cast<std::uint64_t>(program.eval(ctx));
  } catch (const expr::EvalError& error) {
    return std::string(error.what());
  }
}

// --- SlotBlock --------------------------------------------------------------

TEST(SlotBlock, LaysLanesOutSlotMajor) {
  expr::SymbolTable table;
  const expr::Slot a = table.add_variable("a");
  const expr::Slot b = table.add_variable("b");
  expr::SlotBlock block(table, 4);
  ASSERT_EQ(block.width(), 4u);
  ASSERT_EQ(block.slot_count(), 2u);
  for (std::size_t lane = 0; lane < 4; ++lane) {
    block.set(a, lane, 10.0 + static_cast<double>(lane));
    block.set(b, lane, 20.0 + static_cast<double>(lane));
  }
  // Each slot's lanes are one contiguous array...
  EXPECT_EQ(block.lanes(a)[0], 10.0);
  EXPECT_EQ(block.lanes(a)[3], 13.0);
  EXPECT_EQ(block.lanes(b)[2], 22.0);
  // ...and lane arrays of consecutive slots are adjacent (slot-major).
  EXPECT_EQ(block.lanes(b), block.lanes(a) + 4);
  EXPECT_EQ(block.get(b, 1), 21.0);
}

TEST(SlotBlock, BindAndUnbindMirrorSlotFrame) {
  expr::SymbolTable table;
  const expr::Slot a = table.add_variable("a");
  expr::SlotBlock block(table, 2);
  double external[2] = {7.0, 8.0};
  block.bind(a, external);
  EXPECT_EQ(block.get(a, 1), 8.0);
  EXPECT_EQ(block.frame()[a], external);
  block.unbind(a);
  EXPECT_EQ(block.frame()[a], nullptr);
  // Owned storage survives rebinding.
  block.bind(a, block.lanes(a));
  block.set(a, 0, 1.5);
  EXPECT_EQ(block.get(a, 0), 1.5);
}

// --- Directed eval_batch cases ----------------------------------------------

/// Compiles `text` against a table with variables a, b, c.
struct Abc {
  expr::SymbolTable table;
  expr::Slot a, b, c;
  expr::Compiled program;

  explicit Abc(const std::string& text)
      : a(table.add_variable("a")),
        b(table.add_variable("b")),
        c(table.add_variable("c")),
        program(expr::compile(*expr::parse(text), table)) {}
};

TEST(ExprBatch, EvaluatesAllLanesOfABranchlessProgram) {
  Abc m("a + b * c");
  ASSERT_TRUE(m.program.branchless());
  expr::SlotBlock block(m.table, 8);
  for (std::size_t lane = 0; lane < 8; ++lane) {
    const double x = static_cast<double>(lane);
    block.set(m.a, lane, x);
    block.set(m.b, lane, x + 1);
    block.set(m.c, lane, 2.0);
  }
  expr::BatchEvalContext ctx;
  ctx.frame = block.frame();
  ctx.width = 8;
  double out[8];
  m.program.eval_batch(ctx, out);
  for (std::size_t lane = 0; lane < 8; ++lane) {
    const double x = static_cast<double>(lane);
    EXPECT_EQ(out[lane], x + (x + 1) * 2.0) << lane;
  }
}

TEST(ExprBatch, SpecialValuesArePropagatedBitExactly) {
  Abc m("a / b - c");
  expr::SlotBlock block(m.table, 4);
  const double as[] = {0.0, 1.0, kNan, kInf};
  const double bs[] = {-0.0, 0.0, 2.0, -kInf};
  const double cs[] = {-0.0, -kInf, 0.5, kNan};
  for (std::size_t lane = 0; lane < 4; ++lane) {
    block.set(m.a, lane, as[lane]);
    block.set(m.b, lane, bs[lane]);
    block.set(m.c, lane, cs[lane]);
  }
  expr::BatchEvalContext ctx;
  ctx.frame = block.frame();
  ctx.width = 4;
  double out[4];
  m.program.eval_batch(ctx, out);
  for (std::size_t lane = 0; lane < 4; ++lane) {
    const double expected = as[lane] / bs[lane] - cs[lane];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[lane]),
              std::bit_cast<std::uint64_t>(expected))
        << lane;
  }
}

TEST(ExprBatch, WidthOneMatchesScalarEval) {
  Abc m("max(a, b) + min(b, c) % a");
  expr::SlotBlock block(m.table, 1);
  block.set(m.a, 0, 3.5);
  block.set(m.b, 0, -2.0);
  block.set(m.c, 0, 7.0);
  expr::BatchEvalContext batch;
  batch.frame = block.frame();
  batch.width = 1;
  double out = 0;
  m.program.eval_batch(batch, &out);

  expr::SlotFrame frame(m.table);
  frame.set(m.a, 3.5);
  frame.set(m.b, -2.0);
  frame.set(m.c, 7.0);
  expr::EvalContext scalar;
  scalar.frame = frame.frame();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(out),
            std::bit_cast<std::uint64_t>(m.program.eval(scalar)));
}

TEST(ExprBatch, LazyErrorFiresOnTheLowestErroringLane) {
  // "ghost" is never bound: the load errors only in lanes where the
  // conditional takes the error branch.
  expr::SymbolTable table;
  const expr::Slot a = table.add_variable("a");
  table.add_variable("ghost");
  const expr::Compiled program =
      expr::compile(*expr::parse("a > 0 ? a : ghost"), table);

  expr::SlotBlock block(table, 4);
  const double as[] = {1.0, -1.0, -2.0, 3.0};  // lanes 1 and 2 error
  for (std::size_t lane = 0; lane < 4; ++lane) {
    block.set(a, lane, as[lane]);
  }
  block.unbind(table.slot_of("ghost").value());
  expr::BatchEvalContext ctx;
  ctx.frame = block.frame();
  ctx.width = 4;
  double out[4] = {};

  // The scalar loop evaluates lane 0 fine and throws on lane 1; the
  // batch entry must surface that lane's exact message.
  std::string scalar_message;
  {
    expr::SlotFrame frame(table);
    frame.set(a, -1.0);
    frame.unbind(table.slot_of("ghost").value());
    expr::EvalContext scalar;
    scalar.frame = frame.frame();
    try {
      (void)program.eval(scalar);
      FAIL() << "scalar eval should have thrown";
    } catch (const expr::EvalError& error) {
      scalar_message = error.what();
    }
  }
  try {
    program.eval_batch(ctx, out);
    FAIL() << "eval_batch should have thrown";
  } catch (const expr::EvalError& error) {
    EXPECT_EQ(std::string(error.what()), scalar_message);
  }
  // Lanes before the erroring one were evaluated with scalar semantics.
  EXPECT_EQ(out[0], 1.0);
}

TEST(ExprBatch, FastPathCountsOneBatchEval) {
  Abc m("a * b + c");
  ASSERT_TRUE(m.program.branchless());
  expr::SlotBlock block(m.table, 8);
  expr::BatchEvalContext ctx;
  ctx.frame = block.frame();
  ctx.width = 8;
  obs::ExprCounters counters;
  ctx.counters = &counters;
  double out[8];
  m.program.eval_batch(ctx, out);
  EXPECT_EQ(counters.batch_evals, 1u);
  EXPECT_EQ(counters.evals, 8u);  // one per lane, like the scalar loop
  EXPECT_EQ(counters.instructions, m.program.size());  // not times 8
  EXPECT_EQ(counters.lazy_errors, 0u);

  // A lane error is counted once, by the lane-by-lane re-run.
  block.unbind(m.b);
  counters = {};
  EXPECT_THROW(m.program.eval_batch(ctx, out), expr::EvalError);
  EXPECT_EQ(counters.lazy_errors, 1u);
}

// --- Scalar counters and the budget on both entry points --------------------

TEST(ExprVmAccounting, ScalarEvalCountsDispatchesEvalsAndLazyErrors) {
  Abc m("a + b");
  ASSERT_TRUE(m.program.branchless());
  expr::SlotFrame frame(m.table);
  expr::EvalContext ctx;
  ctx.frame = frame.frame();
  obs::ExprCounters counters;
  ctx.counters = &counters;
  (void)m.program.eval(ctx);
  EXPECT_EQ(counters.instructions, m.program.size());
  EXPECT_EQ(counters.evals, 1u);
  EXPECT_EQ(counters.lazy_errors, 0u);
  EXPECT_EQ(counters.batch_evals, 0u);

  // An unbound slot raises from its load...
  frame.unbind(m.b);
  counters = {};
  EXPECT_THROW((void)m.program.eval(ctx), expr::EvalError);
  EXPECT_EQ(counters.lazy_errors, 1u);
  EXPECT_EQ(counters.evals, 1u);  // a throwing eval still counts

  // ...and an unknown name compiles to a Throw instruction.
  Abc unknown("a + ghost");
  const auto code = unknown.program.code();
  ASSERT_TRUE(std::any_of(code.begin(), code.end(), [](const expr::Instr& in) {
    return in.op == expr::Op::Throw;
  }));
  expr::SlotFrame known(unknown.table);
  ctx.frame = known.frame();
  counters = {};
  EXPECT_THROW((void)unknown.program.eval(ctx), expr::EvalError);
  EXPECT_EQ(counters.lazy_errors, 1u);
  EXPECT_EQ(counters.evals, 1u);
}

TEST(ExprVmAccounting, BudgetBelowTheProgramLengthTripsBothEntryPoints) {
  Abc m("a * b + c");
  const auto expect_trip = [](const auto& run) {
    try {
      run();
      ADD_FAILURE() << "the VM budget should have tripped";
    } catch (const guard::ResourceExhausted& error) {
      EXPECT_EQ(error.limit(), guard::LimitKind::VmInstructions);
      EXPECT_EQ(guard::to_string(error.limit()), "vm_instructions");
      EXPECT_EQ(error.stage(), "expr-vm");
    }
  };
  guard::Limits short_of_program;
  short_of_program.max_vm_instructions = m.program.size() - 1;
  guard::Limits whole_program;
  whole_program.max_vm_instructions = m.program.size();

  expr::SlotFrame frame(m.table);
  expr::EvalContext scalar;
  scalar.frame = frame.frame();
  {
    guard::Budget budget(short_of_program);
    scalar.budget = &budget;
    expect_trip([&] { (void)m.program.eval(scalar); });
  }
  {
    guard::Budget budget(whole_program);
    scalar.budget = &budget;
    EXPECT_NO_THROW((void)m.program.eval(scalar));
  }

  // The batched fast path charges once per dispatch, not once per lane.
  expr::SlotBlock block(m.table, 8);
  expr::BatchEvalContext batch;
  batch.frame = block.frame();
  batch.width = 8;
  double out[8];
  {
    guard::Budget budget(short_of_program);
    batch.budget = &budget;
    expect_trip([&] { m.program.eval_batch(batch, out); });
  }
  {
    guard::Budget budget(whole_program);
    batch.budget = &budget;
    EXPECT_NO_THROW(m.program.eval_batch(batch, out));
  }
}

// --- Batched cost-function calls ---------------------------------------------

/// The compiled bodies of the cost functions `table` registers ("log",
/// then "blend"), one set for scalar and batched evaluation alike: "log"
/// shadows the built-in, "blend" pads missing arguments with zero and
/// reads the slot `a` of the frame bodies see.
std::vector<expr::Compiled> cost_functions(const expr::SymbolTable& table) {
  expr::SymbolTable body_table = table;
  body_table.add_parameter("x");
  body_table.add_parameter("y");
  std::vector<expr::Compiled> bodies;
  bodies.push_back(expr::compile(*expr::parse("x * 3 + 1"), body_table));
  bodies.push_back(
      expr::compile(*expr::parse("(0.25 + x) * 0.5 + y - a"), body_table));
  return bodies;
}

TEST(ExprBatch, UserFunctionCallsGoThroughTheBatchInterface) {
  expr::SymbolTable table;
  const expr::Slot a = table.add_variable("a");
  ASSERT_EQ(table.add_function("log"), 0);
  ASSERT_EQ(table.add_function("blend"), 1);
  // The nine-argument call and the 65-lane width outgrow the inline
  // room a batched call passes its arguments and results through.
  const expr::Compiled program = expr::compile(
      *expr::parse("log(a) + blend(a, 2) + blend(a, a, a, a, a, a, a, a, a)"),
      table);
  ASSERT_TRUE(program.calls_user_functions());
  const std::vector<expr::Compiled> bodies = cost_functions(table);

  for (const std::size_t width : {std::size_t{3}, std::size_t{65}}) {
    expr::SlotBlock block(table, width);
    for (std::size_t lane = 0; lane < width; ++lane) {
      block.set(a, lane, static_cast<double>(lane) + 0.5);
    }
    const expr::FunctionTable functions{bodies, block.frame()};
    expr::BatchEvalContext ctx;
    ctx.frame = block.frame();
    ctx.width = width;
    ctx.functions = &functions;
    std::vector<double> out(width);
    program.eval_batch(ctx, out.data());

    expr::SlotFrame frame(table);
    const expr::FunctionTable scalar_functions{bodies, frame.frame()};
    for (std::size_t lane = 0; lane < width; ++lane) {
      frame.set(a, static_cast<double>(lane) + 0.5);
      expr::EvalContext scalar;
      scalar.frame = frame.frame();
      scalar.functions = &scalar_functions;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[lane]),
                std::bit_cast<std::uint64_t>(program.eval(scalar)))
          << "width " << width << " lane " << lane;
    }
  }
}

TEST(ExprVmCalls, BodiesFollowOneCallRule) {
  expr::SymbolTable table;
  const expr::Slot g = table.add_variable("g");
  const expr::Slot local = table.add_variable("local");
  table.bind_ambient("pid", expr::Ambient::Pid);
  table.bind_ambient("tid", expr::Ambient::Tid);
  table.bind_ambient("uid", expr::Ambient::Uid);
  for (const char* name : {"global", "local_read", "ambients", "second"}) {
    table.add_function(name);
  }
  expr::SymbolTable body_table = table;
  body_table.add_parameter("x");
  body_table.add_parameter("y");
  std::vector<expr::Compiled> bodies;
  for (const char* body : {"g", "local", "pid + tid + uid", "x * 10 + y"}) {
    bodies.push_back(expr::compile(*expr::parse(body), body_table));
  }

  // The caller binds g and a local; the run frame the bodies see binds
  // g to other storage and leaves the local unbound.
  expr::SlotFrame caller(table);
  caller.set(g, 7.0);
  caller.set(local, 1.0);
  expr::SlotFrame run(table);
  run.set(g, 5.0);
  run.unbind(local);
  const expr::FunctionTable functions{bodies, run.frame()};
  obs::ExprCounters counters;
  expr::EvalContext ctx;
  ctx.frame = caller.frame();
  ctx.functions = &functions;
  ctx.pid = 3;
  ctx.tid = 4;
  ctx.uid = 5;
  ctx.counters = &counters;
  const auto eval = [&ctx](const std::string& text,
                           const expr::SymbolTable& symbols) {
    return expr::compile(*expr::parse(text), symbols).eval(ctx);
  };

  // A body sees the run frame, not the caller's.
  EXPECT_EQ(eval("global()", table), 5.0);
  EXPECT_EQ(eval("g", table), 7.0);
  EXPECT_EQ(scalar_outcome(expr::compile(*expr::parse("local_read()"), table),
                           ctx),
            Outcome(std::string("unknown variable 'local'")));
  // Ambients read 0 inside a body, whatever the caller's are.
  EXPECT_EQ(eval("ambients()", table), 0.0);
  EXPECT_EQ(eval("pid + tid + uid", table), 12.0);
  // An argument past the call's arity reads 0.
  EXPECT_EQ(eval("second(4)", table), 40.0);
  EXPECT_EQ(eval("second(4, 2)", table), 42.0);
  EXPECT_EQ(expr::call(ctx, 3, std::vector<double>{4.0}), 40.0);

  // The callee's instructions and evaluation count into the caller's
  // counters: one CallUser and one load here, two evals.
  counters = {};
  EXPECT_EQ(eval("global()", table), 5.0);
  EXPECT_EQ(counters.instructions, 2u);
  EXPECT_EQ(counters.evals, 2u);
}

TEST(ExprVmCalls, SixtyFiveNestedCallsEvaluateAndTheCallerSiteLabelsMore) {
  expr::SymbolTable table;
  ASSERT_EQ(table.add_function("F"), 0);
  expr::SymbolTable body_table = table;
  body_table.add_parameter("n");
  const std::vector<expr::Compiled> bodies = {
      expr::compile(*expr::parse("n > 0 ? F(n - 1) : 1"), body_table)};
  const expr::FunctionTable functions{bodies, {}};
  const std::string site = "node n2, tag 'cost'";
  const expr::Compiled deepest =
      expr::compile(*expr::parse("F(64)"), table, site);
  const expr::Compiled too_deep =
      expr::compile(*expr::parse("F(65)"), table, site);
  ASSERT_EQ(too_deep.site(), site);
  const std::string error =
      site + ": cost-function call depth exceeded (cycle?)";

  expr::EvalContext ctx;
  ctx.functions = &functions;
  EXPECT_EQ(deepest.eval(ctx), 1.0);
  EXPECT_EQ(scalar_outcome(too_deep, ctx), Outcome(error));
  // Through the call entry point the body's errors carry no site.
  EXPECT_EQ(expr::call(ctx, 0, std::vector<double>{64.0}), 1.0);
  EXPECT_THROW((void)expr::call(ctx, 0, std::vector<double>{65.0}),
               expr::EvalError);

  // The batched entry point applies the same bound and the same label.
  expr::BatchEvalContext batch;
  batch.width = 4;
  batch.functions = &functions;
  double out[4];
  deepest.eval_batch(batch, out);
  for (const double lane : out) {
    EXPECT_EQ(lane, 1.0);
  }
  try {
    too_deep.eval_batch(batch, out);
    FAIL() << "F(65) evaluated";
  } catch (const expr::EvalError& raised) {
    EXPECT_EQ(std::string(raised.what()), error);
  }
}

// --- Randomized differential suite ------------------------------------------

/// Structured random expression source (the batched sibling of the one
/// in compile_test.cpp): every operator, bound/unbound variables,
/// built-ins with right and wrong arity, user functions.
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
      default: {  // user function, variable arity
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

TEST(ExprBatchDifferential, BitIdenticalToPerLaneEvalAtEveryWidth) {
  std::mt19937 rng(20260808);
  RandomExpr source(rng);

  expr::SymbolTable table;
  const expr::Slot slot_a = table.add_variable("a");
  const expr::Slot slot_b = table.add_variable("b");
  const expr::Slot slot_c = table.add_variable("c");
  const expr::Slot slot_ghost = table.add_variable("ghost");
  ASSERT_EQ(table.add_function("log"), 0);
  ASSERT_EQ(table.add_function("blend"), 1);
  const std::vector<expr::Compiled> bodies = cost_functions(table);

  const double values[] = {0.0,  -0.0,  1.0,   -2.5, 1e300, -1e300,
                           kNan, kInf, -kInf, 0.125, 3.0,   -1.0};
  const std::size_t widths[] = {1, 2, 7, 8, 33};
  int errors_seen = 0;
  int values_seen = 0;
  for (int trial = 0; trial < 420; ++trial) {
    const expr::ExprPtr e = source.gen(4);
    const expr::Compiled program = expr::compile(*e, table);
    const std::size_t width = widths[trial % 5];

    expr::SlotBlock block(table, width);
    block.unbind(slot_ghost);  // "ghost" loads raise the lazy error
    for (std::size_t lane = 0; lane < width; ++lane) {
      block.set(slot_a, lane, values[rng() % 12]);
      block.set(slot_b, lane, values[rng() % 12]);
      block.set(slot_c, lane, values[rng() % 12]);
    }

    // Expected: the scalar loop over per-lane frames.  The first
    // erroring lane's message is the loop's outcome.
    std::vector<Outcome> expected;
    Outcome loop_outcome = std::uint64_t{0};
    bool loop_errored = false;
    for (std::size_t lane = 0; lane < width && !loop_errored; ++lane) {
      expr::SlotFrame frame(table);
      frame.set(slot_a, block.get(slot_a, lane));
      frame.set(slot_b, block.get(slot_b, lane));
      frame.set(slot_c, block.get(slot_c, lane));
      frame.unbind(slot_ghost);
      const expr::FunctionTable scalar_functions{bodies, frame.frame()};
      expr::EvalContext scalar;
      scalar.frame = frame.frame();
      scalar.functions = &scalar_functions;
      Outcome outcome = scalar_outcome(program, scalar);
      if (std::holds_alternative<std::string>(outcome)) {
        loop_outcome = outcome;
        loop_errored = true;
      }
      expected.push_back(std::move(outcome));
    }

    const expr::FunctionTable batch_functions{bodies, block.frame()};
    expr::BatchEvalContext ctx;
    ctx.frame = block.frame();
    ctx.width = width;
    ctx.functions = &batch_functions;
    std::vector<double> out(width, 0.0);
    Outcome actual = std::uint64_t{0};
    bool batch_errored = false;
    try {
      program.eval_batch(ctx, out.data());
    } catch (const expr::EvalError& error) {
      actual = std::string(error.what());
      batch_errored = true;
    }

    ASSERT_EQ(loop_errored, batch_errored)
        << "trial " << trial << " width " << width << "\n"
        << program.disassemble();
    if (loop_errored) {
      ASSERT_EQ(loop_outcome, actual)
          << "trial " << trial << " width " << width << "\n"
          << program.disassemble();
      ++errors_seen;
    } else {
      for (std::size_t lane = 0; lane < width; ++lane) {
        ASSERT_EQ(std::get<std::uint64_t>(expected[lane]),
                  std::bit_cast<std::uint64_t>(out[lane]))
            << "trial " << trial << " width " << width << " lane " << lane
            << "\n"
            << program.disassemble();
      }
      ++values_seen;
    }
  }
  // The generator must exercise both regimes; fail loudly if a change
  // to it silently drops one.
  EXPECT_GT(errors_seen, 40);
  EXPECT_GT(values_seen, 40);
}

}  // namespace
