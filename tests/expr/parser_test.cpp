// Expression parser: precedence, associativity, literals, calls, errors,
// and the parse/print round-trip property.
#include <gtest/gtest.h>

#include "prophet/expr/parser.hpp"

namespace expr = prophet::expr;

namespace {

std::string reparse(const std::string& text) {
  return expr::to_source(*expr::parse(text));
}

TEST(ExprParser, NumberLiterals) {
  EXPECT_EQ(static_cast<const expr::NumberExpr&>(*expr::parse("42")).value(),
            42.0);
  EXPECT_EQ(
      static_cast<const expr::NumberExpr&>(*expr::parse("2.5")).value(), 2.5);
  EXPECT_EQ(
      static_cast<const expr::NumberExpr&>(*expr::parse("1e-6")).value(),
      1e-6);
  EXPECT_EQ(
      static_cast<const expr::NumberExpr&>(*expr::parse("0.25E+2")).value(),
      25.0);
}

TEST(ExprParser, VariablesAndCalls) {
  EXPECT_EQ(expr::parse("P")->kind(), expr::ExprKind::Variable);
  const auto call = expr::parse("FA1()");
  ASSERT_EQ(call->kind(), expr::ExprKind::Call);
  EXPECT_EQ(static_cast<const expr::CallExpr&>(*call).callee(), "FA1");
  EXPECT_TRUE(static_cast<const expr::CallExpr&>(*call).args().empty());
  const auto two = expr::parse("pow(P, 2)");
  EXPECT_EQ(static_cast<const expr::CallExpr&>(*two).args().size(), 2u);
}

TEST(ExprParser, MultiplicationBindsTighterThanAddition) {
  EXPECT_EQ(reparse("1 + 2 * 3"), "1 + 2 * 3");
  EXPECT_EQ(reparse("(1 + 2) * 3"), "(1 + 2) * 3");
}

TEST(ExprParser, LeftAssociativity) {
  // (8 - 4) - 2, not 8 - (4 - 2).
  EXPECT_EQ(reparse("8 - 4 - 2"), "8 - 4 - 2");
  EXPECT_EQ(reparse("8 - (4 - 2)"), "8 - (4 - 2)");
}

TEST(ExprParser, ComparisonAndLogicalPrecedence) {
  // a < b && c > d  parses as  (a < b) && (c > d).
  const auto parsed = expr::parse("a < b && c > d");
  ASSERT_EQ(parsed->kind(), expr::ExprKind::Binary);
  EXPECT_EQ(static_cast<const expr::BinaryExpr&>(*parsed).op(),
            expr::BinaryOp::And);
}

TEST(ExprParser, OrLowerThanAnd) {
  const auto parsed = expr::parse("a && b || c");
  EXPECT_EQ(static_cast<const expr::BinaryExpr&>(*parsed).op(),
            expr::BinaryOp::Or);
}

TEST(ExprParser, UnaryOperators) {
  EXPECT_EQ(reparse("-P"), "-P");
  EXPECT_EQ(reparse("!x"), "!x");
  EXPECT_EQ(reparse("--P"), "--P");  // nested negation
  EXPECT_EQ(reparse("+P"), "P");     // unary plus is a no-op
}

TEST(ExprParser, Ternary) {
  const auto parsed = expr::parse("a > 0 ? b : c");
  EXPECT_EQ(parsed->kind(), expr::ExprKind::Conditional);
  // Right associative: a ? b : c ? d : e == a ? b : (c ? d : e).
  EXPECT_EQ(reparse("a ? b : c ? d : e"), "a ? b : c ? d : e");
}

TEST(ExprParser, PaperCostFunctions) {
  // Expressions from the reproduction of Fig. 8a.
  EXPECT_NO_THROW((void)expr::parse("0.000001 * P * P + 0.001"));
  EXPECT_NO_THROW((void)expr::parse("0.5 * FA1()"));
  EXPECT_NO_THROW((void)expr::parse("0.0005 * pid + 0.001"));
  EXPECT_NO_THROW((void)expr::parse("M * (N * (N - 1) / 2) * c"));
  EXPECT_NO_THROW((void)expr::parse("GV > 0"));
}

TEST(ExprParser, Whitespace) {
  EXPECT_NO_THROW((void)expr::parse("  1\t+\n2  "));
}

class ExprErrors : public ::testing::TestWithParam<const char*> {};

TEST_P(ExprErrors, Rejected) {
  EXPECT_THROW((void)expr::parse(GetParam()), expr::SyntaxError);
}

INSTANTIATE_TEST_SUITE_P(Cases, ExprErrors,
                         ::testing::Values("", "1 +", "* 2", "(1 + 2",
                                           "1 + 2)", "f(1,", "a ? b", "1 2",
                                           "@", "a &| b", "a = b",
                                           "f(,)", "..5"));

TEST(ExprParser, ErrorCarriesOffset) {
  try {
    (void)expr::parse("1 + @");
    FAIL();
  } catch (const expr::SyntaxError& error) {
    EXPECT_EQ(error.offset(), 4u);
  }
}

// Round-trip property: to_source output reparses to an equal tree.
class ExprRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(ExprRoundTrip, SourceRoundTrips) {
  const auto first = expr::parse(GetParam());
  const auto second = expr::parse(expr::to_source(*first));
  EXPECT_TRUE(expr::equal(*first, *second))
      << GetParam() << " -> " << expr::to_source(*first);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ExprRoundTrip,
    ::testing::Values("1 + 2 * 3", "(1 + 2) * 3", "a / b / c", "a % b % c",
                      "-a * -b", "f(g(x), h(y, 2))",
                      "a < b == c > d", "!(a && b) || c",
                      "x ? y + 1 : z * 2", "0.000001 * P * P + 0.001",
                      "sqrt(pow(x, 2) + pow(y, 2))",
                      "a - (b - c) - d"));

}  // namespace
