// Abstract syntax trees for the Performance Prophet cost-function language.
//
// The paper attaches cost functions to performance modeling elements as
// annotations (Fig. 3c: `TK6 = FK6(...)`; Fig. 7c; Fig. 8a lines 31-54).
// A cost function may reference model variables (global or local), system
// parameters (`P`, `pid`, `tid`, `uid`, ...), numeric literals, built-in
// math functions and *other cost functions* ("a cost function may be
// composed using other functions that are defined in the performance
// model", Sec. 4).  Decision-edge guards (Fig. 7a: `[GV > 0]`) use the
// same language, so it includes comparison and logical operators; truth
// values are represented as 1.0 / 0.0.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace prophet::expr {

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind {
  Number,
  Variable,
  Unary,
  Binary,
  Call,
  Conditional,
};

enum class UnaryOp {
  Negate,  // -x
  Not,     // !x
};

enum class BinaryOp {
  Add,
  Sub,
  Mul,
  Div,
  Mod,  // fmod semantics
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,
  And,  // short-circuit, yields 1.0 / 0.0
  Or,   // short-circuit, yields 1.0 / 0.0
};

/// Operator spelling as it appears in source ("+", "<=", "&&", ...).
[[nodiscard]] std::string_view to_string(BinaryOp op);
[[nodiscard]] std::string_view to_string(UnaryOp op);

/// Base class of all expression nodes.
class Expr {
 public:
  explicit Expr(ExprKind kind) : kind_(kind) {}
  virtual ~Expr() = default;

  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;

  [[nodiscard]] ExprKind kind() const { return kind_; }

 private:
  ExprKind kind_;
};

class NumberExpr final : public Expr {
 public:
  explicit NumberExpr(double value) : Expr(ExprKind::Number), value_(value) {}
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_;
};

class VariableExpr final : public Expr {
 public:
  explicit VariableExpr(std::string name)
      : Expr(ExprKind::Variable), name_(std::move(name)) {}
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::string name_;
};

class UnaryExpr final : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr operand)
      : Expr(ExprKind::Unary), op_(op), operand_(std::move(operand)) {}
  [[nodiscard]] UnaryOp op() const { return op_; }
  [[nodiscard]] const Expr& operand() const { return *operand_; }

 private:
  UnaryOp op_;
  ExprPtr operand_;
};

class BinaryExpr final : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(ExprKind::Binary),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}
  [[nodiscard]] BinaryOp op() const { return op_; }
  [[nodiscard]] const Expr& lhs() const { return *lhs_; }
  [[nodiscard]] const Expr& rhs() const { return *rhs_; }

 private:
  BinaryOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

class CallExpr final : public Expr {
 public:
  CallExpr(std::string callee, std::vector<ExprPtr> args)
      : Expr(ExprKind::Call),
        callee_(std::move(callee)),
        args_(std::move(args)) {}
  [[nodiscard]] const std::string& callee() const { return callee_; }
  [[nodiscard]] const std::vector<ExprPtr>& args() const { return args_; }

 private:
  std::string callee_;
  std::vector<ExprPtr> args_;
};

/// C-style ternary: `cond ? then : otherwise`.
class ConditionalExpr final : public Expr {
 public:
  ConditionalExpr(ExprPtr cond, ExprPtr then, ExprPtr otherwise)
      : Expr(ExprKind::Conditional),
        cond_(std::move(cond)),
        then_(std::move(then)),
        otherwise_(std::move(otherwise)) {}
  [[nodiscard]] const Expr& cond() const { return *cond_; }
  [[nodiscard]] const Expr& then_branch() const { return *then_; }
  [[nodiscard]] const Expr& else_branch() const { return *otherwise_; }

 private:
  ExprPtr cond_;
  ExprPtr then_;
  ExprPtr otherwise_;
};

/// Renders the expression back to canonical source text (fully usable as
/// parser input; parenthesized only where precedence demands).
[[nodiscard]] std::string to_source(const Expr& expr);

/// Structural equality of two expression trees.
[[nodiscard]] bool equal(const Expr& a, const Expr& b);

}  // namespace prophet::expr
