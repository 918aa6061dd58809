// Tree-walking evaluator for cost-function expressions.
//
// This is the "human-usable" evaluation path: the UML model carries cost
// functions as annotation strings and the interpreter evaluates them by
// walking the AST.  The generated C++ of Fig. 8a evaluates the same
// functions natively; bench/bench_expr.cpp measures the gap between the
// two, which is one concrete facet of the paper's machine-efficiency
// argument.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "prophet/expr/ast.hpp"

namespace prophet::expr {

/// Error thrown on unknown identifiers or arity mismatches.
class EvalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Name-resolution interface used during evaluation.
///
/// Variables and user functions are looked up here first; when the
/// environment does not resolve a call, the evaluator falls back to the
/// built-in math functions (abs, sqrt, pow, ...).
class Environment {
 public:
  virtual ~Environment() = default;

  /// Value of a variable, or nullopt when unknown to this environment.
  [[nodiscard]] virtual std::optional<double> variable(
      std::string_view name) const = 0;

  /// Invokes a user-defined function, or returns nullopt when unknown.
  [[nodiscard]] virtual std::optional<double> call(
      std::string_view name, std::span<const double> args) const = 0;
};

/// Environment backed by maps; the common case for tests and the
/// interpreter.
class MapEnvironment : public Environment {
 public:
  using Function = std::function<double(std::span<const double>)>;

  MapEnvironment() = default;

  void set(std::string name, double value) {
    variables_[std::move(name)] = value;
  }
  void define(std::string name, Function fn) {
    functions_[std::move(name)] = std::move(fn);
  }
  [[nodiscard]] bool has_variable(std::string_view name) const {
    // Heterogeneous lookup through the transparent comparator — no
    // temporary std::string per call.
    return variables_.find(name) != variables_.end();
  }

  [[nodiscard]] std::optional<double> variable(
      std::string_view name) const override;
  [[nodiscard]] std::optional<double> call(
      std::string_view name, std::span<const double> args) const override;

 private:
  std::map<std::string, double, std::less<>> variables_;
  std::map<std::string, Function, std::less<>> functions_;
};

/// An environment with no variables and no user functions (built-ins only).
[[nodiscard]] const Environment& empty_environment();

/// Evaluates `expr` under `env`. Throws EvalError on unresolved names,
/// unknown functions, or wrong built-in arity.  Division by zero follows
/// IEEE semantics (inf/nan), matching what the generated C++ would do.
[[nodiscard]] double evaluate(const Expr& expr, const Environment& env);

/// True when `value` is "truthy" under the language's rules (!= 0).
[[nodiscard]] inline bool truthy(double value) { return value != 0.0; }

}  // namespace prophet::expr
