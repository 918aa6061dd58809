// Static analysis over cost-function expressions: free variables and
// called functions.  The model checker uses these to verify that every
// identifier a cost function references is visible (a declared model
// variable, a system parameter, or another cost function).
#pragma once

#include <set>
#include <string>

#include "prophet/expr/ast.hpp"

namespace prophet::expr {

/// All variable names referenced by the expression.
[[nodiscard]] std::set<std::string> free_variables(const Expr& expr);

/// All function names invoked by the expression (built-ins included).
[[nodiscard]] std::set<std::string> called_functions(const Expr& expr);

/// All function names invoked, excluding built-ins (user functions only).
[[nodiscard]] std::set<std::string> called_user_functions(const Expr& expr);

}  // namespace prophet::expr
