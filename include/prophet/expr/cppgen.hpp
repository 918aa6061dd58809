// C++ printing of compiled cost-language programs: the expression-level
// piece of the paper's UML -> C++ transformation.  The bytecode that
// lower::lower() compiled from a tag, guard, initializer or cost-function
// body prints as one readable C++ expression of Fig. 8, e.g.
//   double FA1() { return 9.9999999999999995e-07 * P * P + 0.001; }
// computing what Compiled::eval computes: constants round-trip exactly,
// `?:`, `&&` and `||` (one jump shape) print as conditionals, and each
// name reads the binding the VM would read where the program runs.
//
// A program that cannot raise prints bare.  One that can (an unbound
// name, a lazily compiled error, a call that may raise) raises the VM's
// text through the cgen prelude: `throw_eval` where the VM raises, and
// the program runs inside `at_site`, which labels the error with the
// program's site as Compiled::eval does.  Operands that may both raise
// are evaluated left to right, as the VM evaluates them.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "prophet/expr/compile.hpp"

namespace prophet::expr {

/// How a call of one user function prints where a program makes it.
struct CppCallee {
  /// The C++ function called.
  std::string name;
  /// Its parameters: missing arguments read 0.0, extra ones are
  /// evaluated and dropped.
  std::size_t arity = 0;
  /// The call may raise (its body may, or it may nest too deep).
  bool raises = false;
  /// A trailing call-depth argument ("1", "depth + 1"), empty for none.
  std::string depth;
};

/// What a compiled program's operands print as where it runs.
struct CppNames {
  /// Slot -> the C++ expression reading its binding there; empty when
  /// the slot is unbound (a load raises or reads its ambient).
  std::span<const std::string> slots = {};
  /// Positional parameter names (`LoadArg`, cost-function bodies).
  std::span<const std::string> parameters = {};
  /// The ambient pid and tid, `int` expressions; empty reads 0.
  std::string_view pid = "pid";
  std::string_view tid = "tid";
  /// The executing element's uid (`LoadUid`).
  int uid = 0;
  /// The callee of user function `id`.
  std::function<CppCallee(int id)> callee;
};

/// Prints `program` as one C++ expression, parenthesized only where
/// needed; wrapped in `at_site` when it has a site and may raise.
[[nodiscard]] std::string to_cpp(const Compiled& program,
                                 const CppNames& names);

/// A double as a C++ literal that round-trips exactly (17 significant
/// digits, always a floating literal; infinities and NaN as quotients).
[[nodiscard]] std::string cpp_double(double value);

/// Escapes `text` into the body of a C++ string literal.  Control bytes
/// use three-digit octal escapes, so a following digit is never absorbed
/// into the escape.
[[nodiscard]] std::string escape_cpp(std::string_view text);

}  // namespace prophet::expr
