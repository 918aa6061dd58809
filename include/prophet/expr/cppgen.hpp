// C++ printing of compiled cost-language programs: the expression-level
// piece of the paper's UML -> C++ transformation.  The bytecode that
// lower::lower() compiled from a tag, guard, initializer or cost-function
// body prints as one readable C++ expression of Fig. 8, e.g.
//   double FA1() { return 9.9999999999999995e-07 * P * P + 0.001; }
// computing what Compiled::eval computes: constants round-trip exactly,
// `?:`, `&&` and `||` (one jump shape) print as conditionals, and a
// lazily compiled error prints as a throwing lambda call that fails only
// if it runs.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "prophet/expr/compile.hpp"

namespace prophet::expr {

/// What a compiled program's operands print as.
struct CppNames {
  /// The table the program was compiled against: slot and user-function
  /// names.
  const SymbolTable* symbols = nullptr;
  /// Slots the generated code declares as integers (`long`), sorted.
  std::span<const Slot> integer_slots = {};
  /// Positional parameter names (`LoadArg`, cost-function bodies).
  std::span<const std::string> parameters = {};
  /// The executing element's uid (`LoadUid`).
  int uid = 0;
};

/// Prints `program` as one C++ expression, parenthesized only where
/// needed.
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
