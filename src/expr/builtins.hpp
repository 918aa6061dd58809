// Internal: the built-in function table shared by the tree-walking
// evaluator (eval.cpp) and the bytecode compiler (compile.cpp).  Not
// installed; the public surface is the per-built-in opcodes in
// compile.hpp.
#pragma once

#include <span>
#include <string_view>

namespace prophet::expr::detail {

/// One built-in math function: name, arity and the evaluation callback
/// for that arity (the other is null).
struct Builtin {
  std::string_view name;
  int arity;
  double (*fn1)(double);
  double (*fn2)(double, double);
};

/// The full table, sorted by name (the order the compiler's per-built-in
/// opcodes follow).
[[nodiscard]] std::span<const Builtin> builtins();

/// Binary search over builtins(); null when `name` is not a built-in.
[[nodiscard]] const Builtin* find_builtin(std::string_view name);

}  // namespace prophet::expr::detail
