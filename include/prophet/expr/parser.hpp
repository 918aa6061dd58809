// Parser for the cost-function expression language.
//
// Grammar (precedence low to high):
//   expr        := ternary
//   ternary     := or ('?' expr ':' ternary)?
//   or          := and ('||' and)*
//   and         := equality ('&&' equality)*
//   equality    := relational (('=='|'!=') relational)*
//   relational  := additive (('<'|'<='|'>'|'>=') additive)*
//   additive    := multiplicative (('+'|'-') multiplicative)*
//   multiplicative := unary (('*'|'/'|'%') unary)*
//   unary       := ('-'|'!') unary | primary
//   primary     := NUMBER | NAME | NAME '(' args? ')' | '(' expr ')'
//   args        := expr (',' expr)*
//
// Numbers: decimal integers and floats with optional exponent
// (1, 2.5, 1e-6, 0.25E+3). Names: [A-Za-z_][A-Za-z0-9_]*.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "prophet/expr/ast.hpp"

namespace prophet::expr {

/// Error thrown on malformed expressions; carries the 0-based offset of
/// the offending token within the input string.
class SyntaxError : public std::runtime_error {
 public:
  SyntaxError(const std::string& message, std::size_t offset);
  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// Parses a single complete expression. Throws SyntaxError.
[[nodiscard]] ExprPtr parse(std::string_view text);

}  // namespace prophet::expr
