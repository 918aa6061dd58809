#include "prophet/expr/parser.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <vector>

namespace prophet::expr {
namespace {

enum class TokenKind {
  Number,
  Name,
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  Lt,
  Le,
  Gt,
  Ge,
  EqEq,
  NotEq,
  AndAnd,
  OrOr,
  Bang,
  Question,
  Colon,
  Comma,
  LParen,
  RParen,
  End,
};

struct Token {
  TokenKind kind;
  std::string text;
  double number = 0.0;
  std::size_t offset = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  std::vector<Token> tokenize() {
    std::vector<Token> tokens;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '.' && pos_ + 1 < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))) {
        tokens.push_back(lex_number());
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        tokens.push_back(lex_name());
        continue;
      }
      tokens.push_back(lex_operator());
    }
    tokens.push_back({TokenKind::End, "", 0.0, text_.size()});
    return tokens;
  }

 private:
  Token lex_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      std::size_t exp = pos_ + 1;
      if (exp < text_.size() && (text_[exp] == '+' || text_[exp] == '-')) {
        ++exp;
      }
      if (exp < text_.size() &&
          std::isdigit(static_cast<unsigned char>(text_[exp]))) {
        pos_ = exp;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          ++pos_;
        }
      }
    }
    const std::string spelled(text_.substr(start, pos_ - start));
    // std::from_chars for doubles is incomplete on some libstdc++
    // versions; strtod on a NUL-terminated copy is portable and exact.
    const double value = std::strtod(spelled.c_str(), nullptr);
    return {TokenKind::Number, spelled, value, start};
  }

  Token lex_name() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    return {TokenKind::Name, std::string(text_.substr(start, pos_ - start)),
            0.0, start};
  }

  Token lex_operator() {
    const std::size_t start = pos_;
    auto two = [&](char a, char b) {
      return text_[pos_] == a && pos_ + 1 < text_.size() &&
             text_[pos_ + 1] == b;
    };
    auto make = [&](TokenKind kind, std::size_t len) {
      Token token{kind, std::string(text_.substr(start, len)), 0.0, start};
      pos_ += len;
      return token;
    };
    if (two('<', '=')) return make(TokenKind::Le, 2);
    if (two('>', '=')) return make(TokenKind::Ge, 2);
    if (two('=', '=')) return make(TokenKind::EqEq, 2);
    if (two('!', '=')) return make(TokenKind::NotEq, 2);
    if (two('&', '&')) return make(TokenKind::AndAnd, 2);
    if (two('|', '|')) return make(TokenKind::OrOr, 2);
    switch (text_[pos_]) {
      case '+':
        return make(TokenKind::Plus, 1);
      case '-':
        return make(TokenKind::Minus, 1);
      case '*':
        return make(TokenKind::Star, 1);
      case '/':
        return make(TokenKind::Slash, 1);
      case '%':
        return make(TokenKind::Percent, 1);
      case '<':
        return make(TokenKind::Lt, 1);
      case '>':
        return make(TokenKind::Gt, 1);
      case '!':
        return make(TokenKind::Bang, 1);
      case '?':
        return make(TokenKind::Question, 1);
      case ':':
        return make(TokenKind::Colon, 1);
      case ',':
        return make(TokenKind::Comma, 1);
      case '(':
        return make(TokenKind::LParen, 1);
      case ')':
        return make(TokenKind::RParen, 1);
      default:
        throw SyntaxError(std::string("unexpected character '") +
                              text_[pos_] + "'",
                          start);
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  ExprPtr parse_expression() {
    ExprPtr expr = parse_ternary();
    expect(TokenKind::End, "end of expression");
    return expr;
  }

 private:
  const Token& peek() const { return tokens_[pos_]; }
  const Token& advance() { return tokens_[pos_++]; }

  bool match(TokenKind kind) {
    if (peek().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(TokenKind kind, std::string_view what) {
    if (!match(kind)) {
      throw SyntaxError("expected " + std::string(what) + " but found '" +
                            (peek().kind == TokenKind::End ? "<end>"
                                                           : peek().text) +
                            "'",
                        peek().offset);
    }
  }

  ExprPtr parse_ternary() {
    ExprPtr cond = parse_or();
    if (!match(TokenKind::Question)) {
      return cond;
    }
    ExprPtr then = parse_ternary();
    expect(TokenKind::Colon, "':'");
    ExprPtr otherwise = parse_ternary();
    return std::make_unique<ConditionalExpr>(std::move(cond), std::move(then),
                                             std::move(otherwise));
  }

  ExprPtr parse_or() {
    ExprPtr lhs = parse_and();
    while (match(TokenKind::OrOr)) {
      lhs = std::make_unique<BinaryExpr>(BinaryOp::Or, std::move(lhs),
                                         parse_and());
    }
    return lhs;
  }

  ExprPtr parse_and() {
    ExprPtr lhs = parse_equality();
    while (match(TokenKind::AndAnd)) {
      lhs = std::make_unique<BinaryExpr>(BinaryOp::And, std::move(lhs),
                                         parse_equality());
    }
    return lhs;
  }

  ExprPtr parse_equality() {
    ExprPtr lhs = parse_relational();
    for (;;) {
      if (match(TokenKind::EqEq)) {
        lhs = std::make_unique<BinaryExpr>(BinaryOp::Eq, std::move(lhs),
                                           parse_relational());
      } else if (match(TokenKind::NotEq)) {
        lhs = std::make_unique<BinaryExpr>(BinaryOp::Ne, std::move(lhs),
                                           parse_relational());
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parse_relational() {
    ExprPtr lhs = parse_additive();
    for (;;) {
      if (match(TokenKind::Lt)) {
        lhs = std::make_unique<BinaryExpr>(BinaryOp::Lt, std::move(lhs),
                                           parse_additive());
      } else if (match(TokenKind::Le)) {
        lhs = std::make_unique<BinaryExpr>(BinaryOp::Le, std::move(lhs),
                                           parse_additive());
      } else if (match(TokenKind::Gt)) {
        lhs = std::make_unique<BinaryExpr>(BinaryOp::Gt, std::move(lhs),
                                           parse_additive());
      } else if (match(TokenKind::Ge)) {
        lhs = std::make_unique<BinaryExpr>(BinaryOp::Ge, std::move(lhs),
                                           parse_additive());
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parse_additive() {
    ExprPtr lhs = parse_multiplicative();
    for (;;) {
      if (match(TokenKind::Plus)) {
        lhs = std::make_unique<BinaryExpr>(BinaryOp::Add, std::move(lhs),
                                           parse_multiplicative());
      } else if (match(TokenKind::Minus)) {
        lhs = std::make_unique<BinaryExpr>(BinaryOp::Sub, std::move(lhs),
                                           parse_multiplicative());
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parse_multiplicative() {
    ExprPtr lhs = parse_unary();
    for (;;) {
      if (match(TokenKind::Star)) {
        lhs = std::make_unique<BinaryExpr>(BinaryOp::Mul, std::move(lhs),
                                           parse_unary());
      } else if (match(TokenKind::Slash)) {
        lhs = std::make_unique<BinaryExpr>(BinaryOp::Div, std::move(lhs),
                                           parse_unary());
      } else if (match(TokenKind::Percent)) {
        lhs = std::make_unique<BinaryExpr>(BinaryOp::Mod, std::move(lhs),
                                           parse_unary());
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parse_unary() {
    if (match(TokenKind::Minus)) {
      return std::make_unique<UnaryExpr>(UnaryOp::Negate, parse_unary());
    }
    if (match(TokenKind::Bang)) {
      return std::make_unique<UnaryExpr>(UnaryOp::Not, parse_unary());
    }
    if (match(TokenKind::Plus)) {  // unary plus is a no-op
      return parse_unary();
    }
    return parse_primary();
  }

  ExprPtr parse_primary() {
    const Token& token = peek();
    switch (token.kind) {
      case TokenKind::Number: {
        advance();
        return std::make_unique<NumberExpr>(token.number);
      }
      case TokenKind::Name: {
        advance();
        if (!match(TokenKind::LParen)) {
          return std::make_unique<VariableExpr>(token.text);
        }
        std::vector<ExprPtr> args;
        if (peek().kind != TokenKind::RParen) {
          args.push_back(parse_ternary());
          while (match(TokenKind::Comma)) {
            args.push_back(parse_ternary());
          }
        }
        expect(TokenKind::RParen, "')'");
        return std::make_unique<CallExpr>(token.text, std::move(args));
      }
      case TokenKind::LParen: {
        advance();
        ExprPtr inner = parse_ternary();
        expect(TokenKind::RParen, "')'");
        return inner;
      }
      default:
        throw SyntaxError(
            "expected expression but found '" +
                (token.kind == TokenKind::End ? "<end>" : token.text) + "'",
            token.offset);
    }
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

SyntaxError::SyntaxError(const std::string& message, std::size_t offset)
    : std::runtime_error("expression syntax error at offset " +
                         std::to_string(offset) + ": " + message),
      offset_(offset) {}

ExprPtr parse(std::string_view text) {
  return Parser(Lexer(text).tokenize()).parse_expression();
}

}  // namespace prophet::expr
