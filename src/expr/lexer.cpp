#include "expr/lexer.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>

namespace pnut::expr {

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

}  // namespace

std::vector<Token> tokenize(std::string_view src) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  const std::size_t n = src.size();
  std::uint32_t line = 1;
  std::size_t line_start = 0;  // byte offset of the current line's first char

  const auto col_of = [&](std::size_t offset) {
    return static_cast<std::uint32_t>(offset - line_start + 1);
  };

  auto push = [&](TokenKind kind, std::size_t offset, std::string text = {}) {
    Token t;
    t.kind = kind;
    t.text = std::move(text);
    t.offset = offset;
    t.line = line;
    t.col = col_of(offset);
    tokens.push_back(std::move(t));
  };

  while (i < n) {
    const char c = src[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (c == '\n') {
        ++line;
        line_start = i + 1;
      }
      ++i;
      continue;
    }
    // Comments: '--' would collide with the paper's typo for '==' so we use
    // '//' to end of line.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    const std::size_t start = i;

    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t j = i;
      while (j < n && std::isdigit(static_cast<unsigned char>(src[j])) != 0) ++j;
      Token t;
      t.kind = TokenKind::kNumber;
      t.text = std::string(src.substr(i, j - i));
      try {
        t.number = std::stoll(t.text);
      } catch (const std::out_of_range&) {
        throw ParseError("number literal out of 64-bit range: " + t.text, start,
                         line, col_of(start));
      }
      t.offset = start;
      t.line = line;
      t.col = col_of(start);
      tokens.push_back(std::move(t));
      i = j;
      continue;
    }

    if (is_ident_start(c)) {
      std::size_t j = i;
      while (j < n) {
        if (is_ident_char(src[j])) {
          ++j;
        } else if (src[j] == '-' && j + 1 < n && is_ident_char(src[j + 1])) {
          // Paper-style dashed identifier: consume '-' only when glued to
          // another identifier character on both sides.
          j += 2;
        } else {
          break;
        }
      }
      std::string word(src.substr(i, j - i));
      if (word == "and") {
        push(TokenKind::kAnd, start);
      } else if (word == "or") {
        push(TokenKind::kOr, start);
      } else if (word == "not") {
        push(TokenKind::kNot, start);
      } else if (word == "let") {
        push(TokenKind::kLet, start);
      } else if (word == "fn") {
        push(TokenKind::kFn, start);
      } else if (word == "for") {
        push(TokenKind::kFor, start);
      } else if (word == "to") {
        push(TokenKind::kTo, start);
      } else if (word == "return") {
        push(TokenKind::kReturn, start);
      } else {
        push(TokenKind::kIdentifier, start, std::move(word));
      }
      i = j;
      continue;
    }

    switch (c) {
      case '+': push(TokenKind::kPlus, start); ++i; break;
      case '-': push(TokenKind::kMinus, start); ++i; break;
      case '*': push(TokenKind::kStar, start); ++i; break;
      case '/': push(TokenKind::kSlash, start); ++i; break;
      case '%': push(TokenKind::kPercent, start); ++i; break;
      case '(': push(TokenKind::kLParen, start); ++i; break;
      case ')': push(TokenKind::kRParen, start); ++i; break;
      case '[': push(TokenKind::kLBracket, start); ++i; break;
      case ']': push(TokenKind::kRBracket, start); ++i; break;
      case '{': push(TokenKind::kLBrace, start); ++i; break;
      case '}': push(TokenKind::kRBrace, start); ++i; break;
      case ',': push(TokenKind::kComma, start); ++i; break;
      case ';': push(TokenKind::kSemicolon, start); ++i; break;
      case '#': push(TokenKind::kHash, start); ++i; break;
      case '\'': push(TokenKind::kPrime, start); ++i; break;
      case '=':
        if (i + 1 < n && src[i + 1] == '=') {
          push(TokenKind::kEq, start);
          i += 2;
        } else {
          push(TokenKind::kAssignOrEq, start);
          ++i;
        }
        break;
      case '!':
        if (i + 1 < n && src[i + 1] == '=') {
          push(TokenKind::kNe, start);
          i += 2;
        } else {
          push(TokenKind::kNot, start);
          ++i;
        }
        break;
      case '<':
        if (i + 1 < n && src[i + 1] == '=') {
          push(TokenKind::kLe, start);
          i += 2;
        } else if (i + 1 < n && src[i + 1] == '>') {
          push(TokenKind::kNe, start);
          i += 2;
        } else {
          push(TokenKind::kLt, start);
          ++i;
        }
        break;
      case '>':
        if (i + 1 < n && src[i + 1] == '=') {
          push(TokenKind::kGe, start);
          i += 2;
        } else {
          push(TokenKind::kGt, start);
          ++i;
        }
        break;
      case '&':
        if (i + 1 < n && src[i + 1] == '&') {
          push(TokenKind::kAnd, start);
          i += 2;
        } else {
          throw ParseError("stray '&' (use '&&' or 'and')", start, line,
                           col_of(start));
        }
        break;
      case '|':
        if (i + 1 < n && src[i + 1] == '|') {
          push(TokenKind::kOr, start);
          i += 2;
        } else {
          push(TokenKind::kPipe, start);
          ++i;
        }
        break;
      default:
        throw ParseError(std::string("unexpected character '") + c + "'", start,
                         line, col_of(start));
    }
  }

  push(TokenKind::kEnd, n);
  return tokens;
}

std::string_view token_kind_name(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kNumber: return "number";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kMinus: return "'-'";
    case TokenKind::kStar: return "'*'";
    case TokenKind::kSlash: return "'/'";
    case TokenKind::kPercent: return "'%'";
    case TokenKind::kAssignOrEq: return "'='";
    case TokenKind::kEq: return "'=='";
    case TokenKind::kNe: return "'!='";
    case TokenKind::kLt: return "'<'";
    case TokenKind::kLe: return "'<='";
    case TokenKind::kGt: return "'>'";
    case TokenKind::kGe: return "'>='";
    case TokenKind::kAnd: return "'&&'";
    case TokenKind::kOr: return "'||'";
    case TokenKind::kNot: return "'!'";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBracket: return "'['";
    case TokenKind::kRBracket: return "']'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kComma: return "','";
    case TokenKind::kSemicolon: return "';'";
    case TokenKind::kHash: return "'#'";
    case TokenKind::kPipe: return "'|'";
    case TokenKind::kPrime: return "'''";
    case TokenKind::kLet: return "'let'";
    case TokenKind::kFn: return "'fn'";
    case TokenKind::kFor: return "'for'";
    case TokenKind::kTo: return "'to'";
    case TokenKind::kReturn: return "'return'";
    case TokenKind::kEnd: return "end of input";
  }
  return "?";
}

std::string render_caret(std::string_view source, std::uint32_t line,
                         std::uint32_t col) {
  if (line == 0 || col == 0) return {};
  std::size_t begin = 0;
  for (std::uint32_t current = 1; current < line; ++current) {
    const std::size_t nl = source.find('\n', begin);
    if (nl == std::string_view::npos) return {};
    begin = nl + 1;
  }
  std::size_t end = source.find('\n', begin);
  if (end == std::string_view::npos) end = source.size();
  // col may point one past the line's end (errors at end of input).
  if (col > end - begin + 1) return {};
  const std::string_view text = source.substr(begin, end - begin);
  std::size_t caret = col - 1;
  std::string out;
  if (text.size() <= kMaxCaretLine) {
    out = text;
  } else {
    const std::size_t start =
        std::min(caret > kMaxCaretLine / 2 ? caret - kMaxCaretLine / 2 : 0,
                 text.size() - kMaxCaretLine);
    if (start > 0) out = "...";
    out += text.substr(start, kMaxCaretLine);
    if (start + kMaxCaretLine < text.size()) out += "...";
    caret = caret - start + (start > 0 ? 3 : 0);
  }
  out += '\n';
  out.append(caret, ' ');
  out += '^';
  out += '\n';
  return out;
}

std::string format_diagnostic(std::string_view source, const ParseError& error) {
  std::ostringstream out;
  if (error.line() != 0) {
    out << error.line() << ':' << error.col() << ": ";
  }
  out << error.what() << '\n';
  out << render_caret(source, error.line(), error.col());
  return out.str();
}

}  // namespace pnut::expr
