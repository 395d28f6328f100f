// Lexer for the P-NUT expression language (Section 3) and the query
// language (Section 4.4). One token stream serves both: predicates/actions
// attached to transitions, and tracertool / reachability-analyzer queries
// such as `forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]`.
//
// A quirk inherited from the paper: identifiers may contain '-'
// (`number-of-operands-needed`). The lexer folds `a-b` into one identifier,
// so binary minus must be written with whitespace: `a - b`. Underscore
// names avoid the issue entirely.
//
// Every token carries its 1-based line:column position alongside the raw
// byte offset, and ParseError carries all three — diagnostics render as
// `line:col` with a caret snippet (render_caret) instead of a bare offset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pnut::expr {

enum class TokenKind : std::uint8_t {
  kIdentifier,
  kNumber,
  kPlus,          // +
  kMinus,         // -
  kStar,          // *
  kSlash,         // /
  kPercent,       // %
  kAssignOrEq,    // =   (assignment in statements, equality in expressions)
  kEq,            // ==
  kNe,            // !=
  kLt,            // <
  kLe,            // <=
  kGt,            // >
  kGe,            // >=
  kAnd,           // && or 'and'
  kOr,            // || or 'or'
  kNot,           // !  or 'not'
  kLParen,        // (
  kRParen,        // )
  kLBracket,      // [
  kRBracket,      // ]
  kLBrace,        // {
  kRBrace,        // }
  kComma,         // ,
  kSemicolon,     // ;
  kHash,          // #   (state references: #0)
  kPipe,          // |   (set-builder: { s' in S | ... })
  kPrime,         // '   (primed variables: s')
  kLet,           // let (local binding / local array declaration)
  kFn,            // fn  (user-defined function)
  kFor,           // for (bounded loop)
  kTo,            // to  (loop upper bound)
  kReturn,        // return (function result)
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;         ///< identifier text or number spelling
  std::int64_t number = 0;  ///< value for kNumber
  std::size_t offset = 0;   ///< byte offset in the source
  std::uint32_t line = 1;   ///< 1-based source line
  std::uint32_t col = 1;    ///< 1-based column on that line
};

/// Thrown on any lexical or syntax error; carries the byte offset plus the
/// 1-based line:column position (0:0 when the thrower had no position).
class ParseError : public std::runtime_error {
 public:
  ParseError(std::string message, std::size_t offset, std::uint32_t line = 0,
             std::uint32_t col = 0)
      : std::runtime_error(std::move(message)),
        offset_(offset),
        line_(line),
        col_(col) {}
  [[nodiscard]] std::size_t offset() const { return offset_; }
  [[nodiscard]] std::uint32_t line() const { return line_; }
  [[nodiscard]] std::uint32_t col() const { return col_; }

 private:
  std::size_t offset_;
  std::uint32_t line_;
  std::uint32_t col_;
};

/// Tokenize the whole input. Keywords `and`, `or`, `not`, `let`, `fn`,
/// `for`, `to`, `return` become dedicated tokens; every other word is an
/// identifier.
std::vector<Token> tokenize(std::string_view source);

/// Human-readable token-kind name for diagnostics.
std::string_view token_kind_name(TokenKind kind);

/// Longest source line a caret snippet shows whole.
inline constexpr std::size_t kMaxCaretLine = 160;

/// One-line caret snippet for a diagnostic at `line`:`col` (1-based) of
/// `source`: the offending source line followed by a line with '^' under
/// the column. A line longer than kMaxCaretLine bytes is cut to a
/// kMaxCaretLine-byte window around the column, with "..." where it was
/// cut, so a diagnostic stays small however long the line. Returns an
/// empty string when the position is 0 or past the end of the source.
std::string render_caret(std::string_view source, std::uint32_t line,
                         std::uint32_t col);

/// `line:col: message` plus the caret snippet — the uniform rendering the
/// CLI uses for expression diagnostics.
std::string format_diagnostic(std::string_view source, const ParseError& error);

}  // namespace pnut::expr
