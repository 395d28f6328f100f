// Recursive-descent parser for the expression language.
//
// Grammar (expressions):
//   expr    := or
//   or      := and (('||' | 'or') and)*
//   and     := rel (('&&' | 'and') rel)*
//   rel     := add (('==' | '=' | '!=' | '<' | '<=' | '>' | '>=') add)?
//   add     := mul (('+' | '-') mul)*
//   mul     := unary (('*' | '/' | '%') unary)*
//   unary   := ('-' | '!' | 'not') unary | primary
//   primary := number | ident | ident '[' expr (',' expr)* ']'
//            | ident '(' expr (',' expr)* ')' | '(' expr ')'
//
// Note the paper writes equality with a single '=' inside predicates
// (`Bus_busy(s) + Bus_free(s) = 1`); at expression level '=' therefore
// parses as equality, while at statement level it is assignment.
//
// Grammar (scripts — action programs and function bodies):
//   program := (fn_def | stmt-list)*
//   fn_def  := 'fn' ident '(' [ident (',' ident)*] ')' block
//   block   := '{' stmt-list '}'
//   stmt-list := (stmt ';')* [stmt]        (';' optional after a for block)
//   stmt    := 'let' ident '=' expr        — bind a new local
//            | 'let' ident '[' number ']'  — zero-filled local array
//            | 'for' ident '=' bound 'to' bound block
//            | 'return' expr               — fn bodies only
//            | ident '=' expr | ident '[' expr ']' '=' expr
//   bound   := ['-'] number                — literal, so loops are bounded
//
// All script name resolution is static: the parser assigns dense frame
// slots to locals, checks function arity against the library, marks each
// assignment local or data-bound, and enforces the compile-time budgets
// below, so every evaluator sees the same resolved, budgeted tree. Function
// bodies may only assign locals, and a function may only call functions
// defined earlier, so evaluation is total.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "expr/ast.h"
#include "expr/lexer.h"

namespace pnut::expr {

/// Compile-time budgets: every local array extent and loop trip count is a
/// literal in the source, checked here — a ParseError, not a runtime error,
/// so no evaluator ever meets an over-budget script.
inline constexpr std::int64_t kMaxArrayExtent = std::int64_t{1} << 16;
inline constexpr std::uint64_t kMaxLoopTrips = std::uint64_t{1} << 16;
/// Ceiling on one frame's total local slots (arrays are slot ranges).
inline constexpr std::uint32_t kMaxFrameSlots = std::uint32_t{1} << 20;
/// Nesting budget: parenthesized groups and call arguments, unary
/// operators, chained binary operators (each one deepens the tree) and
/// `for` blocks together may nest at most this deep. The parser, the
/// bytecode compiler, AST printing and AST teardown all recurse once per
/// level, so the budget bounds their stack use; deeper
/// input is a ParseError like any other syntax error.
inline constexpr std::size_t kMaxNestingDepth = 256;

/// Parse a single expression; the entire input must be consumed. `library`
/// makes user-defined functions callable from the expression (delay
/// expressions in `.pn` documents pass the document's `fn` declarations).
NodePtr parse_expression(std::string_view source,
                         const FunctionLibrary* library = nullptr);

/// Parse a script: assignment statements, `let`s, bounded `for` loops and
/// local `fn` definitions. `library` supplies ambient functions (a `.pn`
/// document's `fn` declarations); script-local definitions extend it.
Program parse_program(std::string_view source,
                      const FunctionLibrary* library = nullptr);

/// Parse exactly one `fn name(params) { body }` definition (a `.pn` `fn`
/// declaration). The definition may call functions in `library`; its
/// `index` is set to library->functions.size() so the caller can append it.
std::shared_ptr<const FunctionDef> parse_function(
    std::string_view source, const FunctionLibrary* library = nullptr);

/// Token-stream parser, exposed so the query language (src/analysis) can
/// embed expression parsing inside its own grammar.
class Parser {
 public:
  explicit Parser(const std::vector<Token>& tokens,
                  const FunctionLibrary* library = nullptr)
      : tokens_(&tokens), library_(library) {}

  [[nodiscard]] const Token& peek(std::size_t lookahead = 0) const;
  const Token& advance();
  bool match(TokenKind kind);
  const Token& expect(TokenKind kind, std::string_view what);
  [[noreturn]] void fail(std::string_view message) const;
  /// As fail(), but positioned at `at` instead of the current token.
  [[noreturn]] void fail_at(const Token& at, std::string_view message) const;

  /// Parse one expression starting at the current position.
  NodePtr parse_expr();
  /// Parse a whole script body up to end of input (see parse_program).
  Program parse_program_body();
  /// Parse one `fn` definition starting at the current 'fn' token.
  std::shared_ptr<const FunctionDef> parse_fn_def();

 private:
  NodePtr parse_or();
  NodePtr parse_and();
  NodePtr parse_rel();
  NodePtr parse_add();
  NodePtr parse_mul();
  NodePtr parse_unary();
  NodePtr parse_primary();

  /// Count one more nesting level (see kMaxNestingDepth); a ParseError at
  /// the current token past the budget.
  void nest();
  /// Restores the nesting depth when the production holding it returns:
  /// the levels a production adds last exactly as long as its subtree.
  struct DepthScope {
    explicit DepthScope(Parser& p) : parser(p), saved(p.depth_) {}
    ~DepthScope() { parser.depth_ = saved; }
    Parser& parser;
    std::size_t saved;
  };

  Statement parse_statement();
  Statement parse_let();
  Statement parse_for();
  void parse_block_into(std::vector<Statement>& body);
  std::int64_t parse_bound();

  /// A local visible at the current parse position.
  struct LocalBinding {
    std::string name;
    std::int32_t slot = -1;
    std::int64_t extent = 0;  ///< > 0 for arrays
    bool is_array = false;
    bool is_loop_var = false;
    std::size_t scope = 0;  ///< scope depth it was declared in
  };

  [[nodiscard]] const LocalBinding* find_local(std::string_view name) const;
  [[nodiscard]] std::shared_ptr<const FunctionDef> lookup_fn(
      std::string_view name) const;
  std::int32_t alloc_slots(std::int64_t count, const Token& at);
  std::int32_t declare_local(const Token& name_token, std::int64_t extent,
                             bool is_array, bool is_loop_var);

  const std::vector<Token>* tokens_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< current nesting level

  // --- script state (inert when only parse_expr is used, e.g. queries) ---
  const FunctionLibrary* library_;  ///< ambient functions, may be null
  std::vector<std::shared_ptr<const FunctionDef>> local_fns_;
  std::vector<LocalBinding> locals_;
  std::size_t scope_depth_ = 0;
  std::uint32_t next_slot_ = 0;
  bool in_fn_ = false;
  std::string current_fn_;  ///< name of the fn being parsed, for diagnostics
};

}  // namespace pnut::expr
