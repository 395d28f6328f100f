#include "expr/parser.h"

#include <string>
#include <utility>

namespace pnut::expr {

namespace {

bool is_builtin_name(std::string_view name) {
  return name == "irand" || name == "min" || name == "max" || name == "abs";
}

}  // namespace

const Token& Parser::peek(std::size_t lookahead) const {
  const std::size_t i = pos_ + lookahead;
  return i < tokens_->size() ? (*tokens_)[i] : tokens_->back();
}

const Token& Parser::advance() {
  const Token& t = peek();
  if (t.kind != TokenKind::kEnd) ++pos_;
  return t;
}

bool Parser::match(TokenKind kind) {
  if (peek().kind == kind) {
    advance();
    return true;
  }
  return false;
}

const Token& Parser::expect(TokenKind kind, std::string_view what) {
  if (peek().kind != kind) {
    fail("expected " + std::string(token_kind_name(kind)) + " " + std::string(what) +
         ", got " + std::string(token_kind_name(peek().kind)));
  }
  return advance();
}

void Parser::fail(std::string_view message) const { fail_at(peek(), message); }

void Parser::fail_at(const Token& at, std::string_view message) const {
  throw ParseError(std::string(message), at.offset, at.line, at.col);
}

void Parser::nest() {
  if (++depth_ > kMaxNestingDepth) {
    fail("nested more than " + std::to_string(kMaxNestingDepth) + " levels deep");
  }
}

NodePtr Parser::parse_expr() {
  const DepthScope scope(*this);
  nest();
  return parse_or();
}

NodePtr Parser::parse_or() {
  const DepthScope scope(*this);
  NodePtr lhs = parse_and();
  while (peek().kind == TokenKind::kOr) {
    nest();
    advance();
    lhs = std::make_unique<BinaryNode>(BinaryOp::kOr, std::move(lhs), parse_and());
  }
  return lhs;
}

NodePtr Parser::parse_and() {
  const DepthScope scope(*this);
  NodePtr lhs = parse_rel();
  while (peek().kind == TokenKind::kAnd) {
    nest();
    advance();
    lhs = std::make_unique<BinaryNode>(BinaryOp::kAnd, std::move(lhs), parse_rel());
  }
  return lhs;
}

NodePtr Parser::parse_rel() {
  const DepthScope scope(*this);
  NodePtr lhs = parse_add();
  BinaryOp op;
  switch (peek().kind) {
    case TokenKind::kEq:
    case TokenKind::kAssignOrEq: op = BinaryOp::kEq; break;
    case TokenKind::kNe: op = BinaryOp::kNe; break;
    case TokenKind::kLt: op = BinaryOp::kLt; break;
    case TokenKind::kLe: op = BinaryOp::kLe; break;
    case TokenKind::kGt: op = BinaryOp::kGt; break;
    case TokenKind::kGe: op = BinaryOp::kGe; break;
    default: return lhs;
  }
  nest();
  advance();
  return std::make_unique<BinaryNode>(op, std::move(lhs), parse_add());
}

NodePtr Parser::parse_add() {
  const DepthScope scope(*this);
  NodePtr lhs = parse_mul();
  while (peek().kind == TokenKind::kPlus || peek().kind == TokenKind::kMinus) {
    nest();
    const BinaryOp op = advance().kind == TokenKind::kPlus ? BinaryOp::kAdd : BinaryOp::kSub;
    lhs = std::make_unique<BinaryNode>(op, std::move(lhs), parse_mul());
  }
  return lhs;
}

NodePtr Parser::parse_mul() {
  const DepthScope scope(*this);
  NodePtr lhs = parse_unary();
  while (true) {
    BinaryOp op;
    switch (peek().kind) {
      case TokenKind::kStar: op = BinaryOp::kMul; break;
      case TokenKind::kSlash: op = BinaryOp::kDiv; break;
      case TokenKind::kPercent: op = BinaryOp::kMod; break;
      default: return lhs;
    }
    nest();
    advance();
    lhs = std::make_unique<BinaryNode>(op, std::move(lhs), parse_unary());
  }
}

NodePtr Parser::parse_unary() {
  if (peek().kind != TokenKind::kMinus && peek().kind != TokenKind::kNot) {
    return parse_primary();
  }
  const DepthScope scope(*this);
  nest();
  const UnaryOp op = advance().kind == TokenKind::kMinus ? UnaryOp::kNeg : UnaryOp::kNot;
  return std::make_unique<UnaryNode>(op, parse_unary());
}

NodePtr Parser::parse_primary() {
  const Token& t = peek();
  if (t.kind == TokenKind::kNumber) {
    advance();
    return std::make_unique<NumberNode>(t.number);
  }
  if (t.kind == TokenKind::kLParen) {
    advance();
    NodePtr inner = parse_expr();
    expect(TokenKind::kRParen, "to close parenthesized expression");
    return inner;
  }
  if (t.kind == TokenKind::kIdentifier) {
    const Token& name_token = t;
    std::string name = t.text;
    advance();
    // Call or table access: name[...] (paper style) or name(...).
    if (peek().kind == TokenKind::kLBracket || peek().kind == TokenKind::kLParen) {
      const bool bracket = peek().kind == TokenKind::kLBracket;
      advance();
      std::vector<NodePtr> args;
      const TokenKind closer = bracket ? TokenKind::kRBracket : TokenKind::kRParen;
      if (peek().kind != closer) {
        args.push_back(parse_expr());
        while (match(TokenKind::kComma)) args.push_back(parse_expr());
      }
      expect(closer, "to close argument list");
      auto call = std::make_unique<CallNode>(std::move(name), std::move(args));
      // Static resolution: innermost local array, then user functions.
      // Builtins, resolver hooks and data tables stay dynamic, as before.
      if (const LocalBinding* local = find_local(call->name())) {
        if (local->is_array) {
          if (call->args().size() != 1) {
            fail_at(name_token, "array '" + call->name() + "' expects 1 index, got " +
                                    std::to_string(call->args().size()));
          }
          call->resolve_local_array(local->slot, local->extent);
          return call;
        }
        fail_at(name_token,
                "local '" + call->name() + "' is not an array or function");
      }
      if (!is_builtin_name(call->name())) {
        if (auto fn = lookup_fn(call->name())) {
          if (call->args().size() != fn->params.size()) {
            fail_at(name_token,
                    call->name() + " expects " + std::to_string(fn->params.size()) +
                        (fn->params.size() == 1 ? " argument" : " arguments") +
                        ", got " + std::to_string(call->args().size()));
          }
          call->resolve_function(std::move(fn));
          return call;
        }
        if (in_fn_ && call->name() == current_fn_) {
          fail_at(name_token, "recursive call to '" + call->name() +
                                  "' (functions may only call earlier definitions)");
        }
      }
      return call;
    }
    if (const LocalBinding* local = find_local(name)) {
      if (local->is_array) {
        fail_at(name_token,
                "array '" + name + "' cannot be read without an index");
      }
      return std::make_unique<IdentifierNode>(std::move(name), local->slot);
    }
    return std::make_unique<IdentifierNode>(std::move(name));
  }
  fail("expected an expression");
}

// --- script productions -----------------------------------------------------

const Parser::LocalBinding* Parser::find_local(std::string_view name) const {
  for (auto it = locals_.rbegin(); it != locals_.rend(); ++it) {
    if (it->name == name) return &*it;
  }
  return nullptr;
}

std::shared_ptr<const FunctionDef> Parser::lookup_fn(std::string_view name) const {
  for (auto it = local_fns_.rbegin(); it != local_fns_.rend(); ++it) {
    if ((*it)->name == name) return *it;
  }
  if (library_ != nullptr) {
    if (const auto* found = library_->find(name)) return *found;
  }
  return nullptr;
}

std::int32_t Parser::alloc_slots(std::int64_t count, const Token& at) {
  if (count > static_cast<std::int64_t>(kMaxFrameSlots) ||
      next_slot_ > kMaxFrameSlots - static_cast<std::uint32_t>(count)) {
    fail_at(at, "local frame exceeds the slot budget (" +
                    std::to_string(kMaxFrameSlots) + " slots)");
  }
  const auto base = static_cast<std::int32_t>(next_slot_);
  next_slot_ += static_cast<std::uint32_t>(count);
  return base;
}

std::int32_t Parser::declare_local(const Token& name_token, std::int64_t extent,
                                   bool is_array, bool is_loop_var) {
  const std::string& name = name_token.text;
  if (is_builtin_name(name)) {
    fail_at(name_token, "cannot shadow builtin '" + name + "'");
  }
  for (auto it = locals_.rbegin(); it != locals_.rend(); ++it) {
    if (it->scope < scope_depth_) break;  // outer scopes may be shadowed
    if (it->name == name) {
      fail_at(name_token, "duplicate local '" + name + "' in this scope");
    }
  }
  LocalBinding binding;
  binding.name = name;
  binding.slot = alloc_slots(is_array ? extent : 1, name_token);
  binding.extent = extent;
  binding.is_array = is_array;
  binding.is_loop_var = is_loop_var;
  binding.scope = scope_depth_;
  locals_.push_back(std::move(binding));
  return locals_.back().slot;
}

std::int64_t Parser::parse_bound() {
  const bool negative = match(TokenKind::kMinus);
  const Token& number = expect(TokenKind::kNumber, "as loop bound");
  return negative ? wrap_neg(number.number) : number.number;
}

Statement Parser::parse_let() {
  advance();  // 'let'
  Statement stmt;
  const Token& name_token = expect(TokenKind::kIdentifier, "as let binding name");
  stmt.target = name_token.text;
  if (match(TokenKind::kLBracket)) {
    const Token& extent = expect(TokenKind::kNumber, "as array extent");
    if (extent.number < 1) {
      fail_at(extent, "array extent must be at least 1, got " + extent.text);
    }
    if (extent.number > kMaxArrayExtent) {
      fail_at(extent, "array extent " + extent.text + " exceeds the bound (" +
                          std::to_string(kMaxArrayExtent) + ")");
    }
    expect(TokenKind::kRBracket, "to close array extent");
    stmt.kind = Statement::Kind::kLetArray;
    stmt.extent = extent.number;
    stmt.slot = declare_local(name_token, extent.number, /*is_array=*/true,
                              /*is_loop_var=*/false);
    return stmt;
  }
  expect(TokenKind::kAssignOrEq, "in let binding");
  // The binding becomes visible only after its initializer: in
  // `let x = x + 1` the right-hand `x` is the outer (or data) x.
  stmt.value = parse_expr();
  stmt.kind = Statement::Kind::kLet;
  stmt.slot = declare_local(name_token, 0, /*is_array=*/false, /*is_loop_var=*/false);
  return stmt;
}

Statement Parser::parse_for() {
  const DepthScope scope(*this);
  nest();
  const Token& for_token = advance();  // 'for'
  Statement stmt;
  stmt.kind = Statement::Kind::kFor;
  const Token& var_token = expect(TokenKind::kIdentifier, "as loop variable");
  stmt.target = var_token.text;
  expect(TokenKind::kAssignOrEq, "in loop bounds");
  stmt.lo = parse_bound();
  expect(TokenKind::kTo, "between loop bounds");
  stmt.hi = parse_bound();
  if (stmt.lo > stmt.hi) {
    stmt.trip_count = 0;  // an empty loop is legal, like an empty range
  } else {
    stmt.trip_count = static_cast<std::uint64_t>(stmt.hi) -
                      static_cast<std::uint64_t>(stmt.lo) + 1;
  }
  if (stmt.trip_count > kMaxLoopTrips) {
    fail_at(for_token, "loop from " + std::to_string(stmt.lo) + " to " +
                           std::to_string(stmt.hi) + " runs " +
                           std::to_string(stmt.trip_count) +
                           " iterations, exceeding the bound (" +
                           std::to_string(kMaxLoopTrips) + ")");
  }
  const std::size_t scope_mark = locals_.size();
  ++scope_depth_;
  stmt.slot = declare_local(var_token, 0, /*is_array=*/false, /*is_loop_var=*/true);
  // Hidden trip counter: the VM counts iterations here instead of comparing
  // the loop variable, so `hi` at the int64 edge cannot wrap a comparison.
  stmt.counter_slot = alloc_slots(1, for_token);
  parse_block_into(stmt.body);
  --scope_depth_;
  locals_.resize(scope_mark);
  return stmt;
}

Statement Parser::parse_statement() {
  switch (peek().kind) {
    case TokenKind::kLet: return parse_let();
    case TokenKind::kFor: return parse_for();
    case TokenKind::kReturn: {
      if (!in_fn_) fail("'return' outside a function body");
      advance();
      Statement stmt;
      stmt.kind = Statement::Kind::kReturn;
      stmt.value = parse_expr();
      return stmt;
    }
    case TokenKind::kFn:
      fail("fn definitions are only allowed at the top level of a script");
    default: break;
  }
  Statement stmt;
  const Token& name_token = expect(TokenKind::kIdentifier, "as assignment target");
  stmt.target = name_token.text;
  if (match(TokenKind::kLBracket)) {
    stmt.index = parse_expr();
    expect(TokenKind::kRBracket, "to close table index");
  }
  expect(TokenKind::kAssignOrEq, "in assignment");
  stmt.value = parse_expr();
  if (const LocalBinding* local = find_local(stmt.target)) {
    if (local->is_loop_var) {
      fail_at(name_token, "cannot assign to loop variable '" + stmt.target + "'");
    }
    if (local->is_array && !stmt.index) {
      fail_at(name_token,
              "array '" + stmt.target + "' cannot be assigned without an index");
    }
    if (!local->is_array && stmt.index) {
      fail_at(name_token, "local '" + stmt.target + "' is not an array");
    }
    stmt.slot = local->slot;
    stmt.extent = local->extent;
  } else if (in_fn_) {
    fail_at(name_token, "fn bodies may only assign locals ('" + stmt.target +
                            "' is not a parameter or let)");
  }
  return stmt;
}

void Parser::parse_block_into(std::vector<Statement>& body) {
  expect(TokenKind::kLBrace, "to open block");
  while (peek().kind != TokenKind::kRBrace && peek().kind != TokenKind::kEnd) {
    Statement stmt = parse_statement();
    const bool block_statement = stmt.kind == Statement::Kind::kFor;
    body.push_back(std::move(stmt));
    if (!match(TokenKind::kSemicolon) && !block_statement) break;
  }
  expect(TokenKind::kRBrace, "to close block");
}

std::shared_ptr<const FunctionDef> Parser::parse_fn_def() {
  match(TokenKind::kFn);  // a `.pn` `fn "..."` string omits the keyword
  const Token& name_token = expect(TokenKind::kIdentifier, "as function name");
  if (is_builtin_name(name_token.text)) {
    fail_at(name_token, "cannot redefine builtin '" + name_token.text + "'");
  }
  if (lookup_fn(name_token.text)) {
    fail_at(name_token, "duplicate function '" + name_token.text + "'");
  }
  auto def = std::make_shared<FunctionDef>();
  def->name = name_token.text;
  expect(TokenKind::kLParen, "to open parameter list");
  if (peek().kind != TokenKind::kRParen) {
    do {
      const Token& param = expect(TokenKind::kIdentifier, "as parameter name");
      if (is_builtin_name(param.text)) {
        fail_at(param, "cannot shadow builtin '" + param.text + "'");
      }
      for (const std::string& existing : def->params) {
        if (existing == param.text) {
          fail_at(param, "duplicate parameter '" + param.text + "'");
        }
      }
      def->params.push_back(param.text);
    } while (match(TokenKind::kComma));
  }
  expect(TokenKind::kRParen, "to close parameter list");

  // Fresh frame context for the body; the enclosing script's locals are
  // invisible inside a function.
  std::vector<LocalBinding> saved_locals = std::move(locals_);
  const std::size_t saved_depth = std::exchange(scope_depth_, 0);
  const std::uint32_t saved_next_slot = std::exchange(next_slot_, 0);
  const bool saved_in_fn = std::exchange(in_fn_, true);
  std::string saved_fn = std::exchange(current_fn_, def->name);
  locals_.clear();
  for (std::size_t i = 0; i < def->params.size(); ++i) {
    LocalBinding binding;
    binding.name = def->params[i];
    binding.slot = static_cast<std::int32_t>(i);
    binding.scope = 0;
    locals_.push_back(std::move(binding));
  }
  next_slot_ = static_cast<std::uint32_t>(def->params.size());

  parse_block_into(def->body);
  def->frame_slots = next_slot_;
  def->index =
      (library_ != nullptr ? library_->functions.size() : 0) + local_fns_.size();

  locals_ = std::move(saved_locals);
  scope_depth_ = saved_depth;
  next_slot_ = saved_next_slot;
  in_fn_ = saved_in_fn;
  current_fn_ = std::move(saved_fn);

  local_fns_.push_back(def);
  return def;
}

Program Parser::parse_program_body() {
  Program program;
  while (peek().kind != TokenKind::kEnd) {
    if (peek().kind == TokenKind::kFn) {
      parse_fn_def();
      continue;
    }
    Statement stmt = parse_statement();
    const bool block_statement = stmt.kind == Statement::Kind::kFor;
    program.statements.push_back(std::move(stmt));
    if (!match(TokenKind::kSemicolon) && !block_statement) break;
  }
  expect(TokenKind::kEnd, "after statements");
  program.local_fns = std::move(local_fns_);
  program.frame_slots = next_slot_;
  return program;
}

NodePtr parse_expression(std::string_view source, const FunctionLibrary* library) {
  const std::vector<Token> tokens = tokenize(source);
  Parser parser(tokens, library);
  NodePtr node = parser.parse_expr();
  parser.expect(TokenKind::kEnd, "after expression");
  return node;
}

Program parse_program(std::string_view source, const FunctionLibrary* library) {
  const std::vector<Token> tokens = tokenize(source);
  Parser parser(tokens, library);
  return parser.parse_program_body();
}

std::shared_ptr<const FunctionDef> parse_function(std::string_view source,
                                                  const FunctionLibrary* library) {
  const std::vector<Token> tokens = tokenize(source);
  Parser parser(tokens, library);
  auto def = parser.parse_fn_def();
  parser.expect(TokenKind::kEnd, "after function definition");
  return def;
}

}  // namespace pnut::expr
