#include "analysis/query.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "expr/lexer.h"
#include "expr/parser.h"
#include "util/stop.h"

namespace pnut::analysis {

namespace {

using expr::ParseError;
using expr::Token;
using expr::TokenKind;

// --- evaluation environment -----------------------------------------------------

struct Env {
  const StateSpace* space = nullptr;
  std::map<std::string, std::int64_t, std::less<>> vars;  ///< bound state variables
  /// Cooperative deadline/cancellation, polled in the quantifier and
  /// fixpoint loops; a trip throws StopError out of eval_query.
  StopToken stop;
};

[[noreturn]] void eval_fail(const std::string& message) {
  throw std::runtime_error("query evaluation: " + message);
}

std::size_t to_state(const Env& env, std::int64_t value, const std::string& where) {
  if (value < 0 || static_cast<std::size_t>(value) >= env.space->num_states()) {
    eval_fail("state index " + std::to_string(value) + " out of range in " + where +
              " (space has " + std::to_string(env.space->num_states()) + " states)");
  }
  return static_cast<std::size_t>(value);
}

// --- AST -------------------------------------------------------------------------

class QNode {
 public:
  virtual ~QNode() = default;
  [[nodiscard]] virtual std::int64_t eval(Env& env) const = 0;
};
using QNodePtr = std::unique_ptr<QNode>;

class SetNode {
 public:
  virtual ~SetNode() = default;
  /// Enumerate member state indices, ascending.
  [[nodiscard]] virtual std::vector<std::size_t> members(Env& env) const = 0;
};
using SetNodePtr = std::unique_ptr<SetNode>;

class NumNode final : public QNode {
 public:
  explicit NumNode(std::int64_t v) : value_(v) {}
  std::int64_t eval(Env&) const override { return value_; }

 private:
  std::int64_t value_;
};

class VarNode final : public QNode {
 public:
  explicit VarNode(std::string name) : name_(std::move(name)) {}
  std::int64_t eval(Env& env) const override {
    const auto it = env.vars.find(name_);
    if (it == env.vars.end()) {
      eval_fail("unbound variable '" + name_ + "' (state variables must be "
                "introduced by a quantifier or temporal operator)");
    }
    return it->second;
  }

 private:
  std::string name_;
};

/// Name(s): place tokens, transition activity, or data variable in state s;
/// plus the arithmetic builtins min/max/abs.
class StateFnNode final : public QNode {
 public:
  StateFnNode(std::string name, std::vector<QNodePtr> args)
      : name_(std::move(name)), where_("'" + name_ + "(...)'"), args_(std::move(args)) {}

  std::int64_t eval(Env& env) const override {
    if (name_ == "min" && args_.size() == 2) {
      return std::min(args_[0]->eval(env), args_[1]->eval(env));
    }
    if (name_ == "max" && args_.size() == 2) {
      return std::max(args_[0]->eval(env), args_[1]->eval(env));
    }
    if (name_ == "abs" && args_.size() == 1) {
      const std::int64_t v = args_[0]->eval(env);
      return v < 0 ? -v : v;
    }
    if (args_.size() != 1) {
      eval_fail("'" + name_ + "' expects one state argument");
    }
    const std::size_t state = to_state(env, args_[0]->eval(env), where_);
    if (auto p = env.space->find_place(name_)) return env.space->place_tokens(state, *p);
    if (auto t = env.space->find_transition(name_)) {
      return env.space->transition_activity(state, *t);
    }
    if (auto v = env.space->variable(state, name_)) return *v;
    eval_fail("'" + name_ + "' is not a place, transition or data variable");
  }

 private:
  std::string name_;
  std::string where_;  ///< error-message label, built once (eval runs per state)
  std::vector<QNodePtr> args_;
};

enum class QBinOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kMod, kEq, kNe, kLt, kLe, kGt, kGe, kAnd, kOr
};

class QBinNode final : public QNode {
 public:
  QBinNode(QBinOp op, QNodePtr lhs, QNodePtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  std::int64_t eval(Env& env) const override {
    if (op_ == QBinOp::kAnd) return (lhs_->eval(env) != 0 && rhs_->eval(env) != 0) ? 1 : 0;
    if (op_ == QBinOp::kOr) return (lhs_->eval(env) != 0 || rhs_->eval(env) != 0) ? 1 : 0;
    const std::int64_t a = lhs_->eval(env);
    const std::int64_t b = rhs_->eval(env);
    switch (op_) {
      case QBinOp::kAdd: return a + b;
      case QBinOp::kSub: return a - b;
      case QBinOp::kMul: return a * b;
      case QBinOp::kDiv:
        if (b == 0) eval_fail("division by zero");
        return a / b;
      case QBinOp::kMod:
        if (b == 0) eval_fail("modulo by zero");
        return a % b;
      case QBinOp::kEq: return a == b;
      case QBinOp::kNe: return a != b;
      case QBinOp::kLt: return a < b;
      case QBinOp::kLe: return a <= b;
      case QBinOp::kGt: return a > b;
      case QBinOp::kGe: return a >= b;
      default: return 0;
    }
  }

 private:
  QBinOp op_;
  QNodePtr lhs_;
  QNodePtr rhs_;
};

class QNotNode final : public QNode {
 public:
  explicit QNotNode(QNodePtr inner) : inner_(std::move(inner)) {}
  std::int64_t eval(Env& env) const override { return inner_->eval(env) == 0 ? 1 : 0; }

 private:
  QNodePtr inner_;
};

class QNegNode final : public QNode {
 public:
  explicit QNegNode(QNodePtr inner) : inner_(std::move(inner)) {}
  std::int64_t eval(Env& env) const override { return -inner_->eval(env); }

 private:
  QNodePtr inner_;
};

/// forall/exists var in SET [ body ]. Evaluation records a witness
/// (satisfying state for exists, violating state for forall) in the
/// outermost quantifier for QueryResult reporting.
class QuantifierNode final : public QNode {
 public:
  QuantifierNode(bool universal, std::string var, SetNodePtr set, QNodePtr body)
      : universal_(universal), var_(std::move(var)), set_(std::move(set)),
        body_(std::move(body)) {}

  std::int64_t eval(Env& env) const override {
    witness_.reset();
    const std::vector<std::size_t> states = set_->members(env);
    // Shadowing: save any outer binding of the same variable name.
    const auto outer = env.vars.find(var_);
    const std::optional<std::int64_t> saved =
        outer != env.vars.end() ? std::optional(outer->second) : std::nullopt;

    bool result = universal_;
    std::uint64_t visited = 0;
    for (std::size_t s : states) {
      if (visited++ % kStopCheckStride == 0) env.stop.throw_if_stopped();
      env.vars[var_] = static_cast<std::int64_t>(s);
      const bool holds = body_->eval(env) != 0;
      if (universal_ && !holds) {
        result = false;
        witness_ = s;
        break;
      }
      if (!universal_ && holds) {
        result = true;
        witness_ = s;
        break;
      }
    }

    if (saved) env.vars[var_] = *saved;
    else env.vars.erase(var_);
    return result ? 1 : 0;
  }

  [[nodiscard]] bool universal() const { return universal_; }
  [[nodiscard]] std::optional<std::size_t> witness() const { return witness_; }

 private:
  bool universal_;
  std::string var_;
  SetNodePtr set_;
  QNodePtr body_;
  mutable std::optional<std::size_t> witness_;
};

/// inev(s, f, g) = A[g U f]; poss(s, f, g) = E[g U f]. The per-state truth
/// vector is computed once per evaluation pass over the whole space and
/// memoized, so `forall s in S [ inev(s, ...) ]` costs one fixpoint, not
/// |S| of them.
class TemporalNode final : public QNode {
 public:
  TemporalNode(bool universal_paths, QNodePtr state, QNodePtr cond, QNodePtr guard)
      : universal_paths_(universal_paths), state_(std::move(state)),
        cond_(std::move(cond)), guard_(std::move(guard)) {}

  std::int64_t eval(Env& env) const override {
    const std::size_t s = to_state(env, state_->eval(env),
                                   universal_paths_ ? "inev" : "poss");
    ensure_table(env);
    return (*table_)[s] ? 1 : 0;
  }

 private:
  void ensure_table(Env& env) const {
    if (table_ && table_space_ == env.space) return;
    const StateSpace& space = *env.space;
    const std::size_t n = space.num_states();

    // Evaluate cond/guard once per state with C bound.
    std::vector<char> cond_v(n), guard_v(n);
    const auto saved_c = env.vars.find("C") != env.vars.end()
                             ? std::optional(env.vars["C"])
                             : std::nullopt;
    for (std::size_t i = 0; i < n; ++i) {
      if (i % kStopCheckStride == 0) env.stop.throw_if_stopped();
      env.vars["C"] = static_cast<std::int64_t>(i);
      cond_v[i] = cond_->eval(env) != 0;
      guard_v[i] = guard_->eval(env) != 0;
    }
    if (saved_c) env.vars["C"] = *saved_c;
    else env.vars.erase("C");

    // Successor relation flattened to CSR once (two passes over
    // for_each_successor — no per-state vectors), so each fixpoint sweep
    // below is a scan of two flat arrays.
    std::vector<std::size_t> succ_off(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      space.for_each_successor(i, [&](std::size_t) { ++succ_off[i + 1]; });
    }
    for (std::size_t i = 0; i < n; ++i) succ_off[i + 1] += succ_off[i];
    std::vector<std::uint32_t> succ(succ_off[n]);
    {
      std::size_t cursor = 0;
      for (std::size_t i = 0; i < n; ++i) {
        space.for_each_successor(
            i, [&](std::size_t j) { succ[cursor++] = static_cast<std::uint32_t>(j); });
      }
    }

    // Until fixpoint: AU needs all successors satisfied (and at least one),
    // EU needs some successor satisfied.
    //
    // Truncation honesty: a never-expanded frontier state of a truncated
    // graph has an empty successor row that means "unexplored", not
    // "terminal". Reading it as terminal would fabricate counterexamples
    // (inev false because exploration stopped, not because a path
    // escapes). Such states saturate instead — they count as satisfied
    // when the guard still holds there, i.e. the until is "not violated
    // within the explored region" (the same convention time_bounds uses
    // when a path escapes the explored prefix). On complete graphs and
    // traces every state is expanded and this changes nothing.
    std::vector<char> sat(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      sat[i] = cond_v[i] || (!space.state_expanded(i) && guard_v[i]);
    }
    bool changed = true;
    while (changed) {
      // One poll per sweep: a sweep is O(|S| + |E|), so a deadline lands
      // within one pass even when the fixpoint needs many iterations.
      env.stop.throw_if_stopped();
      changed = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (sat[i] || !guard_v[i]) continue;
        const auto first = succ.begin() + static_cast<std::ptrdiff_t>(succ_off[i]);
        const auto last = succ.begin() + static_cast<std::ptrdiff_t>(succ_off[i + 1]);
        bool next_sat;
        if (universal_paths_) {
          next_sat = first != last &&
                     std::all_of(first, last, [&](std::uint32_t j) { return sat[j] != 0; });
        } else {
          next_sat =
              std::any_of(first, last, [&](std::uint32_t j) { return sat[j] != 0; });
        }
        if (next_sat) {
          sat[i] = 1;
          changed = true;
        }
      }
    }
    table_ = std::move(sat);
    table_space_ = env.space;
  }

  bool universal_paths_;
  QNodePtr state_;
  QNodePtr cond_;
  QNodePtr guard_;
  mutable std::optional<std::vector<char>> table_;
  mutable const StateSpace* table_space_ = nullptr;
};

// --- set nodes -----------------------------------------------------------------

class AllStatesNode final : public SetNode {
 public:
  std::vector<std::size_t> members(Env& env) const override {
    std::vector<std::size_t> out(env.space->num_states());
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = i;
    return out;
  }
};

class SetDiffNode final : public SetNode {
 public:
  SetDiffNode(SetNodePtr base, std::vector<std::size_t> removed)
      : base_(std::move(base)), removed_(std::move(removed)) {}
  std::vector<std::size_t> members(Env& env) const override {
    std::vector<std::size_t> out = base_->members(env);
    std::erase_if(out, [&](std::size_t s) {
      return std::find(removed_.begin(), removed_.end(), s) != removed_.end();
    });
    return out;
  }

 private:
  SetNodePtr base_;
  std::vector<std::size_t> removed_;
};

class SetBuilderNode final : public SetNode {
 public:
  SetBuilderNode(std::string var, SetNodePtr base, QNodePtr filter)
      : var_(std::move(var)), base_(std::move(base)), filter_(std::move(filter)) {}
  std::vector<std::size_t> members(Env& env) const override {
    std::vector<std::size_t> out;
    const auto outer = env.vars.find(var_);
    const std::optional<std::int64_t> saved =
        outer != env.vars.end() ? std::optional(outer->second) : std::nullopt;
    for (std::size_t s : base_->members(env)) {
      env.vars[var_] = static_cast<std::int64_t>(s);
      if (filter_->eval(env) != 0) out.push_back(s);
    }
    if (saved) env.vars[var_] = *saved;
    else env.vars.erase(var_);
    return out;
  }

 private:
  std::string var_;
  SetNodePtr base_;
  QNodePtr filter_;
};

// --- parser ---------------------------------------------------------------------

std::string lowercase(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

class QueryParser {
 public:
  explicit QueryParser(std::string_view source) : tokens_(expr::tokenize(source)) {}

  QNodePtr parse_query() {
    QNodePtr node = parse_formula();
    expect(TokenKind::kEnd, "after query");
    return node;
  }

  /// The outermost quantifier, if the query is quantified (for witness
  /// extraction). Set during parse.
  QuantifierNode* outer_quantifier = nullptr;

 private:
  [[nodiscard]] const Token& peek(std::size_t k = 0) const {
    const std::size_t i = pos_ + k;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& advance() {
    const Token& t = peek();
    if (t.kind != TokenKind::kEnd) ++pos_;
    return t;
  }
  bool match(TokenKind kind) {
    if (peek().kind == kind) {
      advance();
      return true;
    }
    return false;
  }
  const Token& expect(TokenKind kind, std::string_view what) {
    if (peek().kind != kind) {
      throw ParseError("expected " + std::string(expr::token_kind_name(kind)) + " " +
                           std::string(what) + ", got " +
                           std::string(expr::token_kind_name(peek().kind)),
                       peek().offset);
    }
    return advance();
  }

  /// One more nesting level: the query AST is evaluated (and torn down)
  /// recursively, so it shares the expression language's depth budget.
  void nest() {
    if (++depth_ > expr::kMaxNestingDepth) {
      throw ParseError("query nested more than " +
                           std::to_string(expr::kMaxNestingDepth) + " levels deep",
                       peek().offset);
    }
  }
  /// Restores the nesting depth when the production holding it returns.
  struct DepthScope {
    explicit DepthScope(QueryParser& p) : parser(p), saved(p.depth_) {}
    ~DepthScope() { parser.depth_ = saved; }
    QueryParser& parser;
    std::size_t saved;
  };

  [[nodiscard]] bool at_quantifier() const {
    if (peek().kind != TokenKind::kIdentifier) return false;
    const std::string kw = lowercase(peek().text);
    return kw == "forall" || kw == "exists";
  }

  QNodePtr parse_formula() {
    const DepthScope scope(*this);
    nest();
    return parse_or();
  }

  QNodePtr parse_quantified() {
    const std::string kw = lowercase(advance().text);
    const bool universal = kw == "forall";
    std::string var = parse_state_var("quantified variable");
    expect_keyword("in");
    SetNodePtr set = parse_set();
    expect(TokenKind::kLBracket, "to open the quantifier body");
    QNodePtr body = parse_formula();
    expect(TokenKind::kRBracket, "to close the quantifier body");
    auto node = std::make_unique<QuantifierNode>(universal, std::move(var), std::move(set),
                                                 std::move(body));
    if (outer_quantifier == nullptr) outer_quantifier = node.get();
    return node;
  }

  /// State variables may be primed: s' (the paper's set-builder uses s').
  std::string parse_state_var(const char* what) {
    const Token& t = expect(TokenKind::kIdentifier, what);
    std::string name = t.text;
    while (match(TokenKind::kPrime)) name += '\'';
    return name;
  }

  void expect_keyword(const std::string& keyword) {
    const Token& t = expect(TokenKind::kIdentifier, ("'" + keyword + "'").c_str());
    if (lowercase(t.text) != keyword) {
      throw ParseError("expected '" + keyword + "', got '" + t.text + "'", t.offset);
    }
  }

  SetNodePtr parse_set() {
    const DepthScope scope(*this);
    nest();
    SetNodePtr base;
    if (match(TokenKind::kLParen)) {
      base = parse_set();
      expect(TokenKind::kRParen, "to close set expression");
    } else if (peek().kind == TokenKind::kLBrace) {
      advance();
      std::string var = parse_state_var("set-builder variable");
      expect_keyword("in");
      SetNodePtr inner = parse_set();
      expect(TokenKind::kPipe, "before the set-builder filter");
      QNodePtr filter = parse_formula();
      expect(TokenKind::kRBrace, "to close set builder");
      base = std::make_unique<SetBuilderNode>(std::move(var), std::move(inner),
                                              std::move(filter));
    } else {
      const Token& t = expect(TokenKind::kIdentifier, "set name");
      if (t.text != "S") {
        throw ParseError("unknown state set '" + t.text + "' (only S is defined)",
                         t.offset);
      }
      base = std::make_unique<AllStatesNode>();
    }

    // Set difference with literal state sets: S - {#0, #5}.
    while (peek().kind == TokenKind::kMinus) {
      nest();
      advance();
      expect(TokenKind::kLBrace, "to open the removed-state set");
      std::vector<std::size_t> removed;
      do {
        expect(TokenKind::kHash, "before a state number");
        const Token& num = expect(TokenKind::kNumber, "state number");
        removed.push_back(static_cast<std::size_t>(num.number));
      } while (match(TokenKind::kComma));
      expect(TokenKind::kRBrace, "to close the removed-state set");
      base = std::make_unique<SetDiffNode>(std::move(base), std::move(removed));
    }
    return base;
  }

  QNodePtr parse_or() {
    const DepthScope scope(*this);
    QNodePtr lhs = parse_and();
    while (peek().kind == TokenKind::kOr) {
      nest();
      advance();
      lhs = std::make_unique<QBinNode>(QBinOp::kOr, std::move(lhs), parse_and());
    }
    return lhs;
  }

  QNodePtr parse_and() {
    const DepthScope scope(*this);
    QNodePtr lhs = parse_rel();
    while (peek().kind == TokenKind::kAnd) {
      nest();
      advance();
      lhs = std::make_unique<QBinNode>(QBinOp::kAnd, std::move(lhs), parse_rel());
    }
    return lhs;
  }

  QNodePtr parse_rel() {
    const DepthScope scope(*this);
    QNodePtr lhs = parse_add();
    QBinOp op;
    switch (peek().kind) {
      case TokenKind::kEq:
      case TokenKind::kAssignOrEq: op = QBinOp::kEq; break;
      case TokenKind::kNe: op = QBinOp::kNe; break;
      case TokenKind::kLt: op = QBinOp::kLt; break;
      case TokenKind::kLe: op = QBinOp::kLe; break;
      case TokenKind::kGt: op = QBinOp::kGt; break;
      case TokenKind::kGe: op = QBinOp::kGe; break;
      default: return lhs;
    }
    nest();
    advance();
    return std::make_unique<QBinNode>(op, std::move(lhs), parse_add());
  }

  QNodePtr parse_add() {
    const DepthScope scope(*this);
    QNodePtr lhs = parse_mul();
    while (true) {
      QBinOp op;
      if (peek().kind == TokenKind::kPlus) {
        op = QBinOp::kAdd;
      } else if (peek().kind == TokenKind::kMinus && peek(1).kind != TokenKind::kLBrace) {
        op = QBinOp::kSub;
      } else {
        return lhs;
      }
      nest();
      advance();
      lhs = std::make_unique<QBinNode>(op, std::move(lhs), parse_mul());
    }
  }

  QNodePtr parse_mul() {
    const DepthScope scope(*this);
    QNodePtr lhs = parse_unary();
    while (true) {
      QBinOp op;
      switch (peek().kind) {
        case TokenKind::kStar: op = QBinOp::kMul; break;
        case TokenKind::kSlash: op = QBinOp::kDiv; break;
        case TokenKind::kPercent: op = QBinOp::kMod; break;
        default: return lhs;
      }
      nest();
      advance();
      lhs = std::make_unique<QBinNode>(op, std::move(lhs), parse_unary());
    }
  }

  QNodePtr parse_unary() {
    if (peek().kind != TokenKind::kMinus && peek().kind != TokenKind::kNot) {
      return parse_primary();
    }
    const DepthScope scope(*this);
    nest();
    if (advance().kind == TokenKind::kMinus) return std::make_unique<QNegNode>(parse_unary());
    return std::make_unique<QNotNode>(parse_unary());
  }

  QNodePtr parse_primary() {
    const Token& t = peek();
    if (t.kind == TokenKind::kNumber) {
      advance();
      return std::make_unique<NumNode>(t.number);
    }
    if (t.kind == TokenKind::kHash) {
      advance();
      const Token& num = expect(TokenKind::kNumber, "state number after '#'");
      return std::make_unique<NumNode>(num.number);
    }
    if (t.kind == TokenKind::kLParen) {
      advance();
      QNodePtr inner = parse_formula();
      expect(TokenKind::kRParen, "to close parenthesized formula");
      return inner;
    }
    if (at_quantifier()) return parse_quantified();
    if (t.kind == TokenKind::kIdentifier) {
      const std::string lower = lowercase(t.text);
      if (lower == "true") {
        advance();
        return std::make_unique<NumNode>(1);
      }
      if (lower == "false") {
        advance();
        return std::make_unique<NumNode>(0);
      }
      if (lower == "inev" || lower == "poss") {
        advance();
        expect(TokenKind::kLParen, "to open temporal operator");
        QNodePtr state = parse_formula();
        expect(TokenKind::kComma, "after the temporal operator's state");
        QNodePtr cond = parse_formula();
        QNodePtr guard;
        if (match(TokenKind::kComma)) {
          guard = parse_formula();
        } else {
          guard = std::make_unique<NumNode>(1);
        }
        expect(TokenKind::kRParen, "to close temporal operator");
        return std::make_unique<TemporalNode>(lower == "inev", std::move(state),
                                              std::move(cond), std::move(guard));
      }
      // Identifier: either Name(args) state function or a bound variable
      // (possibly primed).
      advance();
      std::string name = t.text;
      while (match(TokenKind::kPrime)) name += '\'';
      if (peek().kind == TokenKind::kLParen || peek().kind == TokenKind::kLBracket) {
        const bool bracket = peek().kind == TokenKind::kLBracket;
        advance();
        const TokenKind closer = bracket ? TokenKind::kRBracket : TokenKind::kRParen;
        std::vector<QNodePtr> args;
        if (peek().kind != closer) {
          args.push_back(parse_formula());
          while (match(TokenKind::kComma)) args.push_back(parse_formula());
        }
        expect(closer, "to close argument list");
        return std::make_unique<StateFnNode>(std::move(name), std::move(args));
      }
      return std::make_unique<VarNode>(std::move(name));
    }
    throw ParseError("expected a formula", t.offset);
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< current nesting level
};

}  // namespace

QueryResult eval_query(const StateSpace& space, std::string_view query) {
  return eval_query(space, query, StopToken{});
}

QueryResult eval_query(const StateSpace& space, std::string_view query,
                       StopToken stop) {
  QueryParser parser(query);
  const QNodePtr root = parser.parse_query();

  Env env;
  env.space = &space;
  env.stop = std::move(stop);
  const bool holds = root->eval(env) != 0;

  QueryResult result;
  result.holds = holds;
  if (parser.outer_quantifier != nullptr) {
    result.witness = parser.outer_quantifier->witness();
    const bool universal = parser.outer_quantifier->universal();
    if (holds) {
      result.explanation = universal
                               ? "holds in all states of the set"
                               : "witness: state #" +
                                     std::to_string(result.witness.value_or(0));
    } else {
      result.explanation = universal
                               ? "violated at state #" +
                                     std::to_string(result.witness.value_or(0))
                               : "no state in the set satisfies the formula";
    }
  } else {
    result.explanation = holds ? "formula evaluates true" : "formula evaluates false";
  }
  return result;
}

void check_query_syntax(std::string_view query) {
  QueryParser parser(query);
  (void)parser.parse_query();
}

}  // namespace pnut::analysis
