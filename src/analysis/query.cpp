#include "analysis/query.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "expr/ast.h"
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
  std::size_t num_states = 0;  ///< space->num_states(), read once
  /// Bound state variables: one slot per binder, assigned by the parser.
  std::vector<std::int64_t> vars;
  /// Cooperative deadline/cancellation, polled in the quantifier and
  /// fixpoint loops; a trip throws StopError out of eval_query.
  StopToken stop;
};

[[noreturn]] void eval_fail(const std::string& message) {
  throw std::runtime_error("query evaluation: " + message);
}

std::size_t to_state(const Env& env, std::int64_t value, const std::string& where) {
  if (value < 0 || static_cast<std::size_t>(value) >= env.num_states) {
    eval_fail("state index " + std::to_string(value) + " out of range in " + where +
              " (space has " + std::to_string(env.num_states) + " states)");
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

/// A set's member state indices, ascending: [0, n) when `all`, else `list`.
/// The whole state set costs no allocation.
struct StateSet {
  bool all = false;
  std::size_t n = 0;
  std::vector<std::size_t> list;

  [[nodiscard]] std::size_t size() const { return all ? n : list.size(); }
  [[nodiscard]] std::size_t operator[](std::size_t k) const { return all ? k : list[k]; }
};

class SetNode {
 public:
  virtual ~SetNode() = default;
  [[nodiscard]] virtual StateSet members(Env& env) const = 0;
};
using SetNodePtr = std::unique_ptr<SetNode>;

class NumNode final : public QNode {
 public:
  explicit NumNode(std::int64_t v) : value_(v) {}
  std::int64_t eval(Env&) const override { return value_; }

 private:
  std::int64_t value_;
};

/// A bound state variable: its binder's frame slot.
class VarNode final : public QNode {
 public:
  explicit VarNode(std::size_t slot) : slot_(slot) {}
  std::int64_t eval(Env& env) const override { return env.vars[slot_]; }

 private:
  std::size_t slot_;
};

/// A name no enclosing binder introduces. The error is raised only if the
/// node is evaluated, so `false and x = 1` still holds.
class UnboundNode final : public QNode {
 public:
  explicit UnboundNode(std::string name) : name_(std::move(name)) {}
  std::int64_t eval(Env&) const override {
    eval_fail("unbound variable '" + name_ + "' (state variables must be "
              "introduced by a quantifier or temporal operator)");
  }

 private:
  std::string name_;
};

/// The arithmetic builtins min(a, b), max(a, b) and abs(a).
class BuiltinNode final : public QNode {
 public:
  enum class Fn : std::uint8_t { kMin, kMax, kAbs };
  BuiltinNode(Fn fn, std::vector<QNodePtr> args) : fn_(fn), args_(std::move(args)) {}

  std::int64_t eval(Env& env) const override {
    const std::int64_t a = args_[0]->eval(env);
    if (fn_ == Fn::kAbs) return a < 0 ? expr::wrap_neg(a) : a;
    const std::int64_t b = args_[1]->eval(env);
    return fn_ == Fn::kMin ? std::min(a, b) : std::max(a, b);
  }

 private:
  Fn fn_;
  std::vector<QNodePtr> args_;
};

/// Name(s): place tokens, transition activity, or data variable in state s.
/// The name is resolved against a space once (place first, then
/// transition), not per state.
class StateFnNode final : public QNode {
 public:
  StateFnNode(std::string name, std::vector<QNodePtr> args)
      : name_(std::move(name)), where_("'" + name_ + "(...)'"), args_(std::move(args)) {}

  std::int64_t eval(Env& env) const override {
    if (args_.size() != 1) {
      eval_fail("'" + name_ + "' expects one state argument");
    }
    const std::size_t state = to_state(env, args_[0]->eval(env), where_);
    if (resolved_for_ != env.space) resolve(*env.space);
    switch (kind_) {
      case Kind::kPlace: return env.space->place_tokens(state, PlaceId(id_));
      case Kind::kTransition:
        return env.space->transition_activity(state, TransitionId(id_));
      case Kind::kVariable: break;
    }
    if (auto v = env.space->variable(state, name_)) return *v;
    eval_fail("'" + name_ + "' is not a place, transition or data variable");
  }

 private:
  enum class Kind : std::uint8_t { kPlace, kTransition, kVariable };

  void resolve(const StateSpace& space) const {
    if (auto p = space.find_place(name_)) {
      kind_ = Kind::kPlace;
      id_ = p->value;
    } else if (auto t = space.find_transition(name_)) {
      kind_ = Kind::kTransition;
      id_ = t->value;
    } else {
      kind_ = Kind::kVariable;
    }
    resolved_for_ = &space;
  }

  std::string name_;
  std::string where_;  ///< error-message label, built once (eval runs per state)
  std::vector<QNodePtr> args_;
  mutable const StateSpace* resolved_for_ = nullptr;
  mutable Kind kind_ = Kind::kVariable;
  mutable std::uint32_t id_ = 0;
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
      // The expression evaluators' arithmetic: two's-complement wrapping,
      // and division errors under this engine's prefix.
      case QBinOp::kAdd: return expr::wrap_add(a, b);
      case QBinOp::kSub: return expr::wrap_sub(a, b);
      case QBinOp::kMul: return expr::wrap_mul(a, b);
      case QBinOp::kDiv:
      case QBinOp::kMod:
        try {
          return op_ == QBinOp::kDiv ? expr::checked_div(a, b) : expr::checked_mod(a, b);
        } catch (const expr::EvalError& e) {
          eval_fail(e.what());
        }
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
  std::int64_t eval(Env& env) const override { return expr::wrap_neg(inner_->eval(env)); }

 private:
  QNodePtr inner_;
};

/// forall/exists var in SET [ body ]. Evaluation records a witness
/// (satisfying state for exists, violating state for forall) for
/// QueryResult reporting.
class QuantifierNode final : public QNode {
 public:
  QuantifierNode(bool universal, std::size_t slot, SetNodePtr set, QNodePtr body)
      : universal_(universal), slot_(slot), set_(std::move(set)), body_(std::move(body)) {}

  std::int64_t eval(Env& env) const override {
    witness_.reset();
    const StateSet states = set_->members(env);
    bool result = universal_;
    for (std::size_t k = 0; k < states.size(); ++k) {
      if (k % kStopCheckStride == 0) env.stop.throw_if_stopped();
      const std::size_t s = states[k];
      env.vars[slot_] = static_cast<std::int64_t>(s);
      const bool holds = body_->eval(env) != 0;
      if (holds != universal_) {
        result = holds;
        witness_ = s;
        break;
      }
    }
    return result ? 1 : 0;
  }

  [[nodiscard]] bool universal() const { return universal_; }
  [[nodiscard]] std::optional<std::size_t> witness() const { return witness_; }

 private:
  bool universal_;
  std::size_t slot_;  ///< the bound variable (a slot of its own: shadowing is free)
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
  TemporalNode(bool universal_paths, QNodePtr state, std::size_t c_slot, QNodePtr cond,
               QNodePtr guard)
      : universal_paths_(universal_paths), state_(std::move(state)), c_slot_(c_slot),
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
    const std::size_t n = env.num_states;

    // Evaluate cond/guard once per state with C bound.
    std::vector<char> cond_v(n), guard_v(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (i % kStopCheckStride == 0) env.stop.throw_if_stopped();
      env.vars[c_slot_] = static_cast<std::int64_t>(i);
      cond_v[i] = cond_->eval(env) != 0;
      guard_v[i] = guard_->eval(env) != 0;
    }

    // The successor relation as flat CSR rows, so each fixpoint sweep
    // below is a scan of two flat arrays.
    std::vector<std::size_t> succ_off;
    std::vector<std::uint32_t> succ;
    space.successor_rows(succ_off, succ);

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
  std::size_t c_slot_;  ///< C, bound for cond and guard
  QNodePtr cond_;
  QNodePtr guard_;
  mutable std::optional<std::vector<char>> table_;
  mutable const StateSpace* table_space_ = nullptr;
};

// --- set nodes -----------------------------------------------------------------

class AllStatesNode final : public SetNode {
 public:
  StateSet members(Env& env) const override {
    return {.all = true, .n = env.num_states, .list = {}};
  }
};

class SetDiffNode final : public SetNode {
 public:
  SetDiffNode(SetNodePtr base, std::vector<std::size_t> removed)
      : base_(std::move(base)), removed_(std::move(removed)) {}
  StateSet members(Env& env) const override {
    const StateSet base = base_->members(env);
    StateSet out;
    for (std::size_t k = 0; k < base.size(); ++k) {
      const std::size_t s = base[k];
      if (std::find(removed_.begin(), removed_.end(), s) == removed_.end()) {
        out.list.push_back(s);
      }
    }
    return out;
  }

 private:
  SetNodePtr base_;
  std::vector<std::size_t> removed_;
};

class SetBuilderNode final : public SetNode {
 public:
  SetBuilderNode(std::size_t slot, SetNodePtr base, QNodePtr filter)
      : slot_(slot), base_(std::move(base)), filter_(std::move(filter)) {}
  StateSet members(Env& env) const override {
    const StateSet base = base_->members(env);
    StateSet out;
    for (std::size_t k = 0; k < base.size(); ++k) {
      const std::size_t s = base[k];
      env.vars[slot_] = static_cast<std::int64_t>(s);
      if (filter_->eval(env) != 0) out.list.push_back(s);
    }
    return out;
  }

 private:
  std::size_t slot_;
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

  /// The quantifier whose result QueryResult reports (witness and
  /// explanation): the first one whose body closes during the parse — the
  /// outermost for a query with no nested quantifier. Set during parse.
  QuantifierNode* outer_quantifier = nullptr;

  /// Frame slots the parsed query's binders use (Env::vars' size).
  [[nodiscard]] std::size_t num_slots() const { return num_slots_; }

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
    SetNodePtr set = parse_set();  // the variable is not in scope in its own set
    const std::size_t slot = bind(std::move(var));
    expect(TokenKind::kLBracket, "to open the quantifier body");
    QNodePtr body = parse_formula();
    expect(TokenKind::kRBracket, "to close the quantifier body");
    unbind();
    auto node = std::make_unique<QuantifierNode>(universal, slot, std::move(set),
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
      const std::size_t slot = bind(std::move(var));
      expect(TokenKind::kPipe, "before the set-builder filter");
      QNodePtr filter = parse_formula();
      expect(TokenKind::kRBrace, "to close set builder");
      unbind();
      base = std::make_unique<SetBuilderNode>(slot, std::move(inner), std::move(filter));
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
        const std::size_t c_slot = bind("C");
        QNodePtr cond = parse_formula();
        QNodePtr guard;
        if (match(TokenKind::kComma)) {
          guard = parse_formula();
        } else {
          guard = std::make_unique<NumNode>(1);
        }
        unbind();
        expect(TokenKind::kRParen, "to close temporal operator");
        return std::make_unique<TemporalNode>(lower == "inev", std::move(state), c_slot,
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
        if ((name == "min" || name == "max") && args.size() == 2) {
          return std::make_unique<BuiltinNode>(
              name == "min" ? BuiltinNode::Fn::kMin : BuiltinNode::Fn::kMax, std::move(args));
        }
        if (name == "abs" && args.size() == 1) {
          return std::make_unique<BuiltinNode>(BuiltinNode::Fn::kAbs, std::move(args));
        }
        return std::make_unique<StateFnNode>(std::move(name), std::move(args));
      }
      return variable(std::move(name));
    }
    throw ParseError("expected a formula", t.offset);
  }

  /// Lexical scoping: a binder gets a fresh frame slot and is in scope
  /// until unbind(); a name resolves to its innermost binder.
  std::size_t bind(std::string name) {
    scope_.emplace_back(std::move(name), num_slots_);
    return num_slots_++;
  }
  void unbind() { scope_.pop_back(); }
  QNodePtr variable(std::string name) const {
    for (auto it = scope_.rbegin(); it != scope_.rend(); ++it) {
      if (it->first == name) return std::make_unique<VarNode>(it->second);
    }
    return std::make_unique<UnboundNode>(std::move(name));
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< current nesting level
  std::vector<std::pair<std::string, std::size_t>> scope_;  ///< binders in scope, innermost last
  std::size_t num_slots_ = 0;
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
  env.num_states = space.num_states();
  env.vars.assign(parser.num_slots(), 0);
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
