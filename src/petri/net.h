// Extended Timed Petri Net model (Section 1 of the paper).
//
// The net "flavor" reproduced here is the one the paper's tools operate on:
//
//   * weighted input/output arcs (the I-buffer is consumed two-at-a-time by
//     giving the arc into Start-prefetch a weight of 2),
//   * inhibitor arcs (the "dark bubbles" of Figure 1: prefetch is blocked
//     while an operand fetch or a result store is pending),
//   * firing times (tokens are neither on inputs nor outputs while the
//     transition fires — e.g. the one-cycle Decode),
//   * enabling times (a transition must be continuously enabled for the
//     delay, then fires atomically — e.g. End-prefetch's memory latency),
//   * relative firing frequencies, from which firing probabilities for
//     conflicting transitions are computed dynamically [WPS86],
//   * predicates and actions (Section 3): data-dependent preconditions and
//     data transformations, written in the expression language.
//
// The Net itself is a passive description; execution semantics live in
// pnut::Simulator (src/sim) and pnut::ReachabilityGraph (src/analysis).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "petri/data_context.h"
#include "petri/ids.h"
#include "petri/rng.h"

namespace pnut {

namespace expr {
class Node;
struct Program;
}  // namespace expr

/// Transparent string hash so name->id maps answer std::string_view
/// lookups without allocating a temporary std::string.
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Hashed name->dense-id index used by Net and CompiledNet.
using NameIndex = std::unordered_map<std::string, std::uint32_t, NameHash, std::equal_to<>>;

/// A weighted arc endpoint. For input arcs `weight` is the number of tokens
/// consumed; for output arcs, produced; for inhibitor arcs it is the
/// *threshold*: the transition is blocked while the place holds >= weight
/// tokens (the classical >= 1 inhibitor is weight 1).
struct Arc {
  PlaceId place;
  TokenCount weight = 1;

  friend bool operator==(const Arc&, const Arc&) = default;
};

/// The integer expression behind a computed delay, built by
/// expr::compile_delay: the parsed AST plus its source text.
struct ComputedDelay {
  std::shared_ptr<const expr::Node> ast;
  std::string source;
};

/// How a delay (firing time or enabling time) is determined when a
/// transition instance needs one.
class DelaySpec {
 public:
  enum class Kind : std::uint8_t {
    kConstant,   ///< fixed value (the common case: N processor cycles)
    kUniform,    ///< integer uniform in [lo, hi]
    kDiscrete,   ///< weighted discrete distribution over values
    kComputed,   ///< an expression over the data state (interpreted nets)
  };

  /// Default: constant zero (an immediate transition).
  DelaySpec() = default;

  static DelaySpec constant(Time value);
  static DelaySpec uniform_int(std::int64_t lo, std::int64_t hi);
  /// `choices` are (value, relative weight) pairs; weights need not sum to 1.
  static DelaySpec discrete(std::vector<std::pair<Time, double>> choices);
  /// Use expr::compile_delay, which parses the source into `delay`.
  static DelaySpec computed(ComputedDelay delay);

  /// Draw a delay for one transition instance. Computed delays read the
  /// data state, so only the engines' bytecode (expr/program.h) evaluates
  /// them; sampling one here throws std::logic_error.
  [[nodiscard]] Time sample(Rng& rng) const;

  /// True if the delay is statically the constant 0 (immediate).
  [[nodiscard]] bool is_statically_zero() const {
    return kind_ == Kind::kConstant && constant_ == 0;
  }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] Time constant_value() const { return constant_; }
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> uniform_bounds() const {
    return {lo_, hi_};
  }
  [[nodiscard]] const std::vector<std::pair<Time, double>>& choices() const {
    return choices_;
  }
  /// The delay expression (empty unless kind() == kComputed).
  [[nodiscard]] const ComputedDelay& computed_delay() const { return computed_; }

  /// Mean of the distribution (Computed kinds return nullopt).
  [[nodiscard]] std::optional<Time> mean() const;

 private:
  Kind kind_ = Kind::kConstant;
  Time constant_ = 0;
  std::int64_t lo_ = 0;
  std::int64_t hi_ = 0;
  std::vector<std::pair<Time, double>> choices_;
  ComputedDelay computed_;
};

/// Data-dependent precondition for an interpreted transition (Section 3): a
/// boolean expression, built by expr::compile_predicate — the parsed AST
/// plus its source text. Empty (null AST) means always true.
struct Predicate {
  std::shared_ptr<const expr::Node> ast;
  std::string source;
  explicit operator bool() const { return ast != nullptr; }
};

/// Data transformation performed when an interpreted transition fires: a
/// statement program, built by expr::compile_action (it may draw from the
/// engine's Rng through `irand`). Empty (null program) means no data effect.
struct Action {
  std::shared_ptr<const expr::Program> program;
  std::string source;
  explicit operator bool() const { return program != nullptr; }
};

/// Whether a transition may have several firings in flight at once.
/// "Normally a transition can only [fire] once at a time" (Section 4.2);
/// infinite-server transitions model multi-server queueing stations.
enum class FiringPolicy : std::uint8_t { kSingleServer, kInfiniteServer };

struct Place {
  std::string name;
  TokenCount initial_tokens = 0;
  /// Optional capacity bound, checked by Net::validate() against the
  /// initial marking and enforced by the reachability analyzer's bound.
  std::optional<TokenCount> capacity;
};

struct Transition {
  std::string name;
  std::vector<Arc> inputs;
  std::vector<Arc> outputs;
  std::vector<Arc> inhibitors;
  DelaySpec firing_time;
  DelaySpec enabling_time;
  double frequency = 1.0;
  FiringPolicy policy = FiringPolicy::kSingleServer;
  Predicate predicate;  ///< empty = always true
  Action action;        ///< empty = no data effect

  [[nodiscard]] bool is_immediate() const {
    return firing_time.is_statically_zero() && enabling_time.is_statically_zero();
  }
  [[nodiscard]] bool is_interpreted() const {
    return static_cast<bool>(predicate) || static_cast<bool>(action);
  }
};

/// An extended Timed Petri Net: the static structure the tools operate on.
///
/// Construction is incremental (add_place/add_transition/add_* arcs plus
/// property setters); `validate()` reports structural problems. Element
/// names must be unique within their kind — every tool (stat reports,
/// tracertool signals, textual format, queries) addresses elements by name.
class Net {
 public:
  Net() = default;
  explicit Net(std::string name) : name_(std::move(name)) {}

  // --- construction -------------------------------------------------------

  PlaceId add_place(std::string_view name, TokenCount initial_tokens = 0,
                    std::optional<TokenCount> capacity = std::nullopt);
  TransitionId add_transition(std::string_view name);

  void add_input(TransitionId t, PlaceId p, TokenCount weight = 1);
  void add_output(TransitionId t, PlaceId p, TokenCount weight = 1);
  void add_inhibitor(TransitionId t, PlaceId p, TokenCount threshold = 1);

  void set_firing_time(TransitionId t, DelaySpec spec);
  void set_enabling_time(TransitionId t, DelaySpec spec);
  void set_frequency(TransitionId t, double frequency);
  void set_policy(TransitionId t, FiringPolicy policy);
  void set_predicate(TransitionId t, Predicate predicate);
  void set_action(TransitionId t, Action action);
  void set_initial_tokens(PlaceId p, TokenCount tokens);

  /// Initial variable bindings for interpreted nets (the engines lay them
  /// out as the initial DataFrame, expr/program.h).
  DataContext& initial_data() { return initial_data_; }
  [[nodiscard]] const DataContext& initial_data() const { return initial_data_; }

  // --- access --------------------------------------------------------------

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  [[nodiscard]] std::size_t num_places() const { return places_.size(); }
  [[nodiscard]] std::size_t num_transitions() const { return transitions_.size(); }

  [[nodiscard]] const Place& place(PlaceId id) const { return places_.at(id.value); }
  [[nodiscard]] const Transition& transition(TransitionId id) const {
    return transitions_.at(id.value);
  }

  [[nodiscard]] const std::vector<Place>& places() const { return places_; }
  [[nodiscard]] const std::vector<Transition>& transitions() const { return transitions_; }

  /// Name lookup; nullopt if absent. O(1) via the hashed name index
  /// maintained on add_place/add_transition (duplicates keep the first id,
  /// matching the historical first-match scan; validate() still reports
  /// duplicate names as a structural problem).
  [[nodiscard]] std::optional<PlaceId> find_place(std::string_view name) const;
  [[nodiscard]] std::optional<TransitionId> find_transition(std::string_view name) const;

  /// Name lookup; throws std::invalid_argument with the offending name.
  [[nodiscard]] PlaceId place_named(std::string_view name) const;
  [[nodiscard]] TransitionId transition_named(std::string_view name) const;

  // --- structural queries --------------------------------------------------

  /// Transitions with an input arc from `p` (token consumers).
  [[nodiscard]] std::vector<TransitionId> consumers_of(PlaceId p) const;
  /// Transitions with an output arc to `p` (token producers).
  [[nodiscard]] std::vector<TransitionId> producers_of(PlaceId p) const;
  /// Transitions with an inhibitor arc testing `p`.
  [[nodiscard]] std::vector<TransitionId> inhibited_by(PlaceId p) const;

  /// Total tokens consumed from / produced to `p` per firing of `t`
  /// (0 if no arc). Used by invariant checks and the marked-graph analyzer.
  [[nodiscard]] TokenCount input_weight(TransitionId t, PlaceId p) const;
  [[nodiscard]] TokenCount output_weight(TransitionId t, PlaceId p) const;

  /// True if every place has at most one producer and one consumer and no
  /// inhibitor arcs — a marked graph, amenable to analytic cycle-time
  /// bounds (src/analysis/marked_graph.h).
  [[nodiscard]] bool is_marked_graph() const;

  // --- validation ----------------------------------------------------------

  /// Structural diagnostics: duplicate/empty names, zero arc weights,
  /// duplicate arcs, non-positive frequencies, initial tokens above
  /// capacity, transitions with no arcs at all. Empty result = valid.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Throws std::invalid_argument listing all diagnostics if invalid.
  void validate_or_throw() const;

 private:
  void check_place(PlaceId id) const;
  void check_transition(TransitionId id) const;

  std::string name_;
  std::vector<Place> places_;
  std::vector<Transition> transitions_;
  NameIndex place_index_;
  NameIndex transition_index_;
  DataContext initial_data_;
};

}  // namespace pnut
