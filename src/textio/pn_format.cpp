#include "textio/pn_format.h"

#include <cctype>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <algorithm>

#include "expr/compile.h"
#include "expr/lexer.h"
#include "expr/parser.h"
#include "util/parse_number.h"

namespace pnut::textio {

namespace {

struct Word {
  std::string text;
  bool quoted = false;
  std::size_t line = 0;
};

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw std::runtime_error(".pn format, line " + std::to_string(line) + ": " + message);
}

/// Split the whole input into words, attaching line numbers. Commas are
/// separators; quoted strings become single words with quoted=true;
/// '#' starts a comment to end of line.
std::vector<Word> scan(std::string_view text) {
  std::vector<Word> words;
  std::size_t line = 1;
  std::size_t i = 0;
  const std::size_t n = text.size();
  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0 || c == ',') {
      ++i;
      continue;
    }
    if (c == '#') {
      while (i < n && text[i] != '\n') ++i;
      continue;
    }
    if (c == '"') {
      const std::size_t start_line = line;
      std::string value;
      ++i;
      while (i < n && text[i] != '"') {
        if (text[i] == '\n') ++line;
        value += text[i++];
      }
      if (i >= n) fail(start_line, "unterminated string literal");
      ++i;  // closing quote
      words.push_back(Word{std::move(value), true, start_line});
      continue;
    }
    std::size_t j = i;
    while (j < n && std::isspace(static_cast<unsigned char>(text[j])) == 0 &&
           text[j] != ',' && text[j] != '#' && text[j] != '"') {
      ++j;
    }
    words.push_back(Word{std::string(text.substr(i, j - i)), false, line});
    i = j;
  }
  return words;
}

bool is_declaration(const Word& w) {
  return !w.quoted && (w.text == "net" || w.text == "var" || w.text == "table" ||
                       w.text == "place" || w.text == "trans" || w.text == "fn" ||
                       w.text == "param" || w.text == "array");
}

bool is_clause(const Word& w) {
  return !w.quoted &&
         (w.text == "in" || w.text == "out" || w.text == "inhibit" || w.text == "firing" ||
          w.text == "enabling" || w.text == "freq" || w.text == "policy" ||
          w.text == "when" || w.text == "do");
}

class PnParser {
 public:
  explicit PnParser(std::string_view text) : words_(scan(text)) {}

  NetDocument parse() {
    while (!at_end()) {
      const Word& w = peek();
      if (!is_declaration(w)) fail(w.line, "expected a declaration, got '" + w.text + "'");
      if (w.text == "net") parse_net_name();
      else if (w.text == "fn") parse_fn();
      else if (w.text == "param") parse_param();
      else if (w.text == "var") parse_var();
      else if (w.text == "table") parse_table();
      else if (w.text == "array") parse_array();
      else if (w.text == "place") parse_place();
      else parse_transition();
    }
    doc_.net.validate_or_throw();
    return std::move(doc_);
  }

 private:
  [[nodiscard]] bool at_end() const { return pos_ >= words_.size(); }
  [[nodiscard]] const Word& peek() const { return words_[pos_]; }
  const Word& take() { return words_[pos_++]; }

  const Word& take_word(const char* what) {
    if (at_end()) fail(last_line(), std::string("unexpected end of input, expected ") + what);
    return take();
  }

  [[nodiscard]] std::size_t last_line() const {
    return words_.empty() ? 1 : words_.back().line;
  }

  std::int64_t take_int(const char* what) {
    const Word& w = take_word(what);
    const auto v = parse_int<std::int64_t>(w.text);
    if (!v) fail(w.line, std::string("expected integer ") + what + ", got '" + w.text + "'");
    return *v;
  }

  TokenCount take_count(const char* what) {
    const Word& w = take_word(what);
    const auto v = parse_int<TokenCount>(w.text);
    if (!v) {
      fail(w.line, std::string("expected integer ") + what + " in [0, " +
                       std::to_string(std::numeric_limits<TokenCount>::max()) + "], got '" +
                       w.text + "'");
    }
    return *v;
  }

  double take_frequency() {
    const Word& w = take_word("frequency");
    const auto v = parse_finite_number(w.text);
    if (!v || *v <= 0) fail(w.line, "expected a finite positive frequency, got '" + w.text + "'");
    return *v;
  }

  void parse_net_name() {
    take();  // 'net'
    doc_.net.set_name(take_word("net name").text);
  }

  /// Re-anchor a ParseError from an embedded expression string at its
  /// absolute document line, with the expression's caret snippet attached.
  [[noreturn]] void fail_expr(const Word& src, const char* what,
                              const expr::ParseError& e) {
    const std::size_t abs_line =
        src.line + (e.line() > 0 ? e.line() - 1 : 0);
    std::string message = std::string("bad ") + what + ": " + e.what();
    std::string caret = expr::render_caret(src.text, e.line(), e.col());
    while (!caret.empty() && caret.back() == '\n') caret.pop_back();
    if (!caret.empty()) message += "\n" + caret;
    fail(abs_line, message);
  }

  void parse_fn() {
    take();  // 'fn'
    const Word& src = take_word("function definition string");
    if (!src.quoted) fail(src.line, "fn definition must be a quoted string");
    try {
      doc_.functions.functions.push_back(
          expr::parse_function(src.text, &doc_.functions));
    } catch (const expr::ParseError& e) {
      fail_expr(src, "fn definition", e);
    }
    doc_.function_sources.push_back(src.text);
  }

  void parse_param() {
    const Word& kw = take();  // 'param'
    const std::string name = take_word("parameter name").text;
    if (std::find(doc_.params.begin(), doc_.params.end(), name) !=
            doc_.params.end() ||
        doc_.net.initial_data().scalars().count(name) != 0) {
      fail(kw.line, "duplicate param '" + name + "'");
    }
    doc_.net.initial_data().set(name, take_int("parameter value"));
    doc_.params.push_back(name);
  }

  void parse_array() {
    const Word& kw = take();  // 'array'
    const std::string name = take_word("array name").text;
    if (doc_.net.initial_data().tables().count(name) != 0) {
      fail(kw.line, "duplicate table '" + name + "'");
    }
    const std::int64_t extent = take_int("array extent");
    if (extent < 1) {
      fail(kw.line, "array extent must be at least 1, got " +
                        std::to_string(extent));
    }
    if (extent > expr::kMaxArrayExtent) {
      fail(kw.line, "array extent " + std::to_string(extent) +
                        " exceeds the bound (" +
                        std::to_string(expr::kMaxArrayExtent) + ")");
    }
    doc_.net.initial_data().set_table(
        name, std::vector<std::int64_t>(static_cast<std::size_t>(extent), 0));
    doc_.arrays.push_back(name);
  }

  void parse_var() {
    take();  // 'var'
    const std::string name = take_word("variable name").text;
    doc_.net.initial_data().set(name, take_int("variable value"));
  }

  void parse_table() {
    take();  // 'table'
    const std::string name = take_word("table name").text;
    std::vector<std::int64_t> values;
    while (!at_end() && !is_declaration(peek()) && !is_clause(peek())) {
      values.push_back(take_int("table entry"));
    }
    doc_.net.initial_data().set_table(name, std::move(values));
  }

  void parse_place() {
    const Word& kw = take();  // 'place'
    const std::string name = take_word("place name").text;
    if (doc_.net.find_place(name)) fail(kw.line, "duplicate place '" + name + "'");
    TokenCount init = 0;
    std::optional<TokenCount> capacity;
    while (!at_end() && !is_declaration(peek()) && !is_clause(peek())) {
      const Word& option = take();
      if (option.text == "init") {
        init = take_count("initial token count");
      } else if (option.text == "capacity") {
        capacity = take_count("capacity");
      } else {
        fail(option.line, "unknown place option '" + option.text + "'");
      }
    }
    doc_.net.add_place(name, init, capacity);
  }

  /// `Name` or `Name*weight`.
  std::pair<std::string, TokenCount> parse_arc_ref(const Word& w) {
    const auto star = w.text.find('*');
    if (star == std::string::npos) return {w.text, 1};
    const std::string name = w.text.substr(0, star);
    const auto weight = parse_int<TokenCount>(std::string_view(w.text).substr(star + 1));
    if (!weight) {
      fail(w.line, "bad arc weight in '" + w.text + "' (expected an integer in [0, " +
                       std::to_string(std::numeric_limits<TokenCount>::max()) + "])");
    }
    return {name, *weight};
  }

  PlaceId place_ref(const Word& w, const std::string& name) {
    if (auto id = doc_.net.find_place(name)) return *id;
    fail(w.line, "unknown place '" + name + "' (declare places before transitions)");
  }

  DelaySpec parse_delay(std::size_t line) {
    const Word& first = take_word("delay specification");
    if (first.quoted) fail(first.line, "delay: unexpected string (use `expr \"...\"`)");
    if (first.text == "uniform") {
      const std::int64_t lo = take_int("uniform lower bound");
      const std::int64_t hi = take_int("uniform upper bound");
      if (lo < 0 || hi < lo) {
        fail(first.line, "uniform delay bounds must satisfy 0 <= lo <= hi, got " +
                             std::to_string(lo) + " " + std::to_string(hi));
      }
      return DelaySpec::uniform_int(lo, hi);
    }
    if (first.text == "discrete") {
      std::vector<std::pair<Time, double>> choices;
      double total = 0;
      while (!at_end() && !is_declaration(peek()) && !is_clause(peek())) {
        const Word& w = take();
        const auto colon = w.text.find(':');
        if (colon == std::string::npos) {
          fail(w.line, "discrete delay entries are value:weight, got '" + w.text + "'");
        }
        const std::string_view entry(w.text);
        const auto value = parse_finite_number(entry.substr(0, colon));
        const auto weight = parse_finite_number(entry.substr(colon + 1));
        if (!value || !weight || *value < 0 || *weight < 0) {
          fail(w.line, "bad discrete delay entry '" + w.text +
                           "' (expected value:weight, both finite and non-negative)");
        }
        choices.emplace_back(*value, *weight);
        total += *weight;
      }
      if (choices.empty()) fail(line, "discrete delay needs at least one value:weight");
      if (total <= 0) fail(line, "discrete delay weights sum to zero");
      return DelaySpec::discrete(std::move(choices));
    }
    if (first.text == "expr") {
      const Word& src = take_word("delay expression string");
      if (!src.quoted) fail(src.line, "delay expression must be a quoted string");
      try {
        return expr::compile_delay(src.text, &doc_.functions);
      } catch (const expr::ParseError& e) {
        fail_expr(src, "delay expression", e);
      }
    }
    const auto v = parse_finite_number(first.text);
    if (!v || *v < 0) fail(first.line, "bad delay '" + first.text + "'");
    return DelaySpec::constant(*v);
  }

  void parse_transition() {
    const Word& kw = take();  // 'trans'
    const std::string name = take_word("transition name").text;
    if (doc_.net.find_transition(name)) fail(kw.line, "duplicate transition '" + name + "'");
    const TransitionId t = doc_.net.add_transition(name);

    while (!at_end() && is_clause(peek())) {
      const Word clause = take();
      if (clause.text == "in" || clause.text == "out" || clause.text == "inhibit") {
        bool any = false;
        while (!at_end() && !is_declaration(peek()) && !is_clause(peek())) {
          const Word& w = take();
          const auto [pname, weight] = parse_arc_ref(w);
          const PlaceId p = place_ref(w, pname);
          if (clause.text == "in") doc_.net.add_input(t, p, weight);
          else if (clause.text == "out") doc_.net.add_output(t, p, weight);
          else doc_.net.add_inhibitor(t, p, weight);
          any = true;
        }
        if (!any) fail(clause.line, "'" + clause.text + "' clause lists no places");
      } else if (clause.text == "firing") {
        doc_.net.set_firing_time(t, parse_delay(clause.line));
      } else if (clause.text == "enabling") {
        doc_.net.set_enabling_time(t, parse_delay(clause.line));
      } else if (clause.text == "freq") {
        doc_.net.set_frequency(t, take_frequency());
      } else if (clause.text == "policy") {
        const Word& w = take_word("policy (single|infinite)");
        if (w.text == "single") doc_.net.set_policy(t, FiringPolicy::kSingleServer);
        else if (w.text == "infinite") doc_.net.set_policy(t, FiringPolicy::kInfiniteServer);
        else fail(w.line, "unknown policy '" + w.text + "'");
      } else if (clause.text == "when") {
        const Word& src = take_word("predicate string");
        if (!src.quoted) fail(src.line, "predicate must be a quoted string");
        try {
          doc_.net.set_predicate(t, expr::compile_predicate(src.text, &doc_.functions));
        } catch (const expr::ParseError& e) {
          fail_expr(src, "predicate", e);
        }
      } else if (clause.text == "do") {
        const Word& src = take_word("action string");
        if (!src.quoted) fail(src.line, "action must be a quoted string");
        try {
          doc_.net.set_action(t, expr::compile_action(src.text, &doc_.functions));
        } catch (const expr::ParseError& e) {
          fail_expr(src, "action", e);
        }
      }
    }
  }

  std::vector<Word> words_;
  std::size_t pos_ = 0;
  NetDocument doc_;
};

std::string format_number(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

/// Render a delay clause, or return false if it is the zero constant.
bool print_delay(std::ostringstream& out, const char* keyword, const DelaySpec& spec) {
  switch (spec.kind()) {
    case DelaySpec::Kind::kConstant:
      if (spec.is_statically_zero()) return false;
      out << ' ' << keyword << ' ' << format_number(spec.constant_value());
      return true;
    case DelaySpec::Kind::kUniform: {
      const auto [lo, hi] = spec.uniform_bounds();
      out << ' ' << keyword << " uniform " << lo << ' ' << hi;
      return true;
    }
    case DelaySpec::Kind::kDiscrete:
      out << ' ' << keyword << " discrete";
      for (const auto& [value, weight] : spec.choices()) {
        out << ' ' << format_number(value) << ':' << format_number(weight);
      }
      return true;
    case DelaySpec::Kind::kComputed:
      out << ' ' << keyword << " expr \"" << spec.computed_delay().source << '"';
      return true;
  }
  return false;
}

std::string print_document(const Net& net, const NetDocument* doc) {
  std::ostringstream out;
  if (!net.name().empty()) out << "net " << net.name() << "\n";

  // fn declarations first: later fns and every transition hook may call them.
  if (doc != nullptr) {
    for (const std::string& source : doc->function_sources) {
      out << "fn \"" << source << "\"\n";
    }
  }
  const auto is_param = [&](const std::string& name) {
    return doc != nullptr &&
           std::find(doc->params.begin(), doc->params.end(), name) !=
               doc->params.end();
  };
  const auto is_array = [&](const std::string& name) {
    return doc != nullptr &&
           std::find(doc->arrays.begin(), doc->arrays.end(), name) !=
               doc->arrays.end();
  };
  if (doc != nullptr) {
    for (const std::string& name : doc->params) {
      out << "param " << name << ' ' << net.initial_data().scalars().at(name)
          << '\n';
    }
  }
  for (const auto& [name, value] : net.initial_data().scalars()) {
    if (!is_param(name)) out << "var " << name << ' ' << value << '\n';
  }
  for (const auto& [name, values] : net.initial_data().tables()) {
    if (is_array(name)) {
      out << "array " << name << ' ' << values.size() << '\n';
      continue;
    }
    out << "table " << name;
    for (std::int64_t v : values) out << ' ' << v;
    out << '\n';
  }

  for (const Place& p : net.places()) {
    out << "place " << p.name;
    if (p.initial_tokens != 0) out << " init " << p.initial_tokens;
    if (p.capacity) out << " capacity " << *p.capacity;
    out << '\n';
  }

  for (const Transition& tr : net.transitions()) {
    out << "trans " << tr.name;
    auto arcs = [&](const char* keyword, const std::vector<Arc>& list) {
      if (list.empty()) return;
      out << ' ' << keyword;
      for (std::size_t k = 0; k < list.size(); ++k) {
        out << (k == 0 ? " " : ", ") << net.place(list[k].place).name;
        if (list[k].weight != 1) out << '*' << list[k].weight;
      }
    };
    arcs("in", tr.inputs);
    arcs("inhibit", tr.inhibitors);
    arcs("out", tr.outputs);
    print_delay(out, "firing", tr.firing_time);
    print_delay(out, "enabling", tr.enabling_time);
    if (tr.frequency != 1.0) out << " freq " << format_number(tr.frequency);
    if (tr.policy == FiringPolicy::kInfiniteServer) out << " policy infinite";

    if (tr.predicate) out << " when \"" << tr.predicate.source << '"';
    if (tr.action) out << " do \"" << tr.action.source << '"';
    out << '\n';
  }
  return out.str();
}

}  // namespace

NetDocument parse_net(std::string_view text) { return PnParser(text).parse(); }

std::string print_net(const NetDocument& doc) { return print_document(doc.net, &doc); }

std::string print_net(const Net& net) { return print_document(net, nullptr); }

}  // namespace pnut::textio
