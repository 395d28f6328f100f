// Golden fingerprints for pins frozen from an earlier build.
//
// Order-sensitive FNV-1a hashes over every observable field of an untimed
// or timed reachability graph, a recorded trace, a data context or a
// RunStats (doubles by bit pattern, strings length-prefixed), so a test can
// assert byte-identity against a constant recorded when a since-deleted
// oracle (the AST/DataContext execution path, the decode/encode timed
// successor rule) still ran beside its replacement.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/reachability.h"
#include "analysis/timed_reachability.h"
#include "petri/data_context.h"
#include "stat/stat.h"
#include "trace/trace.h"

namespace pnut::test_support {

/// A fingerprint as a C++ literal, so a failing pin prints the constant to
/// paste.
[[nodiscard]] inline std::string hex_literal(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxULL", static_cast<unsigned long long>(v));
  return buf;
}

class Fingerprint {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ULL;
  }
  std::uint64_t h_ = 14695981039346656037ULL;
};

inline void add_data(Fingerprint& f, const DataContext& d) {
  f.u64(d.scalars().size());
  for (const auto& [name, value] : d.scalars()) {
    f.str(name);
    f.i64(value);
  }
  f.u64(d.tables().size());
  for (const auto& [name, values] : d.tables()) {
    f.str(name);
    f.u64(values.size());
    for (const std::int64_t v : values) f.i64(v);
  }
}

[[nodiscard]] inline std::uint64_t hash_data(const DataContext& d) {
  Fingerprint f;
  add_data(f, d);
  return f.value();
}

[[nodiscard]] inline std::uint64_t hash_trace(const RecordedTrace& trace) {
  Fingerprint f;
  const TraceHeader& h = trace.header();
  f.str(h.net_name);
  f.u64(h.place_names.size());
  for (const std::string& n : h.place_names) f.str(n);
  f.u64(h.transition_names.size());
  for (const std::string& n : h.transition_names) f.str(n);
  f.u64(h.initial_marking.tokens().size());
  for (const TokenCount t : h.initial_marking.tokens()) f.u64(t);
  add_data(f, h.initial_data);
  f.f64(h.start_time);
  f.u64(trace.events().size());
  for (const TraceEvent& ev : trace.events()) {
    f.u64(static_cast<std::uint64_t>(ev.kind));
    f.f64(ev.time);
    f.u64(ev.transition.value);
    f.u64(ev.firing_id);
    for (const auto* deltas : {&ev.consumed, &ev.produced}) {
      f.u64(deltas->size());
      for (const TokenDelta& d : *deltas) {
        f.u64(d.place.value);
        f.u64(d.count);
      }
    }
    f.u64(ev.scalar_updates.size());
    for (const ScalarUpdate& u : ev.scalar_updates) {
      f.str(u.name);
      f.i64(u.value);
    }
    f.u64(ev.table_updates.size());
    for (const TableUpdate& u : ev.table_updates) {
      f.str(u.name);
      f.i64(u.index);
      f.i64(u.value);
    }
  }
  f.f64(trace.end_time());
  f.u64(trace.complete() ? 1 : 0);
  return f.value();
}

[[nodiscard]] inline std::uint64_t hash_stats(const RunStats& s) {
  Fingerprint f;
  f.i64(s.run_number);
  f.f64(s.initial_clock);
  f.f64(s.length);
  f.u64(s.events_started);
  f.u64(s.events_finished);
  f.u64(s.transitions.size());
  for (const TransitionStats& t : s.transitions) {
    f.str(t.name);
    f.u64(t.min_concurrent);
    f.u64(t.max_concurrent);
    f.f64(t.avg_concurrent);
    f.f64(t.stddev_concurrent);
    f.u64(t.starts);
    f.u64(t.ends);
    f.f64(t.throughput);
  }
  f.u64(s.places.size());
  for (const PlaceStats& p : s.places) {
    f.str(p.name);
    f.u64(p.min_tokens);
    f.u64(p.max_tokens);
    f.f64(p.avg_tokens);
    f.f64(p.stddev_tokens);
  }
  return f.value();
}

/// Status, sizes, expanded prefix, deadlocks, and per state: tokens, edge
/// row, each named variable (presence and value) and every transition's
/// activity (enablement, predicates included).
[[nodiscard]] inline std::uint64_t hash_graph(const analysis::ReachabilityGraph& g,
                                              const std::vector<std::string>& scalars,
                                              std::size_t num_transitions) {
  Fingerprint f;
  f.u64(static_cast<std::uint64_t>(g.status()));
  f.u64(g.num_states());
  f.u64(g.num_edges());
  f.u64(g.num_expanded());
  for (const std::size_t s : g.deadlock_states()) f.u64(s);
  for (std::size_t s = 0; s < g.num_states(); ++s) {
    for (const TokenCount t : g.tokens(s)) f.u64(t);
    f.u64(g.edges(s).size());
    for (const auto& e : g.edges(s)) {
      f.u64(e.transition.value);
      f.u64(e.target);
    }
    for (const std::string& name : scalars) {
      const auto v = g.variable(s, name);
      f.u64(v ? 1 : 0);
      f.i64(v.value_or(0));
    }
    for (std::uint32_t t = 0; t < num_transitions; ++t) {
      f.i64(g.transition_activity(s, TransitionId(t)));
    }
  }
  return f.value();
}

/// Status, sizes, and per state: the full interned words (marking |
/// enabling timers | in-flight counts), earliest time, expanded flag and
/// edge row (label, the tick as UINT64_MAX, and target). The timed pins
/// were recorded while the timed graph had a status enum of its own,
/// without kUnbounded (which it never reports), so the status is hashed in
/// that numbering: complete 0, truncated 1, timeout 2, cancelled 3.
[[nodiscard]] inline std::uint64_t hash_timed_graph(
    const analysis::TimedReachabilityGraph& g) {
  Fingerprint f;
  const auto status = static_cast<std::uint64_t>(g.status());
  f.u64(status > static_cast<std::uint64_t>(analysis::ReachStatus::kUnbounded) ? status - 1
                                                                                : status);
  f.u64(g.num_states());
  f.u64(g.num_expanded());
  for (std::size_t s = 0; s < g.num_states(); ++s) {
    const auto words = g.state_words(s);
    f.u64(words.size());
    for (const std::uint32_t w : words) f.u64(w);
    f.u64(g.earliest_time(s));
    f.u64(g.state_expanded(s) ? 1 : 0);
    f.u64(g.edges(s).size());
    for (const auto& e : g.edges(s)) {
      f.u64(e.transition ? e.transition->value : UINT64_MAX);
      f.u64(e.target);
    }
  }
  return f.value();
}

}  // namespace pnut::test_support
