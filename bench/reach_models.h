// Shared stress model + pre-refactor goldens for the reachability core.
//
// Used by bench/bench_reach.cpp (throughput + counts-match reporting) and
// tests/analysis_exploration_equivalence_test.cpp (hard count pins), so the
// generated net and the golden numbers cannot drift apart between the two.
//
// The goldens were captured from the pre-StateStore implementation
// (string-keyed unordered_map interning) immediately before the port; they
// are frozen equivalence anchors, not regenerable outputs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "petri/net.h"

namespace pnut::reach_models {

struct Golden {
  std::size_t states;
  std::size_t edges;
  std::size_t deadlocks;
};

inline constexpr Golden kFig1Prefetch{24, 42, 0};
inline constexpr Golden kFig4Interpreted{5089, 11163, 0};
inline constexpr Golden kFullModel{772, 2537, 0};
inline constexpr Golden kStressRing38x5{850'668, 3'848'260, 0};

/// Ring of `places` places with `tokens` tokens circulating: the state
/// space is every way to distribute the tokens over the ring,
/// C(places + tokens - 1, tokens) states. 38 places x 5 tokens = 850,668
/// states / 3.8M edges — the million-state-class stress net.
inline Net stress_ring(std::size_t places, TokenCount tokens) {
  Net net("stress_ring");
  std::vector<PlaceId> ps;
  ps.reserve(places);
  for (std::size_t i = 0; i < places; ++i) {
    ps.push_back(net.add_place("p" + std::to_string(i), i == 0 ? tokens : 0));
  }
  for (std::size_t i = 0; i < places; ++i) {
    const TransitionId t = net.add_transition("t" + std::to_string(i));
    net.add_input(t, ps[i]);
    net.add_output(t, ps[(i + 1) % places]);
  }
  return net;
}

/// Timed stress net for the timed-graph benches and goldens. A plain
/// delayed ring is useless for this — maximal progress makes lockstep
/// tokens march deterministically and the graph collapses to a few hundred
/// states — so every place instead feeds TWO competitors
/// with the *same* enabling delay (a same-instant race: both are ready on
/// the same tick, and the timed graph must branch on who takes the token)
/// whose firings travel different distances for different durations (hop 1
/// in 1 cycle, hop 2 in 2): the in-flight completions desynchronize the
/// tokens, so markings, enabling timers and in-flight counts all vary
/// independently. A token every 3rd place of a 12-ring yields 418,593
/// timed states and 817,242 edges.
inline Net timed_race_ring(std::size_t places, std::size_t token_spread) {
  Net net("timed_race_ring");
  std::vector<PlaceId> ps;
  ps.reserve(places);
  for (std::size_t i = 0; i < places; ++i) {
    ps.push_back(net.add_place("p" + std::to_string(i), i % token_spread == 0 ? 1 : 0));
  }
  for (std::size_t i = 0; i < places; ++i) {
    for (const std::size_t hop : {std::size_t{1}, std::size_t{2}}) {
      const TransitionId t =
          net.add_transition("t" + std::to_string(i) + "_" + std::to_string(hop));
      net.add_input(t, ps[i]);
      net.add_output(t, ps[(i + hop) % places]);
      net.set_enabling_time(t, DelaySpec::constant(1));
      net.set_firing_time(t, DelaySpec::constant(static_cast<Time>(hop)));
    }
  }
  return net;
}

}  // namespace pnut::reach_models
