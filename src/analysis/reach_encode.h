// Shared helpers for the untimed reachability explorers.
//
// The sequential builder (reachability.cpp) and the parallel engine
// (parallel_exploration.cpp) must agree *exactly* on which successors a
// state has — the differential tests pin the two paths bit-identical — so
// the capacity check and the action-sampling seeds live here, in one
// place, instead of being duplicated per explorer. (The data words of a
// state are DataSchema's encoding, petri/data_frame.h.)
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "petri/compiled_net.h"

namespace pnut::analysis::detail {

/// Would firing `t` from marking `tokens` overflow any capacity?
inline bool overflows_capacity(const CompiledNet& net, std::span<const TokenCount> tokens,
                               TransitionId t) {
  for (const Arc& a : net.outputs(t)) {
    const auto capacity = net.capacity(a.place);
    if (!capacity) continue;
    TokenCount after = tokens[a.place.value] + a.weight;
    // Tokens consumed from the same place by this firing offset the gain.
    for (const Arc& in : net.inputs(t)) {
      if (in.place == a.place) after -= std::min(after, in.weight);
    }
    if (after > *capacity) return true;
  }
  return false;
}

/// Deterministic per-(state, transition, sample) RNG seed for stochastic
/// action sampling. Both explorers must draw identical outcome sequences,
/// so the mixing function is defined once here. `state` is the state's
/// canonical (BFS discovery order) index.
[[nodiscard]] inline std::uint64_t action_sample_seed(std::uint32_t state,
                                                      std::uint32_t transition,
                                                      std::size_t sample) {
  return 0x9e3779b97f4a7c15ULL ^ (state * 0x100000001b3ULL) ^
         (static_cast<std::uint64_t>(transition) << 32) ^ sample;
}

}  // namespace pnut::analysis::detail
