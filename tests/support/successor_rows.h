// A state space's successor relation, read one state's row at a time.
//
// StateSpace exposes successors only as bulk CSR rows (successor_rows, what
// the query engine's temporal fixpoints scan). Tests that ask about one
// state's successors read the rows once and index them here.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/state_space.h"

namespace pnut::test_support {

class SuccessorRows {
 public:
  explicit SuccessorRows(const analysis::StateSpace& space) {
    space.successor_rows(offsets_, targets_);
  }

  /// State `state`'s successor indices, in the space's edge order.
  [[nodiscard]] std::span<const std::uint32_t> of(std::size_t state) const {
    return std::span<const std::uint32_t>(targets_).subspan(
        offsets_[state], offsets_[state + 1] - offsets_[state]);
  }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<std::uint32_t> targets_;
};

}  // namespace pnut::test_support
