// A state space's data variable, read by name.
//
// StateSpace resolves a variable name once (find_variable) and reads it by
// slot (variable), which is what the query engine and the tracer do. Tests
// that read one variable in a few states name it here instead.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "analysis/state_space.h"

namespace pnut::test_support {

/// `name`'s value in `state`; nullopt if the space has no such variable or
/// the state does not hold it.
[[nodiscard]] inline std::optional<std::int64_t> variable_named(
    const analysis::StateSpace& space, std::size_t state, std::string_view name) {
  const auto slot = space.find_variable(name);
  return slot ? space.variable(state, *slot) : std::nullopt;
}

}  // namespace pnut::test_support
