// Strict parsing of the numeric CARE_* environment knobs.
//
// A malformed knob is a hard error, never a silent fallback: "abc" must not
// quietly disable a feature and "5k" must not read as 5.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

namespace care {

/// `s` as a plain decimal number: one or more ASCII digits, with no sign,
/// whitespace or suffix, and no overflow. nullopt on anything else.
std::optional<std::uint64_t> parseDecimal(const std::string& s);

/// The environment variable `name` read with parseDecimal, or `fallback`
/// when it is unset or empty. A malformed value, or one above `max`,
/// throws care::Error naming the variable.
std::uint64_t envDecimal(
    const char* name, std::uint64_t fallback,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

} // namespace care
