#include "support/env.hpp"

#include <cstdlib>

#include "support/error.hpp"

namespace care {

std::optional<std::uint64_t> parseDecimal(const std::string& s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - d) / 10)
      return std::nullopt;
    v = v * 10 + d;
  }
  return v;
}

std::uint64_t envDecimal(const char* name, std::uint64_t fallback,
                         std::uint64_t max) {
  const char* s = std::getenv(name);
  if (!s || !*s) return fallback;
  const std::optional<std::uint64_t> v = parseDecimal(s);
  if (!v || *v > max)
    raise(std::string("invalid ") + name + "='" + s +
          "' (expected a decimal number up to " + std::to_string(max) + ")");
  return *v;
}

} // namespace care
