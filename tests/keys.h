#pragma once

#include <string>
#include <string_view>

namespace smartflux::test {

/// `prefix` followed by the decimal `n`, e.g. key("r", 7) == "r7". Built by
/// appending: g++ 12 at -O3 flags `"r" + std::to_string(n)` with a false
/// -Wrestrict inside libstdc++'s string insert.
template <typename Int>
std::string key(std::string_view prefix, Int n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

}  // namespace smartflux::test
