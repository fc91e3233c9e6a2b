#pragma once

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>

namespace smartflux::workloads {

inline void append_key_part(std::string& out, std::string_view text) { out += text; }

/// Decimal digits, as std::to_string writes them.
template <std::integral Int>
void append_key_part(std::string& out, Int n) {
  char digits[24];
  out.append(digits, std::to_chars(digits, digits + sizeof digits, n).ptr);
}

/// Appends text and integers into one key, e.g. row_key("s", 3, "_", 4) ==
/// "s3_4": the same bytes as `"s" + std::to_string(3) + ...`, without its
/// temporaries or the false -Wrestrict g++ 12 reports for that chain at -O2.
/// No reserve: every workload key fits the small-string buffer, where
/// reserving changes nothing.
template <typename... Parts>
std::string row_key(const Parts&... parts) {
  std::string out;
  (append_key_part(out, parts), ...);
  return out;
}

}  // namespace smartflux::workloads
