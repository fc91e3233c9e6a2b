#pragma once

#include <charconv>
#include <string>

namespace smartflux {

/// Appends `v` exactly as printf("%.17g") renders it: 17 significant digits
/// (enough to round-trip every double), "inf"/"-inf"/"nan"/"-nan" for the
/// non-finite values. std::to_chars skips printf's format parsing and
/// locale lookup. The one number format of scan bodies, GET replies and the
/// metrics exposition.
inline void append_double(std::string& out, double v) {
  char buf[32];  // "%.17g" needs at most 24: sign, 17 digits, '.', "e-308"
  const auto result = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, result.ptr);
}

inline std::string format_double(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

}  // namespace smartflux
