#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/format.h"

namespace smartflux {
namespace {

std::string printf_17g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

TEST(FormatDouble, MatchesPrintfOnSpecialValues) {
  using limits = std::numeric_limits<double>;
  const std::vector<double> values = {
      0.0,
      -0.0,
      limits::infinity(),
      -limits::infinity(),
      limits::quiet_NaN(),
      -limits::quiet_NaN(),
      from_bits(0x7ff0000000000001ULL),  // signalling NaN bit pattern
      from_bits(0xfff8000000000123ULL),  // negative NaN with a payload
      limits::denorm_min(),
      -limits::denorm_min(),
      from_bits(0x000fffffffffffffULL),  // largest denormal
      limits::min(),
      limits::max(),
      limits::lowest(),
      limits::epsilon(),
      0.1,
      1.0 / 3.0,
      1.0,
      -1.5,
      100.0,
      1e16,
      1e17,
      123456789012345678.0,
      1e21,
      1e-4,
      1e-5,
      12345.678,
  };
  for (const double v : values) {
    EXPECT_EQ(format_double(v), printf_17g(v)) << "bits 0x" << std::hex << bits_of(v);
  }
}

TEST(FormatDouble, MatchesPrintfOnSeededRandomBitPatterns) {
  std::mt19937_64 rng(17);
  std::string appended;
  std::size_t mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t bits = rng();
    const double v = from_bits(bits);
    const std::string want = printf_17g(v);
    appended.clear();
    append_double(appended, v);
    if (appended != want && ++mismatches <= 5) {
      ADD_FAILURE() << "bits 0x" << std::hex << bits << ": to_chars '" << appended
                    << "' vs printf '" << want << "'";
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(FormatDouble, AppendsWithoutTouchingThePrefix) {
  std::string out = "value=";
  append_double(out, 2.5);
  out += ',';
  append_double(out, -0.0);
  EXPECT_EQ(out, "value=2.5,-0");
}

}  // namespace
}  // namespace smartflux
