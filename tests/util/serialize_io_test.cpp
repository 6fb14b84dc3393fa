// Strict number parsing shared by the corpus, journal and model readers:
// parse_f64_strict must accept exactly the tokens, and produce exactly the
// bits, of an end-pointer-validated strtod that rejects overflow. Its
// from_chars fast path for hexfloat tokens, positive and negative, is
// pinned against that strtod reference on the edge cases where the two
// parsers differ and on random spellings.
#include "util/serialize_io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/rng.hpp"

namespace smart::util {
namespace {

/// The parser as it was before the fast path: strtod over the whole token.
bool strtod_reference(const std::string& token, double& out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) return false;
  if (errno == ERANGE && std::isinf(value)) return false;
  out = value;
  return true;
}

void expect_parity(const std::string& token) {
  double want = 0.0;
  double got = 0.0;
  const bool want_ok = strtod_reference(token, want);
  const bool got_ok = parse_f64_strict(token, got);
  ASSERT_EQ(got_ok, want_ok) << "token '" << token << "'";
  if (want_ok) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "token '" << token << "'";
  }
}

std::string hexfloat_spelling(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

TEST(ParseF64Strict, AgreesWithStrtodOnEdgeTokens) {
  for (const char* token :
       {"0x-1p0", "0xinf", "0xnan", "0x", "0x1p", "0x1p+99999", "0x1p-1080",
        "0X1P+0", "-0x1p+0", "1.5", "nan", "0x1.8p+0", "0x0p+0", "0x1.p0",
        "0x.8p0", "0xAp0", "0x1P+0", "0x1p+0 ", " 0x1p+0", "0x1p+0x", "",
        "inf", "1e400", "1e-400", "0x1.fffffffffffffp+1023", "0x1p+1024",
        "0x0.0000000000001p-1022", "0x1p-1074", "0x1p-1075", "0x1.8p-1074",
        "-0x0p+0", "-0x-1p0", "--0x1p0", "-0xinf", "-0x", "-0xnan", "-0x1p",
        "-0x1p-1080", "-0x1p+99999", "-0X1P+0", "-0x1.8p+0", " -0x1p+0",
        "-0x1p+0 ", "-", "-0x0.0000000000001p-1022"}) {
    expect_parity(token);
  }
}

TEST(ParseF64Strict, PrefixStrippingTrapsStayRejected) {
  // from_chars on the text after "0x" would read these as -1, inf and NaN.
  double v = 42.0;
  EXPECT_FALSE(parse_f64_strict("0x-1p0", v));
  EXPECT_FALSE(parse_f64_strict("0xinf", v));
  EXPECT_FALSE(parse_f64_strict("0xnan", v));
  EXPECT_EQ(v, 42.0);  // untouched on failure
  // from_chars calls this out of range; strtod underflows it to 0.
  ASSERT_TRUE(parse_f64_strict("0x1p-1080", v));
  EXPECT_EQ(v, 0.0);
  EXPECT_FALSE(parse_f64_strict("0x1p+99999", v));  // overflow
  // The same traps behind a minus sign, which the negative fast path
  // strips before it looks for the prefix.
  v = 42.0;
  EXPECT_FALSE(parse_f64_strict("-0x-1p0", v));
  EXPECT_FALSE(parse_f64_strict("--0x1p0", v));
  EXPECT_FALSE(parse_f64_strict("-0xinf", v));
  EXPECT_FALSE(parse_f64_strict("-0x", v));
  EXPECT_EQ(v, 42.0);
  // Negating the parsed magnitude keeps the sign of zero.
  ASSERT_TRUE(parse_f64_strict("-0x0p+0", v));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(v),
            std::bit_cast<std::uint64_t>(-0.0));
  ASSERT_TRUE(parse_f64_strict("-0x1p-1080", v));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(v),
            std::bit_cast<std::uint64_t>(-0.0));
}

TEST(ParseF64Strict, ParsesOnlyTheViewedBytes) {
  // Views into a larger buffer carry no terminator: the bytes after the
  // view must not be read on either path.
  const std::string text = "0x1.8p+0junk 2.5e9";
  double v = 0.0;
  ASSERT_TRUE(parse_f64_strict(std::string_view(text).substr(0, 8), v));
  EXPECT_EQ(v, 1.5);
  ASSERT_TRUE(parse_f64_strict(std::string_view(text).substr(13, 3), v));
  EXPECT_EQ(v, 2.5);
  EXPECT_FALSE(parse_f64_strict(std::string_view(text).substr(0, 9), v));
}

TEST(ParseF64Strict, AgreesWithStrtodOnRandomSpellings) {
  Rng rng(20261017);
  for (int i = 0; i < 20000; ++i) {
    // Random bit patterns cover normals, subnormals, zero and the
    // non-finite spellings printf produces.
    const double v = std::bit_cast<double>(rng());
    expect_parity(hexfloat_spelling(v));
  }
  static constexpr char kHex[] = "0123456789abcdefABCDEF";
  for (int i = 0; i < 20000; ++i) {
    // Long mantissas (rounding) and exponents past both ends of the range,
    // with and without a sign.
    std::string token = rng.bernoulli(0.5) ? "-0x" : "0x";
    token += kHex[rng.uniform_int(0, 21)];
    if (rng.bernoulli(0.7)) {
      token += '.';
      const auto digits = rng.uniform_int(0, 24);
      for (std::int64_t d = 0; d < digits; ++d) {
        token += kHex[rng.uniform_int(0, 21)];
      }
    }
    if (rng.bernoulli(0.8)) {
      token += rng.bernoulli(0.5) ? 'p' : 'P';
      token += std::to_string(rng.uniform_int(-1200, 1100));
    }
    expect_parity(token);
  }
}

}  // namespace
}  // namespace smart::util
