#include "util/serialize_io.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace smart::util {

namespace {

constexpr bool is_hex_digit(char c) noexcept {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
         (c >= 'A' && c <= 'F');
}

}  // namespace

bool parse_f64_strict(std::string_view token, double& out) {
  // Fast path for the hexfloat spelling every writer in the tree emits.
  // Requiring a hex digit after "0x" keeps from_chars away from the tokens
  // strtod rejects but from_chars would take once the prefix is stripped
  // ("0x-1p0", "0xinf", "0xnan"). Where from_chars consumes the whole token
  // it agrees with strtod bit for bit; anything else, including a result
  // from_chars calls out of range (strtod rounds "0x1p-1080" to 0 and that
  // is accepted), falls through to strtod.
  if (token.size() > 2 && token[0] == '0' && token[1] == 'x' &&
      is_hex_digit(token[2])) {
    const char* end = token.data() + token.size();
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(token.data() + 2, end, value,
                                           std::chars_format::hex);
    if (ec == std::errc{} && ptr == end) {
      out = value;
      return true;
    }
  }
  if (token.empty()) return false;
  const std::string text(token);  // strtod needs a terminator
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  if (errno == ERANGE && std::isinf(value)) return false;  // overflowed
  out = value;
  return true;
}

bool parse_i64_strict(const std::string& token, long long& out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size()) return false;
  if (errno == ERANGE) return false;
  out = value;
  return true;
}

bool parse_u64_strict(const std::string& token, std::uint64_t& out) {
  if (token.empty()) return false;
  // strtoull happily negates "-1" into 2^64-1; only digits are acceptable.
  for (char c : token) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size()) return false;
  if (errno == ERANGE) return false;
  out = value;
  return true;
}

std::string read_token(std::istream& in, const std::string& what) {
  std::string token;
  if (!(in >> token)) {
    throw std::runtime_error(what + ": unexpected end of input");
  }
  return token;
}

void expect_word(std::istream& in, const std::string& word,
                 const std::string& what) {
  const std::string token = read_token(in, what);
  if (token != word) {
    throw std::runtime_error(what + ": expected '" + word + "', got '" + token +
                             "'");
  }
}

long long read_i64(std::istream& in, const std::string& what) {
  const std::string token = read_token(in, what);
  long long value = 0;
  if (!parse_i64_strict(token, value)) {
    throw std::runtime_error(what + ": bad integer '" + token + "'");
  }
  return value;
}

std::uint64_t read_u64(std::istream& in, const std::string& what) {
  const std::string token = read_token(in, what);
  std::uint64_t value = 0;
  if (!parse_u64_strict(token, value)) {
    throw std::runtime_error(what + ": bad unsigned integer '" + token + "'");
  }
  return value;
}

int read_int(std::istream& in, const std::string& what) {
  const long long value = read_i64(in, what);
  if (value < INT_MIN || value > INT_MAX) {
    throw std::runtime_error(what + ": integer out of range");
  }
  return static_cast<int>(value);
}

std::size_t read_size(std::istream& in, const std::string& what) {
  const std::uint64_t value = read_u64(in, what);
  if (value > std::numeric_limits<std::size_t>::max()) {
    throw std::runtime_error(what + ": size out of range");
  }
  return static_cast<std::size_t>(value);
}

double read_f64(std::istream& in, const std::string& what,
                bool require_finite) {
  const std::string token = read_token(in, what);
  double value = 0.0;
  if (!parse_f64_strict(token, value)) {
    throw std::runtime_error(what + ": bad number '" + token + "'");
  }
  if (require_finite && !std::isfinite(value)) {
    throw std::runtime_error(what + ": non-finite value '" + token + "'");
  }
  return value;
}

float read_f32(std::istream& in, const std::string& what, bool require_finite) {
  // Parse as double, then narrow: every float is exactly representable as a
  // double and write_f32 widened exactly, so the narrowing is lossless.
  const double value = read_f64(in, what, require_finite);
  return static_cast<float>(value);
}

void write_f64(std::ostream& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  out << buf;
}

void write_f32(std::ostream& out, float v) {
  write_f64(out, static_cast<double>(v));
}

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace smart::util
