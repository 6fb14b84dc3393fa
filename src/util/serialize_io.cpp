#include "util/serialize_io.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace smart::util {

namespace {

constexpr bool is_hex_digit(char c) noexcept {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
         (c >= 'A' && c <= 'F');
}

template <typename Int>
Int read_integer(TokenReader& in, std::string_view what) {
  const std::string_view t = in.token(what);
  Int value = 0;
  if (!parse_number(t, value)) {
    in.fail(std::string(what) +
            (std::is_signed_v<Int> ? ": bad integer '"
                                   : ": bad unsigned integer '") +
            std::string(t) + "'");
  }
  return value;
}

}  // namespace

bool parse_f64_strict(std::string_view token, double& out) {
  // Fast path for the hexfloat spellings every writer in the tree emits,
  // "0x<hex digit>..." and its negation. Requiring a hex digit after "0x"
  // keeps from_chars away from the tokens strtod rejects but from_chars
  // would take once the prefix is stripped ("0x-1p0", "0xinf", "0xnan").
  // Where from_chars consumes the whole token it agrees with strtod bit for
  // bit, and negating the magnitude is exact ("-0x0p+0" gives -0.0, as
  // strtod does); anything else, including a result from_chars calls out
  // of range (strtod rounds "0x1p-1080" to 0 and that is accepted), falls
  // through to strtod.
  const bool negative = !token.empty() && token[0] == '-';
  const std::string_view body = token.substr(negative ? 1 : 0);
  if (body.size() > 2 && body[0] == '0' && body[1] == 'x' &&
      is_hex_digit(body[2])) {
    const char* end = body.data() + body.size();
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(body.data() + 2, end, value, std::chars_format::hex);
    if (ec == std::errc{} && ptr == end) {
      out = negative ? -value : value;
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

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// ----- TokenReader -------------------------------------------------------------

void TokenReader::fail(std::string_view what) const {
  throw std::runtime_error(std::string(what));
}

std::string_view TokenReader::token(std::string_view what) {
  const std::string_view t = next();
  if (t.empty()) fail(std::string(what) + ": unexpected end of input");
  return t;
}

void TokenReader::expect(std::string_view word, std::string_view what) {
  const std::string_view t = token(what);
  if (t != word) {
    fail(std::string(what) + ": expected '" + std::string(word) + "', got '" +
         std::string(t) + "'");
  }
}

int TokenReader::i32(std::string_view what) {
  return read_integer<int>(*this, what);
}

std::uint64_t TokenReader::u64(std::string_view what) {
  return read_integer<std::uint64_t>(*this, what);
}

std::size_t TokenReader::size(std::string_view what) {
  return read_integer<std::size_t>(*this, what);
}

std::size_t TokenReader::count(std::string_view what,
                               std::size_t min_bytes_per_item) {
  const std::size_t n = size(what);
  const std::size_t left = text_.size() - pos_;
  if (min_bytes_per_item > 0 && n > left / min_bytes_per_item) {
    fail(std::string(what) + ": count " + std::to_string(n) +
         " cannot fit in the " + std::to_string(left) + " bytes left");
  }
  return n;
}

double TokenReader::f64(std::string_view what, bool require_finite) {
  const std::string_view t = token(what);
  double value = 0.0;
  if (!parse_f64_strict(t, value)) {
    fail(std::string(what) + ": bad number '" + std::string(t) + "'");
  }
  if (require_finite && !std::isfinite(value)) {
    fail(std::string(what) + ": non-finite value '" + std::string(t) + "'");
  }
  return value;
}

// ----- TokenWriter -------------------------------------------------------------

void TokenWriter::grow(std::size_t n) {
  capacity_ = std::max({2 * capacity_, used_ + n, std::size_t{256}});
  auto grown = std::make_unique_for_overwrite<char[]>(capacity_);
  if (used_ > 0) std::memcpy(grown.get(), buf_.get(), used_);
  buf_ = std::move(grown);
}

void TokenWriter::append(const char* bytes, std::size_t n) {
  std::memcpy(room(n), bytes, n);
  used_ += n;
}

void TokenWriter::put_integer(long long value) {
  char* first = room(kNumberBytes);
  used_ += static_cast<std::size_t>(
      std::to_chars(first, first + kNumberBytes, value).ptr - first);
}

void TokenWriter::put_integer(unsigned long long value) {
  char* first = room(kNumberBytes);
  used_ += static_cast<std::size_t>(
      std::to_chars(first, first + kNumberBytes, value).ptr - first);
}

void TokenWriter::hexfloat(double v) {
  // Normal values and zeros take to_chars; the rest take printf itself,
  // because newer libstdc++ runtimes spell a subnormal normalized
  // ("1p-1074" where printf writes "0x0.0000000000001p-1022").
  if (!std::isnormal(v) && v != 0.0) {
    used_ += static_cast<std::size_t>(
        std::snprintf(room(kNumberBytes), kNumberBytes, "%a", v));
    return;
  }
  if (std::signbit(v)) {
    *this << '-';
    v = -v;
  }
  *this << "0x";
  char* first = room(kNumberBytes);
  used_ += static_cast<std::size_t>(
      std::to_chars(first, first + kNumberBytes, v, std::chars_format::hex)
          .ptr -
      first);
}

void TokenWriter::decimal17(double v) {
  used_ += static_cast<std::size_t>(
      std::snprintf(room(kNumberBytes), kNumberBytes, "%.17g", v));
}

}  // namespace smart::util
