// Strict token-level I/O shared by every (de)serializer in the tree: the
// dataset corpus format (core/serialize), the versioned model-artifact
// format (save_model/load_model) and the profile journal all read
// whitespace-delimited tokens and must fail LOUDLY on malformed input — a
// half-parsed number silently becoming 0.0 turns file corruption into
// garbage predictions.
//
// Numbers round-trip bit-exactly: floating-point values are written as
// hexfloat tokens and parsed back with end-pointer-validated parsing, so a
// save/load cycle reproduces every float and double to the bit.
//
// TokenWriter formats into one growing buffer and TokenReader parses a
// `std::string_view` in place; neither goes through an iostream.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace smart::util {

/// End-pointer-validated double parse: the WHOLE token must be consumed
/// (so "2x", "", and "1.0junk" all fail). Returns false on any malformed
/// input; out is untouched on failure. Accepts hexfloat, "nan" and "inf"
/// spellings (callers decide whether non-finite values are legal).
/// Accepts exactly the tokens, and yields exactly the values, of a strtod
/// whose end pointer must reach the end of the token and which must not
/// overflow; the writers' own "0x<hex digit>..." and "-0x<hex digit>..."
/// spellings are parsed without a copy or a strtod call.
bool parse_f64_strict(std::string_view token, double& out);

/// Whole-token std::from_chars parse: decimal only, no '+', no '-' for
/// unsigned types, no out-of-range value, nothing after the number.
template <typename Number>
bool parse_number(std::string_view token, Number& out) noexcept {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

/// End-pointer-validated signed integer parse with range checking.
bool parse_i64_strict(const std::string& token, long long& out);

/// End-pointer-validated unsigned parse; rejects leading '-' (strtoull
/// would silently wrap it) and range overflow.
bool parse_u64_strict(const std::string& token, std::uint64_t& out);

/// FNV-1a 64-bit digest of a byte string (the model-artifact checksum).
std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// Whitespace as `std::istream >>` skips it in the "C" locale: ' ' and
/// '\t' through '\r'. Every other byte is above ' ' or below '\t'.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Splits the next whitespace-delimited token off the front of `rest`;
/// empty once `rest` holds no more tokens (the view then sits at the end
/// of the input).
inline std::string_view next_token(std::string_view& rest) noexcept {
  std::size_t first = 0;
  while (first < rest.size() && is_space(rest[first])) ++first;
  std::size_t last = first;
  while (last < rest.size() && !is_space(rest[last])) ++last;
  const std::string_view token = rest.substr(first, last - first);
  rest.remove_prefix(last);
  return token;
}

/// Reads whitespace-delimited tokens out of a view it does not own. Every
/// throwing accessor names what it was reading in the std::runtime_error it
/// raises ("<what>: bad integer '2x'"), and a failure leaves offset() at
/// the first byte of the offending token (the end of the input when the
/// token is missing), so a caller can add the location without re-reading.
class TokenReader {
 public:
  explicit TokenReader(std::string_view text) noexcept : text_(text) {}

  /// The next token, or an empty view at the end of the input.
  std::string_view next() noexcept {
    std::string_view rest = text_.substr(pos_);
    const std::string_view token = next_token(rest);
    start_ = static_cast<std::size_t>(token.data() - text_.data());
    pos_ = text_.size() - rest.size();
    return token;
  }

  /// The next token; throws "<what>: unexpected end of input" at the end.
  std::string_view token(std::string_view what);
  /// Reads a token and requires it to equal `word` exactly.
  void expect(std::string_view word, std::string_view what);

  /// Decimal integers (parse_number): no '+', no '-' for unsigned types,
  /// no value outside the type's range.
  int i32(std::string_view what);
  std::uint64_t u64(std::string_view what);
  std::size_t size(std::string_view what);

  /// A count of the items that follow it, each taking at least
  /// `min_bytes_per_item` bytes of the input (its separator included).
  /// Rejects a count whose items cannot fit in the bytes left, so no
  /// caller sizes a container from a corrupt count. 0 skips the check.
  std::size_t count(std::string_view what, std::size_t min_bytes_per_item);

  /// Reads a floating-point token. With require_finite (the default for
  /// model weights) NaN and infinity throw — a NaN smuggled into a weight
  /// would silently poison every downstream prediction.
  double f64(std::string_view what, bool require_finite = true);
  /// Parses as double, then narrows: every float is exactly representable
  /// as a double and TokenWriter widened it exactly, so this is lossless.
  float f32(std::string_view what, bool require_finite = true) {
    return static_cast<float>(f64(what, require_finite));
  }

  /// True once only whitespace is left.
  bool at_end() const noexcept {
    std::string_view rest = text_.substr(pos_);
    return next_token(rest).empty();
  }
  /// The unread input, starting right after the last token.
  std::string_view rest() const noexcept { return text_.substr(pos_); }
  /// Byte offset, within the input, of the last token read.
  std::size_t offset() const noexcept { return start_; }

  /// Throws std::runtime_error(what); offset() still names the token.
  [[noreturn]] void fail(std::string_view what) const;
  /// As fail(), with offset() moved back to `offset`, the first byte of a
  /// token read earlier (e.g. the tag of the record found to be wrong).
  [[noreturn]] void fail_at(std::size_t offset, std::string_view what) {
    start_ = offset;
    fail(what);
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;    // first unread byte
  std::size_t start_ = 0;  // first byte of the last token read
};

/// Formats tokens into one growing buffer. Every spelling matches what
/// `std::ostream` insertion produces for the same value in the "C" locale.
class TokenWriter {
 public:
  TokenWriter() = default;
  TokenWriter(const TokenWriter&) = delete;  // one buffer, one owner
  TokenWriter& operator=(const TokenWriter&) = delete;

  TokenWriter& operator<<(std::string_view text) {
    append(text.data(), text.size());
    return *this;
  }
  TokenWriter& operator<<(char c) {
    *room(1) = c;
    ++used_;
    return *this;
  }
  template <typename Int>
    requires std::is_integral_v<Int> && (!std::is_same_v<Int, bool>) &&
             (sizeof(Int) > 1)  // ostream spells the char types as text
  TokenWriter& operator<<(Int value) {
    if constexpr (std::is_signed_v<Int>) {
      put_integer(static_cast<long long>(value));
    } else {
      put_integer(static_cast<unsigned long long>(value));
    }
    return *this;
  }

  /// As `out << std::hexfloat << v`, which is printf "%a". A float is
  /// widened first; the widening is exact, so its round trip is too.
  void hexfloat(double v);
  /// As `out << std::setprecision(17) << v`, which is printf "%.17g".
  void decimal17(double v);

  const char* data() const noexcept { return buf_.get(); }
  std::size_t size() const noexcept { return used_; }
  std::string_view view() const noexcept { return {buf_.get(), used_}; }
  /// Empties the buffer but keeps its capacity.
  void clear() noexcept { used_ = 0; }

 private:
  /// Enough for any integer, "%.17g" or "%a" double, terminator included.
  static constexpr std::size_t kNumberBytes = 32;

  /// Returns `n` writable bytes at the end of the buffer.
  char* room(std::size_t n) {
    if (capacity_ - used_ < n) grow(n);
    return buf_.get() + used_;
  }
  void grow(std::size_t n);
  void append(const char* bytes, std::size_t n);
  void put_integer(long long value);
  void put_integer(unsigned long long value);

  // Grown by doubling, without zero-filling bytes that are written anyway.
  std::unique_ptr<char[]> buf_;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
};

}  // namespace smart::util
