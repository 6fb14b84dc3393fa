// Strict token-level I/O shared by every (de)serializer in the tree: the
// dataset corpus format (core/serialize) and the versioned model-artifact
// format (save_model/load_model) both read whitespace-delimited tokens and
// must fail LOUDLY on malformed input — a half-parsed number silently
// becoming 0.0 turns file corruption into garbage predictions.
//
// Numbers round-trip bit-exactly: floating-point values are written as
// hexfloat tokens and parsed back with end-pointer-validated strtod, so a
// save/load cycle reproduces every float and double to the bit.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace smart::util {

/// End-pointer-validated double parse: the WHOLE token must be consumed
/// (so "2x", "", and "1.0junk" all fail). Returns false on any malformed
/// input; out is untouched on failure. Accepts hexfloat, "nan" and "inf"
/// spellings (callers decide whether non-finite values are legal).
/// Accepts exactly the tokens, and yields exactly the values, of a strtod
/// whose end pointer must reach the end of the token and which must not
/// overflow; the writers' own "0x<hex digit>..." spelling is parsed without
/// a copy or a strtod call.
bool parse_f64_strict(std::string_view token, double& out);

/// End-pointer-validated signed integer parse with range checking.
bool parse_i64_strict(const std::string& token, long long& out);

/// End-pointer-validated unsigned parse; rejects leading '-' (strtoull
/// would silently wrap it) and range overflow.
bool parse_u64_strict(const std::string& token, std::uint64_t& out);

/// Reads one whitespace-delimited token; throws std::runtime_error
/// ("<what>: unexpected end of input") when the stream is exhausted.
std::string read_token(std::istream& in, const std::string& what);

/// Reads a token and requires it to equal `word` exactly.
void expect_word(std::istream& in, const std::string& word,
                 const std::string& what);

long long read_i64(std::istream& in, const std::string& what);
std::uint64_t read_u64(std::istream& in, const std::string& what);
int read_int(std::istream& in, const std::string& what);
std::size_t read_size(std::istream& in, const std::string& what);

/// Reads a floating-point token. With require_finite (the default for
/// model weights) NaN and infinity throw — a NaN smuggled into a weight
/// would silently poison every downstream prediction.
double read_f64(std::istream& in, const std::string& what,
                bool require_finite = true);
float read_f32(std::istream& in, const std::string& what,
               bool require_finite = true);

/// Writes one hexfloat token (no surrounding whitespace). Floats are
/// widened to double first; the widening is exact, so the round trip is
/// bit-identical.
void write_f64(std::ostream& out, double v);
void write_f32(std::ostream& out, float v);

/// FNV-1a 64-bit digest of a byte string (the model-artifact checksum).
std::uint64_t fnv1a64(std::string_view bytes) noexcept;

}  // namespace smart::util
