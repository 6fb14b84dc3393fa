// parse_request against a reference: the tokenizing, strtoll-based parser
// the in-place one replaced, kept here verbatim in behaviour. Seeded
// mutants of serve-style request lines must get the same verdict from
// both: ok, id, error text, verb, GPU, pattern and memo key.
#include "core/serve_protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/serialize_io.hpp"

namespace smart::core::serve {
namespace {

namespace reference {

bool valid_id_char(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == ':' || c == '-';
}

bool valid_gpu_char(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-';
}

std::vector<std::string> split_tokens(std::string_view line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) tokens.emplace_back(line.substr(start, i - start));
  }
  return tokens;
}

ParseResult fail(std::string id, std::string error) {
  ParseResult r;
  r.ok = false;
  r.id = std::move(id);
  r.error = std::move(error);
  return r;
}

bool parse_offsets(const std::string& value, int& dims,
                   std::vector<stencil::Point>& points, std::string& error) {
  constexpr int kMaxCoord = 4;
  constexpr std::size_t kMaxPoints = 1024;
  dims = 0;
  std::size_t i = 0;
  while (i <= value.size()) {
    const std::size_t end = std::min(value.find(';', i), value.size());
    const std::string tuple = value.substr(i, end - i);
    if (tuple.empty()) {
      error = "offsets: empty tuple";
      return false;
    }
    std::vector<int> coords;
    std::size_t j = 0;
    while (j <= tuple.size()) {
      const std::size_t comma = std::min(tuple.find(',', j), tuple.size());
      long long coord = 0;
      if (!util::parse_i64_strict(tuple.substr(j, comma - j), coord) ||
          coord < -kMaxCoord || coord > kMaxCoord) {
        error = "offsets: bad coordinate '" + tuple.substr(j, comma - j) +
                "' (integer in [-4, 4])";
        return false;
      }
      coords.push_back(static_cast<int>(coord));
      j = comma + 1;
      if (comma == tuple.size()) break;
    }
    if (coords.size() != 2 && coords.size() != 3) {
      error = "offsets: tuples must have 2 or 3 coordinates";
      return false;
    }
    if (dims == 0) {
      dims = static_cast<int>(coords.size());
    } else if (dims != static_cast<int>(coords.size())) {
      error = "offsets: mixed tuple arities";
      return false;
    }
    points.push_back(dims == 2 ? stencil::Point(coords[0], coords[1])
                               : stencil::Point(coords[0], coords[1], coords[2]));
    if (points.size() > kMaxPoints) {
      error = "offsets: too many points (max 1024)";
      return false;
    }
    i = end + 1;
    if (end == value.size()) break;
  }
  if (points.empty()) {
    error = "offsets: empty list";
    return false;
  }
  return true;
}

ParseResult parse_request(std::string_view line) {
  if (line.size() > kMaxRequestBytes) {
    return fail("-", "oversize request line (max " +
                         std::to_string(kMaxRequestBytes) + " bytes)");
  }
  for (const char c : line) {
    if (c < 0x20 || c > 0x7e) {
      return fail("-", "request contains non-printable bytes");
    }
  }
  const auto tokens = split_tokens(line);
  if (tokens.empty()) return fail("-", "empty request");

  Verb verb;
  if (tokens[0] == "advise") verb = Verb::kAdvise;
  else if (tokens[0] == "predict") verb = Verb::kPredict;
  else if (tokens[0] == "stats") verb = Verb::kStats;
  else if (tokens[0] == "ping") verb = Verb::kPing;
  else if (tokens[0] == "healthz") verb = Verb::kHealthz;
  else if (tokens[0] == "reload") verb = Verb::kReload;
  else if (tokens[0] == "shutdown") verb = Verb::kShutdown;
  else return fail("-", "unknown verb '" + tokens[0] +
                        "' (advise|predict|stats|ping|healthz|reload|shutdown)");

  if (tokens.size() < 2) return fail("-", "missing request id");
  const std::string& id = tokens[1];
  if (id.size() > kMaxIdBytes) return fail("-", "request id too long (max 64)");
  for (const char c : id) {
    if (!valid_id_char(c)) {
      return fail("-", "request id has invalid characters ([A-Za-z0-9_.:-])");
    }
  }

  const bool takes_keys = verb == Verb::kAdvise || verb == Verb::kPredict;
  if (!takes_keys && tokens.size() > 2) {
    return fail(id, to_string(verb) + " takes no arguments");
  }

  std::string shape, gpu = "V100", offsets;
  long long dims = 2, order = 2;
  bool saw_shape = false, saw_dims = false, saw_order = false,
       saw_gpu = false, saw_offsets = false;
  for (std::size_t t = 2; t < tokens.size(); ++t) {
    const std::string& tok = tokens[t];
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      return fail(id, "expected key=value, got '" + tok + "'");
    }
    const std::string key = tok.substr(0, eq);
    const std::string value = tok.substr(eq + 1);
    if (value.empty()) return fail(id, "option '" + key + "' has no value");
    bool* seen = nullptr;
    if (key == "shape") { seen = &saw_shape; shape = value; }
    else if (key == "dims") {
      seen = &saw_dims;
      if (!util::parse_i64_strict(value, dims) || (dims != 2 && dims != 3)) {
        return fail(id, "dims must be 2 or 3");
      }
    } else if (key == "order") {
      seen = &saw_order;
      if (!util::parse_i64_strict(value, order) || order < 1 || order > 4) {
        return fail(id, "order must be an integer in [1, 4]");
      }
    } else if (key == "gpu") {
      seen = &saw_gpu;
      gpu = value;
      if (gpu.size() > 32) return fail(id, "gpu name too long (max 32)");
      for (const char c : gpu) {
        if (!valid_gpu_char(c)) {
          return fail(id, "gpu name has invalid characters ([A-Za-z0-9_-])");
        }
      }
    } else if (key == "offsets") {
      seen = &saw_offsets;
      offsets = value;
    } else {
      return fail(id, "unknown option '" + key +
                      "' (shape|dims|order|gpu|offsets)");
    }
    if (*seen) return fail(id, "duplicate option '" + key + "'");
    *seen = true;
  }
  if (saw_offsets && (saw_shape || saw_dims || saw_order)) {
    return fail(id, "offsets= excludes shape=/dims=/order=");
  }

  ParseResult result;
  result.id = id;
  result.request.verb = verb;
  result.request.id = id;
  if (takes_keys) {
    result.request.gpu = gpu;
    try {
      if (saw_offsets) {
        int odims = 0;
        std::vector<stencil::Point> points;
        std::string error;
        if (!parse_offsets(offsets, odims, points, error)) {
          return fail(id, error);
        }
        result.request.pattern = stencil::StencilPattern(odims, std::move(points));
      } else {
        if (shape.empty()) shape = "star";
        const int d = static_cast<int>(dims);
        const int r = static_cast<int>(order);
        if (shape == "star") result.request.pattern = stencil::make_star(d, r);
        else if (shape == "box") result.request.pattern = stencil::make_box(d, r);
        else if (shape == "cross") result.request.pattern = stencil::make_cross(d, r);
        else return fail(id, "unknown shape '" + shape + "' (star|box|cross)");
      }
    } catch (const std::exception& e) {
      return fail(id, std::string("invalid stencil: ") + e.what());
    }
    std::string key = to_string(verb);
    key += '|';
    key += gpu;
    key += '|';
    key += std::to_string(result.request.pattern.dims());
    for (const auto& p : result.request.pattern.offsets()) {
      key += '|';
      for (int a = 0; a < result.request.pattern.dims(); ++a) {
        key += std::to_string(p[a]);
        key += ',';
      }
    }
    result.request.memo_key = std::move(key);
  }
  result.ok = true;
  return result;
}

}  // namespace reference

std::size_t draw(util::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// A serve_cold-style stencil: a random 2-D or 3-D offset list.
std::string random_offsets(util::Rng& rng) {
  const int dims = rng.bernoulli(0.8) ? 2 : 3;
  const std::size_t points = 1 + draw(rng, 12);
  std::string out;
  for (std::size_t p = 0; p < points; ++p) {
    if (p > 0) out += ';';
    for (int a = 0; a < dims; ++a) {
      if (a > 0) out += ',';
      out += std::to_string(rng.uniform_int(-4, 4));
    }
  }
  return out;
}

std::string seed_line(util::Rng& rng, int n) {
  static const char* const kGpus[] = {"P100", "V100", "2080Ti", "A100"};
  static const char* const kShapes[] = {"star", "box", "cross"};
  static const char* const kControl[] = {"ping", "stats", "healthz", "reload",
                                         "shutdown"};
  const std::string id = " r" + std::to_string(n);
  switch (draw(rng, 4)) {
    case 0:
    case 1:
      return std::string(rng.bernoulli(0.75) ? "advise" : "predict") + id +
             " gpu=" + kGpus[draw(rng, 4)] + " offsets=" + random_offsets(rng);
    case 2:
      return std::string(rng.bernoulli(0.5) ? "advise" : "predict") + id +
             " shape=" + kShapes[draw(rng, 3)] +
             " dims=" + std::to_string(rng.uniform_int(2, 3)) +
             " order=" + std::to_string(rng.uniform_int(1, 4)) +
             " gpu=" + kGpus[draw(rng, 4)];
    default:
      return std::string(kControl[draw(rng, 5)]) + id;
  }
}

/// Positions of the digits in `line` (the targets of the numeric edits).
std::vector<std::size_t> digit_positions(const std::string& line) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] >= '0' && line[i] <= '9') out.push_back(i);
  }
  return out;
}

void mutate(util::Rng& rng, std::string& line) {
  const auto digits = digit_positions(line);
  const auto at_digit = [&]() -> std::size_t {
    return digits.empty() ? draw(rng, line.size() + 1) : digits[draw(rng, digits.size())];
  };
  switch (draw(rng, 12)) {
    case 0:  // flip a byte to anything
      if (!line.empty()) {
        line[draw(rng, line.size())] = static_cast<char>(rng.uniform_int(0, 255));
      }
      break;
    case 1: {  // flip a byte to a protocol-relevant character
      static const char kChars[] = " =,;+-0123456789xX.:_abz";
      if (!line.empty()) {
        line[draw(rng, line.size())] = kChars[draw(rng, sizeof kChars - 1)];
      }
      break;
    }
    case 2:  // a '+' sign
      line.insert(at_digit(), 1, '+');
      break;
    case 3:  // leading zeros
      line.insert(at_digit(), std::string(1 + draw(rng, 3), '0'));
      break;
    case 4: {  // an overflowing coordinate or option value
      static const char* const kBig[] = {"99999999999999999999",
                                         "-9223372036854775809",
                                         "9223372036854775807", "4294967300",
                                         "-00000000000000000004"};
      const std::size_t pos = at_digit();
      line.insert(pos, kBig[draw(rng, 5)]);
      break;
    }
    case 5: {  // a 4-tuple
      const std::size_t semi = line.find(';');
      const std::size_t pos = semi == std::string::npos ? line.size() : semi;
      line.insert(pos, ",0");
      break;
    }
    case 6: {  // an empty tuple
      const std::size_t semi = line.find(';');
      if (semi != std::string::npos) {
        line.insert(semi, rng.bernoulli(0.5) ? ";" : ";;");
      } else {
        line += ';';
      }
      break;
    }
    case 7: {  // a duplicate key
      const std::size_t eq = line.find('=');
      if (eq != std::string::npos) {
        std::size_t start = line.rfind(' ', eq);
        if (start == std::string::npos) start = 0;
        const std::size_t end = line.find(' ', eq);
        line += ' ' + line.substr(start, end - start);
      }
      break;
    }
    case 8: {  // an unknown key, or a key without value or name
      static const char* const kTokens[] = {" foo=bar", " order=", " =3",
                                            " offsets", " dims=2"};
      line += kTokens[draw(rng, 5)];
      break;
    }
    case 9: {  // an oversize or odd id
      const std::size_t a = line.find(' ');
      const std::size_t b = a == std::string::npos ? a : line.find(' ', a + 1);
      if (a != std::string::npos) {
        const std::string id =
            rng.bernoulli(0.5) ? std::string(60 + draw(rng, 10), 'i') : "x*y";
        line.replace(a + 1, b == std::string::npos ? std::string::npos : b - a - 1,
                     id);
      }
      break;
    }
    case 10:  // extra spaces
      line.insert(draw(rng, line.size() + 1), std::string(1 + draw(rng, 2), ' '));
      break;
    default:  // delete a byte
      if (!line.empty()) line.erase(draw(rng, line.size()), 1);
      break;
  }
}

TEST(ServeProtocol, ParseMatchesReferenceOnMutants) {
  util::Rng rng(20261019);
  constexpr int kMutants = 6000;
  int accepted = 0;
  for (int n = 0; n < kMutants; ++n) {
    std::string line = seed_line(rng, n);
    const std::size_t edits = n % 10 == 0 ? 0 : 1 + draw(rng, 3);
    for (std::size_t e = 0; e < edits; ++e) mutate(rng, line);

    const ParseResult got = parse_request(line);
    const ParseResult want = reference::parse_request(line);
    ASSERT_EQ(got.ok, want.ok) << line;
    ASSERT_EQ(got.id, want.id) << line;
    ASSERT_EQ(got.error, want.error) << line;
    if (!want.ok) continue;
    ++accepted;
    ASSERT_EQ(got.request.verb, want.request.verb) << line;
    ASSERT_EQ(got.request.id, want.request.id) << line;
    ASSERT_EQ(got.request.gpu, want.request.gpu) << line;
    ASSERT_TRUE(got.request.pattern == want.request.pattern) << line;
    ASSERT_EQ(got.request.memo_key, want.request.memo_key) << line;
  }
  // Both verdicts must be exercised.
  EXPECT_GT(accepted, kMutants / 10);
  EXPECT_LT(accepted, kMutants * 9 / 10);
}

}  // namespace
}  // namespace smart::core::serve
