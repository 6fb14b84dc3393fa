#include "core/serve_protocol.hpp"

#include <algorithm>
#include <charconv>
#include <optional>
#include <stdexcept>
#include <vector>

namespace smart::core::serve {

namespace {

bool valid_id_char(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == ':' || c == '-';
}

bool valid_gpu_char(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-';
}

/// The next space-delimited token of `rest` (empty once only spaces are
/// left); `rest` moves past it.
std::string_view next_word(std::string_view& rest) {
  std::size_t first = 0;
  while (first < rest.size() && rest[first] == ' ') ++first;
  std::size_t last = first;
  while (last < rest.size() && rest[last] != ' ') ++last;
  const std::string_view word = rest.substr(first, last - first);
  rest.remove_prefix(last);
  return word;
}

/// Parses a whole token as a decimal integer in [lo, hi]: an optional sign
/// and at least one digit, which is what an end-checked strtoll accepts
/// here (the token holds no whitespace); a value strtoll would overflow on
/// is outside [lo, hi] as well.
bool parse_small_int(std::string_view token, int lo, int hi, int& out) {
  std::size_t i = 0;
  const bool negative = !token.empty() && token[0] == '-';
  if (!token.empty() && (token[0] == '-' || token[0] == '+')) i = 1;
  if (i == token.size()) return false;
  long long magnitude = 0;
  for (; i < token.size(); ++i) {
    const char c = token[i];
    if (c < '0' || c > '9') return false;
    // Saturates far above any bound a caller passes.
    if (magnitude < (1LL << 32)) magnitude = magnitude * 10 + (c - '0');
  }
  const long long value = negative ? -magnitude : magnitude;
  if (value < lo || value > hi) return false;
  out = static_cast<int>(value);
  return true;
}

ParseResult fail(std::string_view id, std::string error) {
  ParseResult r;
  r.ok = false;
  r.id = std::string(id);
  r.error = std::move(error);
  return r;
}

/// Parses "x,y" / "x,y,z" tuples separated by ';' into Points, in place.
/// All tuples must share one arity (the dimensionality); coordinates are
/// bounded by the paper's maximum stencil order so a Point's int8 storage
/// cannot wrap. Every coordinate of a tuple is checked before its arity.
bool parse_offsets(std::string_view value, int& dims,
                   std::vector<stencil::Point>& points, std::string& error) {
  constexpr int kMaxCoord = 4;  // paper: maximum stencil order 4
  constexpr std::size_t kMaxPoints = 1024;
  dims = 0;
  // One slot per tuple plus the centre the pattern adds.
  points.reserve(std::min<std::size_t>(
      static_cast<std::size_t>(std::count(value.begin(), value.end(), ';')) + 2,
      kMaxPoints + 1));
  std::size_t i = 0;
  while (i <= value.size()) {
    const std::size_t end = std::min(value.find(';', i), value.size());
    const std::string_view tuple = value.substr(i, end - i);
    if (tuple.empty()) {
      error = "offsets: empty tuple";
      return false;
    }
    int coords[3] = {0, 0, 0};
    std::size_t count = 0;
    std::size_t j = 0;
    while (j <= tuple.size()) {
      const std::size_t comma = std::min(tuple.find(',', j), tuple.size());
      const std::string_view token = tuple.substr(j, comma - j);
      int coord = 0;
      if (!parse_small_int(token, -kMaxCoord, kMaxCoord, coord)) {
        error = "offsets: bad coordinate '";
        error += token;
        error += "' (integer in [-4, 4])";
        return false;
      }
      if (count < 3) coords[count] = coord;
      ++count;
      j = comma + 1;
      if (comma == tuple.size()) break;
    }
    if (count != 2 && count != 3) {
      error = "offsets: tuples must have 2 or 3 coordinates";
      return false;
    }
    if (dims == 0) {
      dims = static_cast<int>(count);
    } else if (dims != static_cast<int>(count)) {
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

/// Canonical identity of a parsed query: verb, GPU, dims, then every offset
/// of the (sorted, deduplicated) pattern. The key is sized exactly before
/// it is written, since the memo keeps it.
std::string memo_key(Verb verb, std::string_view gpu,
                     const stencil::StencilPattern& pattern) {
  const std::string verb_name = to_string(verb);
  const int dims = pattern.dims();
  const auto digits = [](int c) -> std::size_t {
    const int a = c < 0 ? -c : c;
    return (c < 0 ? 1 : 0) + (a < 10 ? 1 : a < 100 ? 2 : 3);
  };
  std::size_t size = verb_name.size() + gpu.size() + 3;
  for (const auto& p : pattern.offsets()) {
    size += 1;
    for (int a = 0; a < dims; ++a) size += digits(p[a]) + 1;
  }
  std::string key;
  key.reserve(size);
  key += verb_name;
  key += '|';
  key += gpu;
  key += '|';
  key += static_cast<char>('0' + dims);
  char buf[8];
  for (const auto& p : pattern.offsets()) {
    key += '|';
    for (int a = 0; a < dims; ++a) {
      key.append(buf, std::to_chars(buf, buf + sizeof buf, p[a]).ptr);
      key += ',';
    }
  }
  return key;
}

}  // namespace

std::string to_string(Verb verb) {
  switch (verb) {
    case Verb::kAdvise: return "advise";
    case Verb::kPredict: return "predict";
    case Verb::kStats: return "stats";
    case Verb::kPing: return "ping";
    case Verb::kHealthz: return "healthz";
    case Verb::kReload: return "reload";
    case Verb::kShutdown: return "shutdown";
  }
  return "?";
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
  // Tokens are views into `line`, read front to back.
  std::string_view rest = line;
  const std::string_view verb_word = next_word(rest);
  if (verb_word.empty()) return fail("-", "empty request");

  Verb verb;
  if (verb_word == "advise") verb = Verb::kAdvise;
  else if (verb_word == "predict") verb = Verb::kPredict;
  else if (verb_word == "stats") verb = Verb::kStats;
  else if (verb_word == "ping") verb = Verb::kPing;
  else if (verb_word == "healthz") verb = Verb::kHealthz;
  else if (verb_word == "reload") verb = Verb::kReload;
  else if (verb_word == "shutdown") verb = Verb::kShutdown;
  else {
    return fail("-", "unknown verb '" + std::string(verb_word) +
                         "' (advise|predict|stats|ping|healthz|reload|shutdown)");
  }

  const std::string_view id = next_word(rest);
  if (id.empty()) return fail("-", "missing request id");
  if (id.size() > kMaxIdBytes) return fail("-", "request id too long (max 64)");
  for (const char c : id) {
    if (!valid_id_char(c)) {
      return fail("-", "request id has invalid characters ([A-Za-z0-9_.:-])");
    }
  }

  const bool takes_keys = verb == Verb::kAdvise || verb == Verb::kPredict;
  std::string_view tok = next_word(rest);
  if (!takes_keys) {
    if (!tok.empty()) return fail(id, to_string(verb) + " takes no arguments");
    ParseResult result;
    result.ok = true;
    result.id = std::string(id);
    result.request.verb = verb;
    result.request.id = result.id;
    return result;
  }

  // key=value options, checked in order: a malformed value is reported
  // before a repeated key.
  std::string_view shape, gpu = "V100", offsets;
  int dims = 2, order = 2;
  bool saw_shape = false, saw_dims = false, saw_order = false,
       saw_gpu = false, saw_offsets = false;
  for (; !tok.empty(); tok = next_word(rest)) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return fail(id, "expected key=value, got '" + std::string(tok) + "'");
    }
    const std::string_view key = tok.substr(0, eq);
    const std::string_view value = tok.substr(eq + 1);
    if (value.empty()) {
      return fail(id, "option '" + std::string(key) + "' has no value");
    }
    bool* seen = nullptr;
    if (key == "shape") { seen = &saw_shape; shape = value; }
    else if (key == "dims") {
      seen = &saw_dims;
      if (!parse_small_int(value, 2, 3, dims)) {
        return fail(id, "dims must be 2 or 3");
      }
    } else if (key == "order") {
      seen = &saw_order;
      if (!parse_small_int(value, 1, 4, order)) {
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
      return fail(id, "unknown option '" + std::string(key) +
                          "' (shape|dims|order|gpu|offsets)");
    }
    if (*seen) return fail(id, "duplicate option '" + std::string(key) + "'");
    *seen = true;
  }
  if (saw_offsets && (saw_shape || saw_dims || saw_order)) {
    return fail(id, "offsets= excludes shape=/dims=/order=");
  }

  // The pattern is moved into the Request built below, so the Request's
  // default pattern is never constructed.
  std::optional<stencil::StencilPattern> pattern;
  try {
    if (saw_offsets) {
      int odims = 0;
      std::vector<stencil::Point> points;
      std::string error;
      if (!parse_offsets(offsets, odims, points, error)) return fail(id, error);
      pattern.emplace(odims, std::move(points));
    } else if (shape.empty() || shape == "star") {
      pattern.emplace(stencil::make_star(dims, order));
    } else if (shape == "box") {
      pattern.emplace(stencil::make_box(dims, order));
    } else if (shape == "cross") {
      pattern.emplace(stencil::make_cross(dims, order));
    } else {
      return fail(id, "unknown shape '" + std::string(shape) +
                          "' (star|box|cross)");
    }
  } catch (const std::exception& e) {
    return fail(id, std::string("invalid stencil: ") + e.what());
  }
  // Canonical identity: the constructed pattern sorts and dedups its
  // offsets, so equivalent spellings produce equal keys.
  std::string key = memo_key(verb, gpu, *pattern);
  return ParseResult{true,
                     Request{verb, std::string(id), std::move(*pattern),
                             std::string(gpu), std::move(key)},
                     std::string(id),
                     {}};
}

void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
}

std::string escape_text(std::string_view text) {
  std::size_t size = text.size();
  for (const char c : text) size += c == '\\' || c == '\n';
  std::string out;
  out.reserve(size);
  append_escaped(out, text);
  return out;
}

std::string unescape_text(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) {
      if (text[i + 1] == 'n') { out += '\n'; ++i; continue; }
      if (text[i + 1] == '\\') { out += '\\'; ++i; continue; }
    }
    out += text[i];
  }
  return out;
}

std::string ok_reply(std::string_view id, std::string_view payload) {
  std::string out;
  out.reserve(4 + id.size() + payload.size());
  out += "ok ";
  out += id;
  out += ' ';
  out += payload;
  return out;
}

std::string err_reply(std::string_view id, std::string_view message) {
  if (id.empty()) id = "-";
  std::string out;
  out.reserve(5 + id.size() + message.size());
  out += "err ";
  out += id;
  out += ' ';
  for (const char c : message) out += c < 0x20 || c > 0x7e ? ' ' : c;
  return out;
}

}  // namespace smart::core::serve
