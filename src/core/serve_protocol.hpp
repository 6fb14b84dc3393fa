// Wire protocol of `smartctl serve`: newline-delimited requests, one reply
// line per request. The grammar is deliberately tiny — printable-ASCII
// tokens separated by single spaces — so a malformed line is always
// answerable with a one-line `err` reply and can never desynchronize the
// stream.
//
//   request  := verb SP id (SP key "=" value)*
//   verb     := "advise" | "predict" | "stats" | "ping" | "healthz"
//             | "reload" | "shutdown"
//   id       := 1..64 chars of [A-Za-z0-9_.:-]
//   keys     := shape=star|box|cross  dims=2|3  order=1..4  gpu=NAME
//               offsets=x,y[,z];x,y[,z];...   (alternative to shape/dims/
//               order: an explicit offset list; dims = tuple arity)
//   response := "ok" SP id SP payload | "err" SP id SP message
//
// advise/predict take a stencil spec + gpu; stats/ping/healthz/reload/
// shutdown take no keys. healthz reports the live model's version,
// checksum and epoch; reload asks the daemon to re-validate and swap in
// the model artifact it was started from (the epoch increments on
// success). Empty lines are ignored. Anything else — unknown verbs, bad ids,
// duplicate/unknown keys, malformed numbers, out-of-range geometry,
// control bytes, oversize lines — yields `err <id-or-dash> <reason>`.
//
// parse_request is a pure function (no I/O, no globals), which is what the
// fuzz/property tests and the daemon share: a crash or hang here is a bug
// regardless of transport.
#pragma once

#include <string>
#include <string_view>

#include "stencil/pattern.hpp"

namespace smart::core::serve {

/// Longest request line the protocol accepts. Matches the transport cap
/// (util::kMaxLineBytes) so an over-long line is rejected, not split.
inline constexpr std::size_t kMaxRequestBytes = 64 * 1024;
inline constexpr std::size_t kMaxIdBytes = 64;

enum class Verb { kAdvise, kPredict, kStats, kPing, kHealthz, kReload, kShutdown };

std::string to_string(Verb verb);

struct Request {
  Verb verb = Verb::kPing;
  std::string id;
  stencil::StencilPattern pattern{2, {}};  // advise/predict only
  std::string gpu = "V100";                // advise/predict only
  /// Canonical identity of the (verb, stencil, gpu) query — equal for any
  /// two requests that must produce equal payloads (shape/offsets spellings
  /// of the same stencil normalize to the same key). The serve layer uses
  /// it for cross-request memoization and within-batch deduplication.
  std::string memo_key;
};

struct ParseResult {
  bool ok = false;
  Request request;       // valid only when ok
  std::string id = "-";  // best-effort id for err replies
  std::string error;     // one line, no '\n', set when !ok
};

/// Parses one request line. Never throws; never crashes on arbitrary bytes.
ParseResult parse_request(std::string_view line);

/// True when `id` is a legal request id (the `id` rule above).
bool valid_id(std::string_view id) noexcept;

/// Escapes multi-line payload text onto one protocol line:
/// '\\' -> "\\\\", '\n' -> "\\n". unescape_text inverts it (unknown escape
/// sequences and a trailing lone backslash pass through unchanged).
std::string escape_text(std::string_view text);
std::string unescape_text(std::string_view text);
/// Appends escape_text(text) to `out`.
void append_escaped(std::string& out, std::string_view text);

/// Reply builders, each formatting its line into one buffer. err_reply
/// flattens control bytes in `message` to spaces so the reply is always
/// exactly one line.
std::string ok_reply(std::string_view id, std::string_view payload);
std::string err_reply(std::string_view id, std::string_view message);

}  // namespace smart::core::serve
