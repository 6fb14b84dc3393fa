#include "core/serialize.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "util/atomic_file.hpp"
#include "util/serialize_io.hpp"
#include "util/timing.hpp"

namespace smart::core {

namespace {

constexpr const char* kMagic = "stencilmart-dataset-v1";
constexpr const char* kModelMagic = "stencilmart-model-v1";
constexpr const char* kModelMagicPrefix = "stencilmart-model-";

std::string checksum_hex(std::string_view bytes) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(util::fnv1a64(bytes)));
  return buf;
}

/// Corpus bytes move through the stream in chunks of this size, so neither
/// direction holds a whole corpus in memory.
constexpr std::size_t kChunkBytes = 64 * 1024;

/// Formats corpus records into one reused buffer that is handed to the
/// stream whenever a record ends past kChunkBytes. Every spelling matches
/// what `std::ostream` insertion produces for the same value.
class CorpusWriter {
 public:
  explicit CorpusWriter(std::ostream& out)
      : out_(out), buf_(2 * kChunkBytes) {}

  CorpusWriter& operator<<(std::string_view text) {
    std::memcpy(room(text.size()), text.data(), text.size());
    used_ += text.size();
    return *this;
  }
  CorpusWriter& operator<<(char c) {
    *room(1) = c;
    ++used_;
    return *this;
  }
  template <typename Int>
    requires std::is_integral_v<Int> && (!std::is_same_v<Int, char>) &&
             (!std::is_same_v<Int, bool>)
  CorpusWriter& operator<<(Int value) {
    put_chars(value);
    return *this;
  }

  /// As `out << std::setprecision(17) << v`, which is printf "%.17g".
  void decimal17(double v) {
    used_ += static_cast<std::size_t>(
        std::snprintf(room(kNumberBytes), kNumberBytes, "%.17g", v));
  }

  /// As `out << std::hexfloat << v`, which is printf "%a". Normal values
  /// and zeros take to_chars; the rest take printf itself, because newer
  /// libstdc++ runtimes spell a subnormal normalized ("1p-1074" where
  /// printf writes "0x0.0000000000001p-1022").
  void hexfloat(double v) {
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
    put_chars(v, std::chars_format::hex);
  }

  void end_record() {
    *this << '\n';
    if (used_ >= kChunkBytes) flush();
  }

  void flush() {
    out_.write(buf_.data(), static_cast<std::streamsize>(used_));
    used_ = 0;
  }

 private:
  /// Enough for any integer, "%.17g" or "%a" double, terminator included.
  static constexpr std::size_t kNumberBytes = 32;

  /// Returns `n` writable bytes at the end of the buffer, growing it only
  /// for a record longer than the slack past one chunk.
  char* room(std::size_t n) {
    if (buf_.size() - used_ < n) {
      buf_.resize(std::max(2 * buf_.size(), used_ + n));
    }
    return buf_.data() + used_;
  }

  template <typename T, typename... Format>
  void put_chars(T value, Format... format) {
    char* first = room(kNumberBytes);
    const char* last =
        std::to_chars(first, first + kNumberBytes, value, format...).ptr;
    used_ += static_cast<std::size_t>(last - first);
  }

  std::ostream& out_;
  std::vector<char> buf_;
  std::size_t used_ = 0;
};

/// Line source and parse-error context for the corpus reader. Lines are
/// split out of kChunkBytes reads with memchr and handed out as views into
/// the chunk buffer; every failure names the source and 1-based line, e.g.
/// "corpus.txt:1042: unparsable time field '1.2.3'".
class CorpusReader {
 public:
  CorpusReader(std::istream& in, std::string source)
      : in_(in), source_(std::move(source)), buf_(2 * kChunkBytes) {}

  /// Advances to the next line (a final line without '\n' counts) and
  /// returns it without the terminator; false at end of input. The view
  /// stays valid until the next call.
  bool next_line(std::string_view& line) {
    for (;;) {
      const char* first = buf_.data() + begin_;
      const std::size_t avail = end_ - begin_;
      if (const void* nl = std::memchr(first, '\n', avail)) {
        line = {first, static_cast<std::size_t>(static_cast<const char*>(nl) -
                                                first)};
        begin_ += line.size() + 1;
        ++line_no_;
        return true;
      }
      if (eof_) {
        if (avail == 0) return false;
        line = {first, avail};
        begin_ = end_;
        ++line_no_;
        return true;
      }
      // Keep the partial line, then append one more chunk after it (the
      // buffer only grows for a line longer than a chunk).
      std::memmove(buf_.data(), first, avail);
      begin_ = 0;
      end_ = avail;
      if (buf_.size() < end_ + kChunkBytes) buf_.resize(end_ + kChunkBytes);
      in_.read(buf_.data() + end_, static_cast<std::streamsize>(kChunkBytes));
      end_ += static_cast<std::size_t>(in_.gcount());
      if (in_.bad()) fail("read error");
      eof_ = !in_;
    }
  }

  /// The line that must come next; when the input ends instead, fails with
  /// `what` at the number that line would have had.
  std::string_view expect_line(std::string_view what) {
    std::string_view line;
    if (!next_line(line)) {
      ++line_no_;
      fail(what);
    }
    return line;
  }

  [[noreturn]] void fail(std::string_view what) const {
    throw std::runtime_error(source_ + ":" + std::to_string(line_no_) + ": " +
                             std::string(what));
  }
  void expect(bool condition, std::string_view what) const {
    if (!condition) fail(what);
  }

 private:
  std::istream& in_;
  std::string source_;
  std::vector<char> buf_;
  std::size_t begin_ = 0;  // unread bytes are buf_[begin_, end_)
  std::size_t end_ = 0;
  bool eof_ = false;
  std::size_t line_no_ = 0;
};

/// Whitespace as `std::istream >>` skips it in the "C" locale: ' ' and
/// '\t' through '\r'. Every other byte is above ' ' or below '\t'.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Splits the next whitespace-delimited token off the front of `rest`;
/// empty once `rest` holds no more tokens.
std::string_view next_token(std::string_view& rest) noexcept {
  std::size_t first = 0;
  while (first < rest.size() && is_space(rest[first])) ++first;
  std::size_t last = first;
  while (last < rest.size() && !is_space(rest[last])) ++last;
  const std::string_view token = rest.substr(first, last - first);
  rest.remove_prefix(last);
  return token;
}

/// The N whitespace-delimited fields of `rest`; a line with fewer or more
/// is an error that names `record`.
template <std::size_t N>
std::array<std::string_view, N> split_exact(const CorpusReader& r,
                                            std::string_view rest,
                                            std::string_view record) {
  std::array<std::string_view, N> fields;
  std::size_t count = 0;
  for (; count < N; ++count) {
    fields[count] = next_token(rest);
    if (fields[count].empty()) break;
  }
  if (count == N) {
    while (!next_token(rest).empty()) ++count;
  }
  if (count != N) {
    r.fail(std::string(record) + " has " + std::to_string(count) +
           " fields, want " + std::to_string(N));
  }
  return fields;
}

/// Whole-token std::from_chars parse: decimal only, no '+', no '-' for
/// unsigned types, no out-of-range value, nothing after the number.
template <typename Number>
bool parse_number(std::string_view token, Number& out) noexcept {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_flag(std::string_view token, bool& out) noexcept {
  if (token != "0" && token != "1") return false;
  out = token == "1";
  return true;
}

/// Parses "x:y:z;x:y:z;...": each token exactly three integers in
/// [-max_order, max_order], the axes beyond `dims` zero.
stencil::StencilPattern parse_offsets(const CorpusReader& r, int dims,
                                      int max_order, std::string_view text) {
  std::vector<stencil::Point> points;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t stop = std::min(text.find(';', begin), text.size());
    const std::string_view token = text.substr(begin, stop - begin);
    std::array<int, stencil::kMaxDims> xyz{};
    const char* p = token.data();
    const char* const end = p + token.size();
    bool ok = true;
    for (std::size_t axis = 0; ok && axis < xyz.size(); ++axis) {
      if (axis > 0) ok = p != end && *p++ == ':';
      if (!ok) break;
      const auto res = std::from_chars(p, end, xyz[axis]);
      ok = res.ec == std::errc{};
      p = res.ptr;
    }
    if (!ok || p != end) {
      r.fail("bad offset token '" + std::string(token) + "'");
    }
    for (std::size_t axis = 0; axis < xyz.size(); ++axis) {
      if (xyz[axis] < -max_order || xyz[axis] > max_order) {
        r.fail("offset coordinate out of range in '" + std::string(token) +
               "' (want -" + std::to_string(max_order) + ".." +
               std::to_string(max_order) + ")");
      }
      if (static_cast<int>(axis) >= dims && xyz[axis] != 0) {
        r.fail("offset '" + std::string(token) +
               "' has a non-zero coordinate beyond dims " +
               std::to_string(dims));
      }
    }
    points.emplace_back(xyz[0], xyz[1], xyz[2]);
    if (stop == text.size()) break;
    begin = stop + 1;
  }
  return stencil::StencilPattern(dims, std::move(points));
}

/// Header line: dims max_order num_stencils samples_per_oc seed noise_sigma
/// vary_size vary_boundary. Returns the declared stencil count, which is
/// only compared with the records actually read, never used to allocate.
std::size_t parse_header(const CorpusReader& r, std::string_view line,
                         ProfileConfig& config) {
  const auto f = split_exact<8>(r, line, "header");
  std::size_t num_stencils = 0;
  r.expect(parse_number(f[0], config.dims) && parse_number(f[1], config.max_order) &&
               parse_number(f[2], num_stencils) &&
               parse_number(f[3], config.samples_per_oc) &&
               parse_number(f[4], config.seed) &&
               parse_number(f[5], config.sim.noise_sigma) &&
               parse_flag(f[6], config.vary_problem_size) &&
               parse_flag(f[7], config.vary_boundary),
           "unparsable header");
  r.expect(config.dims == 2 || config.dims == 3, "header dims must be 2 or 3");
  r.expect(config.max_order >= 1 &&
               config.max_order <= std::numeric_limits<std::int8_t>::max(),
           "header max_order out of range");
  r.expect(std::isfinite(config.sim.noise_sigma) &&
               config.sim.noise_sigma >= 0.0,
           "header noise_sigma must be finite and non-negative");
  return num_stencils;
}

}  // namespace

void save_dataset(const ProfileDataset& ds, std::ostream& out) {
  const util::PhaseTimer timer("serialize.save_corpus");
  CorpusWriter w(out);
  w << kMagic;
  w.end_record();
  w << ds.config.dims << ' ' << ds.config.max_order << ' '
    << ds.stencils.size() << ' ' << ds.config.samples_per_oc << ' '
    << ds.config.seed << ' ';
  w.decimal17(ds.config.sim.noise_sigma);
  w << ' ' << (ds.config.vary_problem_size ? 1 : 0) << ' '
    << (ds.config.vary_boundary ? 1 : 0);
  w.end_record();
  // Shard header: only partial corpora carry one, so a complete corpus —
  // including `smartctl merge` output — stays byte-identical to the
  // pre-shard format (and to an uninterrupted single-process run).
  if (ds.shard.sharded()) {
    w << "shard " << ds.shard.index << ' ' << ds.shard.count << ' '
      << ds.shard_retries << ' '
      << (ds.shard_fault_spec.empty() ? "-" : ds.shard_fault_spec);
    w.end_record();
  }

  for (std::size_t s = 0; s < ds.stencils.size(); ++s) {
    const auto& prob = ds.problems[s];
    w << "stencil " << prob.nx << ' ' << prob.ny << ' ' << prob.nz << ' '
      << (prob.boundary == stencil::Boundary::kPeriodic ? 1 : 0) << ' ';
    bool first = true;
    for (const stencil::Point& p : ds.stencils[s].offsets()) {
      if (!first) w << ';';
      first = false;
      w << p[0] << ':' << p[1] << ':' << p[2];
    }
    w.end_record();
  }
  for (std::size_t s = 0; s < ds.stencils.size(); ++s) {
    for (std::size_t oc = 0; oc < ProfileDataset::num_ocs(); ++oc) {
      for (const auto& c : ds.settings[s][oc]) {
        w << "setting " << s << ' ' << oc << ' ' << c.block_x << ' '
          << c.block_y << ' ' << c.merge_factor << ' ' << c.merge_dim << ' '
          << c.unroll << ' ' << c.stream_tile << ' ' << c.stream_dim << ' '
          << (c.use_smem ? 1 : 0) << ' ' << c.tb_depth;
        w.end_record();
      }
    }
  }
  for (std::size_t s = 0; s < ds.stencils.size(); ++s) {
    for (std::size_t g = 0; g < ds.num_gpus(); ++g) {
      for (std::size_t oc = 0; oc < ProfileDataset::num_ocs(); ++oc) {
        const auto& ts = ds.times[s][g][oc];
        for (std::size_t k = 0; k < ts.size(); ++k) {
          w << "time " << s << ' ' << g << ' ' << oc << ' ' << k << ' ';
          if (std::isnan(ts[k])) {
            w << "crash";
          } else {
            w.hexfloat(ts[k]);
          }
          w.end_record();
        }
      }
    }
  }
  for (const auto& q : ds.quarantined) {
    w << "quar " << q.stencil << ' ' << q.oc << ' ' << q.gpu << ' '
      << q.reason;
    w.end_record();
  }
  w.flush();
  if (!out) throw std::runtime_error("save_dataset: stream write failed");
}

void save_dataset(const ProfileDataset& dataset, const std::string& path) {
  util::atomic_write(
      path, [&dataset](std::ostream& out) { save_dataset(dataset, out); });
}

ProfileDataset load_dataset(std::istream& in, const std::string& source) {
  const util::PhaseTimer timer("serialize.load_corpus");
  CorpusReader r(in, source);
  std::string_view line = r.expect_line("empty corpus file");
  if (line != kMagic) {
    r.fail("not a StencilMART corpus (bad magic '" + std::string(line) + "')");
  }
  ProfileDataset ds;
  const std::size_t declared =
      parse_header(r, r.expect_line("missing header"), ds.config);
  ds.problem = gpusim::ProblemSize::paper_default(ds.config.dims);
  ds.gpus = gpusim::evaluation_gpus();
  const std::size_t num_gpus = ds.gpus.size();
  const std::size_t num_ocs = ProfileDataset::num_ocs();

  // The setting and time tables are sized from the stencil records read,
  // once the first record after them arrives, so a corrupt header count is
  // reported there instead of being allocated.
  bool sized = false;
  const auto size_tables = [&] {
    if (ds.stencils.size() != declared) {
      r.fail("stencil count mismatch (header says " +
             std::to_string(declared) + ", file has " +
             std::to_string(ds.stencils.size()) + ")");
    }
    ds.settings.assign(declared,
                       std::vector<std::vector<gpusim::ParamSetting>>(num_ocs));
    ds.times.assign(declared, std::vector<std::vector<std::vector<double>>>(
                                  num_gpus,
                                  std::vector<std::vector<double>>(num_ocs)));
    sized = true;
  };

  while (r.next_line(line)) {
    if (line.empty()) continue;
    std::string_view rest = line;
    const std::string_view tag = next_token(rest);
    if (tag == "time") {
      if (!sized) size_tables();
      const auto f = split_exact<5>(r, rest, "time record");
      std::size_t s = 0;
      std::size_t g = 0;
      std::size_t oc = 0;
      std::size_t k = 0;
      r.expect(parse_number(f[0], s) && parse_number(f[1], g) &&
                   parse_number(f[2], oc) && parse_number(f[3], k),
               "unparsable time record");
      r.expect(s < declared && g < num_gpus && oc < num_ocs,
               "time index out of range");
      auto& ts = ds.times[s][g][oc];
      r.expect(k == ts.size(), "time records out of order");
      // One time per sampled setting is the common case; size for it once.
      if (ts.empty()) ts.reserve(ds.settings[s][oc].size());
      if (f[4] == "crash") {
        ts.push_back(std::numeric_limits<double>::quiet_NaN());
        continue;
      }
      // Strict parse: a half-parsed token silently becoming 0.0 (or a
      // smuggled NaN/inf) would corrupt every model trained on the corpus.
      double time_ms = 0.0;
      if (!util::parse_f64_strict(f[4], time_ms)) {
        r.fail("unparsable time field '" + std::string(f[4]) + "'");
      }
      if (!std::isfinite(time_ms) || time_ms <= 0.0) {
        r.fail("non-finite or non-positive time field '" + std::string(f[4]) +
               "'");
      }
      ts.push_back(time_ms);
    } else if (tag == "setting") {
      if (!sized) size_tables();
      const auto f = split_exact<11>(r, rest, "setting record");
      std::size_t s = 0;
      std::size_t oc = 0;
      r.expect(parse_number(f[0], s) && parse_number(f[1], oc),
               "unparsable setting indices");
      r.expect(s < declared && oc < num_ocs, "setting index out of range");
      gpusim::ParamSetting c;
      r.expect(parse_number(f[2], c.block_x) && parse_number(f[3], c.block_y) &&
                   parse_number(f[4], c.merge_factor) &&
                   parse_number(f[5], c.merge_dim) && parse_number(f[6], c.unroll) &&
                   parse_number(f[7], c.stream_tile) &&
                   parse_number(f[8], c.stream_dim) &&
                   parse_flag(f[9], c.use_smem) && parse_number(f[10], c.tb_depth),
               "unparsable setting record");
      ds.settings[s][oc].push_back(c);
    } else if (tag == "stencil") {
      r.expect(!sized,
               "stencil record after the setting, time or quar records");
      const auto f = split_exact<5>(r, rest, "stencil record");
      gpusim::ProblemSize prob;
      bool periodic = false;
      r.expect(parse_number(f[0], prob.nx) && parse_number(f[1], prob.ny) &&
                   parse_number(f[2], prob.nz) && parse_flag(f[3], periodic),
               "unparsable stencil record");
      prob.boundary = periodic ? stencil::Boundary::kPeriodic
                               : stencil::Boundary::kDirichletZero;
      ds.stencils.push_back(
          parse_offsets(r, ds.config.dims, ds.config.max_order, f[4]));
      ds.problems.push_back(prob);
    } else if (tag == "quar") {
      if (!sized) size_tables();
      QuarantineRecord q;
      r.expect(parse_number(next_token(rest), q.stencil) &&
                   parse_number(next_token(rest), q.oc) &&
                   parse_number(next_token(rest), q.gpu),
               "unparsable quarantine record");
      r.expect(q.stencil < declared && q.gpu < num_gpus && q.oc < num_ocs,
               "quarantine index out of range");
      // The reason is free text: the rest of the line after one separator.
      if (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
      q.reason = rest;
      ds.quarantined.push_back(std::move(q));
    } else if (tag == "shard") {
      r.expect(!ds.shard.sharded(), "duplicate shard header");
      const auto f = split_exact<4>(r, rest, "shard header");
      r.expect(parse_number(f[0], ds.shard.index) &&
                   parse_number(f[1], ds.shard.count) &&
                   parse_number(f[2], ds.shard_retries),
               "unparsable shard header");
      r.expect(ds.shard.count >= 2 && ds.shard.index < ds.shard.count,
               "shard header out of range (want 0 <= i < N, N >= 2)");
      r.expect(ds.shard_retries >= 0, "negative shard retry budget");
      ds.shard_fault_spec = f[3] == "-" ? std::string_view{} : f[3];
    } else {
      r.fail("unknown tag '" + std::string(tag) + "'");
    }
  }
  if (!sized) size_tables();
  ds.config.num_stencils = static_cast<int>(declared);
  return ds;
}

ProfileDataset load_dataset(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_dataset: cannot open " + path);
  return load_dataset(in, path);
}

// ----- model artifacts -------------------------------------------------------

void save_model(const StencilMart& mart, std::ostream& out) {
  const util::PhaseTimer timer("serialize.save");
  if (!mart.trained()) {
    throw std::logic_error("save_model: StencilMart is not trained");
  }

  std::ostringstream payload;
  const MartConfig& c = mart.config_;
  payload << "config " << c.profile.dims << ' ' << c.profile.max_order << ' '
          << c.profile.num_stencils << ' ' << c.profile.samples_per_oc << ' '
          << c.profile.seed << ' ';
  util::write_f64(payload, c.profile.sim.noise_sigma);
  payload << ' ' << c.profile.sim.seed << ' '
          << (c.profile.vary_problem_size ? 1 : 0) << ' '
          << (c.profile.vary_boundary ? 1 : 0) << '\n';
  const RegressionConfig& r = c.regression;
  payload << "regconfig " << r.folds << ' ' << r.epochs << ' ' << r.batch_size
          << ' ';
  util::write_f64(payload, r.learning_rate);
  payload << ' ' << r.mlp_hidden_layers << ' ' << r.mlp_width << ' '
          << r.instance_cap << ' ' << r.seed << '\n';
  payload << "regressor " << to_string(c.regressor) << ' ' << c.tuning_samples
          << '\n';
  mart.merger_.save(payload);
  payload << "classifiers " << mart.classifiers_.size() << '\n';
  for (const auto& clf : mart.classifiers_) clf.save(payload);
  mart.regression_->save_fitted(payload);

  const std::string bytes = payload.str();
  out << kModelMagic << '\n';
  out << "payload " << bytes.size() << '\n';
  out << bytes;
  out << "checksum " << checksum_hex(bytes) << '\n';
  if (!out) throw std::runtime_error("save_model: stream write failed");
}

void save_model(const StencilMart& mart, const std::string& path) {
  util::atomic_write(
      path, [&mart](std::ostream& out) { save_model(mart, out); });
}

StencilMart load_model(std::istream& in, const std::string& source) {
  const util::PhaseTimer timer("serialize.load");
  std::string magic;
  if (!std::getline(in, magic)) {
    throw std::runtime_error("load_model: empty stream");
  }
  if (magic != kModelMagic) {
    if (magic.rfind(kModelMagicPrefix, 0) == 0) {
      throw std::runtime_error("load_model: unsupported model format version '" +
                               magic + "' (this build reads " +
                               std::string(kModelMagic) + ")");
    }
    throw std::runtime_error(
        "load_model: not a StencilMART model artifact (bad magic)");
  }
  util::expect_word(in, "payload", "load_model payload header");
  const std::size_t payload_size =
      util::read_size(in, "load_model payload size");
  if (in.get() != '\n') {
    throw std::runtime_error("load_model: malformed payload header");
  }
  std::string bytes(payload_size, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(payload_size));
  if (static_cast<std::size_t>(in.gcount()) != payload_size) {
    throw std::runtime_error(
        "load_model: truncated artifact (payload cut short)");
  }
  util::expect_word(in, "checksum", "load_model checksum header");
  const std::string digest = util::read_token(in, "load_model checksum");
  if (digest != checksum_hex(bytes)) {
    throw std::runtime_error(
        "load_model: checksum mismatch — the artifact is corrupted");
  }

  std::istringstream payload(bytes);
  try {
    MartConfig config;
    util::expect_word(payload, "config", "load_model config section");
    config.profile.dims = util::read_int(payload, "config dims");
    config.profile.max_order = util::read_int(payload, "config max_order");
    config.profile.num_stencils = util::read_int(payload, "config num_stencils");
    config.profile.samples_per_oc =
        util::read_int(payload, "config samples_per_oc");
    config.profile.seed = util::read_u64(payload, "config seed");
    config.profile.sim.noise_sigma =
        util::read_f64(payload, "config noise_sigma");
    config.profile.sim.seed = util::read_u64(payload, "config sim seed");
    config.profile.vary_problem_size =
        util::read_int(payload, "config vary_problem_size") != 0;
    config.profile.vary_boundary =
        util::read_int(payload, "config vary_boundary") != 0;
    if (config.profile.dims != 2 && config.profile.dims != 3) {
      throw std::runtime_error("load_model: config dims out of range");
    }
    util::expect_word(payload, "regconfig", "load_model regression config");
    RegressionConfig& r = config.regression;
    r.folds = util::read_int(payload, "regconfig folds");
    r.epochs = util::read_int(payload, "regconfig epochs");
    r.batch_size = util::read_int(payload, "regconfig batch_size");
    r.learning_rate = util::read_f64(payload, "regconfig learning_rate");
    r.mlp_hidden_layers = util::read_int(payload, "regconfig mlp_hidden_layers");
    r.mlp_width = util::read_size(payload, "regconfig mlp_width");
    r.instance_cap = util::read_size(payload, "regconfig instance_cap");
    r.seed = util::read_u64(payload, "regconfig seed");
    util::expect_word(payload, "regressor", "load_model regressor section");
    config.regressor =
        regressor_kind_from_string(util::read_token(payload, "regressor kind"));
    config.tuning_samples = util::read_int(payload, "regressor tuning_samples");

    StencilMart mart(config);
    // Serving needs no profiled stencils: classification, tuning and variant
    // prediction only read the config geometry, the static OC table and the
    // GPU table, so the loaded mart carries a zero-stencil dataset.
    ProfileDataset serving;
    serving.config = config.profile;
    serving.problem = gpusim::ProblemSize::paper_default(config.profile.dims);
    serving.gpus = gpusim::evaluation_gpus();
    mart.dataset_ = std::make_unique<ProfileDataset>(std::move(serving));

    mart.merger_ = OcMerger::load(payload);
    if (mart.merger_.groups().size() != ProfileDataset::num_ocs()) {
      throw std::runtime_error(
          "load_model: OC count does not match this build's OC table");
    }
    util::expect_word(payload, "classifiers", "load_model classifier section");
    const std::size_t num_classifiers =
        util::read_size(payload, "classifier count");
    if (num_classifiers != mart.dataset_->gpus.size()) {
      throw std::runtime_error(
          "load_model: classifier count does not match the GPU table");
    }
    mart.classifiers_.clear();
    mart.classifiers_.reserve(num_classifiers);
    for (std::size_t g = 0; g < num_classifiers; ++g) {
      mart.classifiers_.push_back(ml::GbdtClassifier::load(payload));
      if (mart.classifiers_.back().num_classes() != mart.merger_.num_groups()) {
        throw std::runtime_error(
            "load_model: classifier class count does not match the OC grouping");
      }
    }
    mart.regression_ =
        std::make_unique<RegressionTask>(*mart.dataset_, config.regression);
    mart.regression_->load_fitted(payload);
    std::string extra;
    if (payload >> extra) {
      throw std::runtime_error(
          "load_model: trailing data after the regression section");
    }
    mart.trained_ = true;
    return mart;
  } catch (const std::exception& e) {
    // Pinpoint where inside the (checksum-valid) payload parsing stopped:
    // with the envelope intact, a parse failure here means a format skew
    // between writer and reader, and the byte offset locates the section.
    payload.clear();
    const auto pos = payload.tellg();
    const std::size_t offset =
        pos < 0 ? bytes.size() : static_cast<std::size_t>(pos);
    throw std::runtime_error(source + ": payload byte offset " +
                             std::to_string(offset) + ": " + e.what());
  }
}

StencilMart load_model(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_model: cannot open " + path);
  return load_model(in, path);
}

ModelArtifactInfo inspect_model(std::istream& in) {
  std::string magic;
  if (!std::getline(in, magic)) {
    throw std::runtime_error("load_model: empty stream");
  }
  if (magic != kModelMagic) {
    if (magic.rfind(kModelMagicPrefix, 0) == 0) {
      throw std::runtime_error("load_model: unsupported model format version '" +
                               magic + "' (this build reads " +
                               std::string(kModelMagic) + ")");
    }
    throw std::runtime_error(
        "load_model: not a StencilMART model artifact (bad magic)");
  }
  util::expect_word(in, "payload", "load_model payload header");
  const std::size_t payload_size =
      util::read_size(in, "load_model payload size");
  if (in.get() != '\n') {
    throw std::runtime_error("load_model: malformed payload header");
  }
  std::string bytes(payload_size, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(payload_size));
  if (static_cast<std::size_t>(in.gcount()) != payload_size) {
    throw std::runtime_error(
        "load_model: truncated artifact (payload cut short)");
  }
  util::expect_word(in, "checksum", "load_model checksum header");
  const std::string digest = util::read_token(in, "load_model checksum");
  if (digest != checksum_hex(bytes)) {
    throw std::runtime_error(
        "load_model: checksum mismatch — the artifact is corrupted");
  }
  return ModelArtifactInfo{magic, digest};
}

ModelArtifactInfo inspect_model(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_model: cannot open " + path);
  return inspect_model(in);
}

}  // namespace smart::core
