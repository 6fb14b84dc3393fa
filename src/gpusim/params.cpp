#include "gpusim/params.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace smart::gpusim {

namespace {

using namespace param_values;

constexpr int kMinThreads = 128;
constexpr int kMaxThreads = 1024;

bool is_pow2(int x) { return x > 0 && (x & (x - 1)) == 0; }

double log2d(int x) { return std::log2(static_cast<double>(x)); }

bool contains(std::span<const int> xs, int v) {
  for (int x : xs) {
    if (x == v) return true;
  }
  return false;
}

template <std::size_t N>
int pick(util::Rng& rng, const std::array<int, N>& values) {
  return rng.pick(std::span<const int>(values));
}

void append_int(std::string& out, int value) {
  char buf[16];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

}  // namespace

std::vector<double> ParamSetting::to_feature_vector() const {
  const auto features = feature_array();
  return {features.begin(), features.end()};
}

std::array<double, ParamSetting::kNumFeatures> ParamSetting::feature_array()
    const noexcept {
  return {log2d(block_x),
          log2d(block_y),
          log2d(merge_factor),
          static_cast<double>(merge_dim + 1),
          log2d(unroll),
          std::log2(static_cast<double>(stream_tile) + 1.0),
          static_cast<double>(stream_dim + 1),
          use_smem ? 1.0 : 0.0,
          log2d(tb_depth)};
}

std::vector<std::string> ParamSetting::feature_names() {
  return {"log2_block_x",  "log2_block_y", "log2_merge", "merge_dim",
          "log2_unroll",   "log2_stream_tile", "stream_dim", "use_smem",
          "log2_tb_depth"};
}

std::uint64_t ParamSetting::hash() const noexcept {
  std::uint64_t h = 0xabcd;
  auto mix = [&h](long long v) {
    h = util::hash_combine(h, static_cast<std::uint64_t>(v));
  };
  mix(block_x);
  mix(block_y);
  mix(merge_factor);
  mix(merge_dim);
  mix(unroll);
  mix(stream_tile);
  mix(stream_dim);
  mix(use_smem ? 1 : 0);
  mix(tb_depth);
  return h;
}

std::string ParamSetting::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void ParamSetting::append_to(std::string& out) const {
  out += 'b';
  append_int(out, block_x);
  out += 'x';
  append_int(out, block_y);
  if (merge_factor > 1) {
    out += " m";
    append_int(out, merge_factor);
    out += "@d";
    append_int(out, merge_dim);
  }
  if (unroll > 1) {
    out += " u";
    append_int(out, unroll);
  }
  if (stream_tile > 0) {
    out += " st";
    append_int(out, stream_tile);
    out += "@d";
    append_int(out, stream_dim);
  }
  out += use_smem ? " smem" : " nosmem";
  if (tb_depth > 1) {
    out += " tb";
    append_int(out, tb_depth);
  }
}

ParamSpace::ParamSpace(OptCombination oc, int dims) : oc_(oc), dims_(dims) {
  if (!oc_.is_valid()) throw std::invalid_argument("ParamSpace: invalid OC");
  if (dims_ < 2 || dims_ > 3) throw std::invalid_argument("ParamSpace: dims");
}

bool ParamSpace::is_valid(const ParamSetting& s) const {
  if (!contains(kBlockX, s.block_x) || !contains(kBlockY, s.block_y)) {
    return false;
  }
  const int threads = s.threads_per_block();
  if (threads < kMinThreads || threads > kMaxThreads) return false;
  if (!is_pow2(s.merge_factor) || !is_pow2(s.unroll) || !is_pow2(s.tb_depth)) {
    return false;
  }

  const bool merging = oc_.bm || oc_.cm;
  if (merging) {
    if (!contains(kMerge, s.merge_factor)) return false;
    if (s.merge_dim < 0 || s.merge_dim >= dims_) return false;
  } else {
    if (s.merge_factor != 1 || s.merge_dim != -1) return false;
  }

  if (oc_.st) {
    // 2-D streams along y; 3-D may stream along y or z.
    if (dims_ == 2 && s.stream_dim != 1) return false;
    if (dims_ == 3 && s.stream_dim != 1 && s.stream_dim != 2) return false;
    if (!contains(kStreamTile, s.stream_tile)) return false;
    if (!contains(kUnroll, s.unroll)) return false;
    if (merging && s.merge_dim == s.stream_dim) return false;
  } else {
    if (s.stream_dim != -1 || s.stream_tile != 0 || s.unroll != 1) {
      return false;
    }
  }

  if (oc_.tb) {
    if (!contains(kTbDepth, s.tb_depth)) return false;
  } else {
    if (s.tb_depth != 1) return false;
  }
  return true;
}

ParamSetting ParamSpace::random_setting(util::Rng& rng) const {
  const bool merging = oc_.bm || oc_.cm;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    ParamSetting s;
    s.block_x = pick(rng, kBlockX);
    s.block_y = pick(rng, kBlockY);
    s.use_smem = rng.bernoulli(0.5);
    if (merging) {
      s.merge_factor = pick(rng, kMerge);
      s.merge_dim = static_cast<int>(rng.uniform_int(0, dims_ - 1));
    }
    if (oc_.st) {
      s.stream_dim = dims_ == 2
                         ? 1
                         : static_cast<int>(rng.uniform_int(1, 2));
      s.stream_tile = pick(rng, kStreamTile);
      s.unroll = pick(rng, kUnroll);
    }
    if (oc_.tb) s.tb_depth = pick(rng, kTbDepth);
    // Fast-path acceptance: every field above is drawn from its valid list
    // (and untouched fields keep their neutral defaults), so of is_valid()'s
    // rules only the thread-count bound and the merge/stream axis clash can
    // actually fail. The rejection decisions — and therefore the rng
    // sequence — are identical to running the full check; corpus sampling
    // calls this tens of thousands of times per build.
    // tests/gpusim/params_test.cpp pins random draws against is_valid().
    const int threads = s.threads_per_block();
    if (threads >= kMinThreads && threads <= kMaxThreads &&
        !(merging && oc_.st && s.merge_dim == s.stream_dim)) {
      return s;
    }
  }
  throw std::runtime_error("ParamSpace::random_setting: no valid setting found");
}

std::size_t ParamSpace::size() const {
  // Mirrors is_valid(): the only cross-field constraints are the
  // thread-count bound on (block_x, block_y) and merge_dim != stream_dim
  // when merging and streaming combine. Everything else is a plain cross
  // product. tests/gpusim/params_test.cpp pins this against
  // enumerate().size() for every valid OC.
  std::size_t block_pairs = 0;
  for (int bx : kBlockX) {
    for (int by : kBlockY) {
      const int threads = bx * by;
      if (threads >= kMinThreads && threads <= kMaxThreads) ++block_pairs;
    }
  }
  const bool merging = oc_.bm || oc_.cm;
  std::size_t merge = 1;
  if (merging) {
    const std::size_t merge_axes =
        static_cast<std::size_t>(oc_.st ? dims_ - 1 : dims_);
    merge = kMerge.size() * merge_axes;
  }
  std::size_t stream = 1;
  if (oc_.st) {
    const std::size_t stream_axes = dims_ == 2 ? 1 : 2;
    stream = kStreamTile.size() * kUnroll.size() * stream_axes;
  }
  const std::size_t tb = oc_.tb ? kTbDepth.size() : 1;
  return block_pairs * merge * stream * tb * 2;  // x2: use_smem
}

std::vector<ParamSetting> ParamSpace::enumerate() const {
  std::vector<ParamSetting> out;
  out.reserve(size());
  for_each_setting([&out](const ParamSetting& s) { out.push_back(s); });
  return out;
}

}  // namespace smart::gpusim
