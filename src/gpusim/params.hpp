// Per-OC tuning-parameter space (paper Sec. IV-E): numeric parameters are
// powers of two, Boolean parameters are {0,1}, enumeration parameters are
// numbered from 1. When converted to model features, numeric parameters are
// log2-scaled for training stability, exactly as the paper describes.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gpusim/opt.hpp"
#include "util/rng.hpp"

namespace smart::gpusim {

/// The value lists each tuning parameter is drawn from.
namespace param_values {
inline constexpr std::array<int, 4> kBlockX{16, 32, 64, 128};
inline constexpr std::array<int, 4> kBlockY{4, 8, 16, 32};
inline constexpr std::array<int, 3> kMerge{2, 4, 8};
inline constexpr std::array<int, 3> kUnroll{1, 2, 4};
inline constexpr std::array<int, 4> kStreamTile{64, 128, 256, 512};
inline constexpr std::array<int, 2> kTbDepth{2, 4};
}  // namespace param_values

/// One concrete parameter setting. Fields not applicable under the OC hold
/// their neutral values (merge_factor 1, stream_tile 0, tb_depth 1, ...).
struct ParamSetting {
  int block_x = 32;     // threads along the contiguous dimension (pow2)
  int block_y = 8;      // threads along the second dimension (pow2)
  int merge_factor = 1; // points merged per thread (pow2; >1 iff BM or CM)
  int merge_dim = -1;   // 0-based axis of merging; -1 when not merging
  int unroll = 1;       // streaming-loop unroll factor (pow2; ST only)
  int stream_tile = 0;  // planes per block along the stream dim (ST only)
  int stream_dim = -1;  // 0-based streaming axis; -1 without ST
  bool use_smem = true; // stage tiles through shared memory
  int tb_depth = 1;     // fused time steps (>1 iff TB)

  int threads_per_block() const noexcept { return block_x * block_y; }

  /// Fixed-length feature layout shared by every OC (absent params stay at
  /// neutral values): [log2 bx, log2 by, log2 merge, merge_dim+1,
  /// log2 unroll, log2(stream_tile+1), stream_dim+1, use_smem, log2 tb].
  static constexpr int kNumFeatures = 9;
  std::vector<double> to_feature_vector() const;
  /// The same values without a heap vector.
  std::array<double, kNumFeatures> feature_array() const noexcept;
  static std::vector<std::string> feature_names();

  std::uint64_t hash() const noexcept;
  /// e.g. "b32x8 m2@d0 st128@d1 smem tb2" (absent parameters are omitted).
  std::string to_string() const;
  /// Appends to_string() to `out` without a temporary.
  void append_to(std::string& out) const;

  friend bool operator==(const ParamSetting&, const ParamSetting&) = default;
};

/// Generates valid settings for an OC on a d-dimensional problem.
class ParamSpace {
 public:
  ParamSpace(OptCombination oc, int dims);

  const OptCombination& oc() const noexcept { return oc_; }
  int dims() const noexcept { return dims_; }

  /// Uniformly samples one valid setting.
  ParamSetting random_setting(util::Rng& rng) const;

  /// Number of valid settings, i.e. enumerate().size(), computed in closed
  /// form without materializing the cross product (tuners use it to decide
  /// whether a sampling budget covers the whole space).
  std::size_t size() const;

  /// Enumerates the complete valid cross product (used by exhaustive tests
  /// and the motivation study; a few hundred to a few thousand settings).
  std::vector<ParamSetting> enumerate() const;

  /// Calls visit(setting) for every setting of enumerate(), in the same
  /// order, without materializing the list.
  template <typename Visit>
  void for_each_setting(Visit&& visit) const;

  /// True if `s` satisfies all structural rules for this OC/dims:
  /// pow2 fields, thread-count bounds, merge/stream axis exclusion, and
  /// neutral values for inapplicable parameters.
  bool is_valid(const ParamSetting& s) const;

 private:
  OptCombination oc_;
  int dims_;
};

template <typename Visit>
void ParamSpace::for_each_setting(Visit&& visit) const {
  namespace pv = param_values;
  const bool merging = oc_.bm || oc_.cm;
  // Each inapplicable parameter iterates its one neutral value.
  static constexpr std::array<int, 1> kOne{1};
  static constexpr std::array<int, 1> kZero{0};
  using Values = std::span<const int>;
  const Values merges = merging ? Values(pv::kMerge) : Values(kOne);
  const Values unrolls = oc_.st ? Values(pv::kUnroll) : Values(kOne);
  const Values tiles = oc_.st ? Values(pv::kStreamTile) : Values(kZero);
  const Values tbs = oc_.tb ? Values(pv::kTbDepth) : Values(kOne);
  const int md_first = merging ? 0 : -1;
  const int md_last = merging ? dims_ - 1 : -1;
  const int sd_first = oc_.st ? 1 : -1;
  const int sd_last = oc_.st ? (dims_ == 3 ? 2 : 1) : -1;
  for (int bx : pv::kBlockX) {
    for (int by : pv::kBlockY) {
      for (int m : merges) {
        for (int md = md_first; md <= md_last; ++md) {
          for (int u : unrolls) {
            for (int tile : tiles) {
              for (int sd = sd_first; sd <= sd_last; ++sd) {
                for (int tb : tbs) {
                  for (int smem = 0; smem < 2; ++smem) {
                    ParamSetting s;
                    s.block_x = bx;
                    s.block_y = by;
                    s.merge_factor = m;
                    s.merge_dim = md;
                    s.unroll = u;
                    s.stream_tile = tile;
                    s.stream_dim = sd;
                    s.use_smem = smem != 0;
                    s.tb_depth = tb;
                    if (is_valid(s)) visit(s);
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace smart::gpusim
