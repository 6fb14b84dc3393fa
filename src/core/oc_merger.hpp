// OC merging via Pearson correlation (paper Sec. III-C and IV-D).
//
// OCs whose per-stencil best times are strongly correlated behave alike, so
// predicting between them is noise. Per GPU we rank OC pairs by PCC (over
// log best-times, pairwise-complete for crashes), keep each GPU's top-K
// pairs, intersect across GPUs (the paper reports a 28% intersection), and
// greedily union-merge the intersected pairs (strongest first) until the
// requested number of groups remains; remaining merges fall back to the
// globally strongest pairs. Each group's representative OC is the member
// that is best for the most (stencil, GPU) cases (paper Fig. 2).
#pragma once

#include <string>
#include <vector>

#include "core/profile_dataset.hpp"
#include "util/serialize_io.hpp"

namespace smart::core {

struct OcPairCorr {
  int oc_a = 0;
  int oc_b = 0;
  double pcc = 0.0;  // aggregated (minimum across GPUs of |PCC|)
};

class OcMerger {
 public:
  struct Options {
    int target_groups = 5;  // paper reduces the predicted OCs to 5
    int top_pairs = 100;    // paper uses the top-100 PCC pairs per GPU
  };

  OcMerger() = default;

  /// Fits the grouping from a profiled dataset.
  void fit(const ProfileDataset& dataset, Options options);
  void fit(const ProfileDataset& dataset) { fit(dataset, Options{}); }

  int num_groups() const noexcept { return num_groups_; }
  int group_of(int oc_index) const { return group_[static_cast<std::size_t>(oc_index)]; }
  const std::vector<int>& groups() const noexcept { return group_; }

  /// Representative OC index (into valid_combinations()) for a group.
  int representative(int group) const {
    return representatives_[static_cast<std::size_t>(group)];
  }

  /// OC indices belonging to `group`.
  std::vector<int> members(int group) const;

  std::string group_name(int group) const;

  /// Per-GPU top-K |PCC| values (for Fig. 3) computed by the last fit().
  const std::vector<std::vector<double>>& top_pccs_per_gpu() const noexcept {
    return top_pccs_per_gpu_;
  }
  /// Fraction of pairs common to every GPU's top-K list (paper: ~28%).
  double intersection_fraction() const noexcept { return intersection_fraction_; }

  /// Persists the fitted grouping (group map + representatives). The PCC
  /// diagnostics (top_pccs_per_gpu, intersection_fraction) are fit-time
  /// analysis, not needed to classify, and are not persisted. Throws
  /// std::runtime_error on malformed or inconsistent input.
  void save(util::TokenWriter& out) const;
  static OcMerger load(util::TokenReader& in);

 private:
  int num_groups_ = 0;
  std::vector<int> group_;            // oc index -> group id (compact 0..G-1)
  std::vector<int> representatives_;  // group id -> oc index
  std::vector<std::vector<double>> top_pccs_per_gpu_;
  double intersection_fraction_ = 0.0;
};

/// All pairwise |PCC| values between OC columns on one GPU (upper triangle).
std::vector<OcPairCorr> pairwise_pcc(const ProfileDataset& dataset,
                                     std::size_t gpu);

}  // namespace smart::core
