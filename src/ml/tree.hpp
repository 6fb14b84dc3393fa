// Histogram-based regression tree: the weak learner of the gradient
// boosting models (the paper builds GBDT / GBRegressor with XGBoost; this
// is the same second-order split machinery at library scale).
//
// Features are pre-binned into at most kMaxBins quantile bins per feature;
// split gain follows the XGBoost objective
//   gain = GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l)
// with L2 regularization l and leaf weight -G/(H+l).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "ml/matrix.hpp"

namespace smart::ml {

inline constexpr int kMaxBins = 32;

/// Per-feature quantile bin edges shared by every tree of an ensemble.
class FeatureBinner {
 public:
  /// Computes quantile bin edges per feature column. Throws
  /// std::invalid_argument when any value is NaN: NaN violates
  /// nth_element's strict weak ordering, and a tree fitted on NaN rows
  /// would silently learn from the arbitrary routing. (Prediction-time NaN
  /// is legal and routes right — see RegressionTree.)
  void fit(const Matrix& x, int max_bins = kMaxBins);

  /// Bin index of value `v` for feature `f` (0..bins(f)-1).
  int bin_of(std::size_t f, float v) const;
  int bins(std::size_t f) const {
    return static_cast<int>(edges_[f].size()) + 1;
  }
  std::size_t num_features() const noexcept { return edges_.size(); }

  /// Pre-bins a whole matrix (row-major bin indices).
  std::vector<std::uint8_t> bin_matrix(const Matrix& x) const;

 private:
  std::vector<std::vector<float>> edges_;  // ascending upper edges per feature
};

struct TreeParams {
  int max_depth = 5;
  int min_samples_leaf = 4;
  double lambda = 1.0;        // L2 regularization on leaf weights
  double min_gain = 1e-6;
};

/// A fitted tree. Nodes are stored in a flat array; leaves carry weights.
///
/// NaN routing contract: prediction traverses with `value <= threshold ?
/// left : right`, so a NaN feature fails the comparison at every split and
/// deterministically routes to the right ("greater") child — the same
/// convention in the pointer walk here and in the forest walk every GBDT
/// prediction runs (ml/flat_forest.hpp), which takes predict_row as its
/// per-tree reference. Training inputs must be NaN-free: FeatureBinner::
/// fit rejects NaN outright (NaN breaks nth_element's ordering), so NaN can
/// only ever appear at prediction time.
class RegressionTree {
 public:
  struct Node {
    int feature = -1;      // -1 for leaves
    float threshold = 0.0; // go left if value <= threshold (NaN goes right)
    int left = -1;
    int right = -1;
    double weight = 0.0;   // leaf value
  };

  /// Fits to gradients/hessians over the given row subset; every gradient
  /// sum adds its rows in the order given.
  /// `binned` is bin_matrix() output for the full matrix `x`.
  void fit(const Matrix& x, std::span<const std::uint8_t> binned,
           const FeatureBinner& binner, std::span<const double> gradients,
           std::span<const double> hessians,
           std::span<const std::size_t> rows, const TreeParams& params);

  double predict_row(std::span<const float> features) const;

  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  int depth() const noexcept { return depth_; }

  /// (feature index, split gain) for every internal node of the fitted
  /// tree — the raw material of gain-based feature importance.
  const std::vector<std::pair<int, double>>& split_gains() const noexcept {
    return split_gains_;
  }

  /// Persists the fitted tree (nodes, split gains, depth) as tokens; load()
  /// reproduces predict_row bit-exactly and throws std::runtime_error on
  /// malformed input, dangling child links, or non-finite weights.
  void save(std::ostream& out) const;
  static RegressionTree load(std::istream& in);

  /// Fitted nodes (index 0 is the root) — relaid out by FlatForest::build.
  const std::vector<Node>& nodes() const noexcept { return nodes_; }

 private:
  /// Buffers one fit() allocates once and every node reuses (tree.cpp).
  struct Workspace;

  /// Grows the subtree over ws.rows[begin, end) in preorder and returns its
  /// root's node index; partitions that range in place.
  int build(Workspace& ws, std::size_t begin, std::size_t end, int depth);

  std::vector<Node> nodes_;
  std::vector<std::pair<int, double>> split_gains_;
  int depth_ = 0;
};

}  // namespace smart::ml
