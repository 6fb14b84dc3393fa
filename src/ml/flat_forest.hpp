// Flattened GBDT inference layout (DESIGN.md §13): every tree of an
// ensemble re-packed into one shared node pool that a single feature row
// walks kLockstep trees at a time. Serve classifies one stencil per call,
// so the independent traversal chains the CPU overlaps are trees, not rows.
//
// Pool layout. Each node is 12 bytes, {threshold, feature, first}: the two
// children of a split sit next to each other at `first` and `first + 1`,
// so one step is the branch-free
//     i = first[i] + !(x[feature[i]] <= threshold[i])
// A NaN feature fails `<=` and takes `first + 1`, the right child, as in
// RegressionTree::predict_row. A leaf stores threshold NaN and
// `first = self - 1`: the comparison is false for every input, so a lane
// that reached its leaf stays there while deeper trees of its group finish.
//
// Exactness: the walk makes the identical `value <= threshold` comparisons
// against the identical float thresholds as RegressionTree::predict_row and
// hands back the identical double leaf weights, in ensemble order, so
// callers that add them in that order reproduce the pointer walk bit for
// bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ml/tree.hpp"

namespace smart::ml {

class FlatForest {
 public:
  /// Trees walked together on one row: enough independent chains to hide
  /// the load latency of a step, few enough to keep the indices in
  /// registers.
  static constexpr std::size_t kLockstep = 16;

  /// Rebuilds the pool from fitted trees (called after fit()/load()).
  /// Empty trees walk to a zero-weight leaf, so tree indices stay aligned
  /// with the ensemble. Step counts are recomputed from the child links,
  /// never trusted from a serialized depth field. Throws std::runtime_error
  /// on a child link that points back up the tree, past its last node, or
  /// at a node already linked (none comes out of fit(); a back-link would
  /// cycle and a shared child would copy a subtree per path).
  void build(std::span<const RegressionTree> trees);

  std::size_t num_trees() const noexcept { return num_trees_; }
  /// Pool slots, at most one per tree node plus the shared zero leaf.
  std::size_t num_nodes() const noexcept { return nodes_.size(); }

  /// Calls emit(w) with every tree's leaf weight `w` for row `x`, in
  /// ensemble order. The t-th `w` is bit-identical to
  /// trees[t].predict_row(x).
  template <typename Emit>
  void for_each_leaf(std::span<const float> x, Emit&& emit) const;

 private:
  struct Node {
    float threshold;     // NaN at leaves
    std::int32_t feature;
    std::int32_t first;  // left child; right child is first + 1
  };
  static_assert(sizeof(Node) == 12);

  std::vector<Node> nodes_;
  std::vector<double> weight_;       // per slot; read at leaves only
  std::vector<std::int32_t> root_;   // per tree, padded to whole groups
  std::vector<std::int32_t> steps_;  // per group: its deepest tree's depth
  std::size_t num_trees_ = 0;
};

template <typename Emit>
void FlatForest::for_each_leaf(std::span<const float> x, Emit&& emit) const {
  const Node* nodes = nodes_.data();
  const float* row = x.data();
  for (std::size_t g = 0; g < steps_.size(); ++g) {
    const std::size_t base = g * kLockstep;
    std::int32_t idx[kLockstep];
    std::copy_n(root_.data() + base, kLockstep, idx);
    for (std::int32_t d = steps_[g]; d > 0; --d) {
      for (std::size_t l = 0; l < kLockstep; ++l) {
        const Node& n = nodes[idx[l]];
        idx[l] = n.first + !(row[n.feature] <= n.threshold);
      }
    }
    const std::size_t lanes = std::min(kLockstep, num_trees_ - base);
    for (std::size_t l = 0; l < lanes; ++l) {
      emit(weight_[static_cast<std::size_t>(idx[l])]);
    }
  }
}

}  // namespace smart::ml
