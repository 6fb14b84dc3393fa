#include "ml/flat_forest.hpp"

#include <limits>
#include <stdexcept>

namespace smart::ml {

void FlatForest::build(std::span<const RegressionTree> trees) {
  nodes_.clear();
  weight_.clear();
  num_trees_ = trees.size();
  const std::size_t groups = (trees.size() + kLockstep - 1) / kLockstep;
  // Padding lanes of the last group and empty trees start on slot 0.
  root_.assign(groups * kLockstep, 0);
  steps_.assign(groups, 0);

  std::size_t total = 1;
  for (const RegressionTree& tree : trees) total += tree.nodes().size();
  constexpr auto kMaxSlots =
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max());
  if (total > kMaxSlots) {
    throw std::runtime_error("FlatForest::build: node pool exceeds int32");
  }
  nodes_.reserve(total);
  weight_.reserve(total);

  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  // Slot 0: the zero-weight leaf (predict_row returns 0.0 for an empty
  // tree). Like every leaf, it steps to first + 1 = itself.
  nodes_.push_back({kNan, 0, -1});
  weight_.push_back(0.0);

  std::vector<int> source;  // per slot of the current tree: its node index
  std::vector<std::int32_t> depth;  // per slot of the current tree
  std::vector<char> linked;         // per node of the current tree
  for (std::size_t t = 0; t < trees.size(); ++t) {
    const std::vector<RegressionTree::Node>& src = trees[t].nodes();
    if (src.empty()) continue;
    const auto base = static_cast<std::int32_t>(nodes_.size());
    root_[t] = base;
    // Breadth-first relayout: visit q takes slot base + q, and a split's
    // children are queued together, so they get adjacent slots.
    source.assign(1, 0);
    depth.assign(1, 0);
    linked.assign(src.size(), 0);
    std::int32_t tree_depth = 0;
    for (std::size_t q = 0; q < source.size(); ++q) {
      const RegressionTree::Node& n = src[static_cast<std::size_t>(source[q])];
      const std::int32_t self = base + static_cast<std::int32_t>(q);
      if (n.feature < 0) {
        nodes_.push_back({kNan, 0, self - 1});
        weight_.push_back(n.weight);
        tree_depth = std::max(tree_depth, depth[q]);
        continue;
      }
      for (const int child : {n.left, n.right}) {
        // Fitted trees link forward and reach every node once. A back-link
        // (which would cycle) or a shared child (which would copy a
        // subtree per path) can only come from a corrupt artifact.
        if (child <= source[q] ||
            static_cast<std::size_t>(child) >= src.size() ||
            linked[static_cast<std::size_t>(child)]) {
          throw std::runtime_error(
              "FlatForest::build: non-preorder, dangling or shared child link");
        }
        linked[static_cast<std::size_t>(child)] = 1;
      }
      const auto first = base + static_cast<std::int32_t>(source.size());
      nodes_.push_back({n.threshold, n.feature, first});
      weight_.push_back(n.weight);
      source.push_back(n.left);
      source.push_back(n.right);
      depth.push_back(depth[q] + 1);
      depth.push_back(depth[q] + 1);
    }
    std::int32_t& steps = steps_[t / kLockstep];
    steps = std::max(steps, tree_depth);
  }
}

}  // namespace smart::ml
