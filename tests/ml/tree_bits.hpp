// Bit-for-bit comparison of fitted regression trees, shared by the tests
// that pin the tree builder and the boosting loops to reference copies.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "ml/tree.hpp"

namespace smart::ml {

/// Success iff `got` holds exactly these nodes (feature, threshold bits,
/// children, weight bits), split gains (feature, gain bits) and depth.
inline ::testing::AssertionResult same_tree_bits(
    const RegressionTree& got, const std::vector<RegressionTree::Node>& nodes,
    const std::vector<std::pair<int, double>>& gains, int depth) {
  if (got.nodes().size() != nodes.size()) {
    return ::testing::AssertionFailure()
           << "node count " << got.nodes().size() << " vs " << nodes.size();
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const RegressionTree::Node& a = got.nodes()[i];
    const RegressionTree::Node& b = nodes[i];
    if (a.feature != b.feature || a.left != b.left || a.right != b.right ||
        std::bit_cast<std::uint32_t>(a.threshold) !=
            std::bit_cast<std::uint32_t>(b.threshold) ||
        std::bit_cast<std::uint64_t>(a.weight) !=
            std::bit_cast<std::uint64_t>(b.weight)) {
      return ::testing::AssertionFailure()
             << "node " << i << ": feature " << a.feature << " vs "
             << b.feature << ", threshold " << a.threshold << " vs "
             << b.threshold << ", children " << a.left << '/' << a.right
             << " vs " << b.left << '/' << b.right << ", weight " << a.weight
             << " vs " << b.weight;
    }
  }
  if (got.split_gains().size() != gains.size()) {
    return ::testing::AssertionFailure() << "split count "
                                         << got.split_gains().size() << " vs "
                                         << gains.size();
  }
  for (std::size_t i = 0; i < gains.size(); ++i) {
    const auto& [fa, ga] = got.split_gains()[i];
    const auto& [fb, gb] = gains[i];
    if (fa != fb ||
        std::bit_cast<std::uint64_t>(ga) != std::bit_cast<std::uint64_t>(gb)) {
      return ::testing::AssertionFailure() << "split " << i << ": feature "
                                           << fa << " vs " << fb << ", gain "
                                           << ga << " vs " << gb;
    }
  }
  if (got.depth() != depth) {
    return ::testing::AssertionFailure() << "depth " << got.depth() << " vs "
                                         << depth;
  }
  return ::testing::AssertionSuccess();
}

inline ::testing::AssertionResult same_tree_bits(const RegressionTree& got,
                                                 const RegressionTree& want) {
  return same_tree_bits(got, want.nodes(), want.split_gains(), want.depth());
}

}  // namespace smart::ml
