#include "ml/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "tree_bits.hpp"
#include "util/rng.hpp"

namespace smart::ml {
namespace {

Matrix step_features(std::size_t n, util::Rng& rng) {
  Matrix x(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    x.at(i, 0) = static_cast<float>(rng.uniform(-1.0, 1.0));
    x.at(i, 1) = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return x;
}

TEST(FeatureBinner, BinsAreMonotone) {
  util::Rng rng(1);
  const Matrix x = step_features(200, rng);
  FeatureBinner binner;
  binner.fit(x);
  EXPECT_EQ(binner.num_features(), 2u);
  int prev = -1;
  for (float v = -1.0f; v <= 1.0f; v += 0.05f) {
    const int b = binner.bin_of(0, v);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

TEST(FeatureBinner, SelectionEdgesBitIdenticalToFullSort) {
  // fit() selects quantile edges with successive nth_element instead of a
  // full sort; the edges must be bit-identical to the sort-based reference
  // for every max_bins, including columns with heavy ties and constants.
  util::Rng rng(7);
  for (const std::size_t rows : {3u, 17u, 200u, 1001u}) {
    Matrix x(rows, 4);
    for (std::size_t i = 0; i < rows; ++i) {
      x.at(i, 0) = static_cast<float>(rng.uniform(-5.0, 5.0));
      x.at(i, 1) = static_cast<float>(rng.uniform_int(0, 3));  // heavy ties
      x.at(i, 2) = 1.5f;                                       // constant
      x.at(i, 3) = static_cast<float>(i % 7) - 3.0f;
    }
    for (const int max_bins : {2, 5, 16, 32}) {
      FeatureBinner binner;
      binner.fit(x, max_bins);
      for (std::size_t f = 0; f < x.cols(); ++f) {
        std::vector<float> sorted(rows);
        for (std::size_t r = 0; r < rows; ++r) sorted[r] = x.at(r, f);
        std::sort(sorted.begin(), sorted.end());
        std::vector<float> want;
        for (int b = 1; b < max_bins; ++b) {
          const std::size_t idx = std::min(
              rows - 1, b * rows / static_cast<std::size_t>(max_bins));
          if (want.empty() || sorted[idx] > want.back()) {
            want.push_back(sorted[idx]);
          }
        }
        ASSERT_EQ(binner.bins(f), static_cast<int>(want.size()) + 1)
            << "rows=" << rows << " max_bins=" << max_bins << " f=" << f;
        for (std::size_t e = 0; e < want.size(); ++e) {
          // Pin edge e to the exact float the sort-based binner produces:
          // values <= edge fall in bin e, the next representable float
          // below must fall in bin e-1's side — together these force
          // bit-identical edges through upper_bound semantics.
          EXPECT_EQ(binner.bin_of(f, want[e]), static_cast<int>(e) + 1)
              << "rows=" << rows << " max_bins=" << max_bins << " f=" << f;
          const float below = std::nextafterf(
              want[e], -std::numeric_limits<float>::infinity());
          EXPECT_EQ(binner.bin_of(f, below), static_cast<int>(e))
              << "rows=" << rows << " max_bins=" << max_bins << " f=" << f;
        }
      }
    }
  }
}

TEST(FeatureBinner, RejectsBadBins) {
  FeatureBinner binner;
  EXPECT_THROW(binner.fit(Matrix(4, 1, 0.0f), 1), std::invalid_argument);
  EXPECT_THROW(binner.fit(Matrix(4, 1, 0.0f), 100), std::invalid_argument);
}

TEST(FeatureBinner, BinMatrixWidthMismatch) {
  FeatureBinner binner;
  binner.fit(Matrix(4, 2, 0.0f));
  EXPECT_THROW(binner.bin_matrix(Matrix(4, 3, 0.0f)), std::invalid_argument);
}

TEST(RegressionTree, LearnsStepFunction) {
  util::Rng rng(2);
  const std::size_t n = 400;
  const Matrix x = step_features(n, rng);
  // Residual-fitting setup: target = step(x0), initial prediction 0, so the
  // gradient is -target.
  std::vector<double> g(n);
  std::vector<double> h(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    g[i] = -(x.at(i, 0) > 0.2f ? 5.0 : -5.0);
  }
  FeatureBinner binner;
  binner.fit(x);
  const auto binned = binner.bin_matrix(x);
  std::vector<std::size_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = i;
  RegressionTree tree;
  TreeParams params;
  params.max_depth = 3;
  tree.fit(x, binned, binner, g, h, rows, params);
  EXPECT_GT(tree.num_nodes(), 1u);
  int correct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double pred = tree.predict_row(x.row(i));
    const double want = x.at(i, 0) > 0.2f ? 5.0 : -5.0;
    if (std::abs(pred - want) < 1.0) ++correct;
  }
  EXPECT_GT(correct, static_cast<int>(0.95 * n));
}

TEST(RegressionTree, RespectsDepthLimit) {
  util::Rng rng(3);
  const std::size_t n = 300;
  const Matrix x = step_features(n, rng);
  std::vector<double> g(n);
  std::vector<double> h(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) g[i] = rng.uniform(-1.0, 1.0);
  FeatureBinner binner;
  binner.fit(x);
  const auto binned = binner.bin_matrix(x);
  std::vector<std::size_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = i;
  RegressionTree tree;
  TreeParams params;
  params.max_depth = 2;
  tree.fit(x, binned, binner, g, h, rows, params);
  EXPECT_LE(tree.depth(), 2);
}

TEST(RegressionTree, PureLeafWhenTooFewSamples) {
  util::Rng rng(4);
  const Matrix x = step_features(6, rng);
  std::vector<double> g{1.0, -1.0, 1.0, -1.0, 1.0, -1.0};
  std::vector<double> h(6, 1.0);
  FeatureBinner binner;
  binner.fit(x);
  const auto binned = binner.bin_matrix(x);
  std::vector<std::size_t> rows{0, 1, 2, 3, 4, 5};
  RegressionTree tree;
  TreeParams params;
  params.min_samples_leaf = 10;  // cannot split 6 rows
  tree.fit(x, binned, binner, g, h, rows, params);
  EXPECT_EQ(tree.num_nodes(), 1u);
}

TEST(RegressionTree, EmptyTreePredictsZero) {
  RegressionTree tree;
  const std::vector<float> features{1.0f};
  EXPECT_DOUBLE_EQ(tree.predict_row(features), 0.0);
}

// The column-wise builder RegressionTree::build used before the row-major
// histogram pass: one histogram pass per feature, two fresh row vectors
// per split. Fitted trees must equal it bit for bit.
class ColumnWiseReference {
 public:
  ColumnWiseReference(const Matrix& x, std::span<const std::uint8_t> binned,
                      const FeatureBinner& binner, std::span<const double> g,
                      std::span<const double> h, const TreeParams& params)
      : x_(x), binned_(binned), binner_(binner), g_(g), h_(h),
        params_(params) {}

  void fit(std::span<const std::size_t> rows) {
    std::vector<std::size_t> mutable_rows(rows.begin(), rows.end());
    build(mutable_rows, 0);
  }

  std::vector<RegressionTree::Node> nodes;
  std::vector<std::pair<int, double>> gains;
  int depth = 0;

 private:
  struct Choice {
    int feature = -1;
    int bin = -1;
    double gain = 0.0;
  };

  int build(std::vector<std::size_t>& rows, int level) {
    depth = std::max(depth, level);
    double g_total = 0.0;
    double h_total = 0.0;
    for (std::size_t r : rows) {
      g_total += g_[r];
      h_total += h_[r];
    }
    const int node_index = static_cast<int>(nodes.size());
    nodes.emplace_back();
    nodes.back().weight = -g_total / (h_total + params_.lambda);
    if (level >= params_.max_depth ||
        static_cast<int>(rows.size()) < 2 * params_.min_samples_leaf) {
      return node_index;
    }
    const double parent_score = g_total * g_total / (h_total + params_.lambda);
    const std::size_t width = x_.cols();
    Choice best;
    std::vector<double> gh(static_cast<std::size_t>(kMaxBins) * 2);
    std::vector<int> counts(kMaxBins);
    for (std::size_t f = 0; f < width; ++f) {
      Choice choice;
      const int nbins = binner_.bins(f);
      if (nbins >= 2) {
        std::fill(gh.begin(), gh.end(), 0.0);
        std::fill(counts.begin(), counts.end(), 0);
        for (std::size_t r : rows) {
          const int b = binned_[r * width + f];
          gh[static_cast<std::size_t>(b) * 2] += g_[r];
          gh[static_cast<std::size_t>(b) * 2 + 1] += h_[r];
          ++counts[b];
        }
        double gl = 0.0;
        double hl = 0.0;
        int left_count = 0;
        for (int b = 0; b + 1 < nbins; ++b) {
          gl += gh[static_cast<std::size_t>(b) * 2];
          hl += gh[static_cast<std::size_t>(b) * 2 + 1];
          left_count += counts[b];
          const int right_count = static_cast<int>(rows.size()) - left_count;
          if (left_count < params_.min_samples_leaf ||
              right_count < params_.min_samples_leaf) {
            continue;
          }
          const double gr = g_total - gl;
          const double hr = h_total - hl;
          const double gain = gl * gl / (hl + params_.lambda) +
                              gr * gr / (hr + params_.lambda) - parent_score;
          if (gain > choice.gain) choice = {static_cast<int>(f), b, gain};
        }
      }
      if (choice.gain > best.gain) best = choice;
    }
    if (best.feature < 0 || best.gain < params_.min_gain) return node_index;
    gains.emplace_back(best.feature, best.gain);

    const auto feature = static_cast<std::size_t>(best.feature);
    std::vector<std::size_t> left_rows;
    std::vector<std::size_t> right_rows;
    for (std::size_t r : rows) {
      (binned_[r * width + feature] <= best.bin ? left_rows : right_rows)
          .push_back(r);
    }
    float threshold = -std::numeric_limits<float>::infinity();
    for (std::size_t r : left_rows) {
      threshold = std::max(threshold, x_.at(r, feature));
    }
    const int left = build(left_rows, level + 1);
    const int right = build(right_rows, level + 1);
    RegressionTree::Node& node = nodes[static_cast<std::size_t>(node_index)];
    node.feature = best.feature;
    node.threshold = threshold;
    node.left = left;
    node.right = right;
    return node_index;
  }

  const Matrix& x_;
  std::span<const std::uint8_t> binned_;
  const FeatureBinner& binner_;
  std::span<const double> g_;
  std::span<const double> h_;
  const TreeParams& params_;
};

/// Columns of five kinds, cycling with the column index: continuous,
/// heavily tied (4 values), constant (one bin), periodic with signed zeros,
/// and an exact copy of column 0 (its gains tie column 0's split for split,
/// so the lowest feature index must win).
Matrix mixed_columns(std::size_t rows, std::size_t width, util::Rng& rng) {
  Matrix x(rows, width);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t f = 0; f < width; ++f) {
      float v = 0.0f;
      switch (f % 5) {
        case 0: v = static_cast<float>(rng.uniform(-3.0, 3.0)); break;
        case 1: v = static_cast<float>(rng.uniform_int(0, 3)); break;
        case 2: v = 2.5f; break;
        case 3: v = (r % 3 == 0 ? -0.0f : static_cast<float>(r % 4)); break;
        default: v = x.at(r, 0); break;
      }
      x.at(r, f) = v;
    }
  }
  return x;
}

class TreeReferenceEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TreeReferenceEquivalence, FitMatchesColumnWiseBuilderBitwise) {
  const std::size_t num_rows = GetParam();
  util::Rng rng(1000 + num_rows);
  int deepest = 0;  // the comparison must cover deep trees, not just stumps
  for (const std::size_t width : {1u, 11u, 40u}) {
    // A proper superset of the fitted rows, so the subset is sparse in x.
    const std::size_t total = num_rows + num_rows / 4 + 3;
    const Matrix x = mixed_columns(total, width, rng);
    std::vector<double> g(total);
    std::vector<double> h(total);
    for (std::size_t r = 0; r < total; ++r) {
      g[r] = rng.uniform(-1.0, 1.0);
      const double p = rng.uniform(0.0, 1.0);
      h[r] = std::max(1e-6, p * (1.0 - p));
    }
    FeatureBinner binner;
    binner.fit(x);
    const std::vector<std::uint8_t> binned = binner.bin_matrix(x);
    for (const int max_depth : {0, 1, 5, 8}) {
      for (const int min_leaf : {1, 4}) {
        // A random subset in random order: every bin must sum its rows in
        // this order, exactly as the reference does.
        const std::vector<std::size_t> rows =
            rng.sample_without_replacement(total, num_rows);
        TreeParams params;
        params.max_depth = max_depth;
        params.min_samples_leaf = min_leaf;
        ColumnWiseReference want(x, binned, binner, g, h, params);
        want.fit(rows);
        RegressionTree got;
        got.fit(x, binned, binner, g, h, rows, params);
        EXPECT_TRUE(same_tree_bits(got, want.nodes, want.gains, want.depth))
            << "rows=" << num_rows << " width=" << width
            << " max_depth=" << max_depth << " min_samples_leaf=" << min_leaf;
        deepest = std::max(deepest, want.depth);
      }
    }
  }
  if (num_rows >= 500) {
    EXPECT_EQ(deepest, 8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rows, TreeReferenceEquivalence,
    ::testing::Values(1u, 7u, 8u, 9u, 500u, 2047u, 2048u, 5000u),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return "rows" + std::to_string(info.param);
    });

}  // namespace
}  // namespace smart::ml
