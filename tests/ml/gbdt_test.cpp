#include "ml/gbdt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "tree_bits.hpp"

namespace smart::ml {
namespace {

TEST(GbdtRegressor, LearnsNonlinearFunction) {
  util::Rng rng(1);
  const std::size_t n = 600;
  Matrix x(n, 3);
  std::vector<float> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      x.at(i, c) = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
    y[i] = static_cast<float>(x.at(i, 0) * x.at(i, 1) +
                              std::sin(x.at(i, 2)) * 2.0);
  }
  GbdtParams params;
  params.rounds = 80;
  GbdtRegressor model(params);
  model.fit(x, y);
  EXPECT_EQ(model.num_trees(), 80u);
  double sse = 0.0;
  double variance = 0.0;
  double mean = 0.0;
  for (float v : y) mean += v;
  mean /= static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double pred = model.predict_row(x.row(i));
    sse += (pred - y[i]) * (pred - y[i]);
    variance += (y[i] - mean) * (y[i] - mean);
  }
  EXPECT_LT(sse, 0.25 * variance);  // R^2 > 0.75 in-sample
}

TEST(GbdtRegressor, PredictBatchMatchesRow) {
  util::Rng rng(2);
  Matrix x(50, 2);
  std::vector<float> y(50);
  for (std::size_t i = 0; i < 50; ++i) {
    x.at(i, 0) = static_cast<float>(rng.uniform(0.0, 1.0));
    x.at(i, 1) = static_cast<float>(rng.uniform(0.0, 1.0));
    y[i] = x.at(i, 0);
  }
  GbdtParams params;
  params.rounds = 10;
  GbdtRegressor model(params);
  model.fit(x, y);
  const auto batch = model.predict(x);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(batch[i], model.predict_row(x.row(i)));
  }
}

TEST(GbdtRegressor, RejectsBadShapes) {
  GbdtRegressor model;
  const std::vector<float> y{1.0f};
  EXPECT_THROW(model.fit(Matrix(2, 1, 0.0f), y), std::invalid_argument);
  EXPECT_THROW(model.fit(Matrix(), {}), std::invalid_argument);
}

TEST(GbdtClassifier, LearnsSeparableClasses) {
  util::Rng rng(3);
  const std::size_t n = 450;
  Matrix x(n, 2);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int k = static_cast<int>(i % 3);
    x.at(i, 0) = static_cast<float>(k + rng.uniform(-0.3, 0.3));
    x.at(i, 1) = static_cast<float>(-k + rng.uniform(-0.3, 0.3));
    labels[i] = k;
  }
  GbdtParams params;
  params.rounds = 30;
  GbdtClassifier model(params);
  model.fit(x, labels, 3);
  EXPECT_EQ(model.num_classes(), 3);
  EXPECT_EQ(model.num_rounds(), 30u);
  const auto pred = model.predict(x);
  int hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (pred[i] == labels[i]) ++hits;
  }
  EXPECT_GT(hits, static_cast<int>(0.95 * n));
}

TEST(GbdtClassifier, ProbabilitiesSumToOne) {
  util::Rng rng(4);
  Matrix x(60, 2);
  std::vector<int> labels(60);
  for (std::size_t i = 0; i < 60; ++i) {
    x.at(i, 0) = static_cast<float>(rng.uniform(-1.0, 1.0));
    x.at(i, 1) = static_cast<float>(rng.uniform(-1.0, 1.0));
    labels[i] = static_cast<int>(i % 2);
  }
  GbdtParams params;
  params.rounds = 5;
  GbdtClassifier model(params);
  model.fit(x, labels, 2);
  const auto p = model.predict_proba_row(x.row(0));
  ASSERT_EQ(p.size(), 2u);
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-9);
  EXPECT_GE(p[0], 0.0);
  EXPECT_GE(p[1], 0.0);
}

TEST(GbdtClassifier, RejectsBadLabels) {
  GbdtClassifier model;
  Matrix x(4, 1, 0.0f);
  EXPECT_THROW(model.fit(x, std::vector<int>{0, 1, 2, 3}, 3),
               std::invalid_argument);
  EXPECT_THROW(model.fit(x, std::vector<int>{0, -1, 0, 1}, 2),
               std::invalid_argument);
  EXPECT_THROW(model.fit(x, std::vector<int>{0, 1}, 2), std::invalid_argument);
}

TEST(GbdtClassifier, ImbalancedPriorsRespected) {
  // 90% class 0: with no informative features the classifier should
  // predict the majority class.
  util::Rng rng(5);
  Matrix x(200, 1);
  std::vector<int> labels(200);
  for (std::size_t i = 0; i < 200; ++i) {
    x.at(i, 0) = static_cast<float>(rng.uniform(0.0, 1.0));
    labels[i] = i < 180 ? 0 : 1;
  }
  GbdtParams params;
  params.rounds = 3;
  params.tree.max_depth = 1;
  GbdtClassifier model(params);
  model.fit(x, labels, 2);
  int zeros = 0;
  for (int p : model.predict(x)) {
    if (p == 0) ++zeros;
  }
  EXPECT_GT(zeros, 150);
}

/// GbdtClassifier::fit's boosting loop as it was before the exps were
/// cached: every step recomputes the full softmax of every row. Fills the
/// trees and base scores the classifier must reproduce bit for bit, and
/// counts per step the rows whose max score moved since the step before.
struct PerStepSoftmaxReference {
  std::vector<RegressionTree> trees;
  std::vector<double> base_scores;
  std::vector<std::size_t> max_moved;  // per step, rows 0..n-1

  PerStepSoftmaxReference(const Matrix& x, std::span<const int> labels,
                          int num_classes, const GbdtParams& params) {
    FeatureBinner binner;
    binner.fit(x);
    const std::vector<std::uint8_t> binned = binner.bin_matrix(x);
    util::Rng rng(params.seed);
    const auto num_k = static_cast<std::size_t>(num_classes);
    std::vector<double> counts(num_k, 1.0);
    for (int label : labels) ++counts[static_cast<std::size_t>(label)];
    for (std::size_t k = 0; k < num_k; ++k) {
      base_scores.push_back(std::log(
          counts[k] / static_cast<double>(labels.size() + num_k)));
    }
    const std::size_t n = x.rows();
    std::vector<double> scores(n * num_k);
    for (std::size_t r = 0; r < n; ++r) {
      std::copy(base_scores.begin(), base_scores.end(), &scores[r * num_k]);
    }
    std::vector<double> last_max(n, std::nan(""));
    std::vector<double> g(n);
    std::vector<double> h(n);
    for (int round = 0; round < params.rounds; ++round) {
      // subsample_rows of gbdt.cpp.
      const auto take = static_cast<std::size_t>(std::max(
          1.0, std::floor(params.subsample * static_cast<double>(n))));
      std::vector<std::size_t> rows(n);
      for (std::size_t i = 0; i < n; ++i) rows[i] = i;
      if (take < n) rows = rng.sample_without_replacement(n, take);
      for (std::size_t k = 0; k < num_k; ++k) {
        std::size_t moved = 0;
        for (std::size_t r = 0; r < n; ++r) {
          const double* srow = &scores[r * num_k];
          double max_score = srow[0];
          for (std::size_t j = 1; j < num_k; ++j) {
            max_score = std::max(max_score, srow[j]);
          }
          if (round + k > 0 && max_score != last_max[r]) ++moved;
          last_max[r] = max_score;
          double denom = 0.0;
          for (std::size_t j = 0; j < num_k; ++j) {
            denom += std::exp(srow[j] - max_score);
          }
          const double pk = std::exp(srow[k] - max_score) / denom;
          g[r] = pk - (labels[r] == static_cast<int>(k) ? 1.0 : 0.0);
          h[r] = std::max(1e-6, pk * (1.0 - pk));
        }
        if (round + k > 0) max_moved.push_back(moved);
        RegressionTree tree;
        tree.fit(x, binned, binner, g, h, rows, params.tree);
        for (std::size_t r = 0; r < n; ++r) {
          scores[r * num_k + k] +=
              params.learning_rate * tree.predict_row(x.row(r));
        }
        trees.push_back(std::move(tree));
      }
    }
  }
};

void expect_matches_reference(const Matrix& x, const std::vector<int>& labels,
                              int num_classes, const GbdtParams& params,
                              const PerStepSoftmaxReference& want) {
  GbdtClassifier model(params);
  model.fit(x, labels, num_classes);
  ASSERT_EQ(model.base_scores().size(), want.base_scores.size());
  for (std::size_t k = 0; k < want.base_scores.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(model.base_scores()[k]),
              std::bit_cast<std::uint64_t>(want.base_scores[k]))
        << "class " << k;
  }
  ASSERT_EQ(model.trees().size(), want.trees.size());
  for (std::size_t t = 0; t < want.trees.size(); ++t) {
    ASSERT_TRUE(same_tree_bits(model.trees()[t], want.trees[t]))
        << "K=" << num_classes << " tree " << t << " (round "
        << t / static_cast<std::size_t>(num_classes) << ", class "
        << t % static_cast<std::size_t>(num_classes) << ")";
  }
}

TEST(GbdtClassifier, FitMatchesPerStepSoftmaxReferenceBitwise) {
  for (const int num_classes : {2, 5, 37}) {
    util::Rng rng(40 + static_cast<std::uint64_t>(num_classes));
    const std::size_t n = 400;
    Matrix x(n, 6);
    std::vector<int> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
      const int label = static_cast<int>(rng.uniform_int(0, num_classes - 1));
      labels[i] = label;
      x.at(i, 0) = static_cast<float>(label + rng.uniform(-2.0, 2.0));
      x.at(i, 1) = static_cast<float>(label % 3 + rng.uniform(-0.5, 0.5));
      x.at(i, 2) = static_cast<float>(rng.uniform_int(0, 4));
      x.at(i, 3) = 1.0f;
      for (std::size_t c = 4; c < 6; ++c) {
        x.at(i, c) = static_cast<float>(rng.uniform(-1.0, 1.0));
      }
    }
    GbdtParams params;
    params.rounds = num_classes == 37 ? 6 : 30;
    params.seed = 7;
    const PerStepSoftmaxReference want(x, labels, num_classes, params);
    expect_matches_reference(x, labels, num_classes, params, want);
  }
}

TEST(GbdtClassifier, FitMatchesReferenceWhenScoresTieAndTheMaxMoves) {
  // Balanced labels give every class the same prior, so each row starts
  // with K tied scores. The classes are separable on feature 0, so at
  // every step the tree for class k raises s_k on class k's rows, where
  // s_k is (or ties) the max: their max moves at every step. On the other
  // rows s_k falls while the max holds, so only e_k changes.
  constexpr int kClasses = 5;
  const std::size_t n = 5 * 60;
  util::Rng rng(99);
  Matrix x(n, 2);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(i % kClasses);
    x.at(i, 0) = static_cast<float>(labels[i] + rng.uniform(-0.3, 0.3));
    x.at(i, 1) = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  GbdtParams params;
  params.rounds = 12;
  const PerStepSoftmaxReference want(x, labels, kClasses, params);
  for (double b : want.base_scores) EXPECT_EQ(b, want.base_scores[0]);
  ASSERT_EQ(want.max_moved.size(),
            static_cast<std::size_t>(params.rounds * kClasses - 1));
  for (std::size_t step = 0; step < want.max_moved.size(); ++step) {
    EXPECT_GT(want.max_moved[step], 0u) << "step " << step + 1;
    EXPECT_LT(want.max_moved[step], n) << "step " << step + 1;
  }
  expect_matches_reference(x, labels, kClasses, params, want);
}

}  // namespace
}  // namespace smart::ml
