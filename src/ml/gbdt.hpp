// Gradient-boosted decision trees: GbdtClassifier (softmax objective, one
// tree per class per round — the paper's GBDT for OC selection, Sec. IV-D)
// and GbdtRegressor (squared loss — the paper's GBRegressor for execution-
// time prediction, Sec. IV-E).
#pragma once

#include <vector>

#include "ml/dataset.hpp"
#include "ml/flat_forest.hpp"
#include "ml/tree.hpp"
#include "util/rng.hpp"

namespace smart::ml {

struct GbdtParams {
  int rounds = 120;
  double learning_rate = 0.12;
  double subsample = 0.85;   // row subsampling per tree
  TreeParams tree{};
  std::uint64_t seed = 42;
};

class GbdtRegressor {
 public:
  explicit GbdtRegressor(GbdtParams params = GbdtParams{}) : params_(params) {}

  void fit(const Matrix& x, std::span<const float> y);
  /// Walks every tree on the row at once (FlatForest) and adds the leaf
  /// weights in ensemble order: bit-identical to summing each tree's
  /// RegressionTree::predict_row.
  double predict_row(std::span<const float> features) const;
  /// Batched prediction: predict_row on every row, rows fanned over the
  /// task pool in blocks, so every output is bit-identical to predict_row
  /// on that row for any thread count.
  std::vector<double> predict(const Matrix& x) const;

  std::size_t num_trees() const noexcept { return trees_.size(); }
  const std::vector<RegressionTree>& trees() const noexcept { return trees_; }
  double base_score() const noexcept { return base_; }

  /// Gain-based importance per input feature, normalized to sum to 1
  /// (all-zero if no split was ever made).
  std::vector<double> feature_importance(std::size_t num_features) const;

  /// Persists the fitted ensemble (params, base score, trees). The loaded
  /// model predicts bit-identically; the feature binner is NOT persisted
  /// (fit() rebuilds it), so artifacts are inference-ready, not resumable.
  /// load() rejects a split on a feature outside [0, num_features), so the
  /// loaded model is safe to run on rows of num_features values.
  void save(util::TokenWriter& out) const;
  static GbdtRegressor load(util::TokenReader& in, std::size_t num_features);

 private:
  GbdtParams params_;
  FeatureBinner binner_;
  std::vector<RegressionTree> trees_;
  FlatForest flat_;  // rebuilt by fit()/load(), never serialized
  double base_ = 0.0;
};

class GbdtClassifier {
 public:
  explicit GbdtClassifier(GbdtParams params = GbdtParams{}) : params_(params) {}

  void fit(const Matrix& x, std::span<const int> labels, int num_classes);

  /// Class probabilities (softmax over per-class ensemble scores).
  std::vector<double> predict_proba_row(std::span<const float> features) const;
  /// Allocation-free variant: writes the probabilities into `out`
  /// (out.size() must equal num_classes()).
  void predict_proba_into(std::span<const float> features,
                          std::span<double> out) const;
  int predict_row(std::span<const float> features) const;
  /// Batched argmax prediction over row blocks with one score buffer per
  /// block (no per-row allocation). Labels equal predict_row on every row:
  /// the scores are the ones predict_proba_into computes and softmax is
  /// strictly monotone, so the argmax is unchanged.
  std::vector<int> predict(const Matrix& x) const;

  int num_classes() const noexcept { return num_classes_; }
  /// Rounds x classes, round-major: tree r * num_classes() + k scores
  /// class k.
  const std::vector<RegressionTree>& trees() const noexcept { return trees_; }
  /// Per-class scores before the first round (log class priors).
  const std::vector<double>& base_scores() const noexcept {
    return base_scores_;
  }

  /// Gain-based importance per input feature, normalized to sum to 1.
  std::vector<double> feature_importance(std::size_t num_features) const;

  std::size_t num_rounds() const noexcept {
    return num_classes_ == 0 ? 0 : trees_.size() / static_cast<std::size_t>(num_classes_);
  }

  /// Persists the fitted ensemble (params, base scores, trees); the loaded
  /// classifier predicts bit-identically. Binner not persisted, and the
  /// feature width checked at load (see GbdtRegressor::save).
  void save(util::TokenWriter& out) const;
  static GbdtClassifier load(util::TokenReader& in, std::size_t num_features);

 private:
  /// Raw per-class scores for one row: the base scores plus every tree's
  /// scaled leaf weight, added in ensemble order from one FlatForest walk.
  void scores_into(std::span<const float> features, double* scores) const;

  GbdtParams params_;
  FeatureBinner binner_;
  std::vector<RegressionTree> trees_;  // rounds x classes, row-major
  FlatForest flat_;  // rebuilt by fit()/load(), never serialized
  int num_classes_ = 0;
  std::vector<double> base_scores_;    // log class priors
};

}  // namespace smart::ml
