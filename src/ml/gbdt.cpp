#include "ml/gbdt.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "util/serialize_io.hpp"
#include "util/task_pool.hpp"
#include "util/timing.hpp"

namespace smart::ml {

namespace {

std::vector<double> importance_from_trees(
    const std::vector<RegressionTree>& trees, std::size_t num_features) {
  std::vector<double> gains(num_features, 0.0);
  double total = 0.0;
  for (const RegressionTree& tree : trees) {
    for (const auto& [feature, gain] : tree.split_gains()) {
      if (feature >= 0 && static_cast<std::size_t>(feature) < num_features) {
        gains[static_cast<std::size_t>(feature)] += gain;
        total += gain;
      }
    }
  }
  if (total > 0.0) {
    for (double& g : gains) g /= total;
  }
  return gains;
}

/// Rows per task of the batched ensemble prediction: enough one-row walks
/// to amortize a task hand-off.
constexpr std::size_t kPredictBlock = 256;

void save_params(std::ostream& out, const GbdtParams& p) {
  out << p.rounds << ' ';
  util::write_f64(out, p.learning_rate);
  out << ' ';
  util::write_f64(out, p.subsample);
  out << ' ' << p.seed << ' ' << p.tree.max_depth << ' '
      << p.tree.min_samples_leaf << ' ';
  util::write_f64(out, p.tree.lambda);
  out << ' ';
  util::write_f64(out, p.tree.min_gain);
  out << '\n';
}

GbdtParams load_params(std::istream& in) {
  GbdtParams p;
  p.rounds = util::read_int(in, "gbdt rounds");
  p.learning_rate = util::read_f64(in, "gbdt learning_rate");
  p.subsample = util::read_f64(in, "gbdt subsample");
  p.seed = util::read_u64(in, "gbdt seed");
  p.tree.max_depth = util::read_int(in, "gbdt max_depth");
  p.tree.min_samples_leaf = util::read_int(in, "gbdt min_samples_leaf");
  p.tree.lambda = util::read_f64(in, "gbdt lambda");
  p.tree.min_gain = util::read_f64(in, "gbdt min_gain");
  return p;
}

std::vector<std::size_t> subsample_rows(std::size_t n, double fraction,
                                        util::Rng& rng) {
  const auto k = static_cast<std::size_t>(
      std::max(1.0, std::floor(fraction * static_cast<double>(n))));
  if (k >= n) {
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    return all;
  }
  return rng.sample_without_replacement(n, k);
}

}  // namespace

void GbdtRegressor::fit(const Matrix& x, std::span<const float> y) {
  if (x.rows() != y.size() || x.rows() == 0) {
    throw std::invalid_argument("GbdtRegressor::fit: bad shapes");
  }
  const util::PhaseTimer fit_timer(
      "ml.gbdt.fit", static_cast<std::uint64_t>(params_.rounds) * x.rows());
  trees_.clear();
  binner_.fit(x);
  const std::vector<std::uint8_t> binned = binner_.bin_matrix(x);
  util::Rng rng(params_.seed);

  base_ = 0.0;
  for (float v : y) base_ += v;
  base_ /= static_cast<double>(y.size());

  std::vector<double> pred(x.rows(), base_);
  std::vector<double> g(x.rows());
  const std::vector<double> h(x.rows(), 1.0);
  for (int round = 0; round < params_.rounds; ++round) {
    for (std::size_t r = 0; r < x.rows(); ++r) {
      g[r] = pred[r] - static_cast<double>(y[r]);  // d/dp 0.5*(p-y)^2
    }
    const auto rows = subsample_rows(x.rows(), params_.subsample, rng);
    RegressionTree tree;
    tree.fit(x, binned, binner_, g, h, rows, params_.tree);
    util::parallel_for(x.rows(), [&](std::size_t r) {
      pred[r] += params_.learning_rate * tree.predict_row(x.row(r));
    });
    trees_.push_back(std::move(tree));
  }
  flat_.build(trees_);
}

double GbdtRegressor::predict_row(std::span<const float> features) const {
  const double lr = params_.learning_rate;
  double acc = base_;
  flat_.for_each_leaf(features, [&](double w) { acc += lr * w; });
  return acc;
}

std::vector<double> GbdtRegressor::predict(const Matrix& x) const {
  std::vector<double> out(x.rows());
  const std::size_t blocks = (x.rows() + kPredictBlock - 1) / kPredictBlock;
  // Every row is predict_row and blocks write disjoint ranges, so the loop
  // is thread-count invariant.
  util::parallel_for(blocks, [&](std::size_t blk) {
    const std::size_t begin = blk * kPredictBlock;
    const std::size_t end = std::min(x.rows(), begin + kPredictBlock);
    for (std::size_t r = begin; r < end; ++r) out[r] = predict_row(x.row(r));
  });
  return out;
}

void GbdtClassifier::fit(const Matrix& x, std::span<const int> labels,
                         int num_classes) {
  if (x.rows() != labels.size() || x.rows() == 0 || num_classes < 2) {
    throw std::invalid_argument("GbdtClassifier::fit: bad shapes");
  }
  for (int label : labels) {
    if (label < 0 || label >= num_classes) {
      throw std::invalid_argument("GbdtClassifier::fit: label out of range");
    }
  }
  const util::PhaseTimer fit_timer(
      "ml.gbdt.fit", static_cast<std::uint64_t>(params_.rounds) * x.rows());
  num_classes_ = num_classes;
  trees_.clear();
  binner_.fit(x);
  const std::vector<std::uint8_t> binned = binner_.bin_matrix(x);
  util::Rng rng(params_.seed);

  // Start from log priors so rare classes are not drowned out early.
  std::vector<double> counts(static_cast<std::size_t>(num_classes), 1.0);
  for (int label : labels) ++counts[static_cast<std::size_t>(label)];
  base_scores_.resize(static_cast<std::size_t>(num_classes));
  for (int k = 0; k < num_classes; ++k) {
    base_scores_[static_cast<std::size_t>(k)] =
        std::log(counts[static_cast<std::size_t>(k)] /
                 static_cast<double>(labels.size() + num_classes));
  }

  // Per row: the class scores, the row max m they were last normalised
  // against and e_j = exp(s_j - m). A tree for class k changes only s_k, so
  // while m holds only e_k is recomputed; every e_j is recomputed when m
  // moves. The cached values are exactly the exps a full per-step softmax
  // recomputes, so the gradients are the same bits.
  const std::size_t n = x.rows();
  const auto num_k = static_cast<std::size_t>(num_classes);
  std::vector<double> scores(n * num_k);
  std::vector<double> exps(n * num_k);
  std::vector<double> row_max(n);
  const auto max_of = [num_k](const double* srow) {
    double max_score = srow[0];
    for (std::size_t j = 1; j < num_k; ++j) {
      max_score = std::max(max_score, srow[j]);
    }
    return max_score;
  };
  const auto normalise_row = [&](std::size_t r, double max_score) {
    row_max[r] = max_score;
    for (std::size_t j = 0; j < num_k; ++j) {
      exps[r * num_k + j] = std::exp(scores[r * num_k + j] - max_score);
    }
  };
  for (std::size_t r = 0; r < n; ++r) {
    std::copy(base_scores_.begin(), base_scores_.end(), &scores[r * num_k]);
    normalise_row(r, max_of(&scores[r * num_k]));
  }

  std::vector<double> g(n);
  std::vector<double> h(n);
  for (int round = 0; round < params_.rounds; ++round) {
    const auto rows = subsample_rows(n, params_.subsample, rng);
    for (std::size_t k = 0; k < num_k; ++k) {
      // Per-row softmax gradients write disjoint g[r]/h[r] slots.
      util::parallel_for(n, [&](std::size_t r) {
        const double* erow = &exps[r * num_k];
        double denom = 0.0;
        for (std::size_t j = 0; j < num_k; ++j) denom += erow[j];
        const double pk = erow[k] / denom;
        g[r] = pk - (labels[r] == static_cast<int>(k) ? 1.0 : 0.0);
        h[r] = std::max(1e-6, pk * (1.0 - pk));
      });
      RegressionTree tree;
      tree.fit(x, binned, binner_, g, h, rows, params_.tree);
      util::parallel_for(n, [&](std::size_t r) {
        double* srow = &scores[r * num_k];
        srow[k] += params_.learning_rate * tree.predict_row(x.row(r));
        const double max_score = max_of(srow);
        if (max_score == row_max[r]) {
          exps[r * num_k + k] = std::exp(srow[k] - max_score);
        } else {
          normalise_row(r, max_score);
        }
      });
      trees_.push_back(std::move(tree));
    }
  }
  flat_.build(trees_);
}

void GbdtClassifier::scores_into(std::span<const float> features,
                                 double* scores) const {
  std::copy(base_scores_.begin(), base_scores_.end(), scores);
  // Tree r * K + k scores class k, so adding the leaves in ensemble order
  // is round-major: each class sums its rounds in ascending order, as
  // fit() did.
  const std::size_t num_k = base_scores_.size();
  const double lr = params_.learning_rate;
  std::size_t k = 0;
  flat_.for_each_leaf(features, [&](double w) {
    scores[k] += lr * w;
    if (++k == num_k) k = 0;
  });
}

void GbdtClassifier::predict_proba_into(std::span<const float> features,
                                        std::span<double> out) const {
  if (out.size() != base_scores_.size()) {
    throw std::invalid_argument("predict_proba_into: bad output size");
  }
  scores_into(features, out.data());
  double max_score = out[0];
  for (double s : out) max_score = std::max(max_score, s);
  double denom = 0.0;
  for (double& s : out) {
    s = std::exp(s - max_score);
    denom += s;
  }
  for (double& s : out) s /= denom;
}

std::vector<double> GbdtClassifier::predict_proba_row(
    std::span<const float> features) const {
  std::vector<double> scores(base_scores_.size());
  predict_proba_into(features, scores);
  return scores;
}

int GbdtClassifier::predict_row(std::span<const float> features) const {
  // Small-class ensembles (merged OC groups, raw OCs) fit in a stack
  // buffer, so the per-row call performs no heap allocation.
  constexpr std::size_t kStackClasses = 32;
  double stack_buf[kStackClasses];
  std::vector<double> heap;
  std::span<double> scratch;
  const auto k = static_cast<std::size_t>(num_classes_);
  if (k <= kStackClasses) {
    scratch = {stack_buf, k};
  } else {
    heap.resize(k);
    scratch = heap;
  }
  predict_proba_into(features, scratch);
  return static_cast<int>(std::max_element(scratch.begin(), scratch.end()) -
                          scratch.begin());
}

std::vector<int> GbdtClassifier::predict(const Matrix& x) const {
  std::vector<int> out(x.rows());
  const auto num_k = static_cast<std::size_t>(num_classes_);
  const std::size_t blocks = (x.rows() + kPredictBlock - 1) / kPredictBlock;
  util::parallel_for(blocks, [&](std::size_t blk) {
    const std::size_t begin = blk * kPredictBlock;
    const std::size_t end = std::min(x.rows(), begin + kPredictBlock);
    // One score buffer per block, reused across its rows.
    std::vector<double> scores(num_k);
    for (std::size_t r = begin; r < end; ++r) {
      scores_into(x.row(r), scores.data());
      // Softmax is strictly monotone, so the argmax of the raw scores
      // equals the argmax of predict_proba_row (first-max ties included).
      out[r] = static_cast<int>(std::max_element(scores.begin(), scores.end()) -
                                scores.begin());
    }
  });
  return out;
}

void GbdtRegressor::save(std::ostream& out) const {
  out << "gbr ";
  save_params(out, params_);
  util::write_f64(out, base_);
  out << ' ' << trees_.size() << '\n';
  for (const RegressionTree& t : trees_) t.save(out);
}

GbdtRegressor GbdtRegressor::load(std::istream& in) {
  util::expect_word(in, "gbr", "GbdtRegressor::load");
  GbdtRegressor model(load_params(in));
  model.base_ = util::read_f64(in, "gbr base score");
  const std::size_t num_trees = util::read_size(in, "gbr tree count");
  model.trees_.reserve(num_trees);
  for (std::size_t i = 0; i < num_trees; ++i) {
    model.trees_.push_back(RegressionTree::load(in));
  }
  model.flat_.build(model.trees_);
  return model;
}

void GbdtClassifier::save(std::ostream& out) const {
  out << "gbc ";
  save_params(out, params_);
  out << num_classes_;
  for (double b : base_scores_) {
    out << ' ';
    util::write_f64(out, b);
  }
  out << '\n' << trees_.size() << '\n';
  for (const RegressionTree& t : trees_) t.save(out);
}

GbdtClassifier GbdtClassifier::load(std::istream& in) {
  util::expect_word(in, "gbc", "GbdtClassifier::load");
  GbdtClassifier model(load_params(in));
  model.num_classes_ = util::read_int(in, "gbc num_classes");
  if (model.num_classes_ < 2) {
    throw std::runtime_error("GbdtClassifier::load: bad class count");
  }
  model.base_scores_.resize(static_cast<std::size_t>(model.num_classes_));
  for (double& b : model.base_scores_) {
    b = util::read_f64(in, "gbc base score");
  }
  const std::size_t num_trees = util::read_size(in, "gbc tree count");
  if (num_trees % static_cast<std::size_t>(model.num_classes_) != 0) {
    throw std::runtime_error(
        "GbdtClassifier::load: tree count not a multiple of classes");
  }
  model.trees_.reserve(num_trees);
  for (std::size_t i = 0; i < num_trees; ++i) {
    model.trees_.push_back(RegressionTree::load(in));
  }
  model.flat_.build(model.trees_);
  return model;
}

std::vector<double> GbdtRegressor::feature_importance(
    std::size_t num_features) const {
  return importance_from_trees(trees_, num_features);
}

std::vector<double> GbdtClassifier::feature_importance(
    std::size_t num_features) const {
  return importance_from_trees(trees_, num_features);
}

}  // namespace smart::ml

