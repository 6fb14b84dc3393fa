#include "ml/dataset.hpp"

#include <cmath>
#include <stdexcept>

namespace smart::ml {

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out;
  out.x = x.gather_rows(indices);
  if (!labels.empty()) {
    out.labels.reserve(indices.size());
    for (std::size_t i : indices) out.labels.push_back(labels[i]);
  }
  if (!targets.empty()) {
    out.targets.reserve(indices.size());
    for (std::size_t i : indices) out.targets.push_back(targets[i]);
  }
  return out;
}

void MaxAbsScaler::fit(const Matrix& x) {
  scales_.assign(x.cols(), 0.0f);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      scales_[c] = std::max(scales_[c], std::fabs(x.at(r, c)));
    }
  }
  for (float& s : scales_) {
    if (s == 0.0f) s = 1.0f;
  }
}

Matrix MaxAbsScaler::transform(const Matrix& x) const {
  Matrix out;
  transform_into(x, out);
  return out;
}

void MaxAbsScaler::transform_into(const Matrix& x, Matrix& out) const {
  if (x.cols() != scales_.size()) {
    throw std::invalid_argument("MaxAbsScaler: width mismatch");
  }
  if (&out == &x) {
    throw std::invalid_argument("MaxAbsScaler::transform_into: aliased output");
  }
  out.reshape_overwrite(x.rows(), x.cols());
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      out.at(r, c) = x.at(r, c) / scales_[c];
    }
  }
}

void MaxAbsScaler::save(util::TokenWriter& out) const {
  out << "scaler " << scales_.size();
  for (float s : scales_) {
    out << ' ';
    out.hexfloat(s);
  }
  out << '\n';
}

MaxAbsScaler MaxAbsScaler::load(util::TokenReader& in) {
  in.expect("scaler", "MaxAbsScaler::load");
  const std::size_t n = in.count("scaler width", 2);
  MaxAbsScaler scaler;
  scaler.scales_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaler.scales_[i] = in.f32("scaler scale");
  }
  return scaler;
}

std::vector<FoldSplit> kfold_splits(std::size_t n, int folds, util::Rng& rng) {
  if (folds < 2) throw std::invalid_argument("kfold_splits: folds < 2");
  if (n < static_cast<std::size_t>(folds)) {
    throw std::invalid_argument("kfold_splits: fewer samples than folds");
  }
  const std::vector<std::size_t> perm = rng.permutation(n);
  std::vector<FoldSplit> out(static_cast<std::size_t>(folds));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t fold = i % static_cast<std::size_t>(folds);
    out[fold].test_indices.push_back(perm[i]);
  }
  for (int f = 0; f < folds; ++f) {
    for (int g = 0; g < folds; ++g) {
      if (g == f) continue;
      auto& train = out[static_cast<std::size_t>(f)].train_indices;
      const auto& test = out[static_cast<std::size_t>(g)].test_indices;
      train.insert(train.end(), test.begin(), test.end());
    }
  }
  return out;
}

}  // namespace smart::ml
