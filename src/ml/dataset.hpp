// Tabular dataset containers shared by the GBDT and NN stacks, plus the
// [0,1] max-scaling the paper applies to NN inputs (Sec. IV-E) and k-fold
// cross-validation splitting (Sec. V-A3).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ml/matrix.hpp"
#include "util/rng.hpp"

namespace smart::ml {

/// Feature matrix + one target per row (class id for classification tasks,
/// real value for regression tasks — only the relevant one is populated).
struct Dataset {
  Matrix x;                     // n x d features
  std::vector<int> labels;      // classification targets (may be empty)
  std::vector<float> targets;   // regression targets (may be empty)

  std::size_t size() const noexcept { return x.rows(); }

  Dataset subset(std::span<const std::size_t> indices) const;
};

/// Scales each feature to [0,1] by dividing by its maximum absolute value
/// (paper Sec. IV-E: "normalize the inputs ... by dividing by the maximum
/// value of each input feature"). Constant-zero features pass through.
class MaxAbsScaler {
 public:
  void fit(const Matrix& x);
  Matrix transform(const Matrix& x) const;
  /// transform() into a caller-owned matrix (reshaped as needed) so hot
  /// inference loops reuse one scratch allocation per batch. Bit-identical
  /// to transform(); `out` must not alias `x`.
  void transform_into(const Matrix& x, Matrix& out) const;
  Matrix fit_transform(const Matrix& x) {
    fit(x);
    return transform(x);
  }
  std::span<const float> scales() const noexcept { return scales_; }

  /// Persists the fitted scales (hexfloat); the loaded scaler transforms
  /// bit-identically. Throws std::runtime_error on malformed input.
  void save(util::TokenWriter& out) const;
  static MaxAbsScaler load(util::TokenReader& in);

 private:
  std::vector<float> scales_;
};

/// One train/test split of a k-fold round.
struct FoldSplit {
  std::vector<std::size_t> train_indices;
  std::vector<std::size_t> test_indices;
};

/// Shuffled k-fold partitioning: each index lands in exactly one test fold.
std::vector<FoldSplit> kfold_splits(std::size_t n, int folds, util::Rng& rng);

}  // namespace smart::ml
