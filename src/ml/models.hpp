// The paper's four neural models plus training wrappers:
//   ConvNet  — CNN on the binary pattern tensor, classification (Fig. 7)
//   FcNet    — dense net on tensor+features, classification
//   MLP      — dense net on feature vectors, regression
//   ConvMLP  — CNN branch (tensor) merged with MLP branch (parameters +
//              hardware features), regression (Fig. 8)
// Hyperparameters mirror the paper's (Sec. V-A3) at library scale; epochs
// and widths are configurable so Fig. 13's sensitivity sweep can reuse the
// same code.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ml/nn.hpp"

namespace smart::ml {

struct TrainConfig {
  int epochs = 40;
  int batch_size = 50;       // paper: 50 (ConvNet/FcNet), 256 (MLP/ConvMLP)
  double learning_rate = 1e-3;
  std::uint64_t seed = 7;
  /// > 0 holds out that fraction of the training set and stops when the
  /// held-out loss has not improved for `patience` epochs (early stopping).
  double validation_fraction = 0.0;
  int patience = 5;
};

/// Token round-trip for TrainConfig (hyperparameters travel with the fitted
/// weights so a refit on new data reproduces the original recipe).
void save_train_config(util::TokenWriter& out, const TrainConfig& config);
TrainConfig load_train_config(util::TokenReader& in);

/// Conv stack for pattern tensors: two kxk conv layers (k = 3, as in the
/// paper) + two dense layers. dims selects Conv2D vs Conv3D.
Sequential make_conv_trunk(int dims, int max_order, int channels1,
                           int channels2, util::Rng& rng);

Sequential make_convnet(int dims, int max_order, int num_classes,
                        util::Rng& rng);
Sequential make_fcnet(std::size_t input_dim, int num_classes, int num_layers,
                      std::size_t width, util::Rng& rng);
Sequential make_mlp(std::size_t input_dim, int hidden_layers,
                    std::size_t width, util::Rng& rng);

/// Classification wrapper (minibatch Adam + softmax cross-entropy).
class NnClassifier {
 public:
  NnClassifier(Sequential net, TrainConfig config);

  /// Returns the final-epoch mean training loss.
  double fit(const Matrix& x, std::span<const int> labels);
  std::vector<int> predict(const Matrix& x);

  /// Persists config + net; the loaded classifier predicts bit-identically.
  /// load() rejects a net that does not take `input_width` features per row
  /// (Sequential::load).
  void save(util::TokenWriter& out) const;
  static NnClassifier load(util::TokenReader& in, std::size_t input_width);

 private:
  Sequential net_;
  TrainConfig config_;
};

/// Regression wrapper (single output, MSE).
class NnRegressor {
 public:
  NnRegressor(Sequential net, TrainConfig config);

  double fit(const Matrix& x, std::span<const float> targets);
  std::vector<double> predict(const Matrix& x);

  /// Persists config + net; the loaded regressor predicts bit-identically.
  /// load() rejects a net that does not map `input_width` features per row
  /// to one value.
  void save(util::TokenWriter& out) const;
  static NnRegressor load(util::TokenReader& in, std::size_t input_width);

 private:
  Sequential net_;
  TrainConfig config_;
};

/// Two-branch ConvMLP (paper Fig. 8): CNN on the pattern tensor, MLP on the
/// auxiliary features; outputs are concatenated into a dense head.
class ConvMlpRegressor {
 public:
  ConvMlpRegressor(int dims, int max_order, std::size_t aux_dim,
                   TrainConfig config);

  double fit(const Matrix& tensors, const Matrix& aux,
             std::span<const float> targets);
  std::vector<double> predict(const Matrix& tensors, const Matrix& aux);

  /// Batched prediction over rows that share tensors: `unique_tensors`
  /// holds each distinct pattern tensor once and `tensor_row[i]` names the
  /// tensor row of aux row i. The conv branch runs once per distinct
  /// tensor instead of once per row; every layer is row-independent, so the
  /// result is bit-identical to predict() on the expanded tensor matrix.
  std::vector<double> predict_gathered(const Matrix& unique_tensors,
                                       std::span<const std::size_t> tensor_row,
                                       const Matrix& aux);

  /// Persists config + all three branch nets; the loaded regressor predicts
  /// bit-identically (predict and predict_gathered). load() rejects branches
  /// that do not take `tensor_width` tensor values and `aux_width` auxiliary
  /// features per row, or whose outputs the head does not take.
  void save(util::TokenWriter& out) const;
  static ConvMlpRegressor load(util::TokenReader& in, std::size_t tensor_width,
                               std::size_t aux_width);

 private:
  ConvMlpRegressor() = default;  // deserialization shell filled by load()

  Matrix forward(const Matrix& tensors, const Matrix& aux);
  void backward(const Matrix& grad_head_in);

  Sequential conv_branch_;
  Sequential mlp_branch_;
  Sequential head_;
  Matrix joint_;  // reusable concat buffer for predict()
  std::size_t conv_out_ = 0;
  std::size_t mlp_out_ = 0;
  TrainConfig config_;
};

}  // namespace smart::ml
