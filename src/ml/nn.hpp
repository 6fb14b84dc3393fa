// From-scratch neural-network stack: Dense, ReLU, Conv2D/Conv3D layers,
// softmax-cross-entropy and MSE losses, the Adam optimizer, and a
// Sequential container. This substitutes for the paper's TensorFlow v1.15
// models (ConvNet, FcNet, MLP, ConvMLP) at library scale.
//
// Data layout: activations are Matrix rows (one sample per row); conv
// layers interpret each row as a flattened (C, H, W) or (C, D, H, W)
// volume and produce the flattened output volume.
#pragma once

#include <memory>
#include <vector>

#include "ml/matrix.hpp"
#include "util/rng.hpp"

namespace smart::ml {

/// A trainable parameter: value and accumulated gradient, same shape.
struct ParamRef {
  Matrix* value = nullptr;
  Matrix* grad = nullptr;
};

class Layer {
 public:
  virtual ~Layer() = default;
  /// Forward pass; implementations cache what backward() needs.
  virtual Matrix forward(const Matrix& x) = 0;
  /// Inference-only forward: writes the output into `out` (resized in
  /// place) without caching backward() state, so a long-lived `out` makes
  /// repeated prediction allocation-free. Values are bit-identical to
  /// forward() in inference mode. The default delegates to forward().
  virtual void infer(const Matrix& x, Matrix& out) { out = forward(x); }
  /// Backward pass: gradient w.r.t. this layer's input. Parameter
  /// gradients are accumulated into the ParamRef grads.
  virtual Matrix backward(const Matrix& grad_out) = 0;
  virtual void collect_params(std::vector<ParamRef>& out) { (void)out; }
  virtual std::size_t output_size(std::size_t input_size) const = 0;
  /// Train/inference mode toggle (only stochastic layers care).
  virtual void set_training(bool training) { (void)training; }
  /// Persists the layer as a tagged token record (weights in hexfloat, so
  /// Sequential::load reproduces inference bit-exactly). Optimizer and
  /// backward state are not persisted — artifacts are inference-ready.
  virtual void save(util::TokenWriter& out) const = 0;
};

class Dense final : public Layer {
 public:
  Dense(std::size_t in, std::size_t out, util::Rng& rng);
  /// Deserialization constructor: adopts fitted weights (in x out) and bias
  /// (1 x out) directly.
  Dense(Matrix w, Matrix b);
  Matrix forward(const Matrix& x) override;
  /// Dense's inference step, run by Sequential::infer for every Dense
  /// layer (with the following ReLU folded in when there is one):
  /// out = act(x * W + b) in one pass of the strict fused kernel
  /// matmul_bias_act_into, bit-identical to forward() (+ a ReLU pass when
  /// `relu`).
  void infer_fused(const Matrix& x, Matrix& out, bool relu);
  Matrix backward(const Matrix& grad_out) override;
  void collect_params(std::vector<ParamRef>& out) override;
  std::size_t output_size(std::size_t) const override { return w_.cols(); }
  void save(util::TokenWriter& out) const override;

 private:
  Matrix w_, b_, dw_, db_;
  Matrix input_;
};

class ReLU final : public Layer {
 public:
  Matrix forward(const Matrix& x) override;
  void infer(const Matrix& x, Matrix& out) override;
  Matrix backward(const Matrix& grad_out) override;
  std::size_t output_size(std::size_t input_size) const override {
    return input_size;
  }
  void save(util::TokenWriter& out) const override;

 private:
  Matrix mask_;
};

/// Inverted dropout: keeps activations unbiased at inference. A stochastic
/// regularizer for the deeper FcNet configurations (the paper observes
/// FcNet overfits when too deep, Sec. IV-D).
class Dropout final : public Layer {
 public:
  Dropout(double rate, std::uint64_t seed);
  Matrix forward(const Matrix& x) override;
  /// Inference pass-through (inverted dropout keeps activations unbiased);
  /// never consumes randomness regardless of the training flag.
  void infer(const Matrix& x, Matrix& out) override { out = x; }
  Matrix backward(const Matrix& grad_out) override;
  std::size_t output_size(std::size_t input_size) const override {
    return input_size;
  }
  void set_training(bool training) override { training_ = training; }
  /// Persists the rate only: the RNG stream is training state, and loaded
  /// nets are inference artifacts (infer() never consumes randomness).
  void save(util::TokenWriter& out) const override;

 private:
  double rate_;
  bool training_ = true;
  util::Rng rng_;
  Matrix mask_;
};

/// Valid (unpadded) 2-D convolution over (C, H, W) rows, stride 1.
class Conv2D final : public Layer {
 public:
  Conv2D(int in_c, int out_c, int h, int w, int k, util::Rng& rng);
  /// Deserialization constructor: adopts fitted weights and bias.
  Conv2D(int in_c, int out_c, int h, int w, int k, Matrix weights, Matrix bias);
  Matrix forward(const Matrix& x) override;
  void infer(const Matrix& x, Matrix& out) override;
  Matrix backward(const Matrix& grad_out) override;
  void collect_params(std::vector<ParamRef>& out) override;
  std::size_t output_size(std::size_t) const override {
    return static_cast<std::size_t>(out_c_) * oh() * ow();
  }
  void save(util::TokenWriter& out) const override;
  std::size_t oh() const { return static_cast<std::size_t>(h_ - k_ + 1); }
  std::size_t ow() const { return static_cast<std::size_t>(w_ - k_ + 1); }

 private:
  void run_forward(const Matrix& x, Matrix& y) const;

  int in_c_, out_c_, h_, w_, k_;
  Matrix weights_, bias_, dweights_, dbias_;  // weights_: out_c x (in_c*k*k)
  Matrix input_;
};

/// Valid (unpadded) 3-D convolution over (C, D, H, W) rows, stride 1.
class Conv3D final : public Layer {
 public:
  Conv3D(int in_c, int out_c, int d, int h, int w, int k, util::Rng& rng);
  /// Deserialization constructor: adopts fitted weights and bias.
  Conv3D(int in_c, int out_c, int d, int h, int w, int k, Matrix weights,
         Matrix bias);
  Matrix forward(const Matrix& x) override;
  void infer(const Matrix& x, Matrix& out) override;
  Matrix backward(const Matrix& grad_out) override;
  void collect_params(std::vector<ParamRef>& out) override;
  std::size_t output_size(std::size_t) const override {
    return static_cast<std::size_t>(out_c_) * od() * oh() * ow();
  }
  void save(util::TokenWriter& out) const override;
  std::size_t od() const { return static_cast<std::size_t>(d_ - k_ + 1); }
  std::size_t oh() const { return static_cast<std::size_t>(h_ - k_ + 1); }
  std::size_t ow() const { return static_cast<std::size_t>(w_ - k_ + 1); }

 private:
  void run_forward(const Matrix& x, Matrix& y) const;

  int in_c_, out_c_, d_, h_, w_, k_;
  Matrix weights_, bias_, dweights_, dbias_;  // weights_: out_c x (in_c*k^3)
  Matrix input_;
};

class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  void add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }

  Matrix forward(const Matrix& x);
  /// Inference-only forward pass ping-ponging between two internal scratch
  /// activations, so repeated prediction performs no per-layer allocations
  /// after the first call. Values are bit-identical to forward() (call
  /// set_training(false) first when the net has stochastic layers). The
  /// returned reference is valid until the next forward/infer call.
  ///
  /// Every Dense runs Dense::infer_fused, and a Dense followed by a ReLU
  /// executes as one fused kernel step, bit-identical to forward(). Batch
  /// size may shrink or grow freely between calls: every layer reshapes the
  /// scratch buffers before writing, and the matmul kernels reject aliased
  /// in/out matrices outright.
  const Matrix& infer(const Matrix& x);
  Matrix backward(const Matrix& grad_out);
  std::vector<ParamRef> params();
  void set_training(bool training);

  std::size_t num_layers() const noexcept { return layers_.size(); }

  /// Values per row the net outputs for `input_width` values per row in.
  std::size_t output_size(std::size_t input_width) const;

  /// Persists every layer in order; load() reconstructs a net whose infer()
  /// and forward() are bit-identical to the saved one. Throws
  /// std::runtime_error on unknown layer tags or malformed weights, and on
  /// a Dense, Conv2D or Conv3D record that does not take the width its
  /// input has: `input_width` values per row for the first layer, the
  /// previous layer's output after it (ReLU and Dropout pass it through).
  /// The reader's offset() then names the tag of that record.
  void save(util::TokenWriter& out) const;
  static Sequential load(util::TokenReader& in, std::size_t input_width);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  Matrix infer_a_, infer_b_;  // reusable activation buffers for infer()
};

/// Softmax + cross-entropy on logits. Returns mean loss; writes the
/// gradient w.r.t. logits (already divided by batch size) into `grad`.
double softmax_ce_loss(const Matrix& logits, std::span<const int> labels,
                       Matrix& grad);

/// Argmax class per row of logits.
std::vector<int> argmax_rows(const Matrix& logits);

/// Mean squared error on a single-output column. Gradient as above.
double mse_loss(const Matrix& preds, std::span<const float> targets,
                Matrix& grad);

class Adam {
 public:
  explicit Adam(double lr = 1e-3, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

  /// Applies one update to all params and zeroes their gradients.
  void step(std::vector<ParamRef>& params);

  double learning_rate() const noexcept { return lr_; }

 private:
  double lr_, beta1_, beta2_, eps_;
  long t_ = 0;
  std::vector<std::vector<float>> m_, v_;
};

}  // namespace smart::ml
