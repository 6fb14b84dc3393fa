#include "ml/nn.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "ml/simd.hpp"
#include "util/task_pool.hpp"

namespace smart::ml {

// ----- Dense ---------------------------------------------------------------

Dense::Dense(std::size_t in, std::size_t out, util::Rng& rng)
    : w_(in, out), b_(1, out), dw_(in, out), db_(1, out) {
  w_.init_he(rng);
}

Dense::Dense(Matrix w, Matrix b)
    : w_(std::move(w)), b_(std::move(b)), dw_(w_.rows(), w_.cols()),
      db_(1, b_.cols()) {
  if (b_.rows() != 1 || b_.cols() != w_.cols()) {
    throw std::runtime_error("Dense: bias shape does not match weights");
  }
}

void Dense::save(util::TokenWriter& out) const {
  out << "dense\n";
  w_.save(out);
  b_.save(out);
}

Matrix Dense::forward(const Matrix& x) {
  input_ = x;
  Matrix y = matmul(x, w_);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    for (std::size_t c = 0; c < y.cols(); ++c) y.at(r, c) += b_.at(0, c);
  }
  return y;
}

void Dense::infer_fused(const Matrix& x, Matrix& out, bool relu) {
  if (inference_precision() == Precision::kRelaxed) {
    matmul_bias_act_relaxed_into(x, w_, b_, relu, out);
  } else {
    matmul_bias_act_into(x, w_, b_, relu, out);
  }
}

Matrix Dense::backward(const Matrix& grad_out) {
  const Matrix dw = matmul_at(input_, grad_out);
  for (std::size_t i = 0; i < dw.rows(); ++i) {
    for (std::size_t j = 0; j < dw.cols(); ++j) {
      dw_.at(i, j) += dw.at(i, j);
    }
  }
  for (std::size_t r = 0; r < grad_out.rows(); ++r) {
    for (std::size_t c = 0; c < grad_out.cols(); ++c) {
      db_.at(0, c) += grad_out.at(r, c);
    }
  }
  return matmul_bt(grad_out, w_);
}

void Dense::collect_params(std::vector<ParamRef>& out) {
  out.push_back({&w_, &dw_});
  out.push_back({&b_, &db_});
}

// ----- ReLU ------------------------------------------------------------------

Matrix ReLU::forward(const Matrix& x) {
  mask_ = Matrix(x.rows(), x.cols());
  Matrix y = x;
  for (std::size_t r = 0; r < y.rows(); ++r) {
    for (std::size_t c = 0; c < y.cols(); ++c) {
      if (y.at(r, c) > 0.0f) {
        mask_.at(r, c) = 1.0f;
      } else {
        y.at(r, c) = 0.0f;
      }
    }
  }
  return y;
}

void ReLU::infer(const Matrix& x, Matrix& out) {
  out.resize(x.rows(), x.cols());
  const float* src = x.data();
  float* dst = out.data();
  const std::size_t n = x.rows() * x.cols();
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
}

Matrix ReLU::backward(const Matrix& grad_out) {
  Matrix g = grad_out;
  for (std::size_t r = 0; r < g.rows(); ++r) {
    for (std::size_t c = 0; c < g.cols(); ++c) g.at(r, c) *= mask_.at(r, c);
  }
  return g;
}

void ReLU::save(util::TokenWriter& out) const { out << "relu\n"; }

// ----- Dropout -----------------------------------------------------------------

Dropout::Dropout(double rate, std::uint64_t seed) : rate_(rate), rng_(seed) {
  if (rate < 0.0 || rate >= 1.0) {
    throw std::invalid_argument("Dropout: rate must be in [0, 1)");
  }
}

Matrix Dropout::forward(const Matrix& x) {
  if (!training_ || rate_ == 0.0) {
    mask_ = Matrix();
    return x;
  }
  mask_ = Matrix(x.rows(), x.cols());
  Matrix y = x;
  const float scale = static_cast<float>(1.0 / (1.0 - rate_));
  for (std::size_t r = 0; r < y.rows(); ++r) {
    for (std::size_t col = 0; col < y.cols(); ++col) {
      if (rng_.bernoulli(rate_)) {
        y.at(r, col) = 0.0f;
      } else {
        mask_.at(r, col) = scale;
        y.at(r, col) *= scale;
      }
    }
  }
  return y;
}

Matrix Dropout::backward(const Matrix& grad_out) {
  if (mask_.empty()) return grad_out;
  Matrix g = grad_out;
  for (std::size_t r = 0; r < g.rows(); ++r) {
    for (std::size_t col = 0; col < g.cols(); ++col) {
      g.at(r, col) *= mask_.at(r, col);
    }
  }
  return g;
}

void Dropout::save(util::TokenWriter& out) const {
  out << "dropout ";
  out.hexfloat(rate_);
  out << '\n';
}

// ----- Conv2D ----------------------------------------------------------------

Conv2D::Conv2D(int in_c, int out_c, int h, int w, int k, util::Rng& rng)
    : in_c_(in_c), out_c_(out_c), h_(h), w_(w), k_(k),
      weights_(static_cast<std::size_t>(out_c),
         static_cast<std::size_t>(in_c) * static_cast<std::size_t>(k) *
             static_cast<std::size_t>(k)),
      bias_(1, static_cast<std::size_t>(out_c)),
      dweights_(weights_.rows(), weights_.cols()), dbias_(1, bias_.cols()) {
  if (h < k || w < k) throw std::invalid_argument("Conv2D: input smaller than kernel");
  weights_.init_he(rng);
}

Conv2D::Conv2D(int in_c, int out_c, int h, int w, int k, Matrix weights,
               Matrix bias)
    : in_c_(in_c), out_c_(out_c), h_(h), w_(w), k_(k),
      weights_(std::move(weights)), bias_(std::move(bias)),
      dweights_(weights_.rows(), weights_.cols()), dbias_(1, bias_.cols()) {
  if (in_c < 1 || out_c < 1 || k < 1 || h < k || w < k) {
    throw std::runtime_error("Conv2D: invalid geometry");
  }
  const std::size_t kernel = static_cast<std::size_t>(in_c) *
                             static_cast<std::size_t>(k) *
                             static_cast<std::size_t>(k);
  if (weights_.rows() != static_cast<std::size_t>(out_c) ||
      weights_.cols() != kernel || bias_.rows() != 1 ||
      bias_.cols() != static_cast<std::size_t>(out_c)) {
    throw std::runtime_error("Conv2D: weight shape does not match geometry");
  }
}

void Conv2D::save(util::TokenWriter& out) const {
  out << "conv2 " << in_c_ << ' ' << out_c_ << ' ' << h_ << ' ' << w_ << ' '
      << k_ << '\n';
  weights_.save(out);
  bias_.save(out);
}

Matrix Conv2D::forward(const Matrix& x) {
  input_ = x;
  Matrix y(x.rows(), output_size(0));
  run_forward(x, y);
  return y;
}

void Conv2D::infer(const Matrix& x, Matrix& out) {
  out.resize(x.rows(), output_size(0));
  run_forward(x, out);
}

void Conv2D::run_forward(const Matrix& x, Matrix& y) const {
  const std::size_t OH = oh();
  const std::size_t OW = ow();
  // Each batch row writes its own output row: parallel and bit-stable.
  util::parallel_for(x.rows(), [&](std::size_t n) {
    const float* in = x.row(n).data();
    float* out = y.row(n).data();
    for (int oc = 0; oc < out_c_; ++oc) {
      const float* wrow = weights_.row(static_cast<std::size_t>(oc)).data();
      const float bias = bias_.at(0, static_cast<std::size_t>(oc));
      for (std::size_t i = 0; i < OH; ++i) {
        for (std::size_t j = 0; j < OW; ++j) {
          float acc = bias;
          std::size_t widx = 0;
          for (int ic = 0; ic < in_c_; ++ic) {
            const float* plane =
                in + static_cast<std::size_t>(ic) *
                         static_cast<std::size_t>(h_) * static_cast<std::size_t>(w_);
            for (int kh = 0; kh < k_; ++kh) {
              const float* src =
                  plane + (i + static_cast<std::size_t>(kh)) *
                              static_cast<std::size_t>(w_) + j;
              for (int kw = 0; kw < k_; ++kw) {
                acc += wrow[widx++] * src[kw];
              }
            }
          }
          out[(static_cast<std::size_t>(oc) * OH + i) * OW + j] = acc;
        }
      }
    }
  });
}

Matrix Conv2D::backward(const Matrix& grad_out) {
  const std::size_t OH = oh();
  const std::size_t OW = ow();
  Matrix grad_in(input_.rows(), input_.cols());
  for (std::size_t n = 0; n < input_.rows(); ++n) {
    const float* in = input_.row(n).data();
    const float* gout = grad_out.row(n).data();
    float* gin = grad_in.row(n).data();
    for (int oc = 0; oc < out_c_; ++oc) {
      const float* wrow = weights_.row(static_cast<std::size_t>(oc)).data();
      float* dwrow = dweights_.row(static_cast<std::size_t>(oc)).data();
      float db_acc = 0.0f;
      for (std::size_t i = 0; i < OH; ++i) {
        for (std::size_t j = 0; j < OW; ++j) {
          const float g = gout[(static_cast<std::size_t>(oc) * OH + i) * OW + j];
          if (g == 0.0f) continue;
          db_acc += g;
          std::size_t widx = 0;
          for (int ic = 0; ic < in_c_; ++ic) {
            const std::size_t plane_off =
                static_cast<std::size_t>(ic) * static_cast<std::size_t>(h_) *
                static_cast<std::size_t>(w_);
            for (int kh = 0; kh < k_; ++kh) {
              const std::size_t row_off =
                  plane_off + (i + static_cast<std::size_t>(kh)) *
                                  static_cast<std::size_t>(w_) + j;
              for (int kw = 0; kw < k_; ++kw) {
                dwrow[widx] += g * in[row_off + static_cast<std::size_t>(kw)];
                gin[row_off + static_cast<std::size_t>(kw)] += g * wrow[widx];
                ++widx;
              }
            }
          }
        }
      }
      dbias_.at(0, static_cast<std::size_t>(oc)) += db_acc;
    }
  }
  return grad_in;
}

void Conv2D::collect_params(std::vector<ParamRef>& out) {
  out.push_back({&weights_, &dweights_});
  out.push_back({&bias_, &dbias_});
}

// ----- Conv3D ----------------------------------------------------------------

Conv3D::Conv3D(int in_c, int out_c, int d, int h, int w, int k, util::Rng& rng)
    : in_c_(in_c), out_c_(out_c), d_(d), h_(h), w_(w), k_(k),
      weights_(static_cast<std::size_t>(out_c),
         static_cast<std::size_t>(in_c) * static_cast<std::size_t>(k) *
             static_cast<std::size_t>(k) * static_cast<std::size_t>(k)),
      bias_(1, static_cast<std::size_t>(out_c)),
      dweights_(weights_.rows(), weights_.cols()), dbias_(1, bias_.cols()) {
  if (d < k || h < k || w < k) {
    throw std::invalid_argument("Conv3D: input smaller than kernel");
  }
  weights_.init_he(rng);
}

Conv3D::Conv3D(int in_c, int out_c, int d, int h, int w, int k, Matrix weights,
               Matrix bias)
    : in_c_(in_c), out_c_(out_c), d_(d), h_(h), w_(w), k_(k),
      weights_(std::move(weights)), bias_(std::move(bias)),
      dweights_(weights_.rows(), weights_.cols()), dbias_(1, bias_.cols()) {
  if (in_c < 1 || out_c < 1 || k < 1 || d < k || h < k || w < k) {
    throw std::runtime_error("Conv3D: invalid geometry");
  }
  const std::size_t kernel = static_cast<std::size_t>(in_c) *
                             static_cast<std::size_t>(k) *
                             static_cast<std::size_t>(k) *
                             static_cast<std::size_t>(k);
  if (weights_.rows() != static_cast<std::size_t>(out_c) ||
      weights_.cols() != kernel || bias_.rows() != 1 ||
      bias_.cols() != static_cast<std::size_t>(out_c)) {
    throw std::runtime_error("Conv3D: weight shape does not match geometry");
  }
}

void Conv3D::save(util::TokenWriter& out) const {
  out << "conv3 " << in_c_ << ' ' << out_c_ << ' ' << d_ << ' ' << h_ << ' '
      << w_ << ' ' << k_ << '\n';
  weights_.save(out);
  bias_.save(out);
}

Matrix Conv3D::forward(const Matrix& x) {
  input_ = x;
  Matrix y(x.rows(), output_size(0));
  run_forward(x, y);
  return y;
}

void Conv3D::infer(const Matrix& x, Matrix& out) {
  out.resize(x.rows(), output_size(0));
  run_forward(x, out);
}

void Conv3D::run_forward(const Matrix& x, Matrix& y) const {
  const std::size_t OD = od();
  const std::size_t OH = oh();
  const std::size_t OW = ow();
  const std::size_t HW = static_cast<std::size_t>(h_) * static_cast<std::size_t>(w_);
  // Each batch row writes its own output row: parallel and bit-stable.
  util::parallel_for(x.rows(), [&](std::size_t n) {
    const float* in = x.row(n).data();
    float* out = y.row(n).data();
    for (int oc = 0; oc < out_c_; ++oc) {
      const float* wrow = weights_.row(static_cast<std::size_t>(oc)).data();
      const float bias = bias_.at(0, static_cast<std::size_t>(oc));
      for (std::size_t a = 0; a < OD; ++a) {
        for (std::size_t i = 0; i < OH; ++i) {
          for (std::size_t j = 0; j < OW; ++j) {
            float acc = bias;
            std::size_t widx = 0;
            for (int ic = 0; ic < in_c_; ++ic) {
              const float* vol = in + static_cast<std::size_t>(ic) *
                                          static_cast<std::size_t>(d_) * HW;
              for (int kd = 0; kd < k_; ++kd) {
                const float* plane = vol + (a + static_cast<std::size_t>(kd)) * HW;
                for (int kh = 0; kh < k_; ++kh) {
                  const float* src = plane + (i + static_cast<std::size_t>(kh)) *
                                                 static_cast<std::size_t>(w_) + j;
                  for (int kw = 0; kw < k_; ++kw) {
                    acc += wrow[widx++] * src[kw];
                  }
                }
              }
            }
            out[((static_cast<std::size_t>(oc) * OD + a) * OH + i) * OW + j] = acc;
          }
        }
      }
    }
  });
}

Matrix Conv3D::backward(const Matrix& grad_out) {
  const std::size_t OD = od();
  const std::size_t OH = oh();
  const std::size_t OW = ow();
  const std::size_t HW = static_cast<std::size_t>(h_) * static_cast<std::size_t>(w_);
  Matrix grad_in(input_.rows(), input_.cols());
  for (std::size_t n = 0; n < input_.rows(); ++n) {
    const float* in = input_.row(n).data();
    const float* gout = grad_out.row(n).data();
    float* gin = grad_in.row(n).data();
    for (int oc = 0; oc < out_c_; ++oc) {
      const float* wrow = weights_.row(static_cast<std::size_t>(oc)).data();
      float* dwrow = dweights_.row(static_cast<std::size_t>(oc)).data();
      float db_acc = 0.0f;
      for (std::size_t a = 0; a < OD; ++a) {
        for (std::size_t i = 0; i < OH; ++i) {
          for (std::size_t j = 0; j < OW; ++j) {
            const float g =
                gout[((static_cast<std::size_t>(oc) * OD + a) * OH + i) * OW + j];
            if (g == 0.0f) continue;
            db_acc += g;
            std::size_t widx = 0;
            for (int ic = 0; ic < in_c_; ++ic) {
              const std::size_t vol_off =
                  static_cast<std::size_t>(ic) * static_cast<std::size_t>(d_) * HW;
              for (int kd = 0; kd < k_; ++kd) {
                const std::size_t plane_off =
                    vol_off + (a + static_cast<std::size_t>(kd)) * HW;
                for (int kh = 0; kh < k_; ++kh) {
                  const std::size_t row_off =
                      plane_off + (i + static_cast<std::size_t>(kh)) *
                                      static_cast<std::size_t>(w_) + j;
                  for (int kw = 0; kw < k_; ++kw) {
                    dwrow[widx] += g * in[row_off + static_cast<std::size_t>(kw)];
                    gin[row_off + static_cast<std::size_t>(kw)] += g * wrow[widx];
                    ++widx;
                  }
                }
              }
            }
          }
        }
      }
      dbias_.at(0, static_cast<std::size_t>(oc)) += db_acc;
    }
  }
  return grad_in;
}

void Conv3D::collect_params(std::vector<ParamRef>& out) {
  out.push_back({&weights_, &dweights_});
  out.push_back({&bias_, &dbias_});
}

// ----- Sequential -------------------------------------------------------------

Matrix Sequential::forward(const Matrix& x) {
  Matrix cur = x;
  for (auto& layer : layers_) cur = layer->forward(cur);
  return cur;
}

const Matrix& Sequential::infer(const Matrix& x) {
  if (layers_.empty()) {
    infer_a_ = x;
    return infer_a_;
  }
  const Matrix* cur = &x;
  // Peephole: a Dense immediately followed by ReLU runs as one fused kernel
  // step (strict fusion is bit-identical, see matmul_bias_act_into), so the
  // hot MLP path does one pass per layer pair instead of three.
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Matrix& dst = (cur == &infer_a_) ? infer_b_ : infer_a_;
    Dense* dense = dynamic_cast<Dense*>(layers_[i].get());
    if (dense != nullptr) {
      const bool relu = i + 1 < layers_.size() &&
                        dynamic_cast<ReLU*>(layers_[i + 1].get()) != nullptr;
      dense->infer_fused(*cur, dst, relu);
      if (relu) ++i;
    } else {
      layers_[i]->infer(*cur, dst);
    }
    cur = &dst;
  }
  return *cur;
}

Matrix Sequential::backward(const Matrix& grad_out) {
  Matrix cur = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    cur = (*it)->backward(cur);
  }
  return cur;
}

std::vector<ParamRef> Sequential::params() {
  std::vector<ParamRef> out;
  for (auto& layer : layers_) layer->collect_params(out);
  return out;
}

void Sequential::set_training(bool training) {
  for (auto& layer : layers_) layer->set_training(training);
}

void Sequential::save(util::TokenWriter& out) const {
  out << "net " << layers_.size() << '\n';
  for (const auto& layer : layers_) layer->save(out);
}

std::size_t Sequential::output_size(std::size_t input_width) const {
  std::size_t width = input_width;
  for (const auto& layer : layers_) width = layer->output_size(width);
  return width;
}

namespace {

/// a * b, saturated: a geometry too large to multiply out is a mismatch
/// for any real input width.
std::size_t saturating_mul(std::size_t a, std::size_t b) {
  if (a != 0 && b > std::numeric_limits<std::size_t>::max() / a) {
    return std::numeric_limits<std::size_t>::max();
  }
  return a * b;
}

std::size_t positive(int v) { return v > 0 ? static_cast<std::size_t>(v) : 0; }

}  // namespace

Sequential Sequential::load(util::TokenReader& in, std::size_t input_width) {
  in.expect("net", "Sequential::load");
  // The shortest layer record is "\nrelu".
  const std::size_t num_layers = in.count("net layer count", 5);
  Sequential net;
  std::size_t width = input_width;  // values per row entering layer i
  for (std::size_t i = 0; i < num_layers; ++i) {
    const std::string_view tag = in.token("net layer tag");
    const std::size_t record = in.offset();
    // Run after the layer is built, so its own geometry checks come first.
    const auto expect_width = [&](std::size_t takes) {
      if (takes == width) return;
      in.fail_at(record, "Sequential::load: " + std::string(tag) + " layer " +
                             std::to_string(i) + " takes " +
                             std::to_string(takes) +
                             " values per row, but its input has " +
                             std::to_string(width));
    };
    if (tag == "dense") {
      Matrix w = Matrix::load(in);
      Matrix b = Matrix::load(in);
      const std::size_t takes = w.rows();
      net.add(std::make_unique<Dense>(std::move(w), std::move(b)));
      expect_width(takes);
    } else if (tag == "relu") {
      net.add(std::make_unique<ReLU>());
    } else if (tag == "dropout") {
      const double rate = in.f64("dropout rate");
      if (rate < 0.0 || rate >= 1.0) {
        in.fail("Sequential::load: dropout rate out of range");
      }
      // Seed 0: the RNG stream is training state; loaded nets only infer.
      net.add(std::make_unique<Dropout>(rate, 0));
    } else if (tag == "conv2") {
      const int in_c = in.i32("conv2 in_c");
      const int out_c = in.i32("conv2 out_c");
      const int h = in.i32("conv2 h");
      const int w = in.i32("conv2 w");
      const int k = in.i32("conv2 k");
      Matrix weights = Matrix::load(in);
      Matrix bias = Matrix::load(in);
      net.add(std::make_unique<Conv2D>(in_c, out_c, h, w, k,
                                       std::move(weights), std::move(bias)));
      expect_width(saturating_mul(saturating_mul(positive(in_c), positive(h)),
                                  positive(w)));
    } else if (tag == "conv3") {
      const int in_c = in.i32("conv3 in_c");
      const int out_c = in.i32("conv3 out_c");
      const int d = in.i32("conv3 d");
      const int h = in.i32("conv3 h");
      const int w = in.i32("conv3 w");
      const int k = in.i32("conv3 k");
      Matrix weights = Matrix::load(in);
      Matrix bias = Matrix::load(in);
      net.add(std::make_unique<Conv3D>(in_c, out_c, d, h, w, k,
                                       std::move(weights), std::move(bias)));
      expect_width(saturating_mul(
          saturating_mul(saturating_mul(positive(in_c), positive(d)),
                         positive(h)),
          positive(w)));
    } else {
      in.fail("Sequential::load: unknown layer tag '" + std::string(tag) +
              "'");
    }
    width = net.layers_.back()->output_size(width);
  }
  return net;
}

// ----- Losses -------------------------------------------------------------------

double softmax_ce_loss(const Matrix& logits, std::span<const int> labels,
                       Matrix& grad) {
  if (logits.rows() != labels.size()) {
    throw std::invalid_argument("softmax_ce_loss: batch mismatch");
  }
  grad = Matrix(logits.rows(), logits.cols());
  double loss = 0.0;
  const double inv_n = 1.0 / static_cast<double>(logits.rows());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const auto row = logits.row(r);
    float max_logit = row[0];
    for (float v : row) max_logit = std::max(max_logit, v);
    double denom = 0.0;
    for (float v : row) denom += std::exp(static_cast<double>(v - max_logit));
    const int label = labels[r];
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      const double p = std::exp(static_cast<double>(row[c] - max_logit)) / denom;
      grad.at(r, c) = static_cast<float>(
          (p - (static_cast<int>(c) == label ? 1.0 : 0.0)) * inv_n);
      if (static_cast<int>(c) == label) loss -= std::log(std::max(p, 1e-12));
    }
  }
  return loss * inv_n;
}

std::vector<int> argmax_rows(const Matrix& logits) {
  std::vector<int> out(logits.rows());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const auto row = logits.row(r);
    out[r] = static_cast<int>(std::max_element(row.begin(), row.end()) -
                              row.begin());
  }
  return out;
}

double mse_loss(const Matrix& preds, std::span<const float> targets,
                Matrix& grad) {
  if (preds.rows() != targets.size() || preds.cols() != 1) {
    throw std::invalid_argument("mse_loss: shape mismatch");
  }
  grad = Matrix(preds.rows(), 1);
  double loss = 0.0;
  const double inv_n = 1.0 / static_cast<double>(preds.rows());
  for (std::size_t r = 0; r < preds.rows(); ++r) {
    const double diff = static_cast<double>(preds.at(r, 0)) - targets[r];
    loss += diff * diff;
    grad.at(r, 0) = static_cast<float>(2.0 * diff * inv_n);
  }
  return loss * inv_n;
}

// ----- Adam ------------------------------------------------------------------

void Adam::step(std::vector<ParamRef>& params) {
  if (m_.empty()) {
    m_.resize(params.size());
    v_.resize(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      const std::size_t n = params[i].value->rows() * params[i].value->cols();
      m_[i].assign(n, 0.0f);
      v_[i].assign(n, 0.0f);
    }
  }
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params.size(); ++i) {
    float* w = params[i].value->data();
    float* g = params[i].grad->data();
    const std::size_t n = params[i].value->rows() * params[i].value->cols();
    for (std::size_t j = 0; j < n; ++j) {
      m_[i][j] = static_cast<float>(beta1_ * m_[i][j] + (1.0 - beta1_) * g[j]);
      v_[i][j] = static_cast<float>(beta2_ * v_[i][j] +
                                    (1.0 - beta2_) * g[j] * g[j]);
      const double mhat = m_[i][j] / bc1;
      const double vhat = v_[i][j] / bc2;
      w[j] -= static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + eps_));
      g[j] = 0.0f;
    }
  }
}

}  // namespace smart::ml
