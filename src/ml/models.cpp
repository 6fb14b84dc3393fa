#include "ml/models.hpp"

#include <memory>
#include <stdexcept>

namespace smart::ml {

namespace {

/// Shared minibatch loop: shuffles, gathers batches, invokes step(batch)
/// for gradient updates and evaluate(batch) for held-out loss, and returns
/// the final epoch's mean training loss. With validation_fraction > 0 the
/// loop stops once the held-out loss stops improving (early stopping).
template <typename Step, typename Evaluate>
double run_epochs(std::size_t n, const TrainConfig& config, util::Rng& rng,
                  Step&& step, Evaluate&& evaluate) {
  if (n == 0) throw std::invalid_argument("fit: empty dataset");

  std::vector<std::size_t> all = rng.permutation(n);
  std::size_t val_count = 0;
  if (config.validation_fraction > 0.0 && n >= 10) {
    val_count = static_cast<std::size_t>(
        config.validation_fraction * static_cast<double>(n));
  }
  const std::vector<std::size_t> val(all.end() - static_cast<std::ptrdiff_t>(val_count),
                                     all.end());
  std::vector<std::size_t> train(all.begin(),
                                 all.end() - static_cast<std::ptrdiff_t>(val_count));

  double last_epoch_loss = 0.0;
  double best_val = std::numeric_limits<double>::infinity();
  int stale_epochs = 0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(train);
    double loss_sum = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < train.size();
         start += static_cast<std::size_t>(config.batch_size)) {
      const std::size_t end = std::min(
          train.size(), start + static_cast<std::size_t>(config.batch_size));
      const std::span<const std::size_t> batch(&train[start], end - start);
      loss_sum += step(batch);
      ++batches;
    }
    last_epoch_loss = loss_sum / static_cast<double>(batches);
    if (!val.empty()) {
      const double val_loss = evaluate(std::span<const std::size_t>(val));
      if (val_loss < best_val - 1e-9) {
        best_val = val_loss;
        stale_epochs = 0;
      } else if (++stale_epochs >= config.patience) {
        break;  // early stop
      }
    }
  }
  return last_epoch_loss;
}

}  // namespace

void save_train_config(util::TokenWriter& out, const TrainConfig& config) {
  out << "tc " << config.epochs << ' ' << config.batch_size << ' ';
  out.hexfloat(config.learning_rate);
  out << ' ' << config.seed << ' ';
  out.hexfloat(config.validation_fraction);
  out << ' ' << config.patience << '\n';
}

TrainConfig load_train_config(util::TokenReader& in) {
  in.expect("tc", "load_train_config");
  TrainConfig config;
  config.epochs = in.i32("tc epochs");
  config.batch_size = in.i32("tc batch_size");
  config.learning_rate = in.f64("tc learning_rate");
  config.seed = in.u64("tc seed");
  config.validation_fraction = in.f64("tc validation_fraction");
  config.patience = in.i32("tc patience");
  return config;
}

Sequential make_conv_trunk(int dims, int max_order, int channels1,
                           int channels2, util::Rng& rng) {
  const int e = 2 * max_order + 1;
  Sequential net;
  if (dims == 2) {
    net.add(std::make_unique<Conv2D>(1, channels1, e, e, 3, rng));
    net.add(std::make_unique<ReLU>());
    net.add(std::make_unique<Conv2D>(channels1, channels2, e - 2, e - 2, 3, rng));
    net.add(std::make_unique<ReLU>());
  } else if (dims == 3) {
    net.add(std::make_unique<Conv3D>(1, channels1, e, e, e, 3, rng));
    net.add(std::make_unique<ReLU>());
    net.add(std::make_unique<Conv3D>(channels1, channels2, e - 2, e - 2, e - 2,
                                     3, rng));
    net.add(std::make_unique<ReLU>());
  } else {
    throw std::invalid_argument("make_conv_trunk: dims must be 2 or 3");
  }
  return net;
}

namespace {

std::size_t conv_trunk_output(int dims, int max_order, int channels2) {
  const std::size_t side = static_cast<std::size_t>(2 * max_order + 1 - 4);
  std::size_t vol = side * side;
  if (dims == 3) vol *= side;
  return vol * static_cast<std::size_t>(channels2);
}

}  // namespace

Sequential make_convnet(int dims, int max_order, int num_classes,
                        util::Rng& rng) {
  constexpr int kC1 = 8;
  constexpr int kC2 = 16;
  Sequential net = make_conv_trunk(dims, max_order, kC1, kC2, rng);
  const std::size_t flat = conv_trunk_output(dims, max_order, kC2);
  net.add(std::make_unique<Dense>(flat, 64, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Dense>(64, static_cast<std::size_t>(num_classes), rng));
  return net;
}

Sequential make_fcnet(std::size_t input_dim, int num_classes, int num_layers,
                      std::size_t width, util::Rng& rng) {
  if (num_layers < 1) throw std::invalid_argument("make_fcnet: num_layers < 1");
  Sequential net;
  std::size_t in = input_dim;
  for (int i = 0; i < num_layers; ++i) {
    net.add(std::make_unique<Dense>(in, width, rng));
    net.add(std::make_unique<ReLU>());
    in = width;
  }
  net.add(std::make_unique<Dense>(in, static_cast<std::size_t>(num_classes), rng));
  return net;
}

Sequential make_mlp(std::size_t input_dim, int hidden_layers,
                    std::size_t width, util::Rng& rng) {
  if (hidden_layers < 1) throw std::invalid_argument("make_mlp: hidden_layers < 1");
  Sequential net;
  std::size_t in = input_dim;
  for (int i = 0; i < hidden_layers; ++i) {
    net.add(std::make_unique<Dense>(in, width, rng));
    net.add(std::make_unique<ReLU>());
    in = width;
  }
  net.add(std::make_unique<Dense>(in, 1, rng));
  return net;
}

// ----- NnClassifier -----------------------------------------------------------

NnClassifier::NnClassifier(Sequential net, TrainConfig config)
    : net_(std::move(net)), config_(config) {}

double NnClassifier::fit(const Matrix& x, std::span<const int> labels) {
  if (x.rows() != labels.size()) {
    throw std::invalid_argument("NnClassifier::fit: batch mismatch");
  }
  util::Rng rng(config_.seed);
  Adam opt(config_.learning_rate);
  auto params = net_.params();
  net_.set_training(true);
  const double loss = run_epochs(
      x.rows(), config_, rng,
      [&](std::span<const std::size_t> batch) {
        const Matrix xb = x.gather_rows(batch);
        std::vector<int> yb(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) yb[i] = labels[batch[i]];
        const Matrix logits = net_.forward(xb);
        Matrix grad;
        const double batch_loss = softmax_ce_loss(logits, yb, grad);
        net_.backward(grad);
        opt.step(params);
        return batch_loss;
      },
      [&](std::span<const std::size_t> batch) {
        net_.set_training(false);
        const Matrix xb = x.gather_rows(batch);
        std::vector<int> yb(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) yb[i] = labels[batch[i]];
        Matrix grad;
        const double val_loss = softmax_ce_loss(net_.forward(xb), yb, grad);
        net_.set_training(true);
        return val_loss;
      });
  net_.set_training(false);
  return loss;
}

std::vector<int> NnClassifier::predict(const Matrix& x) {
  net_.set_training(false);
  return argmax_rows(net_.infer(x));
}

void NnClassifier::save(util::TokenWriter& out) const {
  out << "nncls\n";
  save_train_config(out, config_);
  net_.save(out);
}

NnClassifier NnClassifier::load(util::TokenReader& in,
                                std::size_t input_width) {
  in.expect("nncls", "NnClassifier::load");
  TrainConfig config = load_train_config(in);
  return NnClassifier(Sequential::load(in, input_width), config);
}

// ----- NnRegressor -----------------------------------------------------------

NnRegressor::NnRegressor(Sequential net, TrainConfig config)
    : net_(std::move(net)), config_(config) {}

double NnRegressor::fit(const Matrix& x, std::span<const float> targets) {
  if (x.rows() != targets.size()) {
    throw std::invalid_argument("NnRegressor::fit: batch mismatch");
  }
  util::Rng rng(config_.seed);
  Adam opt(config_.learning_rate);
  auto params = net_.params();
  net_.set_training(true);
  const double loss = run_epochs(
      x.rows(), config_, rng,
      [&](std::span<const std::size_t> batch) {
        const Matrix xb = x.gather_rows(batch);
        std::vector<float> yb(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) yb[i] = targets[batch[i]];
        const Matrix preds = net_.forward(xb);
        Matrix grad;
        const double batch_loss = mse_loss(preds, yb, grad);
        net_.backward(grad);
        opt.step(params);
        return batch_loss;
      },
      [&](std::span<const std::size_t> batch) {
        net_.set_training(false);
        const Matrix xb = x.gather_rows(batch);
        std::vector<float> yb(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) yb[i] = targets[batch[i]];
        Matrix grad;
        const double val_loss = mse_loss(net_.forward(xb), yb, grad);
        net_.set_training(true);
        return val_loss;
      });
  net_.set_training(false);
  return loss;
}

std::vector<double> NnRegressor::predict(const Matrix& x) {
  net_.set_training(false);
  const Matrix& preds = net_.infer(x);
  std::vector<double> out(preds.rows());
  for (std::size_t r = 0; r < preds.rows(); ++r) out[r] = preds.at(r, 0);
  return out;
}

void NnRegressor::save(util::TokenWriter& out) const {
  out << "nnreg\n";
  save_train_config(out, config_);
  net_.save(out);
}

NnRegressor NnRegressor::load(util::TokenReader& in, std::size_t input_width) {
  in.expect("nnreg", "NnRegressor::load");
  TrainConfig config = load_train_config(in);
  Sequential net = Sequential::load(in, input_width);
  if (net.output_size(input_width) != 1) {
    in.fail("NnRegressor::load: the net must output one value per row");
  }
  return NnRegressor(std::move(net), config);
}

// ----- ConvMlpRegressor -------------------------------------------------------

ConvMlpRegressor::ConvMlpRegressor(int dims, int max_order,
                                   std::size_t aux_dim, TrainConfig config)
    : config_(config) {
  util::Rng rng(config.seed);
  constexpr int kC1 = 6;
  constexpr int kC2 = 8;
  conv_branch_ = make_conv_trunk(dims, max_order, kC1, kC2, rng);
  const std::size_t flat = conv_trunk_output(dims, max_order, kC2);
  conv_branch_.add(std::make_unique<Dense>(flat, 32, rng));
  conv_branch_.add(std::make_unique<ReLU>());
  conv_out_ = 32;

  mlp_branch_.add(std::make_unique<Dense>(aux_dim, 64, rng));
  mlp_branch_.add(std::make_unique<ReLU>());
  mlp_branch_.add(std::make_unique<Dense>(64, 32, rng));
  mlp_branch_.add(std::make_unique<ReLU>());
  mlp_out_ = 32;

  head_.add(std::make_unique<Dense>(conv_out_ + mlp_out_, 64, rng));
  head_.add(std::make_unique<ReLU>());
  head_.add(std::make_unique<Dense>(64, 1, rng));
}

Matrix ConvMlpRegressor::forward(const Matrix& tensors, const Matrix& aux) {
  const Matrix za = conv_branch_.forward(tensors);
  const Matrix zb = mlp_branch_.forward(aux);
  Matrix joint(za.rows(), conv_out_ + mlp_out_);
  for (std::size_t r = 0; r < za.rows(); ++r) {
    std::copy(za.row(r).begin(), za.row(r).end(), joint.row(r).begin());
    std::copy(zb.row(r).begin(), zb.row(r).end(),
              joint.row(r).begin() + static_cast<std::ptrdiff_t>(conv_out_));
  }
  return head_.forward(joint);
}

void ConvMlpRegressor::backward(const Matrix& grad_out) {
  const Matrix grad_joint = head_.backward(grad_out);
  Matrix ga(grad_joint.rows(), conv_out_);
  Matrix gb(grad_joint.rows(), mlp_out_);
  for (std::size_t r = 0; r < grad_joint.rows(); ++r) {
    const auto row = grad_joint.row(r);
    std::copy(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(conv_out_),
              ga.row(r).begin());
    std::copy(row.begin() + static_cast<std::ptrdiff_t>(conv_out_), row.end(),
              gb.row(r).begin());
  }
  conv_branch_.backward(ga);
  mlp_branch_.backward(gb);
}

double ConvMlpRegressor::fit(const Matrix& tensors, const Matrix& aux,
                             std::span<const float> targets) {
  if (tensors.rows() != aux.rows() || tensors.rows() != targets.size()) {
    throw std::invalid_argument("ConvMlpRegressor::fit: batch mismatch");
  }
  util::Rng rng(config_.seed);
  Adam opt(config_.learning_rate);
  std::vector<ParamRef> params = conv_branch_.params();
  for (ParamRef p : mlp_branch_.params()) params.push_back(p);
  for (ParamRef p : head_.params()) params.push_back(p);
  auto train_step = [&](std::span<const std::size_t> batch) {
    const Matrix tb = tensors.gather_rows(batch);
    const Matrix ab = aux.gather_rows(batch);
    std::vector<float> yb(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) yb[i] = targets[batch[i]];
    const Matrix preds = forward(tb, ab);
    Matrix grad;
    const double loss = mse_loss(preds, yb, grad);
    backward(grad);
    opt.step(params);
    return loss;
  };
  auto validate = [&](std::span<const std::size_t> batch) {
    const Matrix tb = tensors.gather_rows(batch);
    const Matrix ab = aux.gather_rows(batch);
    std::vector<float> yb(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) yb[i] = targets[batch[i]];
    Matrix grad;
    return mse_loss(forward(tb, ab), yb, grad);
  };
  return run_epochs(tensors.rows(), config_, rng, train_step, validate);
}

std::vector<double> ConvMlpRegressor::predict(const Matrix& tensors,
                                              const Matrix& aux) {
  // Inference-only forward: both branches and the head reuse their scratch
  // activations, and `joint_` persists across calls.
  const Matrix& za = conv_branch_.infer(tensors);
  const Matrix& zb = mlp_branch_.infer(aux);
  joint_.resize(za.rows(), conv_out_ + mlp_out_);
  for (std::size_t r = 0; r < za.rows(); ++r) {
    std::copy(za.row(r).begin(), za.row(r).end(), joint_.row(r).begin());
    std::copy(zb.row(r).begin(), zb.row(r).end(),
              joint_.row(r).begin() + static_cast<std::ptrdiff_t>(conv_out_));
  }
  const Matrix& preds = head_.infer(joint_);
  std::vector<double> out(preds.rows());
  for (std::size_t r = 0; r < preds.rows(); ++r) out[r] = preds.at(r, 0);
  return out;
}

std::vector<double> ConvMlpRegressor::predict_gathered(
    const Matrix& unique_tensors, std::span<const std::size_t> tensor_row,
    const Matrix& aux) {
  if (tensor_row.size() != aux.rows()) {
    throw std::invalid_argument("predict_gathered: tensor_row/aux mismatch");
  }
  // The conv branch only sees each distinct tensor once; its per-row output
  // equals the expanded-matrix result because every layer treats rows
  // independently, so gathering rows afterwards is exact.
  const Matrix& za = conv_branch_.infer(unique_tensors);
  const Matrix& zb = mlp_branch_.infer(aux);
  joint_.resize(aux.rows(), conv_out_ + mlp_out_);
  for (std::size_t r = 0; r < aux.rows(); ++r) {
    const auto conv = za.row(tensor_row[r]);
    std::copy(conv.begin(), conv.end(), joint_.row(r).begin());
    std::copy(zb.row(r).begin(), zb.row(r).end(),
              joint_.row(r).begin() + static_cast<std::ptrdiff_t>(conv_out_));
  }
  const Matrix& preds = head_.infer(joint_);
  std::vector<double> out(preds.rows());
  for (std::size_t r = 0; r < preds.rows(); ++r) out[r] = preds.at(r, 0);
  return out;
}

void ConvMlpRegressor::save(util::TokenWriter& out) const {
  out << "convmlp " << conv_out_ << ' ' << mlp_out_ << '\n';
  save_train_config(out, config_);
  conv_branch_.save(out);
  mlp_branch_.save(out);
  head_.save(out);
}

ConvMlpRegressor ConvMlpRegressor::load(util::TokenReader& in,
                                        std::size_t tensor_width,
                                        std::size_t aux_width) {
  in.expect("convmlp", "ConvMlpRegressor::load");
  ConvMlpRegressor model;
  model.conv_out_ = in.size("convmlp conv_out");
  model.mlp_out_ = in.size("convmlp mlp_out");
  if (model.conv_out_ == 0 || model.mlp_out_ == 0) {
    in.fail("ConvMlpRegressor::load: empty branch width");
  }
  model.config_ = load_train_config(in);
  // Each branch must output the width the joint row reserves for it.
  const auto load_branch = [&](std::size_t input_width,
                               std::size_t output_width, const char* what) {
    Sequential net = Sequential::load(in, input_width);
    if (net.output_size(input_width) != output_width) {
      in.fail(std::string("ConvMlpRegressor::load: the ") + what +
              " outputs " + std::to_string(net.output_size(input_width)) +
              " values per row, not " + std::to_string(output_width));
    }
    return net;
  };
  model.conv_branch_ =
      load_branch(tensor_width, model.conv_out_, "conv branch");
  model.mlp_branch_ = load_branch(aux_width, model.mlp_out_, "MLP branch");
  model.head_ = load_branch(model.conv_out_ + model.mlp_out_, 1, "head");
  return model;
}

}  // namespace smart::ml
