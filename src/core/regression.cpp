#include "core/regression.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>

#include "gpusim/opt.hpp"
#include "ml/dataset.hpp"
#include "stencil/tensor_repr.hpp"
#include "util/stats.hpp"
#include "util/task_pool.hpp"
#include "util/timing.hpp"

namespace smart::core {

namespace {

/// Rows per batched-inference block: bounds the transient feature/tensor
/// matrices (a ConvMLP tensor row is (2N+1)^d floats) while keeping model
/// calls large enough to amortize their fixed cost.
constexpr std::size_t kPredictRows = 512;

}  // namespace

std::string to_string(RegressorKind kind) {
  switch (kind) {
    case RegressorKind::kMlp: return "MLP";
    case RegressorKind::kConvMlp: return "ConvMLP";
    case RegressorKind::kGbr: return "GBRegressor";
  }
  return "?";
}

RegressorKind regressor_kind_from_string(const std::string& name) {
  if (name == "MLP") return RegressorKind::kMlp;
  if (name == "ConvMLP") return RegressorKind::kConvMlp;
  if (name == "GBRegressor") return RegressorKind::kGbr;
  throw std::runtime_error("unknown regressor kind '" + name + "'");
}

RegressionTask::RegressionTask(const ProfileDataset& dataset,
                               RegressionConfig config)
    : dataset_(&dataset), config_(config), cache_(dataset) {
  for (std::size_t s = 0; s < dataset.stencils.size(); ++s) {
    for (std::size_t oc = 0; oc < ProfileDataset::num_ocs(); ++oc) {
      for (std::size_t k = 0; k < dataset.settings[s][oc].size(); ++k) {
        for (std::size_t g = 0; g < dataset.num_gpus(); ++g) {
          const double t = dataset.times[s][g][oc][k];
          if (std::isnan(t)) continue;
          instances_.push_back({s, oc, k, g, t});
        }
      }
    }
  }
  if (instances_.size() > config_.instance_cap) {
    util::Rng rng(config_.seed);
    auto keep =
        rng.sample_without_replacement(instances_.size(), config_.instance_cap);
    std::sort(keep.begin(), keep.end());  // keep triple-major ordering
    std::vector<RegressionInstance> subset;
    subset.reserve(keep.size());
    for (std::size_t i : keep) subset.push_back(instances_[i]);
    instances_ = std::move(subset);
  }
  validate_instance_grouping();
}

void RegressionTask::validate_instance_grouping() const {
  for (std::size_t i = 1; i < instances_.size(); ++i) {
    const RegressionInstance& p = instances_[i - 1];
    const RegressionInstance& c = instances_[i];
    const auto pt = std::tie(p.stencil, p.oc, p.setting);
    const auto ct = std::tie(c.stencil, c.oc, c.setting);
    if (ct < pt || (ct == pt && c.gpu <= p.gpu)) {
      throw std::logic_error(
          "RegressionTask: instances not grouped by (stencil, OC, setting) "
          "with strictly increasing GPU — GpuAdvisor and triple_starts() "
          "rely on triple-major ordering");
    }
  }
}

std::vector<std::size_t> RegressionTask::triple_starts() const {
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    if (i == 0 || instances_[i].stencil != instances_[i - 1].stencil ||
        instances_[i].oc != instances_[i - 1].oc ||
        instances_[i].setting != instances_[i - 1].setting) {
      starts.push_back(i);
    }
  }
  return starts;
}

double RegressionTask::measured(std::size_t idx, std::size_t gpu) const {
  const RegressionInstance& ins = instances_[idx];
  return dataset_->times[ins.stencil][gpu][ins.oc][ins.setting];
}

ml::Matrix RegressionTask::build_aux_features(
    const std::vector<RegressionInstance>& rows,
    bool include_stencil_features) const {
  // Rows assemble from cached segments (bit-identical to feature_row);
  // assemble_aux_rows writes disjoint matrix rows in parallel, so the fill
  // is thread-count invariant.
  std::vector<AuxRowKey> keys;
  keys.reserve(rows.size());
  for (const RegressionInstance& ins : rows) {
    keys.push_back({ins.stencil, ins.oc, ins.setting, ins.gpu});
  }
  ml::Matrix out;
  cache_.assemble_aux_rows(out, keys, include_stencil_features);
  return out;
}

std::vector<double> RegressionTask::predict_variants(
    std::span<const VariantQuery> queries) const {
  if (!fitted_) throw std::logic_error("predict_variants before fit_full");
  const util::PhaseTimer timer("infer.predict_batch", queries.size());
  const bool include_sf = fitted_kind_ != RegressorKind::kConvMlp;
  const bool want_tensor = fitted_kind_ == RegressorKind::kConvMlp;
  const std::size_t dim = cache_.aux_dim(include_sf);

  // ConvMLP's per-call tensor memo: a one-pattern sweep over GPUs/settings
  // (the facade's recommend fold) builds the stencil's tensor once, not
  // once per query.
  struct PatternTensor {
    const stencil::StencilPattern* pattern = nullptr;
    std::vector<float> tensor;
  };
  std::vector<PatternTensor> memo;
  auto encode = [&](const stencil::StencilPattern* p) -> std::size_t {
    for (std::size_t m = 0; m < memo.size(); ++m) {
      if (memo[m].pattern == p) return m;
    }
    memo.push_back(
        {p, stencil::PatternTensor(*p, dataset_->config.max_order).to_floats()});
    return memo.size() - 1;
  };

  std::vector<double> out(queries.size());
  ml::Matrix aux;
  ml::Matrix tensors;
  // memo index -> block-local tensor row (-1 = not yet in this block).
  std::vector<int> memo_slot;
  std::vector<std::size_t> tensor_row;
  for (std::size_t begin = 0; begin < queries.size(); begin += kPredictRows) {
    const std::size_t n = std::min(queries.size() - begin, kPredictRows);
    aux.resize(n, dim);
    if (want_tensor) tensor_row.resize(n);
    std::vector<std::size_t> uniq;  // memo indices, first-appearance order
    for (std::size_t i = 0; i < n; ++i) {
      const VariantQuery& q = queries[begin + i];
      float* dst = aux.row(i).data();
      if (include_sf) {
        if (q.features.size() != cache_.stencil_dim()) {
          throw std::invalid_argument(
              "predict_variants: query features are not the Table II row");
        }
        dst = std::copy(q.features.begin(), q.features.end(), dst);
      }
      const auto of = cache_.oc_flags(q.oc);
      dst = std::copy(of.begin(), of.end(), dst);
      for (double v : q.setting.feature_array()) {
        *dst++ = static_cast<float>(v);
      }
      const auto gf = cache_.gpu_features(q.gpu);
      dst = std::copy(gf.begin(), gf.end(), dst);
      for (double v : q.problem.feature_array()) {
        *dst++ = static_cast<float>(v);
      }
      if (want_tensor) {
        const std::size_t mi = encode(q.pattern);
        memo_slot.resize(memo.size(), -1);
        if (memo_slot[mi] < 0) {
          memo_slot[mi] = static_cast<int>(uniq.size());
          uniq.push_back(mi);
        }
        tensor_row[i] = static_cast<std::size_t>(memo_slot[mi]);
      }
    }
    if (want_tensor) {
      tensors.resize(uniq.size(), cache_.tensor_dim());
      for (std::size_t u = 0; u < uniq.size(); ++u) {
        const auto& t = memo[uniq[u]].tensor;
        std::copy(t.begin(), t.end(), tensors.row(u).begin());
      }
      for (const std::size_t mi : uniq) memo_slot[mi] = -1;
    }
    const std::vector<double> preds =
        predict_block_log(aux, &tensors, tensor_row);
    for (std::size_t i = 0; i < n; ++i) out[begin + i] = std::exp2(preds[i]);
  }
  return out;
}

ml::Matrix RegressionTask::build_tensor_features(
    const std::vector<RegressionInstance>& rows) const {
  ml::Matrix out(rows.size(), cache_.tensor_dim());
  util::parallel_for(rows.size(), [&](std::size_t i) {
    const auto t = cache_.tensor(rows[i].stencil);
    std::copy(t.begin(), t.end(), out.row(i).begin());
  });
  return out;
}

std::vector<float> RegressionTask::build_targets(
    const std::vector<RegressionInstance>& rows) const {
  std::vector<float> out;
  out.reserve(rows.size());
  for (const RegressionInstance& ins : rows) {
    out.push_back(static_cast<float>(std::log2(ins.time_ms)));
  }
  return out;
}

RegressionCvResult RegressionTask::cross_validate(RegressorKind kind) {
  if (instances_.size() < static_cast<std::size_t>(config_.folds)) {
    throw std::invalid_argument("RegressionTask: too few instances");
  }
  util::Rng rng(config_.seed + static_cast<std::uint64_t>(kind));
  const auto folds = ml::kfold_splits(instances_.size(), config_.folds, rng);

  std::vector<std::vector<double>> truth_per_gpu(dataset_->num_gpus());
  std::vector<std::vector<double>> pred_per_gpu(dataset_->num_gpus());
  std::vector<double> truth_all;
  std::vector<double> pred_all;

  for (const auto& fold : folds) {
    std::vector<RegressionInstance> train_rows;
    std::vector<RegressionInstance> test_rows;
    for (std::size_t i : fold.train_indices) train_rows.push_back(instances_[i]);
    for (std::size_t i : fold.test_indices) test_rows.push_back(instances_[i]);

    const std::vector<float> y_train = build_targets(train_rows);
    std::vector<double> preds_log;

    if (kind == RegressorKind::kGbr) {
      const ml::Matrix x_train = build_aux_features(train_rows, true);
      const ml::Matrix x_test = build_aux_features(test_rows, true);
      ml::GbdtParams params;
      params.seed = config_.seed;
      ml::GbdtRegressor model(params);
      model.fit(x_train, y_train);
      preds_log = model.predict(x_test);
    } else if (kind == RegressorKind::kMlp) {
      ml::MaxAbsScaler scaler;
      const ml::Matrix x_train =
          scaler.fit_transform(build_aux_features(train_rows, true));
      const ml::Matrix x_test =
          scaler.transform(build_aux_features(test_rows, true));
      util::Rng net_rng(config_.seed * 13 + 1);
      ml::TrainConfig tc{config_.epochs, config_.batch_size,
                         config_.learning_rate, config_.seed};
      ml::NnRegressor model(
          ml::make_mlp(x_train.cols(), config_.mlp_hidden_layers,
                       config_.mlp_width, net_rng),
          tc);
      model.fit(x_train, y_train);
      preds_log = model.predict(x_test);
    } else {
      ml::MaxAbsScaler scaler;
      const ml::Matrix aux_train =
          scaler.fit_transform(build_aux_features(train_rows, false));
      const ml::Matrix aux_test =
          scaler.transform(build_aux_features(test_rows, false));
      const ml::Matrix t_train = build_tensor_features(train_rows);
      const ml::Matrix t_test = build_tensor_features(test_rows);
      ml::TrainConfig tc{config_.epochs, config_.batch_size,
                         config_.learning_rate, config_.seed};
      ml::ConvMlpRegressor model(dataset_->config.dims,
                                 dataset_->config.max_order, aux_train.cols(),
                                 tc);
      model.fit(t_train, aux_train, y_train);
      preds_log = model.predict(t_test, aux_test);
    }

    for (std::size_t i = 0; i < test_rows.size(); ++i) {
      const double truth = test_rows[i].time_ms;
      const double pred = std::exp2(preds_log[i]);
      truth_all.push_back(truth);
      pred_all.push_back(pred);
      truth_per_gpu[test_rows[i].gpu].push_back(truth);
      pred_per_gpu[test_rows[i].gpu].push_back(pred);
    }
  }

  RegressionCvResult result;
  result.mape_overall = util::mape(truth_all, pred_all);
  result.mape_per_gpu.resize(dataset_->num_gpus());
  for (std::size_t g = 0; g < dataset_->num_gpus(); ++g) {
    result.mape_per_gpu[g] = util::mape(truth_per_gpu[g], pred_per_gpu[g]);
  }
  return result;
}

void RegressionTask::fit_full(RegressorKind kind) {
  const std::vector<float> y = build_targets(instances_);
  fitted_kind_ = kind;
  if (kind == RegressorKind::kGbr) {
    const ml::Matrix x = build_aux_features(instances_, true);
    ml::GbdtParams params;
    params.seed = config_.seed;
    gbr_ = std::make_unique<ml::GbdtRegressor>(params);
    gbr_->fit(x, y);
  } else if (kind == RegressorKind::kMlp) {
    const ml::Matrix x =
        aux_scaler_.fit_transform(build_aux_features(instances_, true));
    util::Rng net_rng(config_.seed * 13 + 1);
    ml::TrainConfig tc{config_.epochs, config_.batch_size,
                       config_.learning_rate, config_.seed};
    mlp_ = std::make_unique<ml::NnRegressor>(
        ml::make_mlp(x.cols(), config_.mlp_hidden_layers, config_.mlp_width,
                     net_rng),
        tc);
    mlp_->fit(x, y);
  } else {
    const ml::Matrix aux =
        aux_scaler_.fit_transform(build_aux_features(instances_, false));
    const ml::Matrix tensors = build_tensor_features(instances_);
    ml::TrainConfig tc{config_.epochs, config_.batch_size,
                       config_.learning_rate, config_.seed};
    convmlp_ = std::make_unique<ml::ConvMlpRegressor>(
        dataset_->config.dims, dataset_->config.max_order, aux.cols(), tc);
    convmlp_->fit(tensors, aux, y);
  }
  fitted_ = true;
}

void RegressionTask::save_fitted(util::TokenWriter& out) const {
  if (!fitted_) {
    throw std::logic_error("RegressionTask::save_fitted before fit_full");
  }
  out << "fitted " << to_string(fitted_kind_) << '\n';
  aux_scaler_.save(out);
  if (fitted_kind_ == RegressorKind::kGbr) {
    gbr_->save(out);
  } else if (fitted_kind_ == RegressorKind::kMlp) {
    mlp_->save(out);
  } else {
    convmlp_->save(out);
  }
}

void RegressionTask::load_fitted(util::TokenReader& in) {
  in.expect("fitted", "RegressionTask::load_fitted");
  const RegressorKind kind =
      regressor_kind_from_string(std::string(in.token("regressor kind")));
  ml::MaxAbsScaler scaler = ml::MaxAbsScaler::load(in);
  // The NN kinds scale their inputs, so the scaler width is the model's
  // feature width — compare it against this dataset's encoding. (GBR
  // consumes raw features and saves an unfitted, zero-width scaler.)
  if (!scaler.scales().empty()) {
    const bool include_sf = kind != RegressorKind::kConvMlp;
    if (scaler.scales().size() != cache_.aux_dim(include_sf)) {
      in.fail(
          "RegressionTask::load_fitted: feature width mismatch — the model "
          "was trained under a different dims/max_order geometry");
    }
  }
  gbr_.reset();
  mlp_.reset();
  convmlp_.reset();
  if (kind == RegressorKind::kGbr) {
    gbr_ = std::make_unique<ml::GbdtRegressor>(
        ml::GbdtRegressor::load(in, cache_.aux_dim(true)));
  } else if (kind == RegressorKind::kMlp) {
    mlp_ = std::make_unique<ml::NnRegressor>(
        ml::NnRegressor::load(in, cache_.aux_dim(true)));
  } else {
    convmlp_ = std::make_unique<ml::ConvMlpRegressor>(
        ml::ConvMlpRegressor::load(in, cache_.tensor_dim(),
                                   cache_.aux_dim(false)));
  }
  aux_scaler_ = std::move(scaler);
  fitted_kind_ = kind;
  fitted_ = true;
}

std::vector<double> RegressionTask::predict_block_log(
    const ml::Matrix& aux, const ml::Matrix* unique_tensors,
    std::span<const std::size_t> tensor_row) const {
  if (fitted_kind_ == RegressorKind::kGbr) {
    // GBR consumes raw (unscaled) features, matching fit_full.
    return gbr_->predict(aux);
  }
  // The NN kinds scale into a reused scratch matrix: the batched sweeps
  // call this once per 512-row block, and the allocating transform()
  // dominated small-block latency.
  aux_scaler_.transform_into(aux, scaled_scratch_);
  if (fitted_kind_ == RegressorKind::kMlp) {
    return mlp_->predict(scaled_scratch_);
  }
  return convmlp_->predict_gathered(*unique_tensors, tensor_row,
                                    scaled_scratch_);
}

void RegressionTask::predict_pairs(
    std::span<const std::pair<std::size_t, std::size_t>> pairs,
    std::span<double> out_ms) const {
  if (!fitted_) throw std::logic_error("RegressionTask::predict before fit_full");
  const util::PhaseTimer timer("infer.predict_batch", pairs.size());
  const bool include_sf = fitted_kind_ != RegressorKind::kConvMlp;
  ml::Matrix aux;
  ml::Matrix tensors;
  std::vector<AuxRowKey> keys;
  // stencil -> block-local tensor row; reset (for touched entries only)
  // after each block.
  std::vector<int> stencil_slot;
  if (fitted_kind_ == RegressorKind::kConvMlp) {
    stencil_slot.assign(cache_.num_stencils(), -1);
  }
  std::vector<std::size_t> tensor_row;
  for (std::size_t begin = 0; begin < pairs.size(); begin += kPredictRows) {
    const std::size_t n = std::min(pairs.size() - begin, kPredictRows);
    keys.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& [idx, gpu] = pairs[begin + i];
      const RegressionInstance& ins = instances_[idx];
      keys[i] = {ins.stencil, ins.oc, ins.setting, gpu};
    }
    cache_.assemble_aux_rows(aux, keys, include_sf);
    if (fitted_kind_ == RegressorKind::kConvMlp) {
      // An advisor sweep repeats each stencil across many OC/setting/GPU
      // rows: the conv branch only needs each distinct tensor once.
      tensor_row.resize(n);
      std::vector<std::size_t> uniq;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t s = instances_[pairs[begin + i].first].stencil;
        if (stencil_slot[s] < 0) {
          stencil_slot[s] = static_cast<int>(uniq.size());
          uniq.push_back(s);
        }
        tensor_row[i] = static_cast<std::size_t>(stencil_slot[s]);
      }
      tensors.resize(uniq.size(), cache_.tensor_dim());
      util::parallel_for(uniq.size(), [&](std::size_t u) {
        const auto t = cache_.tensor(uniq[u]);
        std::copy(t.begin(), t.end(), tensors.row(u).begin());
      });
      for (const std::size_t s : uniq) stencil_slot[s] = -1;
    }
    const std::vector<double> preds =
        predict_block_log(aux, &tensors, tensor_row);
    for (std::size_t i = 0; i < n; ++i) out_ms[begin + i] = std::exp2(preds[i]);
  }
}

double RegressionTask::predict(std::size_t idx, std::size_t gpu) const {
  const std::pair<std::size_t, std::size_t> pair{idx, gpu};
  double out = 0.0;
  predict_pairs({&pair, 1}, {&out, 1});
  return out;
}

std::vector<double> RegressionTask::predict_batch(
    std::span<const std::size_t> idxs, std::size_t gpu) const {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(idxs.size());
  for (std::size_t idx : idxs) pairs.emplace_back(idx, gpu);
  std::vector<double> out(idxs.size());
  predict_pairs(pairs, out);
  return out;
}

PredictionTable RegressionTask::predict_table(
    std::span<const std::size_t> idxs, std::span<const std::size_t> gpus) const {
  PredictionTable table;
  table.instance_indices.assign(idxs.begin(), idxs.end());
  table.gpu_indices.assign(gpus.begin(), gpus.end());
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(idxs.size() * gpus.size());
  for (std::size_t idx : idxs) {
    for (std::size_t g : gpus) pairs.emplace_back(idx, g);
  }
  table.time_ms.resize(pairs.size());
  predict_pairs(pairs, table.time_ms);
  return table;
}

PredictionTable RegressionTask::predict_table() const {
  std::vector<std::size_t> idxs(instances_.size());
  for (std::size_t i = 0; i < idxs.size(); ++i) idxs[i] = i;
  std::vector<std::size_t> gpus(dataset_->num_gpus());
  for (std::size_t g = 0; g < gpus.size(); ++g) gpus[g] = g;
  return predict_table(idxs, gpus);
}

}  // namespace smart::core
