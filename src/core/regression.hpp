// Cross-architecture performance prediction (paper Sec. IV-E, Figs. 12-15).
//
// Each regression instance is one (stencil, OC, parameter setting) pair on
// one GPU; the input features concatenate the stencil's Table II feature
// vector (or its binary tensor for ConvMLP), the OC flags, the log2-scaled
// parameter setting, and the GPU hardware characteristics (memory,
// bandwidth, SMs, TFLOPS). The target is log2(time_ms), turned back into
// milliseconds for MAPE so errors are relative, like the paper's metric.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/encoding_cache.hpp"
#include "core/profile_dataset.hpp"
#include "ml/gbdt.hpp"
#include "ml/matrix.hpp"
#include "ml/models.hpp"

namespace smart::core {

enum class RegressorKind { kMlp, kConvMlp, kGbr };

std::string to_string(RegressorKind kind);
/// Inverse of to_string; throws std::runtime_error on an unknown name.
RegressorKind regressor_kind_from_string(const std::string& name);

struct RegressionConfig {
  int folds = 5;
  int epochs = 30;
  int batch_size = 128;        // paper: 256; smaller batches converge faster
                               // at our reduced dataset scale
  double learning_rate = 1e-3; // paper: 0.0005 at 100 epochs
  int mlp_hidden_layers = 5;
  std::size_t mlp_width = 128;
  /// Hard cap on instances used for training/evaluation (subsampled
  /// deterministically) so the NN benches stay fast at small scale.
  std::size_t instance_cap = 20000;
  std::uint64_t seed = 4242;
};

/// One measured (stencil, OC, setting, GPU) sample.
struct RegressionInstance {
  std::size_t stencil = 0;
  std::size_t oc = 0;
  std::size_t setting = 0;
  std::size_t gpu = 0;
  double time_ms = 0.0;
};

struct RegressionCvResult {
  double mape_overall = 0.0;
  std::vector<double> mape_per_gpu;  // aligned with dataset.gpus
};

/// Dense instances x GPUs prediction matrix produced by
/// RegressionTask::predict_table (double precision so every cell is
/// bit-identical to the corresponding per-row predict() call).
struct PredictionTable {
  std::vector<std::size_t> instance_indices;  // row order
  std::vector<std::size_t> gpu_indices;       // column order
  std::vector<double> time_ms;                // row-major, rows x cols

  std::size_t rows() const noexcept { return instance_indices.size(); }
  std::size_t cols() const noexcept { return gpu_indices.size(); }
  double at(std::size_t row, std::size_t col) const {
    return time_ms[row * gpu_indices.size() + col];
  }
};

/// One out-of-dataset prediction request for predict_variants(): an
/// arbitrary (pattern, problem, OC, setting, GPU) variant. `features` is
/// the pattern's Table II row narrowed to float, the classifier row
/// (extract_features(*pattern, max_order).to_vector() cast element-wise),
/// which the caller has already built. `pattern` and `features` must
/// outlive the call; ConvMLP encodes each distinct pattern pointer's
/// tensor once.
struct VariantQuery {
  const stencil::StencilPattern* pattern = nullptr;
  std::span<const float> features;
  gpusim::ProblemSize problem{};
  std::size_t oc = 0;
  gpusim::ParamSetting setting{};
  std::size_t gpu = 0;
};

class RegressionTask {
 public:
  RegressionTask(const ProfileDataset& dataset, RegressionConfig config);

  /// k-fold cross-validated test MAPE (Fig. 12).
  RegressionCvResult cross_validate(RegressorKind kind);

  /// Trains on every instance (for the GPU advisor / case study).
  void fit_full(RegressorKind kind);

  /// Predicted time (ms) of instance `idx`'s (stencil, OC, setting) on an
  /// arbitrary GPU of the dataset. Requires fit_full() first. Delegates to
  /// the batched path, so it is bit-identical to predict_batch/predict_table.
  double predict(std::size_t idx, std::size_t gpu) const;

  /// Batched form of predict(): one model invocation per feature block
  /// instead of one per instance. out[i] corresponds to (idxs[i], gpu) and
  /// is bit-identical to predict(idxs[i], gpu). Requires fit_full().
  std::vector<double> predict_batch(std::span<const std::size_t> idxs,
                                    std::size_t gpu) const;

  /// Fills an instances x GPUs prediction matrix in one batched pass (the
  /// GPU advisor's sweep). Every cell is bit-identical to the per-row
  /// predict() call. Requires fit_full().
  PredictionTable predict_table(std::span<const std::size_t> idxs,
                                std::span<const std::size_t> gpus) const;
  /// All instances x all dataset GPUs.
  PredictionTable predict_table() const;

  const std::vector<RegressionInstance>& instances() const noexcept {
    return instances_;
  }
  const ProfileDataset& dataset() const noexcept { return *dataset_; }
  const EncodingCache& encoding_cache() const noexcept { return cache_; }

  /// First instance index of each distinct (stencil, OC, setting) triple,
  /// in instance order (the grouping is validated at construction).
  std::vector<std::size_t> triple_starts() const;

  /// Measured time of instance idx's triple on `gpu` (NaN if crashed).
  double measured(std::size_t idx, std::size_t gpu) const;

  /// Predicted time (ms) per variant that need not be in the dataset —
  /// the entry point the StencilMart facade uses for unseen stencils.
  /// out[i] is bit-identical to a one-query call on queries[i]. Requires
  /// fit_full(); throws std::invalid_argument when a query's features do
  /// not have the dataset's Table II width.
  std::vector<double> predict_variants(
      std::span<const VariantQuery> queries) const;

  /// Persists the fitted state (regressor kind, aux scaler, model weights).
  /// Requires fit_full(); the loaded task predicts bit-identically.
  void save_fitted(util::TokenWriter& out) const;
  /// Injects fitted state written by save_fitted() into this task. The task
  /// may be built over any dataset sharing the training corpus's dims,
  /// max_order and GPU table — including a zero-stencil serving dataset —
  /// since variant prediction only reads OC flags, GPU features and the
  /// config geometry. Throws std::runtime_error when the model's feature
  /// width disagrees with this dataset's encoding (dims/max_order mismatch),
  /// including a GBR split on a feature past the encoded row.
  void load_fitted(util::TokenReader& in);

 private:
  ml::Matrix build_aux_features(const std::vector<RegressionInstance>& rows,
                                bool include_stencil_features) const;
  ml::Matrix build_tensor_features(
      const std::vector<RegressionInstance>& rows) const;
  std::vector<float> build_targets(
      const std::vector<RegressionInstance>& rows) const;

  /// Throws std::logic_error unless instances_ is triple-major: (stencil,
  /// OC, setting) lexicographically non-decreasing, GPU strictly increasing
  /// within a triple. GpuAdvisor and triple_starts() rely on this.
  void validate_instance_grouping() const;

  /// Runs the fitted model over one pre-assembled feature block and returns
  /// log2(time_ms) per row. ConvMLP reads `unique_tensors` (each distinct
  /// pattern tensor once) indexed per aux row by `tensor_row`; the other
  /// kinds ignore both.
  std::vector<double> predict_block_log(
      const ml::Matrix& aux, const ml::Matrix* unique_tensors,
      std::span<const std::size_t> tensor_row) const;
  /// Shared batched core: pairs[i] = (instance index, GPU index);
  /// out_ms[i] = predicted milliseconds.
  void predict_pairs(std::span<const std::pair<std::size_t, std::size_t>> pairs,
                     std::span<double> out_ms) const;

  const ProfileDataset* dataset_;
  RegressionConfig config_;
  std::vector<RegressionInstance> instances_;
  EncodingCache cache_;

  // Fitted state (fit_full).
  RegressorKind fitted_kind_ = RegressorKind::kMlp;
  bool fitted_ = false;
  std::unique_ptr<ml::GbdtRegressor> gbr_;
  std::unique_ptr<ml::NnRegressor> mlp_;
  std::unique_ptr<ml::ConvMlpRegressor> convmlp_;
  ml::MaxAbsScaler aux_scaler_;
  /// Scaled NN input of the block predict_block_log is running (mutable
  /// scratch under logically-const predict paths). Safe because the batched
  /// entry points iterate blocks serially, and concurrent predict calls on
  /// one task were never supported — the NN predict itself mutates per-net
  /// scratch buffers.
  mutable ml::Matrix scaled_scratch_;
};

}  // namespace smart::core
