// StencilMart: the end-user facade of the framework (paper Fig. 5, used the
// way the paper's scenarios describe).
//
//   smart::core::StencilMart mart(config);
//   mart.train();                               // profile + fit all models
//   auto advice = mart.advise(my_pattern, "V100");
//   // -> which merged OC group to tune, its representative OC, a concrete
//   //    parameter setting, and the predicted execution time
//   auto rental = mart.recommend_gpu(my_pattern);
//   // -> best-performance GPU and most cost-efficient rental
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/classification.hpp"
#include "core/oc_merger.hpp"
#include "core/profile_dataset.hpp"
#include "core/regression.hpp"
#include "ml/gbdt.hpp"

namespace smart::core {

struct MartConfig {
  ProfileConfig profile{};
  RegressionConfig regression{};
  RegressorKind regressor = RegressorKind::kGbr;  // fastest to train
  int tuning_samples = 24;  // random-search budget used by advise()
};

struct OcAdvice {
  int group = -1;
  std::string group_name;
  gpusim::OptCombination oc;             // the group's representative
  gpusim::ParamSetting setting;          // tuned under the simulator
  double expected_time_ms = 0.0;         // simulated time of that setting
  double predicted_time_ms = 0.0;        // the regression model's estimate
};

struct GpuRecommendation {
  std::string fastest_gpu;
  double fastest_time_ms = 0.0;
  std::string cheapest_gpu;              // time x rental $/hr minimizer
  double cheapest_cost_score = 0.0;
};

/// One query of an advise_batch() call: a stencil on a named GPU, with or
/// without the cross-GPU rental recommendation.
struct AdviseBatchItem {
  stencil::StencilPattern pattern{2, {}};
  std::string gpu = "V100";
  bool recommend = true;
};

/// Per-item outcome of advise_batch(). An invalid item (unknown GPU, wrong
/// dimensionality, no runnable variant) carries the diagnostic in `error`
/// instead of failing the whole batch — exactly the message the equivalent
/// single advise()/recommend_gpu() call would have thrown.
struct AdviseBatchResult {
  OcAdvice advice{};
  GpuRecommendation rec{};  // filled only when the item asked for it
  std::string error;
  bool ok() const noexcept { return error.empty(); }
};

class StencilMart {
 public:
  explicit StencilMart(MartConfig config);

  /// Profiles the training corpus and fits the OC merger, one per-GPU
  /// GBDT classifier, and the cross-architecture regressor.
  void train();
  /// Trains from an already-profiled corpus (e.g. load_dataset output):
  /// skips profiling entirely and fits all models on the corpus's measured
  /// times. The corpus's ProfileConfig replaces config.profile so advice
  /// uses the geometry and simulator settings the corpus was built with.
  /// The mart keeps the corpus: pass an rvalue to move it in, an lvalue to
  /// keep a copy of your own.
  void train(ProfileDataset dataset);
  bool trained() const noexcept { return trained_; }

  /// Best-OC advice for a (possibly unseen) stencil on a named GPU: a
  /// one-item advise_batch. Throws std::logic_error before train(),
  /// std::invalid_argument when the pattern's dimensionality differs from
  /// the corpus, std::out_of_range for an unknown GPU, and
  /// std::runtime_error with the item's error otherwise.
  OcAdvice advise(const stencil::StencilPattern& pattern,
                  const std::string& gpu_name) const;

  /// Cross-architecture rental recommendation for a stencil: per GPU, the
  /// model predicts the time of the advised variant; cost efficiency
  /// weighs it by rental price (GPUs without a price are skipped there).
  /// A one-item advise_batch, throwing as advise() does.
  GpuRecommendation recommend_gpu(const stencil::StencilPattern& pattern) const;

  /// Batched advise + recommend, the one implementation behind advise(),
  /// recommend_gpu() and the serve daemon: classification and tuning run
  /// once per distinct (stencil, GPU) variant across the whole batch
  /// (classification in one pass on the calling thread; tuning parallel on
  /// the task pool, or on the calling thread when the batch has fewer than
  /// 16 distinct variants; timing phases advisor.classify and advisor.tune
  /// inside advisor.batch_tune), and every regression estimate of the
  /// batch is funnelled through ONE predict_variants call. Each result is
  /// a function of its item alone — batching and within-batch
  /// deduplication change cost, never values — which is the determinism
  /// contract the serve daemon's admission batcher is built on. Item
  /// patterns must stay alive for the duration of the call.
  std::vector<AdviseBatchResult> advise_batch(
      std::span<const AdviseBatchItem> items) const;

  const ProfileDataset& dataset() const { return *dataset_; }
  const OcMerger& merger() const { return merger_; }
  const MartConfig& config() const noexcept { return config_; }

 private:
  /// Why a query cannot be answered, found before any model work.
  enum class QueryFault { kNone, kDims, kUnknownGpu };

  /// The validity check every query passes, shared by advise_batch (which
  /// reports a fault as the item's error) and advise()/recommend_gpu()
  /// (which throw it): the pattern's dimensionality first, then the GPU's
  /// name. On kNone, `g` is the GPU's index.
  QueryFault check_query(const AdviseBatchItem& item, std::size_t& g) const;
  /// A fault's diagnostic: advise_batch's item error, and the message of
  /// the exception advise()/recommend_gpu() throw.
  static std::string fault_message(QueryFault fault, const std::string& gpu);
  /// `item` as a one-item advise_batch, its faults and its error thrown.
  AdviseBatchResult advise_one(const AdviseBatchItem& item) const;

  /// Fits the merger, then the per-GPU classifiers and the regressor side
  /// by side on *dataset_ (timing phase mart.fit_models).
  void fit_models();

  // Model artifact (de)serialization (core/serialize) assembles/injects the
  // trained state directly.
  friend class ModelCodec;

  /// The pattern's classifier row (Table II features narrowed to float,
  /// feature_width() of them), and GPU g's classification of such a row:
  /// the group, its name and its representative OC.
  std::size_t feature_width() const;
  void feature_row(const stencil::StencilPattern& pattern, float* out) const;
  OcAdvice classify_row(std::span<const float> row, std::size_t g) const;
  /// Tunes the advised OC on GPU g (setting and expected_time_ms), falling
  /// back to the group's other members when the representative never runs.
  void tune_variant(const stencil::StencilPattern& pattern, std::size_t g,
                    OcAdvice& advice) const;

  MartConfig config_;
  bool trained_ = false;
  std::unique_ptr<ProfileDataset> dataset_;
  OcMerger merger_;
  std::vector<ml::GbdtClassifier> classifiers_;  // one per GPU
  std::unique_ptr<RegressionTask> regression_;
};

}  // namespace smart::core
