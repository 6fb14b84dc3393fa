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

#include <iosfwd>
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

  /// Best-OC advice for a (possibly unseen) stencil on a named GPU.
  OcAdvice advise(const stencil::StencilPattern& pattern,
                  const std::string& gpu_name) const;

  /// Cross-architecture rental recommendation for a stencil: per GPU, the
  /// model predicts the time of the advised variant; cost efficiency
  /// weighs it by rental price (GPUs without a price are skipped there).
  GpuRecommendation recommend_gpu(const stencil::StencilPattern& pattern) const;

  /// Batched advise + recommend: classification and tuning run once per
  /// distinct (stencil, GPU) variant across the whole batch (classification
  /// in one pass on the calling thread, tuning parallel on the task pool;
  /// timing phases advisor.classify and advisor.tune inside
  /// advisor.batch_tune), and every regression estimate of the batch is
  /// funnelled through ONE predict_variants call. Each result is
  /// bit-identical to the per-item advise()/recommend_gpu() pair — batching
  /// and within-batch deduplication change cost, never values — which is
  /// the determinism contract the serve daemon's admission batcher is built
  /// on. Item patterns must stay alive for the duration of the call.
  std::vector<AdviseBatchResult> advise_batch(
      std::span<const AdviseBatchItem> items) const;

  const ProfileDataset& dataset() const { return *dataset_; }
  const OcMerger& merger() const { return merger_; }
  const MartConfig& config() const noexcept { return config_; }

 private:
  std::size_t gpu_index(const std::string& name) const;

  /// Fits the merger, then the per-GPU classifiers and the regressor side
  /// by side on *dataset_ (timing phase mart.fit_models).
  void fit_models();

  // Model artifact (de)serialization (core/serialize) assembles/injects the
  // trained state directly.
  friend void save_model(const StencilMart& mart, std::ostream& out);
  friend StencilMart load_model(std::istream& in, const std::string& source);

  /// Classification + tuning for one GPU, without the regression estimate
  /// (predicted_time_ms stays 0). advise() adds a single prediction;
  /// recommend_gpu() batches the predictions of all GPUs into one call.
  OcAdvice advise_variant(const stencil::StencilPattern& pattern,
                          std::size_t g) const;
  /// The two halves of advise_variant: GPU g's classifier picks the OC
  /// group (group, group_name and its representative oc), then the tuner
  /// fills setting and expected_time_ms, falling back to the group's other
  /// members when the representative never runs.
  OcAdvice classify_variant(const stencil::StencilPattern& pattern,
                            std::size_t g) const;
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
