// A per-variant reference for StencilMart::advise_batch, built only from
// public APIs so that no test compares advise_batch with itself: the
// per-GPU classifiers and the regressor are refitted on the mart's corpus,
// and each (stencil, GPU) variant is classified, tuned with the
// (pattern hash, GPU) generator and the group-member fallback, and
// predicted with a one-query predict_variants; the rental recommendation
// folds those per-GPU variants. advise_batch must match it bit for bit.
#pragma once

#include <limits>
#include <stdexcept>
#include <vector>

#include "core/classification.hpp"
#include "core/mart.hpp"
#include "core/regression.hpp"
#include "gpusim/tuner.hpp"
#include "ml/gbdt.hpp"
#include "stencil/features.hpp"
#include "util/rng.hpp"

namespace smart::core::reference {

class AdviseReference {
 public:
  /// Refits the mart's models on its corpus (the mart must have been
  /// trained in-process: a loaded artifact keeps no corpus).
  explicit AdviseReference(const StencilMart& mart)
      : mart_(mart),
        regression_(mart.dataset(), mart.config().regression),
        sim_(mart.config().profile.sim),
        tuner_(sim_, mart.config().tuning_samples) {
    const ProfileDataset& ds = mart.dataset();
    const ml::Matrix features = stencil_feature_matrix(ds);
    classifiers_.resize(ds.num_gpus());
    for (std::size_t g = 0; g < ds.num_gpus(); ++g) {
      const std::vector<int> labels = true_groups(ds, mart.merger(), g);
      std::vector<std::size_t> rows;
      std::vector<int> y;
      for (std::size_t s = 0; s < labels.size(); ++s) {
        if (labels[s] < 0) continue;
        rows.push_back(s);
        y.push_back(labels[s]);
      }
      classifiers_[g].fit(features.gather_rows(rows), y,
                          mart.merger().num_groups());
    }
    regression_.fit_full(mart.config().regressor);
  }

  /// GPU g's advice for `pattern`, one variant at a time.
  OcAdvice advise(const stencil::StencilPattern& pattern, std::size_t g) {
    const ProfileDataset& ds = mart_.dataset();
    const OcMerger& merger = mart_.merger();
    std::vector<float> row;
    for (const double v :
         stencil::extract_features(pattern, ds.config.max_order).to_vector()) {
      row.push_back(static_cast<float>(v));
    }
    OcAdvice advice;
    advice.group = classifiers_[g].predict_row(row);
    advice.group_name = merger.group_name(advice.group);
    advice.oc = gpusim::valid_combinations()[static_cast<std::size_t>(
        merger.representative(advice.group))];

    util::Rng rng(util::hash_combine(pattern.hash(), g));
    const auto problem = gpusim::ProblemSize::paper_default(pattern.dims());
    auto result = tuner_.tune(pattern, problem, advice.oc, ds.gpus[g], rng);
    if (!result.ok()) {
      for (const int member : merger.members(advice.group)) {
        const auto& oc =
            gpusim::valid_combinations()[static_cast<std::size_t>(member)];
        result = tuner_.tune(pattern, problem, oc, ds.gpus[g], rng);
        if (result.ok()) {
          advice.oc = oc;
          ++fallbacks_;
          break;
        }
      }
    }
    if (!result.ok()) throw std::runtime_error("no runnable variant");
    advice.setting = *result.best_setting;
    advice.expected_time_ms = result.best_time_ms;

    const VariantQuery query{
        &pattern, row, problem,
        static_cast<std::size_t>(gpusim::oc_index(advice.oc)), advice.setting,
        g};
    advice.predicted_time_ms = regression_.predict_variants({&query, 1})[0];
    return advice;
  }

  /// The rental recommendation: the fastest predicted GPU, and the cheapest
  /// by predicted time x price among the GPUs that have a price.
  GpuRecommendation recommend(const stencil::StencilPattern& pattern) {
    const ProfileDataset& ds = mart_.dataset();
    GpuRecommendation rec;
    double best_time = std::numeric_limits<double>::infinity();
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t g = 0; g < ds.num_gpus(); ++g) {
      const double time_ms = advise(pattern, g).predicted_time_ms;
      if (time_ms < best_time) {
        best_time = time_ms;
        rec.fastest_gpu = ds.gpus[g].name;
        rec.fastest_time_ms = time_ms;
      }
      const double price = ds.gpus[g].rental_usd_hr;
      if (price > 0.0 && time_ms * price < best_cost) {
        best_cost = time_ms * price;
        rec.cheapest_gpu = ds.gpus[g].name;
        rec.cheapest_cost_score = best_cost;
      }
    }
    return rec;
  }

  std::size_t gpu_index(const std::string& name) const {
    const ProfileDataset& ds = mart_.dataset();
    for (std::size_t g = 0; g < ds.num_gpus(); ++g) {
      if (ds.gpus[g].name == name) return g;
    }
    throw std::out_of_range("no GPU " + name);
  }

  /// Variants whose representative OC never ran, so a member was tuned.
  int fallbacks() const noexcept { return fallbacks_; }

 private:
  const StencilMart& mart_;
  std::vector<ml::GbdtClassifier> classifiers_;
  RegressionTask regression_;
  gpusim::Simulator sim_;
  gpusim::RandomSearchTuner tuner_;
  int fallbacks_ = 0;
};

}  // namespace smart::core::reference
