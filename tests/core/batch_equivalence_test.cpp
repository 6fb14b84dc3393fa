// PR 2 bit-identity contract: every batched inference path must produce
// results bit-identical to its per-row counterpart, in serial mode and at
// the default thread count. Comparisons use std::bit_cast so even a 1-ulp
// drift (e.g. from a reordered accumulation) fails loudly.
//
// Suite names map onto the ctest label groups (tests/CMakeLists.txt):
//   BatchEquivalence.*          -> unit      (inference under SerialSection)
//   ParallelBatchEquivalence.*  -> parallel  (inference at default threads)
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/regression.hpp"
#include "ml/gbdt.hpp"
#include "ml/models.hpp"
#include "stencil/features.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace smart::core {
namespace {

void expect_bitwise(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
}

const ProfileDataset& eq_dataset() {
  static const ProfileDataset ds = [] {
    ProfileConfig cfg;
    cfg.dims = 2;
    cfg.num_stencils = 12;
    cfg.samples_per_oc = 2;
    cfg.seed = 808;
    return build_profile_dataset(cfg);
  }();
  return ds;
}

/// One fitted task per regressor kind, trained once (at default threads)
/// and shared by the serial and parallel suites — the contract under test
/// is inference, so reusing the fit keeps the suite fast without weakening
/// either mode's check.
RegressionTask& fitted_task(RegressorKind kind) {
  static std::vector<std::unique_ptr<RegressionTask>> tasks(3);
  auto& slot = tasks[static_cast<std::size_t>(kind)];
  if (!slot) {
    RegressionConfig cfg;
    cfg.epochs = 3;
    cfg.instance_cap = 600;
    slot = std::make_unique<RegressionTask>(eq_dataset(), cfg);
    slot->fit_full(kind);
  }
  return *slot;
}

/// predict_batch, predict_table, and predict_variants against their
/// per-row/per-query forms, bitwise.
void check_regressor_equivalence(RegressorKind kind) {
  const RegressionTask& task = fitted_task(kind);
  const auto& ds = eq_dataset();

  const auto starts = task.triple_starts();
  std::vector<std::size_t> idxs(
      starts.begin(),
      starts.begin() + static_cast<std::ptrdiff_t>(
                           std::min<std::size_t>(40, starts.size())));
  std::vector<std::size_t> gpus(ds.num_gpus());
  for (std::size_t g = 0; g < gpus.size(); ++g) gpus[g] = g;

  // predict_batch vs per-row predict.
  for (const std::size_t gpu : gpus) {
    const std::vector<double> batch = task.predict_batch(idxs, gpu);
    ASSERT_EQ(batch.size(), idxs.size());
    for (std::size_t i = 0; i < idxs.size(); ++i) {
      expect_bitwise(batch[i], task.predict(idxs[i], gpu));
    }
  }

  // predict_table vs per-row predict, every cell.
  const PredictionTable table = task.predict_table(idxs, gpus);
  ASSERT_EQ(table.rows(), idxs.size());
  ASSERT_EQ(table.cols(), gpus.size());
  for (std::size_t r = 0; r < table.rows(); ++r) {
    for (std::size_t c = 0; c < table.cols(); ++c) {
      expect_bitwise(table.at(r, c), task.predict(idxs[r], gpus[c]));
    }
  }

  // predict_variants (the out-of-dataset entry point) vs one-query calls
  // and vs predict() of the instance each query restates. Repeats each
  // pattern across all GPUs so the ConvMLP unique-tensor gather path sees
  // shared tensors.
  const std::size_t num_patterns = std::min<std::size_t>(10, idxs.size());
  std::vector<std::vector<float>> features(num_patterns);
  std::vector<VariantQuery> queries;
  std::vector<std::pair<std::size_t, std::size_t>> restated;
  for (std::size_t i = 0; i < num_patterns; ++i) {
    const RegressionInstance& ins = task.instances()[idxs[i]];
    const stencil::StencilPattern& pattern = ds.stencils[ins.stencil];
    for (const double v :
         stencil::extract_features(pattern, ds.config.max_order).to_vector()) {
      features[i].push_back(static_cast<float>(v));
    }
    for (const std::size_t gpu : gpus) {
      queries.push_back({&pattern, features[i], ds.problems[ins.stencil],
                         ins.oc, ds.settings[ins.stencil][ins.oc][ins.setting],
                         gpu});
      restated.emplace_back(idxs[i], gpu);
    }
  }
  const std::vector<double> batched = task.predict_variants(queries);
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    expect_bitwise(batched[q], task.predict_variants({&queries[q], 1})[0]);
    expect_bitwise(batched[q],
                   task.predict(restated[q].first, restated[q].second));
  }
}

/// Synthetic classification problem for the ml-level classifier checks.
void make_classification_data(ml::Matrix& x, std::vector<int>& labels,
                              std::size_t rows, std::size_t dim,
                              int classes) {
  util::Rng rng(99);
  x = ml::Matrix(rows, dim);
  labels.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (float& v : x.row(r)) {
      v = static_cast<float>(rng.uniform(-1.0, 1.0));
      sum += v;
    }
    labels[r] = static_cast<int>((sum + static_cast<double>(dim)) /
                                 (2.0 * static_cast<double>(dim)) *
                                 classes) %
                classes;
  }
}

void check_gbdt_classifier_equivalence() {
  ml::Matrix x;
  std::vector<int> labels;
  const int classes = 4;
  make_classification_data(x, labels, 160, 12, classes);

  ml::GbdtParams params;
  params.rounds = 12;
  ml::GbdtClassifier clf(params);
  clf.fit(x, labels, classes);

  const std::vector<int> batched = clf.predict(x);
  ASSERT_EQ(batched.size(), x.rows());
  std::vector<double> proba(classes);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    EXPECT_EQ(batched[r], clf.predict_row(x.row(r)));
    const std::vector<double> ref = clf.predict_proba_row(x.row(r));
    clf.predict_proba_into(x.row(r), proba);
    ASSERT_EQ(ref.size(), proba.size());
    for (int c = 0; c < classes; ++c) expect_bitwise(proba[c], ref[c]);
  }
}

void check_gbdt_regressor_equivalence() {
  ml::Matrix x;
  std::vector<int> labels;
  make_classification_data(x, labels, 160, 12, 4);
  std::vector<float> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    y[r] = static_cast<float>(labels[r]) + x.at(r, 0);
  }

  ml::GbdtParams params;
  params.rounds = 15;
  ml::GbdtRegressor reg(params);
  reg.fit(x, y);

  const std::vector<double> batched = reg.predict(x);
  ASSERT_EQ(batched.size(), x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    expect_bitwise(batched[r], reg.predict_row(x.row(r)));
  }
}

void check_nn_classifier_equivalence() {
  ml::Matrix x;
  std::vector<int> labels;
  const int classes = 3;
  make_classification_data(x, labels, 120, 8, classes);

  util::Rng rng(17);
  ml::TrainConfig tc;
  tc.epochs = 3;
  ml::NnClassifier clf(ml::make_fcnet(x.cols(), classes, 2, 16, rng), tc);
  clf.fit(x, labels);

  const std::vector<int> batched = clf.predict(x);
  ASSERT_EQ(batched.size(), x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    // Per-row form: a one-row matrix through the same entry point.
    const ml::Matrix row = x.gather_rows({{r}});
    const std::vector<int> single = clf.predict(row);
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(batched[r], single[0]);
  }
}

// --- unit label: inference pinned to one thread (in-process equivalent of
// SMART_THREADS=1; scripts/check.sh additionally runs the whole suite under
// SMART_THREADS=1 and =4). ---

TEST(BatchEquivalence, GbrBatchedMatchesPerRowSerial) {
  const util::SerialSection serial;
  check_regressor_equivalence(RegressorKind::kGbr);
}

TEST(BatchEquivalence, MlpBatchedMatchesPerRowSerial) {
  const util::SerialSection serial;
  check_regressor_equivalence(RegressorKind::kMlp);
}

TEST(BatchEquivalence, ConvMlpBatchedMatchesPerRowSerial) {
  const util::SerialSection serial;
  check_regressor_equivalence(RegressorKind::kConvMlp);
}

TEST(BatchEquivalence, GbdtClassifierBatchedMatchesPerRowSerial) {
  const util::SerialSection serial;
  check_gbdt_classifier_equivalence();
}

TEST(BatchEquivalence, GbdtRegressorBatchedMatchesPerRowSerial) {
  const util::SerialSection serial;
  check_gbdt_regressor_equivalence();
}

TEST(BatchEquivalence, NnClassifierBatchedMatchesPerRowSerial) {
  const util::SerialSection serial;
  check_nn_classifier_equivalence();
}

// --- parallel label: same contracts at the default thread count. ---

TEST(ParallelBatchEquivalence, GbrBatchedMatchesPerRow) {
  check_regressor_equivalence(RegressorKind::kGbr);
}

TEST(ParallelBatchEquivalence, MlpBatchedMatchesPerRow) {
  check_regressor_equivalence(RegressorKind::kMlp);
}

TEST(ParallelBatchEquivalence, ConvMlpBatchedMatchesPerRow) {
  check_regressor_equivalence(RegressorKind::kConvMlp);
}

TEST(ParallelBatchEquivalence, GbdtClassifierBatchedMatchesPerRow) {
  check_gbdt_classifier_equivalence();
}

TEST(ParallelBatchEquivalence, GbdtRegressorBatchedMatchesPerRow) {
  check_gbdt_regressor_equivalence();
}

TEST(ParallelBatchEquivalence, NnClassifierBatchedMatchesPerRow) {
  check_nn_classifier_equivalence();
}

}  // namespace
}  // namespace smart::core
