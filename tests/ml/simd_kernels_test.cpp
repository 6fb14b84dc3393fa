// Vectorized inference kernel contracts (DESIGN.md §13):
//  - the fused bias+activation matmul is bit-identical to the unfused
//    matmul + bias loop + ReLU pass it replaces (strict precision);
//  - the relaxed ("f32") kernel is tolerance-equivalent to strict and its
//    per-element math is batch-size invariant (the property the serve
//    daemon's determinism contract relies on);
//  - the one-row forest walk (16 trees of a row in lockstep) gives every
//    tree's leaf weight bit-identical to RegressionTree::predict_row, and
//    every GBDT prediction path the per-tree reference sum, NaN features,
//    empty and deep loaded trees included;
//  - the kernels reject aliased matrices, and Sequential::infer survives
//    shrinking/growing batch sizes (the serve admission batcher produces
//    arbitrary batch-size sequences);
//  - Sequential::infer, which runs every Dense through the fused kernel,
//    is bit-identical to forward() for MLP, FcNet and 2-D/3-D ConvNet
//    stacks at any batch size.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ml/flat_forest.hpp"
#include "ml/gbdt.hpp"
#include "ml/matrix.hpp"
#include "ml/models.hpp"
#include "ml/nn.hpp"
#include "ml/simd.hpp"
#include "ml/tree.hpp"
#include "util/rng.hpp"
#include "util/serialize_io.hpp"
#include "util/task_pool.hpp"

namespace smart::ml {
namespace {

void expect_bitwise(float a, float b) {
  EXPECT_EQ(std::bit_cast<std::uint32_t>(a), std::bit_cast<std::uint32_t>(b));
}

void expect_bitwise(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
}

Matrix random_matrix(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.at(r, c) = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  }
  return m;
}

/// Reference: the legacy unfused sequence the strict kernel must reproduce
/// bit-for-bit — matmul, then one bias add per element, then a ReLU pass.
Matrix unfused_reference(const Matrix& a, const Matrix& b, const Matrix& bias,
                         bool relu) {
  Matrix c;
  matmul_into(a, b, c);
  for (std::size_t r = 0; r < c.rows(); ++r) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      float v = c.at(r, j) + bias.at(0, j);
      if (relu) v = v > 0.0f ? v : 0.0f;
      c.at(r, j) = v;
    }
  }
  return c;
}

// Shapes chosen to exercise the register-tile remainders (odd rows/cols),
// the vector-lane remainders of the relaxed kernel, and the parallel
// driver's worth_parallel threshold from both sides.
struct Shape {
  std::size_t rows, inner, cols;
};
const Shape kShapes[] = {{1, 1, 1},   {3, 7, 5},    {7, 13, 37},
                         {16, 24, 17}, {33, 47, 70}, {64, 128, 96}};

TEST(SimdKernels, FusedStrictMatchesUnfusedBitwise) {
  util::Rng rng(4242);
  for (const Shape& s : kShapes) {
    const Matrix a = random_matrix(s.rows, s.inner, rng);
    const Matrix b = random_matrix(s.inner, s.cols, rng);
    const Matrix bias = random_matrix(1, s.cols, rng);
    for (const bool relu : {false, true}) {
      const Matrix ref = unfused_reference(a, b, bias, relu);
      Matrix c;
      matmul_bias_act_into(a, b, bias, relu, c);
      ASSERT_EQ(c.rows(), ref.rows());
      ASSERT_EQ(c.cols(), ref.cols());
      for (std::size_t r = 0; r < c.rows(); ++r) {
        for (std::size_t j = 0; j < c.cols(); ++j) {
          expect_bitwise(c.at(r, j), ref.at(r, j));
        }
      }
    }
  }
}

TEST(SimdKernels, FusedStrictMatchesUnfusedBitwiseSerial) {
  const util::SerialSection serial;
  util::Rng rng(777);
  const Matrix a = random_matrix(33, 47, rng);
  const Matrix b = random_matrix(47, 70, rng);
  const Matrix bias = random_matrix(1, 70, rng);
  const Matrix ref = unfused_reference(a, b, bias, true);
  Matrix c;
  matmul_bias_act_into(a, b, bias, true, c);
  for (std::size_t r = 0; r < c.rows(); ++r) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      expect_bitwise(c.at(r, j), ref.at(r, j));
    }
  }
}

TEST(SimdKernels, RelaxedMatchesStrictWithinTolerance) {
  util::Rng rng(99);
  for (const Shape& s : kShapes) {
    const Matrix a = random_matrix(s.rows, s.inner, rng);
    const Matrix b = random_matrix(s.inner, s.cols, rng);
    const Matrix bias = random_matrix(1, s.cols, rng);
    for (const bool relu : {false, true}) {
      const Matrix ref = unfused_reference(a, b, bias, relu);
      Matrix c;
      matmul_bias_act_relaxed_into(a, b, bias, relu, c);
      for (std::size_t r = 0; r < c.rows(); ++r) {
        for (std::size_t j = 0; j < c.cols(); ++j) {
          const double want = ref.at(r, j);
          const double got = c.at(r, j);
          // Reassociation/FMA error is a few ulps per accumulation chain;
          // 1e-4 relative (1e-5 absolute near zero) is orders of magnitude
          // above it and still catches any indexing bug outright.
          EXPECT_NEAR(got, want, 1e-5 + 1e-4 * std::fabs(want))
              << "rows=" << s.rows << " inner=" << s.inner
              << " cols=" << s.cols << " at (" << r << ", " << j << ")";
        }
      }
    }
  }
}

TEST(SimdKernels, RelaxedIsBatchSizeInvariant) {
  // The serve determinism contract in relaxed mode: a row's output depends
  // only on that row's values, never on which rows share the batch. Compute
  // 37 rows at once, then re-run the first 5 rows alone — bitwise equal.
  util::Rng rng(31);
  const Matrix a = random_matrix(37, 29, rng);
  const Matrix b = random_matrix(29, 43, rng);
  const Matrix bias = random_matrix(1, 43, rng);
  Matrix full;
  matmul_bias_act_relaxed_into(a, b, bias, true, full);

  Matrix head(5, a.cols());
  for (std::size_t r = 0; r < head.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) head.at(r, c) = a.at(r, c);
  }
  Matrix part;
  matmul_bias_act_relaxed_into(head, b, bias, true, part);
  for (std::size_t r = 0; r < part.rows(); ++r) {
    for (std::size_t j = 0; j < part.cols(); ++j) {
      expect_bitwise(part.at(r, j), full.at(r, j));
    }
  }
}

TEST(SimdKernels, RelaxedIsThreadCountInvariant) {
  // Same kernel serial vs parallel driver: bitwise equal (each row group's
  // math is independent of the grouping).
  util::Rng rng(53);
  const Matrix a = random_matrix(64, 48, rng);
  const Matrix b = random_matrix(48, 64, rng);
  const Matrix bias = random_matrix(1, 64, rng);
  Matrix parallel;
  matmul_bias_act_relaxed_into(a, b, bias, true, parallel);
  Matrix serial;
  {
    const util::SerialSection section;
    matmul_bias_act_relaxed_into(a, b, bias, true, serial);
  }
  for (std::size_t r = 0; r < parallel.rows(); ++r) {
    for (std::size_t j = 0; j < parallel.cols(); ++j) {
      expect_bitwise(serial.at(r, j), parallel.at(r, j));
    }
  }
}

TEST(SimdKernels, KernelsRejectAliasedMatrices) {
  util::Rng rng(7);
  Matrix a = random_matrix(8, 8, rng);
  const Matrix b = random_matrix(8, 8, rng);
  Matrix bias = random_matrix(1, 8, rng);
  EXPECT_THROW(matmul_into(a, b, a), std::invalid_argument);
  Matrix b_alias = b;
  EXPECT_THROW(matmul_into(a, b_alias, b_alias), std::invalid_argument);
  EXPECT_THROW(matmul_bias_act_into(a, b, bias, true, a),
               std::invalid_argument);
  EXPECT_THROW(matmul_bias_act_into(a, b, bias, true, bias),
               std::invalid_argument);
  EXPECT_THROW(matmul_bias_act_relaxed_into(a, b, bias, true, a),
               std::invalid_argument);
  EXPECT_THROW(matmul_bias_act_relaxed_into(a, b, bias, true, bias),
               std::invalid_argument);
}

/// Regression guard for the serve memo path: Sequential::infer must give
/// each batch size the same bits no matter what batch sizes ran before it
/// (the ping-pong scratch buffers shrink and grow across calls).
void check_shrink_grow(Sequential& net, const Matrix& big, const Matrix& small) {
  const Matrix first_big = net.infer(big);
  const Matrix first_small = net.infer(small);
  const Matrix again_big = net.infer(big);    // grow after shrink
  ASSERT_EQ(again_big.rows(), first_big.rows());
  for (std::size_t r = 0; r < first_big.rows(); ++r) {
    for (std::size_t c = 0; c < first_big.cols(); ++c) {
      expect_bitwise(again_big.at(r, c), first_big.at(r, c));
    }
  }
  const Matrix again_small = net.infer(small);  // shrink after grow
  for (std::size_t r = 0; r < first_small.rows(); ++r) {
    for (std::size_t c = 0; c < first_small.cols(); ++c) {
      expect_bitwise(again_small.at(r, c), first_small.at(r, c));
    }
  }
  // A one-row batch exercises every remainder path; rows must match the
  // same row inside the big batch in strict mode and in relaxed mode (the
  // relaxed kernel's per-element math is batch-size invariant).
  Matrix one(1, big.cols());
  for (std::size_t c = 0; c < big.cols(); ++c) one.at(0, c) = big.at(0, c);
  const Matrix single = net.infer(one);
  for (std::size_t c = 0; c < single.cols(); ++c) {
    expect_bitwise(single.at(0, c), first_big.at(0, c));
  }
}

TEST(SimdKernels, SequentialInferShrinkGrowBatches) {
  util::Rng rng(2024);
  Sequential net = make_mlp(12, 2, 16, rng);
  net.set_training(false);
  const Matrix big = random_matrix(64, 12, rng);
  Matrix small(8, 12);
  for (std::size_t r = 0; r < small.rows(); ++r) {
    for (std::size_t c = 0; c < small.cols(); ++c) {
      small.at(r, c) = big.at(r, c);
    }
  }
  check_shrink_grow(net, big, small);
  const PrecisionSection relaxed(Precision::kRelaxed);
  check_shrink_grow(net, big, small);
}

/// The nn.hpp contract: in inference mode Sequential::infer (fused Dense
/// steps, ping-pong scratch buffers) returns forward()'s exact bits, for
/// batch sizes on both sides of the kernels' parallel fan-out threshold.
void check_infer_matches_forward(Sequential& net, std::size_t input_dim,
                                 util::Rng& rng) {
  net.set_training(false);
  for (const std::size_t rows : {1u, 3u, 16u, 37u}) {
    const Matrix x = random_matrix(rows, input_dim, rng);
    const Matrix inferred = net.infer(x);
    const Matrix expected = net.forward(x);
    ASSERT_EQ(inferred.rows(), expected.rows());
    ASSERT_EQ(inferred.cols(), expected.cols());
    for (std::size_t r = 0; r < expected.rows(); ++r) {
      for (std::size_t c = 0; c < expected.cols(); ++c) {
        expect_bitwise(inferred.at(r, c), expected.at(r, c));
      }
    }
  }
}

TEST(SimdKernels, SequentialInferMatchesForwardBitwise) {
  util::Rng rng(5150);
  Sequential mlp = make_mlp(10, 3, 24, rng);
  check_infer_matches_forward(mlp, 10, rng);
  Sequential fcnet = make_fcnet(40, 6, 4, 64, rng);
  check_infer_matches_forward(fcnet, 40, rng);
  // max_order 4: 9x9 and 9x9x9 pattern tensors, as the paper's models use.
  Sequential conv2d = make_convnet(2, 4, 6, rng);
  check_infer_matches_forward(conv2d, 81, rng);
  Sequential conv3d = make_convnet(3, 4, 6, rng);
  check_infer_matches_forward(conv3d, 729, rng);
}

/// Small synthetic regression problem for the GBDT layout checks.
void make_regression_data(Matrix& x, std::vector<float>& y, std::size_t rows,
                          std::size_t dim, std::uint64_t seed) {
  util::Rng rng(seed);
  x = Matrix(rows, dim);
  y.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (float& v : x.row(r)) {
      v = static_cast<float>(rng.uniform(-2.0, 2.0));
      sum += v;
    }
    y[r] = static_cast<float>(sum + rng.uniform(-0.1, 0.1));
  }
}

/// Labels in [0, num_classes) from the regression target.
std::vector<int> make_labels(const std::vector<float>& y, int num_classes) {
  std::vector<int> labels(y.size());
  for (std::size_t r = 0; r < y.size(); ++r) {
    labels[r] = static_cast<int>(std::fabs(y[r]) * 3.0f) % num_classes;
  }
  return labels;
}

/// `x` with NaN in every feature position: row 0 all NaN, then row c + 1
/// NaN in column c alone, then every third row NaN in one rotating column.
Matrix nan_poisoned(const Matrix& x) {
  Matrix poisoned = x;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (std::size_t c = 0; c < poisoned.cols(); ++c) {
    poisoned.at(0, c) = nan;
    poisoned.at(c + 1, c) = nan;
  }
  for (std::size_t r = poisoned.cols() + 1; r < poisoned.rows(); r += 3) {
    poisoned.at(r, r % poisoned.cols()) = nan;
  }
  return poisoned;
}

/// Every tree's leaf weight for one row, as the forest walk emits them.
std::vector<double> walked_leaves(const FlatForest& flat,
                                  std::span<const float> row) {
  std::vector<double> leaves;
  flat.for_each_leaf(row, [&](double w) { leaves.push_back(w); });
  return leaves;
}

/// The walk over `trees` gives, per tree and row, the bits of the pointer
/// walk RegressionTree::predict_row.
void expect_leaves_match(std::span<const RegressionTree> trees,
                         const Matrix& x) {
  FlatForest flat;
  flat.build(trees);
  ASSERT_EQ(flat.num_trees(), trees.size());
  std::size_t nodes = 1;  // the shared zero leaf
  for (const RegressionTree& t : trees) nodes += t.num_nodes();
  ASSERT_LE(flat.num_nodes(), nodes);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const std::vector<double> leaves = walked_leaves(flat, x.row(r));
    ASSERT_EQ(leaves.size(), trees.size());
    for (std::size_t t = 0; t < trees.size(); ++t) {
      expect_bitwise(leaves[t], trees[t].predict_row(x.row(r)));
    }
  }
}

/// Per-tree reference for GbdtRegressor: base plus each tree's scaled
/// pointer-walk weight, in ensemble order.
double reference_regression(const GbdtRegressor& reg, double learning_rate,
                            std::span<const float> row) {
  double acc = reg.base_score();
  for (const RegressionTree& t : reg.trees()) {
    acc += learning_rate * t.predict_row(row);
  }
  return acc;
}

/// Per-tree reference for GbdtClassifier: raw per-class scores, tree i
/// adding to class i % K.
std::vector<double> reference_scores(const GbdtClassifier& clf,
                                     double learning_rate,
                                     std::span<const float> row) {
  std::vector<double> scores = clf.base_scores();
  const std::size_t num_k = scores.size();
  for (std::size_t i = 0; i < clf.trees().size(); ++i) {
    scores[i % num_k] += learning_rate * clf.trees()[i].predict_row(row);
  }
  return scores;
}

/// Softmax exactly as GbdtClassifier::predict_proba_into computes it.
std::vector<double> reference_proba(std::vector<double> scores) {
  double max_score = scores[0];
  for (double s : scores) max_score = std::max(max_score, s);
  double denom = 0.0;
  for (double& s : scores) {
    s = std::exp(s - max_score);
    denom += s;
  }
  for (double& s : scores) s /= denom;
  return scores;
}

int argmax(const std::vector<double>& v) {
  return static_cast<int>(std::max_element(v.begin(), v.end()) - v.begin());
}

/// Every regressor prediction path against the per-tree reference.
void expect_regressor_matches_reference(const GbdtRegressor& reg,
                                        double learning_rate, const Matrix& x) {
  expect_leaves_match(reg.trees(), x);
  const std::vector<double> batched = reg.predict(x);
  ASSERT_EQ(batched.size(), x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const double want = reference_regression(reg, learning_rate, x.row(r));
    expect_bitwise(reg.predict_row(x.row(r)), want);
    expect_bitwise(batched[r], want);
  }
}

/// Every classifier prediction path against the per-tree reference.
void expect_classifier_matches_reference(const GbdtClassifier& clf,
                                         double learning_rate,
                                         const Matrix& x) {
  expect_leaves_match(clf.trees(), x);
  const std::vector<int> labels = clf.predict(x);
  ASSERT_EQ(labels.size(), x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const std::vector<double> scores =
        reference_scores(clf, learning_rate, x.row(r));
    const std::vector<double> want = reference_proba(scores);
    const std::vector<double> got = clf.predict_proba_row(x.row(r));
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      expect_bitwise(got[k], want[k]);
    }
    EXPECT_EQ(clf.predict_row(x.row(r)), argmax(want));
    EXPECT_EQ(labels[r], argmax(scores));
  }
}

TEST(FlatForest, LockstepMatchesPointerWalkBitwise) {
  // Ensemble sizes below, at and across the 16-tree group boundary.
  Matrix x;
  std::vector<float> y;
  make_regression_data(x, y, 300, 9, 11);
  for (const int rounds : {1, 15, 16, 17, 20, 33}) {
    GbdtParams params;
    params.rounds = rounds;
    GbdtRegressor reg(params);
    reg.fit(x, y);
    ASSERT_EQ(reg.num_trees(), static_cast<std::size_t>(rounds));
    expect_regressor_matches_reference(reg, params.learning_rate, x);
  }
  // Relaxed precision must not change GBDT bits (no float accumulation,
  // no precision knob read).
  GbdtParams params;
  params.rounds = 20;
  GbdtRegressor reg(params);
  reg.fit(x, y);
  const std::vector<double> strict = reg.predict(x);
  const PrecisionSection relaxed(Precision::kRelaxed);
  const std::vector<double> flat_f32 = reg.predict(x);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    expect_bitwise(flat_f32[r], strict[r]);
  }
}

TEST(FlatForest, LockstepSurvivesSaveLoad) {
  Matrix x;
  std::vector<float> y;
  make_regression_data(x, y, 200, 6, 23);
  GbdtParams params;
  params.rounds = 10;
  GbdtRegressor reg(params);
  reg.fit(x, y);

  util::TokenWriter buf;
  reg.save(buf);
  util::TokenReader in(buf.view());
  const GbdtRegressor loaded = GbdtRegressor::load(in, x.cols());
  expect_regressor_matches_reference(loaded, params.learning_rate, x);
  const std::vector<double> a = reg.predict(x);
  const std::vector<double> b = loaded.predict(x);
  for (std::size_t r = 0; r < x.rows(); ++r) expect_bitwise(a[r], b[r]);

  GbdtClassifier clf(params);
  clf.fit(x, make_labels(y, 4), 4);
  util::TokenWriter cbuf;
  clf.save(cbuf);
  util::TokenReader cin(cbuf.view());
  const GbdtClassifier cloaded = GbdtClassifier::load(cin, x.cols());
  expect_classifier_matches_reference(cloaded, params.learning_rate, x);
  EXPECT_EQ(cloaded.predict(x), clf.predict(x));
}

TEST(FlatForest, NanRoutesRightInBothLayouts) {
  Matrix x;
  std::vector<float> y;
  make_regression_data(x, y, 250, 7, 37);
  GbdtParams params;
  params.rounds = 15;
  GbdtRegressor reg(params);
  reg.fit(x, y);
  GbdtClassifier clf(params);
  clf.fit(x, make_labels(y, 3), 3);

  // Both walks take the documented right-child route on NaN, so they agree
  // bitwise and the outputs are finite leaf sums, never NaN.
  const Matrix poisoned = nan_poisoned(x);
  expect_regressor_matches_reference(reg, params.learning_rate, poisoned);
  expect_classifier_matches_reference(clf, params.learning_rate, poisoned);
  const std::vector<double> predicted = reg.predict(poisoned);
  for (const double p : predicted) EXPECT_TRUE(std::isfinite(p));
}

TEST(FlatForest, ClassifierLockstepMatchesPointerWalk) {
  // 8 rounds x 3 classes = 24 trees: one full group and a partial one.
  Matrix x;
  std::vector<float> y;
  make_regression_data(x, y, 240, 8, 91);
  GbdtParams params;
  params.rounds = 8;
  GbdtClassifier clf(params);
  clf.fit(x, make_labels(y, 3), 3);
  ASSERT_EQ(clf.trees().size(), 24u);
  expect_classifier_matches_reference(clf, params.learning_rate, x);
}

TEST(FlatForest, ClassifierWithManyClassesMatchesPointerWalk) {
  // More than 32 classes: predict_row's score buffer moves to the heap.
  Matrix x;
  std::vector<float> y;
  make_regression_data(x, y, 400, 5, 57);
  std::vector<int> labels(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    labels[r] = static_cast<int>(r % 37);
  }
  GbdtParams params;
  params.rounds = 2;
  GbdtClassifier clf(params);
  clf.fit(x, labels, 37);
  ASSERT_EQ(clf.trees().size(), 74u);
  expect_classifier_matches_reference(clf, params.learning_rate, x);
}

TEST(FlatForest, EmptyAndSingleLeafTreesWalkInPlace) {
  Matrix x;
  std::vector<float> y;
  make_regression_data(x, y, 120, 4, 71);
  GbdtParams params;
  params.rounds = 18;
  GbdtRegressor reg(params);
  reg.fit(x, y);

  util::TokenReader leaf("tree 1 0 0\n-1 0.0 -1 -1 2.5\n");
  const RegressionTree single = RegressionTree::load(leaf, x.cols());
  std::vector<RegressionTree> trees = reg.trees();
  trees.insert(trees.begin(), RegressionTree{});
  trees.insert(trees.begin() + 5, single);
  trees.insert(trees.begin() + 16, RegressionTree{});
  trees.push_back(RegressionTree{});
  expect_leaves_match(trees, x);
  expect_leaves_match(trees, nan_poisoned(x));

  // A forest of leaves takes no step, so it never reads the row.
  const std::vector<RegressionTree> leaves{RegressionTree{}, single,
                                           RegressionTree{}};
  FlatForest flat;
  flat.build(leaves);
  const std::vector<double> got = walked_leaves(flat, {});
  ASSERT_EQ(got.size(), 3u);
  expect_bitwise(got[0], 0.0);
  expect_bitwise(got[1], 2.5);
  expect_bitwise(got[2], 0.0);
}

TEST(FlatForest, DeepChainTreeWalksInLinearPool) {
  // A loaded degenerate tree: a right-leaning chain of 70 splits, each
  // with a leaf on its left. A complete-tree layout would need 2^70 slots;
  // the pool takes one per node.
  constexpr int kDepth = 70;
  std::ostringstream text;
  text << "tree " << 2 * kDepth + 1 << ' ' << kDepth << " 0\n";
  for (int d = 0; d < kDepth; ++d) {
    text << d % 3 << " -0.99 " << 2 * d + 1 << ' ' << 2 * d + 2 << " 0.0\n";
    text << "-1 0.0 -1 -1 " << d + 1 << ".0\n";
  }
  text << "-1 0.0 -1 -1 1000.0\n";
  const std::string chain_text = text.str();
  util::TokenReader in(chain_text);
  const RegressionTree chain = RegressionTree::load(in, 3);
  ASSERT_EQ(chain.num_nodes(), static_cast<std::size_t>(2 * kDepth + 1));

  Matrix x;
  std::vector<float> y;
  make_regression_data(x, y, 300, 3, 83);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (float& v : x.row(r)) v *= 0.5f;  // mostly right of -0.99
  }
  x.at(7, 1) = -1.5f;  // leaves the chain early at depth 1
  GbdtParams params;
  params.rounds = 20;
  GbdtRegressor reg(params);
  reg.fit(x, y);
  std::vector<RegressionTree> trees = reg.trees();
  trees.insert(trees.begin() + 3, chain);
  expect_leaves_match(trees, x);
  expect_leaves_match(trees, nan_poisoned(x));  // NaN rows reach the end

  FlatForest flat;
  flat.build(std::span<const RegressionTree>(&chain, 1));
  EXPECT_EQ(flat.num_nodes(), 1 + chain.num_nodes());
  std::vector<float> all_nan(3, std::numeric_limits<float>::quiet_NaN());
  expect_bitwise(walked_leaves(flat, all_nan)[0], 1000.0);
}

TEST(FlatForest, BuildRejectsNonPreorderLinks) {
  // A corrupt artifact with a back-linking child (in range, so it survives
  // RegressionTree::load's dangling-link check) would cycle the pointer
  // walk; FlatForest::build must reject it instead of looping.
  util::TokenReader back(
      "tree 3 1 0\n"
      "0 0.5 0 2 0.0\n"   // root: left child links BACK to the root
      "-1 0.0 -1 -1 1.0\n"
      "-1 0.0 -1 -1 2.0\n");
  const std::vector<RegressionTree> cyclic{RegressionTree::load(back, 2)};
  FlatForest flat;
  EXPECT_THROW(flat.build(cyclic), std::runtime_error);

  // A child linked twice would copy its subtree once per path, so a chain
  // of shared links would grow the pool exponentially.
  const std::string shared =
      "tree 4 2 0\n"
      "0 0.5 1 2 0.0\n"
      "1 0.5 3 3 0.0\n"   // both children are node 3
      "-1 0.0 -1 -1 1.0\n"
      "-1 0.0 -1 -1 2.0\n";
  util::TokenReader shared_in(shared);
  const std::vector<RegressionTree> dag{RegressionTree::load(shared_in, 2)};
  EXPECT_THROW(flat.build(dag), std::runtime_error);

  // The model readers build the pool, so they refuse such a tree too.
  Matrix x;
  std::vector<float> y;
  make_regression_data(x, y, 50, 2, 5);
  GbdtParams params;
  params.rounds = 1;
  GbdtRegressor reg(params);
  reg.fit(x, y);
  util::TokenWriter saved;
  reg.save(saved);
  const std::string head(saved.view().substr(0, saved.view().find("tree ")));
  const std::string model_text = head + shared;
  util::TokenReader model(model_text);
  EXPECT_THROW(GbdtRegressor::load(model, x.cols()), std::runtime_error);
}

TEST(FeatureBinner, FitRejectsNan) {
  util::Rng rng(1);
  Matrix x(20, 4);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      x.at(r, c) = static_cast<float>(rng.uniform(0.0, 1.0));
    }
  }
  x.at(7, 2) = std::numeric_limits<float>::quiet_NaN();
  FeatureBinner binner;
  EXPECT_THROW(binner.fit(x), std::invalid_argument);

  // The ensemble fit goes through the binner, so training data with NaN
  // fails loudly instead of learning from arbitrary routing.
  std::vector<float> y(x.rows(), 1.0f);
  GbdtRegressor reg;
  EXPECT_THROW(reg.fit(x, y), std::invalid_argument);
}

}  // namespace
}  // namespace smart::ml
