// Persistence round trips for every ml-layer building block used by the
// model artifact (core/serialize): Matrix, MaxAbsScaler, GBDT ensembles and
// the neural wrappers. Each loaded model must predict bit-identically to
// the one that was saved; malformed input must throw instead of loading a
// silently-wrong model.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/gbdt.hpp"
#include "ml/models.hpp"
#include "util/rng.hpp"
#include "util/serialize_io.hpp"

namespace smart::ml {
namespace {

void expect_bitwise(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
}

void expect_bitwise(float a, float b) {
  EXPECT_EQ(std::bit_cast<std::uint32_t>(a), std::bit_cast<std::uint32_t>(b));
}

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  util::Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.at(r, c) = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
  }
  return m;
}

Matrix random_tensors(std::size_t n, std::size_t cols, std::uint64_t seed) {
  Matrix m(n, cols);
  util::Rng rng(seed);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.at(r, c) = rng.bernoulli(0.3) ? 1.0f : 0.0f;
    }
  }
  return m;
}

void make_labels(const Matrix& x, std::vector<int>& labels, int classes) {
  labels.resize(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double sum = 0.0;
    for (float v : x.row(r)) sum += v;
    labels[r] = static_cast<int>(std::abs(sum) * 10.0) % classes;
  }
}

TEST(ModelIo, MatrixRoundTripIsBitExact) {
  const Matrix original = random_matrix(7, 5, 11);
  util::TokenWriter buffer;
  original.save(buffer);
  util::TokenReader in(buffer.view());
  const Matrix loaded = Matrix::load(in);
  ASSERT_EQ(loaded.rows(), original.rows());
  ASSERT_EQ(loaded.cols(), original.cols());
  for (std::size_t r = 0; r < original.rows(); ++r) {
    for (std::size_t c = 0; c < original.cols(); ++c) {
      expect_bitwise(loaded.at(r, c), original.at(r, c));
    }
  }
}

TEST(ModelIo, MatrixRejectsBadTag) {
  util::TokenReader in("xirtam 2 2\n0 0 0 0\n");
  EXPECT_THROW(Matrix::load(in), std::runtime_error);
}

TEST(ModelIo, MatrixRejectsNanElement) {
  util::TokenReader in("mat 1 1\nnan\n");
  EXPECT_THROW(Matrix::load(in), std::runtime_error);
}

TEST(ModelIo, MatrixRejectsTruncatedStream) {
  util::TokenReader in("mat 2 2\n0x1p+0 0x1p+1\n");
  EXPECT_THROW(Matrix::load(in), std::runtime_error);
}

TEST(ModelIo, ScalerRoundTripIsBitExact) {
  MaxAbsScaler scaler;
  const Matrix x = random_matrix(20, 6, 13);
  scaler.fit(x);
  util::TokenWriter buffer;
  scaler.save(buffer);
  util::TokenReader in(buffer.view());
  const MaxAbsScaler loaded = MaxAbsScaler::load(in);
  ASSERT_EQ(loaded.scales().size(), scaler.scales().size());
  for (std::size_t c = 0; c < scaler.scales().size(); ++c) {
    expect_bitwise(loaded.scales()[c], scaler.scales()[c]);
  }
  const Matrix a = scaler.transform(x);
  const Matrix b = loaded.transform(x);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      expect_bitwise(a.at(r, c), b.at(r, c));
    }
  }
}

TEST(ModelIo, GbdtRegressorRoundTripPredictsBitIdentically) {
  const Matrix x = random_matrix(150, 10, 17);
  std::vector<float> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    y[r] = x.at(r, 0) * 2.0f - x.at(r, 3);
  }
  GbdtParams params;
  params.rounds = 10;
  GbdtRegressor original(params);
  original.fit(x, y);

  util::TokenWriter buffer;
  original.save(buffer);
  util::TokenReader in(buffer.view());
  const GbdtRegressor loaded = GbdtRegressor::load(in, x.cols());
  const auto a = original.predict(x);
  const auto b = loaded.predict(x);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    expect_bitwise(a[r], b[r]);
    expect_bitwise(b[r], loaded.predict_row(x.row(r)));
  }
}

TEST(ModelIo, GbdtClassifierRoundTripPredictsBitIdentically) {
  const Matrix x = random_matrix(150, 8, 19);
  std::vector<int> labels;
  const int classes = 4;
  make_labels(x, labels, classes);
  GbdtParams params;
  params.rounds = 8;
  GbdtClassifier original(params);
  original.fit(x, labels, classes);

  util::TokenWriter buffer;
  original.save(buffer);
  util::TokenReader in(buffer.view());
  const GbdtClassifier loaded = GbdtClassifier::load(in, x.cols());
  EXPECT_EQ(loaded.num_classes(), classes);
  const auto a = original.predict(x);
  const auto b = loaded.predict(x);
  ASSERT_EQ(a, b);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto pa = original.predict_proba_row(x.row(r));
    const auto pb = loaded.predict_proba_row(x.row(r));
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t c = 0; c < pa.size(); ++c) expect_bitwise(pa[c], pb[c]);
  }
}

TEST(ModelIo, FcNetClassifierRoundTripPredictsIdentically) {
  const Matrix x = random_matrix(80, 6, 23);
  std::vector<int> labels;
  make_labels(x, labels, 3);
  util::Rng rng(29);
  TrainConfig tc;
  tc.epochs = 3;
  NnClassifier original(make_fcnet(x.cols(), 3, 2, 16, rng), tc);
  original.fit(x, labels);

  util::TokenWriter buffer;
  original.save(buffer);
  util::TokenReader in(buffer.view());
  NnClassifier loaded = NnClassifier::load(in, x.cols());
  EXPECT_EQ(loaded.predict(x), original.predict(x));
}

TEST(ModelIo, ConvNetClassifierRoundTripPredictsIdentically) {
  const Matrix x = random_tensors(60, 81, 31);
  std::vector<int> labels;
  make_labels(x, labels, 2);
  util::Rng rng(37);
  TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 16;
  NnClassifier original(make_convnet(2, 4, 2, rng), tc);
  original.fit(x, labels);

  util::TokenWriter buffer;
  original.save(buffer);
  util::TokenReader in(buffer.view());
  NnClassifier loaded = NnClassifier::load(in, x.cols());
  EXPECT_EQ(loaded.predict(x), original.predict(x));
}

TEST(ModelIo, MlpRegressorRoundTripPredictsBitIdentically) {
  const Matrix x = random_matrix(100, 5, 41);
  std::vector<float> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) y[r] = x.at(r, 1) + 0.5f;
  util::Rng rng(43);
  TrainConfig tc;
  tc.epochs = 3;
  NnRegressor original(make_mlp(x.cols(), 2, 16, rng), tc);
  original.fit(x, y);

  util::TokenWriter buffer;
  original.save(buffer);
  util::TokenReader in(buffer.view());
  NnRegressor loaded = NnRegressor::load(in, x.cols());
  const auto a = original.predict(x);
  const auto b = loaded.predict(x);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) expect_bitwise(a[r], b[r]);
}

TEST(ModelIo, ConvMlpRegressorRoundTripPredictsBitIdentically) {
  const std::size_t n = 60;
  const Matrix tensors = random_tensors(n, 81, 47);
  const Matrix aux = random_matrix(n, 4, 53);
  std::vector<float> y(n);
  for (std::size_t r = 0; r < n; ++r) y[r] = aux.at(r, 0) * 3.0f;
  TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 16;
  ConvMlpRegressor original(2, 4, aux.cols(), tc);
  original.fit(tensors, aux, y);

  util::TokenWriter buffer;
  original.save(buffer);
  util::TokenReader in(buffer.view());
  ConvMlpRegressor loaded =
      ConvMlpRegressor::load(in, tensors.cols(), aux.cols());
  const auto a = original.predict(tensors, aux);
  const auto b = loaded.predict(tensors, aux);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) expect_bitwise(a[r], b[r]);

  // predict_gathered must agree too: every aux row maps to its own tensor.
  std::vector<std::size_t> tensor_row(n);
  for (std::size_t r = 0; r < n; ++r) tensor_row[r] = r;
  const auto g = loaded.predict_gathered(tensors, tensor_row, aux);
  ASSERT_EQ(g.size(), a.size());
  for (std::size_t r = 0; r < a.size(); ++r) expect_bitwise(a[r], g[r]);
}

TEST(ModelIo, SequentialRejectsUnknownLayerTag) {
  util::TokenReader in("net 1\nblorp\n");
  EXPECT_THROW(Sequential::load(in, 4), std::runtime_error);
}

TEST(ModelIo, SequentialChecksEachLayerAgainstItsInputWidth) {
  util::Rng rng(59);
  Sequential net = make_mlp(5, 1, 4, rng);
  util::TokenWriter buffer;
  net.save(buffer);
  const std::string text(buffer.view());
  {
    util::TokenReader in(text);
    EXPECT_EQ(Sequential::load(in, 5).output_size(5), 1u);
  }
  // A 6-wide input does not fit the first dense record: the error names
  // the record, and the reader's offset is its tag.
  util::TokenReader in(text);
  try {
    Sequential::load(in, 6);
    FAIL() << "a 5-input net loaded for 6-wide rows";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "dense layer 0 takes 5 values per row, but its input has 6"),
              std::string::npos)
        << e.what();
    EXPECT_EQ(in.offset(), text.find("dense"));
  }
}

TEST(ModelIo, TrainConfigRoundTrip) {
  TrainConfig original;
  original.epochs = 12;
  original.batch_size = 77;
  original.learning_rate = 0.015625;
  original.seed = 987654321;
  original.validation_fraction = 0.25;
  original.patience = 9;
  util::TokenWriter buffer;
  save_train_config(buffer, original);
  util::TokenReader in(buffer.view());
  const TrainConfig loaded = load_train_config(in);
  EXPECT_EQ(loaded.epochs, original.epochs);
  EXPECT_EQ(loaded.batch_size, original.batch_size);
  expect_bitwise(loaded.learning_rate, original.learning_rate);
  EXPECT_EQ(loaded.seed, original.seed);
  expect_bitwise(loaded.validation_fraction, original.validation_fraction);
  EXPECT_EQ(loaded.patience, original.patience);
}

}  // namespace
}  // namespace smart::ml
