// Micro-benchmarks (google-benchmark) for the hot paths of the library:
// CPU reference executors, the analytic cost model, random-search tuning,
// stencil representation, model inference and GBDT fitting.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "core/stencilmart.hpp"
#include "ml/gbdt.hpp"
#include "ml/models.hpp"
#include "stencil/features.hpp"
#include "stencil/tensor_repr.hpp"

namespace {

using namespace smart;

void BM_ReferenceNaive2D(benchmark::State& state) {
  const auto p = stencil::make_star(2, static_cast<int>(state.range(0)));
  const auto w = stencil::uniform_weights(p);
  stencil::Grid g(96, 96, 1, p.order());
  util::Rng rng(1);
  g.fill([&rng](int, int, int) { return rng.uniform(-1.0, 1.0); });
  for (auto _ : state) {
    benchmark::DoNotOptimize(stencil::run_naive({p, w}, g, 1));
  }
  state.SetItemsProcessed(state.iterations() * g.interior_size());
}
BENCHMARK(BM_ReferenceNaive2D)->Arg(1)->Arg(4);

void BM_ReferenceTemporalBlocked2D(benchmark::State& state) {
  const auto p = stencil::make_star(2, 1);
  const auto w = stencil::uniform_weights(p);
  stencil::Grid g(96, 96, 1, 1);
  util::Rng rng(1);
  g.fill([&rng](int, int, int) { return rng.uniform(-1.0, 1.0); });
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stencil::run_temporal_blocked({p, w}, g, 4, 32, 32, 1,
                                      static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_ReferenceTemporalBlocked2D)->Arg(1)->Arg(2)->Arg(4);

void BM_CostModelEvaluate(benchmark::State& state) {
  const gpusim::KernelCostModel model;
  const auto p = stencil::make_box(3, 3);
  const auto problem = gpusim::ProblemSize::paper_default(3);
  gpusim::OptCombination oc;
  oc.st = true;
  oc.rt = true;
  gpusim::ParamSetting s;
  s.stream_dim = 2;
  s.stream_tile = 128;
  const auto& gpu = gpusim::gpu_by_name("V100");
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.evaluate(p, problem, oc, s, gpu));
  }
}
BENCHMARK(BM_CostModelEvaluate);

void BM_TunerTuneAll(benchmark::State& state) {
  const gpusim::Simulator sim;
  const gpusim::RandomSearchTuner tuner(sim, static_cast<int>(state.range(0)));
  const auto p = stencil::make_star(2, 2);
  const auto problem = gpusim::ProblemSize::paper_default(2);
  const auto& gpu = gpusim::gpu_by_name("A100");
  util::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuner.tune_all(p, problem, gpu, rng));
  }
}
BENCHMARK(BM_TunerTuneAll)->Arg(4)->Arg(16);

void BM_RandomStencilGeneration(benchmark::State& state) {
  stencil::GeneratorConfig config;
  config.dims = static_cast<int>(state.range(0));
  config.order = 4;
  const stencil::RandomStencilGenerator gen(config);
  util::Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate(rng));
  }
}
BENCHMARK(BM_RandomStencilGeneration)->Arg(2)->Arg(3);

void BM_TensorAndFeatures(benchmark::State& state) {
  const auto p = stencil::make_box(3, 4);
  for (auto _ : state) {
    const stencil::PatternTensor t(p, 4);
    benchmark::DoNotOptimize(t.to_floats());
    benchmark::DoNotOptimize(stencil::extract_features(p, 4));
  }
}
BENCHMARK(BM_TensorAndFeatures);

void BM_GbdtInference(benchmark::State& state) {
  util::Rng rng(11);
  const std::size_t n = 400;
  ml::Matrix x(n, 11);
  std::vector<float> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 11; ++c) {
      x.at(i, c) = static_cast<float>(rng.uniform(0.0, 1.0));
    }
    y[i] = x.at(i, 0) * 3.0f;
  }
  ml::GbdtParams params;
  params.rounds = 60;
  ml::GbdtRegressor model(params);
  model.fit(x, y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_row(x.row(0)));
  }
}
BENCHMARK(BM_GbdtInference);

/// 500 stencils x the 11 Table II features, labelled with 5 OC groups: the
/// shape of one per-GPU classifier fit in `smartctl train`.
struct ClassifierData {
  static constexpr int kClasses = 5;
  ml::Matrix x{500, 11};
  std::vector<int> labels = std::vector<int>(500);

  explicit ClassifierData(util::Rng& rng) {
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (std::size_t c = 0; c < x.cols(); ++c) {
        x.at(i, c) = static_cast<float>(rng.uniform(0.0, 1.0));
      }
      const float s = x.at(i, 0) + 0.5f * x.at(i, 1) + 0.25f * x.at(i, 2);
      labels[i] = std::min(kClasses - 1, static_cast<int>(s * 2.8f));
    }
  }
};

// One OC-group classification as serve runs it per (stencil, GPU): the
// default 120 rounds x 5 classes of depth-5 trees over the 11 Table II
// features, one row per call.
void BM_GbdtClassifierPredictRow(benchmark::State& state) {
  util::Rng rng(14);
  const ClassifierData data(rng);
  ml::GbdtClassifier model;
  model.fit(data.x, data.labels, ClassifierData::kClasses);
  std::size_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_row(data.x.row(r)));
    r = r + 1 == data.x.rows() ? 0 : r + 1;
  }
}
BENCHMARK(BM_GbdtClassifierPredictRow);

// One per-GPU classifier fit as `smartctl train` runs it: 120 rounds x 5
// classes over 500 rows x 11 features.
void BM_GbdtClassifierFit(benchmark::State& state) {
  util::Rng rng(14);
  const ClassifierData data(rng);
  for (auto _ : state) {
    ml::GbdtClassifier model;
    model.fit(data.x, data.labels, ClassifierData::kClasses);
    benchmark::DoNotOptimize(model.trees().data());
  }
}
BENCHMARK(BM_GbdtClassifierFit)->Unit(benchmark::kMillisecond);

// The regressor fit at the 3000-instance cap `smartctl train` sets: 120
// rounds over 3000 rows x 40 features (Table II, OC, setting and GPU
// features side by side).
void BM_GbdtRegressorFit(benchmark::State& state) {
  util::Rng rng(15);
  const std::size_t n = 3000;
  ml::Matrix x(n, 40);
  std::vector<float> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      // Every fourth column takes 6 values, like the OC and GPU flags.
      x.at(i, c) = c % 4 == 3 ? static_cast<float>(rng.uniform_int(0, 5))
                              : static_cast<float>(rng.uniform(0.0, 1.0));
    }
    y[i] = x.at(i, 0) * x.at(i, 1) * 4.0f + x.at(i, 3) - 2.0f * x.at(i, 5);
  }
  for (auto _ : state) {
    ml::GbdtRegressor model;
    model.fit(x, y);
    benchmark::DoNotOptimize(model.trees().data());
  }
}
BENCHMARK(BM_GbdtRegressorFit)->Unit(benchmark::kMillisecond);

void BM_MlpInference(benchmark::State& state) {
  util::Rng rng(12);
  ml::TrainConfig tc;
  tc.epochs = 1;
  ml::NnRegressor model(ml::make_mlp(30, 4, 64, rng), tc);
  ml::Matrix x(64, 30, 0.5f);
  std::vector<float> y(64, 1.0f);
  model.fit(x, y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(x));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_MlpInference);

void BM_ConvNetForward(benchmark::State& state) {
  util::Rng rng(13);
  ml::Sequential net = ml::make_convnet(2, 4, 5, rng);
  ml::Matrix x(32, 81, 0.0f);
  for (std::size_t i = 0; i < 32; ++i) x.at(i, i * 2) = 1.0f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(x));
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_ConvNetForward);

}  // namespace

BENCHMARK_MAIN();
