// Micro-benchmarks (google-benchmark) for the hot paths of the library:
// CPU reference executors, the analytic cost model, random-search tuning,
// stencil representation, and model inference.
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

// One OC-group classification as serve runs it per (stencil, GPU): the
// default 120 rounds x 5 classes of depth-5 trees over the 11 Table II
// features, one row per call.
void BM_GbdtClassifierPredictRow(benchmark::State& state) {
  util::Rng rng(14);
  const std::size_t n = 500;
  constexpr int kClasses = 5;
  ml::Matrix x(n, 11);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 11; ++c) {
      x.at(i, c) = static_cast<float>(rng.uniform(0.0, 1.0));
    }
    const float s = x.at(i, 0) + 0.5f * x.at(i, 1) + 0.25f * x.at(i, 2);
    labels[i] = std::min(kClasses - 1, static_cast<int>(s * 2.8f));
  }
  ml::GbdtClassifier model;
  model.fit(x, labels, kClasses);
  std::size_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_row(x.row(r)));
    r = r + 1 == n ? 0 : r + 1;
  }
}
BENCHMARK(BM_GbdtClassifierPredictRow);

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
