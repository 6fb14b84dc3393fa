// StencilMart::advise_batch against the per-variant reference of
// advise_reference.hpp, bit for bit: both verbs, every GPU, duplicates,
// batches large enough to tune on the task pool and one-item calls that
// tune inline, at the default thread count and under SerialSection.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "advise_reference.hpp"
#include "core/mart.hpp"
#include "stencil/generator.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace smart::core {
namespace {

StencilMart trained_mart(int dims, int num_stencils, int tuning_samples) {
  MartConfig config;  // the default regressor
  config.profile.dims = dims;
  config.profile.num_stencils = num_stencils;
  config.profile.samples_per_oc = 2;
  config.profile.seed = 77;
  config.tuning_samples = tuning_samples;
  StencilMart mart(config);
  mart.train();
  return mart;
}

/// The serve defaults: a 2-D corpus and a 24-draw tuning budget.
const StencilMart& reference_mart() {
  static const StencilMart mart = trained_mart(2, 16, 24);
  return mart;
}

reference::AdviseReference& shared_reference() {
  static reference::AdviseReference ref(reference_mart());
  return ref;
}

void expect_bitwise(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
}

void expect_same_advice(const OcAdvice& got, const OcAdvice& want) {
  EXPECT_EQ(got.group, want.group);
  EXPECT_EQ(got.group_name, want.group_name);
  EXPECT_EQ(got.oc.name(), want.oc.name());
  EXPECT_EQ(got.setting.to_string(), want.setting.to_string());
  expect_bitwise(got.expected_time_ms, want.expected_time_ms);
  expect_bitwise(got.predicted_time_ms, want.predicted_time_ms);
}

void expect_same_rec(const GpuRecommendation& got,
                     const GpuRecommendation& want) {
  EXPECT_EQ(got.fastest_gpu, want.fastest_gpu);
  EXPECT_EQ(got.cheapest_gpu, want.cheapest_gpu);
  expect_bitwise(got.fastest_time_ms, want.fastest_time_ms);
  expect_bitwise(got.cheapest_cost_score, want.cheapest_cost_score);
}

/// Every pattern on every GPU, two of each three as advise, the rest as
/// predict, then six of them again as duplicates.
std::vector<AdviseBatchItem> batch_items(
    const std::vector<stencil::StencilPattern>& patterns) {
  std::vector<AdviseBatchItem> items;
  for (const auto& pattern : patterns) {
    for (const char* gpu : {"P100", "V100", "2080Ti", "A100"}) {
      items.push_back({pattern, gpu, /*recommend=*/items.size() % 3 != 2});
    }
  }
  for (std::size_t i = 0; i < 6; ++i) items.push_back(items[i * 3]);
  return items;
}

/// Six 2-D patterns: 24 distinct variants, enough to tune on the task pool.
std::vector<AdviseBatchItem> reference_items() {
  std::vector<stencil::StencilPattern> patterns = {
      stencil::make_star(2, 1), stencil::make_box(2, 2),
      stencil::make_cross(2, 3), stencil::make_box(2, 4)};
  const stencil::RandomStencilGenerator generator(stencil::GeneratorConfig{});
  util::Rng rng(5);
  for (int i = 0; i < 2; ++i) patterns.push_back(generator.generate(rng));
  return batch_items(patterns);
}

void expect_batch_matches_reference(const StencilMart& mart,
                                    reference::AdviseReference& ref,
                                    const std::vector<AdviseBatchItem>& items) {
  const auto results = mart.advise_batch(items);
  ASSERT_EQ(results.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    SCOPED_TRACE("item " + std::to_string(i) + " " + items[i].pattern.name() +
                 " on " + items[i].gpu);
    ASSERT_TRUE(results[i].ok()) << results[i].error;
    expect_same_advice(results[i].advice,
                       ref.advise(items[i].pattern, ref.gpu_index(items[i].gpu)));
    if (items[i].recommend) {
      expect_same_rec(results[i].rec, ref.recommend(items[i].pattern));
    }
  }
}

TEST(AdviseReference, BatchMatchesPerVariantReference) {
  expect_batch_matches_reference(reference_mart(), shared_reference(),
                                 reference_items());
}

TEST(AdviseReference, SerialBatchMatchesPerVariantReference) {
  const util::SerialSection serial;
  expect_batch_matches_reference(reference_mart(), shared_reference(),
                                 reference_items());
}

TEST(AdviseReference, MemberFallbackMatchesPerVariantReference) {
  // With one tuning draw per variant, some representatives' only draw
  // crashes, so the group-member fallback runs; on the default budget no
  // representative of these corpora crashes on every draw.
  const StencilMart mart = trained_mart(3, 8, 1);
  reference::AdviseReference ref(mart);
  stencil::GeneratorConfig config;
  config.dims = 3;
  const stencil::RandomStencilGenerator generator(config);
  util::Rng rng(5);
  std::vector<stencil::StencilPattern> patterns;
  for (int i = 0; i < 12; ++i) patterns.push_back(generator.generate(rng));
  expect_batch_matches_reference(mart, ref, batch_items(patterns));
  EXPECT_GT(ref.fallbacks(), 0);
  RecordProperty("member_fallbacks", ref.fallbacks());
}

TEST(AdviseReference, OneItemCallsMatchPerVariantReference) {
  // advise() and recommend_gpu() are one-item batches: they tune inline.
  reference::AdviseReference& ref = shared_reference();
  const StencilMart& mart = reference_mart();
  for (const AdviseBatchItem& item : reference_items()) {
    SCOPED_TRACE(item.pattern.name() + " on " + item.gpu);
    expect_same_advice(mart.advise(item.pattern, item.gpu),
                       ref.advise(item.pattern, ref.gpu_index(item.gpu)));
    if (item.recommend) {
      expect_same_rec(mart.recommend_gpu(item.pattern),
                      ref.recommend(item.pattern));
    }
  }
}

}  // namespace
}  // namespace smart::core
