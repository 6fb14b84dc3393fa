#include "gpusim/params.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>

namespace smart::gpusim {
namespace {

// gtest prints this struct's raw bytes into each test's name, so it must
// have no padding: padding bytes are uninitialised and would make the
// names differ from one build or run to the next.
struct SpaceCase {
  std::uint32_t oc_bits;
  int dims;
};
static_assert(sizeof(SpaceCase) == sizeof(std::uint32_t) + sizeof(int));

class ParamSpaceProperty : public ::testing::TestWithParam<SpaceCase> {};

TEST_P(ParamSpaceProperty, RandomSettingsAreValid) {
  const auto c = GetParam();
  const OptCombination oc = OptCombination::from_bits(c.oc_bits);
  const ParamSpace space(oc, c.dims);
  util::Rng rng(c.oc_bits * 7 + c.dims);
  for (int i = 0; i < 60; ++i) {
    const ParamSetting s = space.random_setting(rng);
    EXPECT_TRUE(space.is_valid(s)) << s.to_string();
    EXPECT_GE(s.threads_per_block(), 128);
    EXPECT_LE(s.threads_per_block(), 1024);
    if (!oc.st) {
      EXPECT_EQ(s.stream_tile, 0);
      EXPECT_EQ(s.stream_dim, -1);
      EXPECT_EQ(s.unroll, 1);
    }
    if (!(oc.bm || oc.cm)) {
      EXPECT_EQ(s.merge_factor, 1);
      EXPECT_EQ(s.merge_dim, -1);
    }
    if (!oc.tb) {
      EXPECT_EQ(s.tb_depth, 1);
    }
    if (oc.st && (oc.bm || oc.cm)) {
      EXPECT_NE(s.merge_dim, s.stream_dim);
    }
  }
}

namespace {
std::vector<SpaceCase> all_space_cases() {
  std::vector<SpaceCase> cases;
  for (const auto& oc : valid_combinations()) {
    cases.push_back({oc.bits(), 2});
    cases.push_back({oc.bits(), 3});
  }
  return cases;
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(AllOcsAndDims, ParamSpaceProperty,
                         ::testing::ValuesIn(all_space_cases()),
                         [](const auto& info) {
                           return OptCombination::from_bits(info.param.oc_bits)
                                      .name() +
                                  "_" + std::to_string(info.param.dims) + "d";
                         });

TEST_P(ParamSpaceProperty, ClosedFormSizeMatchesEnumeration) {
  // The tuner's exhaustive-sweep threshold relies on size() being exact
  // without paying for an enumeration, so pin the closed form to the
  // enumerated count for every valid OC and dimensionality.
  const auto c = GetParam();
  const ParamSpace space(OptCombination::from_bits(c.oc_bits), c.dims);
  EXPECT_EQ(space.size(), space.enumerate().size());
}

TEST(ParamSpace, EnumerateContainsOnlyValid) {
  OptCombination oc;
  oc.st = true;
  oc.bm = true;
  oc.tb = true;
  const ParamSpace space(oc, 3);
  const auto all = space.enumerate();
  EXPECT_GT(all.size(), 100u);
  for (const auto& s : all) EXPECT_TRUE(space.is_valid(s));
}

TEST(ParamSpace, EnumerateCoversRandomDraws) {
  OptCombination oc;
  oc.cm = true;
  const ParamSpace space(oc, 2);
  const auto all = space.enumerate();
  util::Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const ParamSetting s = space.random_setting(rng);
    bool found = false;
    for (const auto& e : all) {
      if (e == s) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << s.to_string();
  }
}

TEST(ParamSpace, RejectsInvalidOcOrDims) {
  OptCombination invalid;
  invalid.bm = true;
  invalid.cm = true;
  EXPECT_THROW(ParamSpace(invalid, 2), std::invalid_argument);
  EXPECT_THROW(ParamSpace(OptCombination{}, 4), std::invalid_argument);
}

TEST(ParamSetting, FeatureVectorLayout) {
  ParamSetting s;
  s.block_x = 64;
  s.block_y = 8;
  s.merge_factor = 4;
  s.merge_dim = 1;
  s.unroll = 2;
  s.stream_tile = 127;  // log2(127+1) == 7 exactly
  s.stream_dim = 2;
  s.use_smem = true;
  s.tb_depth = 2;
  const auto f = s.to_feature_vector();
  ASSERT_EQ(f.size(), static_cast<std::size_t>(ParamSetting::kNumFeatures));
  EXPECT_DOUBLE_EQ(f[0], 6.0);  // log2(64)
  EXPECT_DOUBLE_EQ(f[1], 3.0);
  EXPECT_DOUBLE_EQ(f[2], 2.0);
  EXPECT_DOUBLE_EQ(f[3], 2.0);  // merge_dim + 1
  EXPECT_DOUBLE_EQ(f[4], 1.0);
  EXPECT_DOUBLE_EQ(f[5], 7.0);  // log2(stream_tile + 1)
  EXPECT_DOUBLE_EQ(f[6], 3.0);
  EXPECT_DOUBLE_EQ(f[7], 1.0);
  EXPECT_DOUBLE_EQ(f[8], 1.0);  // log2(2)
  EXPECT_EQ(ParamSetting::feature_names().size(), f.size());
}

TEST(ParamSetting, NeutralFeatureVector) {
  const ParamSetting s;  // defaults: no merge/stream/tb
  const auto f = s.to_feature_vector();
  EXPECT_DOUBLE_EQ(f[2], 0.0);  // log2(1)
  EXPECT_DOUBLE_EQ(f[3], 0.0);  // merge_dim -1 -> 0
  EXPECT_DOUBLE_EQ(f[5], 0.0);  // log2(0+1)
  EXPECT_DOUBLE_EQ(f[6], 0.0);
}

TEST(ParamSetting, HashDistinguishes) {
  ParamSetting a;
  ParamSetting b;
  b.block_x = 64;
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_EQ(a.hash(), ParamSetting{}.hash());
}

TEST(ParamSetting, ToStringMentionsComponents) {
  ParamSetting s;
  s.merge_factor = 4;
  s.merge_dim = 0;
  s.stream_tile = 128;
  s.stream_dim = 2;
  s.tb_depth = 2;
  s.unroll = 2;
  const auto str = s.to_string();
  EXPECT_NE(str.find("m4"), std::string::npos);
  EXPECT_NE(str.find("st128"), std::string::npos);
  EXPECT_NE(str.find("tb2"), std::string::npos);
  EXPECT_NE(str.find("u2"), std::string::npos);
}

/// The iostream spelling ParamSetting::to_string reproduces.
std::string ostream_setting(const ParamSetting& s) {
  std::ostringstream os;
  os << "b" << s.block_x << "x" << s.block_y;
  if (s.merge_factor > 1) os << " m" << s.merge_factor << "@d" << s.merge_dim;
  if (s.unroll > 1) os << " u" << s.unroll;
  if (s.stream_tile > 0) os << " st" << s.stream_tile << "@d" << s.stream_dim;
  os << (s.use_smem ? " smem" : " nosmem");
  if (s.tb_depth > 1) os << " tb" << s.tb_depth;
  return os.str();
}

TEST(ParamSetting, ToStringMatchesOstreamForEverySetting) {
  std::size_t checked = 0;
  for (const auto& oc : valid_combinations()) {
    for (int dims = 2; dims <= 3; ++dims) {
      for (const ParamSetting& s : ParamSpace(oc, dims).enumerate()) {
        ASSERT_EQ(s.to_string(), ostream_setting(s));
        std::string appended = "setting ";
        s.append_to(appended);
        ASSERT_EQ(appended, "setting " + ostream_setting(s));
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 1000u);
}

TEST(ParamSpace, ForEachSettingVisitsEnumerateOrder) {
  for (const auto& oc : valid_combinations()) {
    for (int dims = 2; dims <= 3; ++dims) {
      const ParamSpace space(oc, dims);
      std::vector<ParamSetting> visited;
      space.for_each_setting([&](const ParamSetting& s) { visited.push_back(s); });
      EXPECT_EQ(visited, space.enumerate());
      EXPECT_EQ(visited.size(), space.size());
    }
  }
}

TEST(ParamSetting, FeatureArrayMatchesVector) {
  ParamSetting s;
  s.merge_factor = 4;
  s.merge_dim = 1;
  s.stream_tile = 128;
  s.stream_dim = 1;
  s.unroll = 2;
  s.tb_depth = 2;
  const auto array = s.feature_array();
  const auto vector = s.to_feature_vector();
  ASSERT_EQ(vector.size(), array.size());
  for (std::size_t i = 0; i < array.size(); ++i) EXPECT_EQ(vector[i], array[i]);
}

}  // namespace
}  // namespace smart::gpusim
