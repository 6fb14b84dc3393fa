// Model artifact contract (train-once/serve-many): a StencilMart saved with
// save_model and reloaded with load_model must advise bit-identically to the
// in-memory model, for every regressor kind, in serial mode and at the
// default thread count. Comparisons use std::bit_cast so a 1-ulp drift in
// the reloaded weights fails loudly (PR-2 style).
//
// The suite also pins the artifact's error paths: bad magic, unsupported
// version, truncation, checksum corruption, NaN weights smuggled into a
// re-checksummed payload, trailing payload data, counts too large for the
// payload and split features outside the input row all raise a clear
// std::runtime_error instead of producing a silently-wrong model. The
// writer's bytes are pinned per regressor kind, and a seeded mutation fuzz
// holds the reader to "located error or byte-stable round trip".
//
// Suite names map onto the ctest label groups (tests/CMakeLists.txt):
//   ModelArtifact.*          -> unit      (round trips under SerialSection)
//   ParallelModelArtifact.*  -> parallel  (round trips at default threads)
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/mart.hpp"
#include "core/serialize.hpp"
#include "stencil/pattern.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/serialize_io.hpp"
#include "util/task_pool.hpp"

namespace smart::core {
namespace {

void expect_bitwise(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
}

const ProfileDataset& artifact_corpus() {
  static const ProfileDataset ds = [] {
    ProfileConfig cfg;
    cfg.dims = 2;
    cfg.num_stencils = 6;
    cfg.samples_per_oc = 2;
    cfg.seed = 909;
    return build_profile_dataset(cfg);
  }();
  return ds;
}

MartConfig small_config(RegressorKind kind) {
  MartConfig config;
  config.regressor = kind;
  config.regression.epochs = 3;
  config.regression.instance_cap = 600;
  config.tuning_samples = 8;
  return config;
}

/// One trained mart per regressor kind, fitted once from the shared corpus
/// (at default threads) and reused by the serial and parallel suites — the
/// contract under test is save/load + inference, not fitting.
const StencilMart& trained_mart(RegressorKind kind) {
  static std::vector<std::unique_ptr<StencilMart>> marts(3);
  auto& slot = marts[static_cast<std::size_t>(kind)];
  if (!slot) {
    slot = std::make_unique<StencilMart>(small_config(kind));
    slot->train(artifact_corpus());
  }
  return *slot;
}

std::vector<stencil::StencilPattern> query_patterns() {
  return {stencil::make_star(2, 2), stencil::make_box(2, 1),
          stencil::make_cross(2, 3)};
}

/// Saves `mart`, reloads it, and checks that every advise/recommend_gpu
/// output is identical — doubles bitwise — for unseen query stencils.
void check_round_trip(RegressorKind kind) {
  const StencilMart& original = trained_mart(kind);
  std::stringstream buffer;
  save_model(original, buffer);
  const StencilMart loaded = load_model(buffer);
  EXPECT_TRUE(loaded.trained());
  EXPECT_EQ(loaded.config().regressor, kind);
  EXPECT_EQ(loaded.config().profile.dims, original.config().profile.dims);

  for (const auto& pattern : query_patterns()) {
    for (const auto& gpu : original.dataset().gpus) {
      const OcAdvice a = original.advise(pattern, gpu.name);
      const OcAdvice b = loaded.advise(pattern, gpu.name);
      EXPECT_EQ(a.group, b.group);
      EXPECT_EQ(a.group_name, b.group_name);
      EXPECT_EQ(a.oc.name(), b.oc.name());
      EXPECT_EQ(a.setting.to_string(), b.setting.to_string());
      expect_bitwise(a.expected_time_ms, b.expected_time_ms);
      expect_bitwise(a.predicted_time_ms, b.predicted_time_ms);
    }
    const GpuRecommendation ra = original.recommend_gpu(pattern);
    const GpuRecommendation rb = loaded.recommend_gpu(pattern);
    EXPECT_EQ(ra.fastest_gpu, rb.fastest_gpu);
    EXPECT_EQ(ra.cheapest_gpu, rb.cheapest_gpu);
    expect_bitwise(ra.fastest_time_ms, rb.fastest_time_ms);
    expect_bitwise(ra.cheapest_cost_score, rb.cheapest_cost_score);
  }
}

std::string saved(const StencilMart& mart) {
  std::stringstream buffer;
  save_model(mart, buffer);
  return buffer.str();
}

/// A saved artifact per regressor kind, reused by the tests below.
const std::string& reference_artifact(RegressorKind kind = RegressorKind::kGbr) {
  static std::vector<std::string> artifacts(3);
  std::string& artifact = artifacts[static_cast<std::size_t>(kind)];
  if (artifact.empty()) artifact = saved(trained_mart(kind));
  return artifact;
}

void expect_load_fails(const std::string& text, const std::string& needle) {
  std::stringstream in(text);
  try {
    load_model(in);
    FAIL() << "load_model accepted a corrupted artifact";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

/// Rebuilds a syntactically valid envelope (size + FNV-1a checksum) around a
/// tampered payload, so the corruption reaches the section parsers instead
/// of tripping the checksum gate.
std::string reseal(const std::string& payload) {
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(util::fnv1a64(payload)));
  std::ostringstream out;
  out << "stencilmart-model-v1\npayload " << payload.size() << '\n'
      << payload << "checksum " << digest << '\n';
  return out.str();
}

/// The payload bytes of an artifact: between the "payload N" line and the
/// checksum trailer.
std::string payload_of(const std::string& artifact) {
  const std::size_t header_end = artifact.find('\n', artifact.find("payload"));
  const std::size_t checksum_pos = artifact.rfind("checksum ");
  return artifact.substr(header_end + 1, checksum_pos - header_end - 1);
}

std::string reference_payload(RegressorKind kind = RegressorKind::kGbr) {
  return payload_of(reference_artifact(kind));
}

/// A small artifact per regressor kind whose classifiers split (the
/// six-stencil reference corpus leaves every classifier tree a single
/// leaf): 16 stencils of max_order 2, a narrow MLP.
const std::string& splitting_artifact(RegressorKind kind) {
  static std::vector<std::string> artifacts(3);
  std::string& artifact = artifacts[static_cast<std::size_t>(kind)];
  if (artifact.empty()) {
    ProfileConfig cfg;
    cfg.dims = 2;
    cfg.max_order = 2;
    cfg.num_stencils = 16;
    cfg.samples_per_oc = 1;
    cfg.seed = 1618;
    MartConfig config = small_config(kind);
    config.regression.epochs = 2;
    config.regression.instance_cap = 200;
    config.regression.mlp_hidden_layers = 1;
    config.regression.mlp_width = 16;
    config.tuning_samples = 4;
    StencilMart mart(config);
    mart.train(build_profile_dataset(cfg));
    artifact = saved(mart);
  }
  return artifact;
}

/// Loads `artifact` under the source name "model.smart" and returns the
/// error message (empty when it loaded).
std::string load_error(const std::string& artifact) {
  std::stringstream in(artifact);
  try {
    load_model(in, "model.smart");
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

std::string located_at(std::size_t offset) {
  return "model.smart: payload byte offset " + std::to_string(offset) + ": ";
}

/// Offset of the first node line of the first tree at or after `from`
/// whose root splits (feature >= 0).
std::size_t first_split_root(const std::string& payload, std::size_t from) {
  for (std::size_t tree = payload.find("\ntree ", from);
       tree != std::string::npos; tree = payload.find("\ntree ", tree + 1)) {
    const std::size_t root = payload.find('\n', tree + 1) + 1;
    if (payload[root] != '-') return root;
  }
  return std::string::npos;
}

// --- unit label: round trips pinned to one thread. ---

TEST(ModelArtifact, GbrRoundTripIsBitIdenticalSerial) {
  const util::SerialSection serial;
  check_round_trip(RegressorKind::kGbr);
}

TEST(ModelArtifact, MlpRoundTripIsBitIdenticalSerial) {
  const util::SerialSection serial;
  check_round_trip(RegressorKind::kMlp);
}

TEST(ModelArtifact, ConvMlpRoundTripIsBitIdenticalSerial) {
  const util::SerialSection serial;
  check_round_trip(RegressorKind::kConvMlp);
}

TEST(ModelArtifact, FileRoundTrip) {
  const std::string path = testing::TempDir() + "smart_model_test.smart";
  save_model(trained_mart(RegressorKind::kGbr), path);
  const StencilMart loaded = load_model(path);
  EXPECT_TRUE(loaded.trained());
  const auto pattern = stencil::make_star(2, 2);
  const OcAdvice a = trained_mart(RegressorKind::kGbr).advise(pattern, "V100");
  const OcAdvice b = loaded.advise(pattern, "V100");
  EXPECT_EQ(a.oc.name(), b.oc.name());
  expect_bitwise(a.predicted_time_ms, b.predicted_time_ms);
  std::remove(path.c_str());
}

TEST(ModelArtifact, UntrainedSaveThrows) {
  StencilMart mart(small_config(RegressorKind::kGbr));
  std::stringstream buffer;
  EXPECT_THROW(save_model(mart, buffer), std::logic_error);
}

TEST(ModelArtifact, TrainOnEmptyCorpusThrows) {
  StencilMart mart(small_config(RegressorKind::kGbr));
  EXPECT_THROW(mart.train(ProfileDataset{}), std::invalid_argument);
}

TEST(ModelArtifact, MissingFileThrows) {
  EXPECT_THROW(load_model("/nonexistent/model.smart"), std::runtime_error);
}

TEST(ModelArtifact, RejectsBadMagic) {
  expect_load_fails("definitely-not-a-model\n", "bad magic");
}

TEST(ModelArtifact, RejectsEmptyStream) {
  expect_load_fails("", "empty stream");
}

TEST(ModelArtifact, RejectsUnsupportedVersion) {
  std::string text = reference_artifact();
  const std::string from = "stencilmart-model-v1";
  text.replace(0, from.size(), "stencilmart-model-v999");
  expect_load_fails(text, "unsupported model format version");
}

TEST(ModelArtifact, RejectsTruncatedPayload) {
  const std::string& artifact = reference_artifact();
  expect_load_fails(artifact.substr(0, artifact.size() / 2), "truncated");
}

TEST(ModelArtifact, RejectsFlippedChecksumByte) {
  std::string text = reference_artifact();
  const std::size_t pos = text.rfind("checksum ") + 9;
  text[pos] = text[pos] == 'f' ? '0' : 'f';
  expect_load_fails(text, "checksum mismatch");
}

TEST(ModelArtifact, RejectsFlippedPayloadByte) {
  std::string text = reference_artifact();
  // Flip one byte in the middle of the payload; the checksum gate must
  // reject it before any section parser runs.
  const std::size_t pos = text.size() / 2;
  text[pos] = text[pos] == 'x' ? 'y' : 'x';
  expect_load_fails(text, "checksum mismatch");
}

TEST(ModelArtifact, RejectsNanWeightEvenWithValidChecksum) {
  std::string payload = reference_payload();
  // Replace the first hexfloat token with "nan" and re-seal the envelope:
  // the strict readers must still refuse the non-finite weight.
  std::size_t pos = payload.find(" 0x");
  if (pos == std::string::npos) pos = payload.find(" -0x");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t end = payload.find_first_of(" \n", pos + 1);
  ASSERT_NE(end, std::string::npos);
  payload.replace(pos, end - pos, " nan");
  std::stringstream in(reseal(payload));
  EXPECT_THROW(load_model(in), std::runtime_error);
}

TEST(ModelArtifact, RejectsTrailingPayloadData) {
  expect_load_fails(reseal(reference_payload() + "bogus 1 2\n"),
                    "trailing data");
}

TEST(ModelArtifact, PayloadParseErrorsCarrySourceAndByteOffset) {
  // Satellite contract: a malformed (but checksum-valid) payload reports
  // "<source>: payload byte offset N: ..." so the failing section can be
  // located inside a multi-kilobyte artifact.
  std::stringstream in(reseal(reference_payload() + "bogus 1 2\n"));
  try {
    load_model(in, "model.smart");
    FAIL() << "load_model accepted trailing payload data";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("model.smart: payload byte offset "), 0u) << what;
    EXPECT_NE(what.find("trailing data"), std::string::npos) << what;
  }
  // The offset names the first byte of the offending token: here a
  // mid-payload section word.
  std::string payload = reference_payload();
  const std::size_t pos = payload.find("\nregconfig ") + 1;
  payload.replace(pos, 9, "regkonfig");
  const std::string what = load_error(reseal(payload));
  EXPECT_EQ(what.find(located_at(pos)), 0u) << what;
  EXPECT_NE(what.find("expected 'regconfig', got 'regkonfig'"),
            std::string::npos)
      << what;
  // Envelope errors (pre-payload) stay un-prefixed: the artifact, not a
  // section inside it, is the problem.
  expect_load_fails("definitely-not-a-model\n", "bad magic");
}

TEST(ModelArtifact, OversizedCountsAreRejectedBeforeAllocation) {
  // Each count is replaced in a resealed payload by one whose items could
  // never fit in the bytes left. The reader must refuse it at the count
  // token, before any container is sized from it.
  struct Case {
    RegressorKind kind;
    std::string before;  // text ending right before the count token
    std::string count;   // the count token to replace
    std::string huge;
  };
  const std::string big = "1000000000000000000";
  const std::vector<Case> cases = {
      {RegressorKind::kGbr, "\ntree ", "", big},
      {RegressorKind::kMlp, "\nmat ", "", big},
      {RegressorKind::kMlp, "\nscaler ", "", big},
      {RegressorKind::kGbr, "\nocmerger ", "", "20000000"},
      {RegressorKind::kGbr, "\nocmerger ", "N", big},
      {RegressorKind::kGbr, "\ngbc ", "classes", "20000000"},
      {RegressorKind::kGbr, "\ngbc ", "trees", big},
      {RegressorKind::kGbr, "\ngbr ", "trees", big},
  };
  for (const Case& c : cases) {
    std::string payload = reference_payload(c.kind);
    std::size_t pos = payload.find(c.before);
    ASSERT_NE(pos, std::string::npos) << c.before;
    pos += c.before.size();
    if (c.count == "N") {
      pos = payload.find(' ', pos) + 1;  // the second count on the line
    } else if (c.count == "classes") {
      pos = payload.find('\n', pos) + 1;  // after the params line
    } else if (c.count == "trees") {
      // gbc: params line, classes + base scores line, then the tree count;
      // gbr: params line, then "base trees".
      pos = payload.find('\n', pos) + 1;
      pos = c.before == "\ngbc " ? payload.find('\n', pos) + 1
                                 : payload.find(' ', pos) + 1;
    }
    const std::size_t end = payload.find_first_of(" \n", pos);
    payload.replace(pos, end - pos, c.huge);
    const std::string what = load_error(reseal(payload));
    EXPECT_EQ(what.find(located_at(pos)), 0u) << c.before << c.count << ": "
                                              << what;
    EXPECT_NE(what.find("count " + c.huge + " cannot fit"), std::string::npos)
        << what;
  }
}

TEST(ModelArtifact, RejectsSplitFeatureOutsideInputWidth) {
  // A checksum-valid artifact whose split reads past the model's input row
  // would send the forest walk out of bounds at the first advise; the
  // reader refuses it at the feature token.
  for (const char* section : {"\ngbc ", "\ngbr "}) {
    std::string payload = payload_of(splitting_artifact(RegressorKind::kGbr));
    const std::size_t root = first_split_root(payload, payload.find(section));
    ASSERT_NE(root, std::string::npos) << section;
    payload.replace(root, payload.find(' ', root) - root, "100000000");
    ASSERT_EQ(section == std::string("\ngbc "),
              root < payload.find("\nfitted "));
    const std::string what = load_error(reseal(payload));
    EXPECT_EQ(what.find(located_at(root)), 0u) << what;
    EXPECT_NE(what.find("split feature 100000000 outside the"),
              std::string::npos)
        << what;
  }
  // The classifiers read the 3 + 2 * max_order Table II features, 7 at
  // max_order 2: the last one is a valid split, one past it is not.
  const int width = 7;
  const std::string payload =
      payload_of(splitting_artifact(RegressorKind::kGbr));
  const std::size_t root = first_split_root(payload, payload.find("\ngbc "));
  ASSERT_LT(root, payload.find("\nfitted "));
  const std::size_t end = payload.find(' ', root);
  std::string last = payload;
  last.replace(root, end - root, std::to_string(width - 1));
  EXPECT_EQ(load_error(reseal(last)), "");
  std::string past = payload;
  past.replace(root, end - root, std::to_string(width));
  const std::string what = load_error(reseal(past));
  EXPECT_EQ(what.find(located_at(root)), 0u) << what << " width " << width;
}

TEST(ModelArtifact, RejectsNetRecordsOfTheWrongWidth) {
  // ConvMLP at max_order 2 feeds its conv branch 25-float tensor rows. A
  // resealed conv record widened to 9x9 takes 81 floats per row: it used
  // to load and then read past every row at the first advise.
  {
    std::string payload = payload_of(splitting_artifact(RegressorKind::kConvMlp));
    const std::string conv = "\nconv2 1 6 5 5 3\n";
    const std::size_t at = payload.find(conv);
    ASSERT_NE(at, std::string::npos);
    payload.replace(at, conv.size(), "\nconv2 1 6 9 9 3\n");
    const std::string what = load_error(reseal(payload));
    EXPECT_EQ(what.find(located_at(at + 1)), 0u) << what;
    EXPECT_NE(what.find("conv2 layer 0 takes 81 values per row, but its input "
                        "has 25"),
              std::string::npos)
        << what;
  }
  // The MLP (one 16-wide hidden layer) ends in a 16x1 dense record;
  // reshaped to 8x2 (same weights, a second bias) it takes 8 of the 16
  // values the hidden layer outputs.
  {
    std::string payload = payload_of(splitting_artifact(RegressorKind::kMlp));
    const std::size_t net = payload.find("\nnnreg\n");
    ASSERT_NE(net, std::string::npos);
    const std::size_t last = payload.rfind("\ndense\n");
    ASSERT_GT(last, net);
    const std::size_t weights = last + std::string("\ndense\n").size();
    ASSERT_EQ(payload.compare(weights, 9, "mat 16 1 "), 0);
    payload.replace(weights, 9, "mat 8 2 ");
    const std::size_t bias = payload.find('\n', weights) + 1;
    const std::size_t bias_end = payload.find('\n', bias);
    ASSERT_EQ(payload.compare(bias, 8, "mat 1 1 "), 0);
    const std::string value = payload.substr(bias + 8, bias_end - bias - 8);
    payload.replace(bias, bias_end - bias, "mat 1 2 " + value + ' ' + value);
    const std::string what = load_error(reseal(payload));
    EXPECT_EQ(what.find(located_at(last + 1)), 0u) << what;
    EXPECT_NE(what.find("dense layer 2 takes 8 values per row, but its input "
                        "has 16"),
              std::string::npos)
        << what;
  }
}

/// FNV checksums of the three test artifacts as the iostream-based writer
/// produced them. The golden check.sh artifacts are GBR only, so these are
/// the pins on the `mat` and f32 tokens of the MLP and ConvMLP writers.
void expect_pinned(RegressorKind kind, const char* checksum) {
  const std::string& artifact = reference_artifact(kind);
  EXPECT_EQ(artifact.substr(artifact.rfind("checksum ")),
            std::string("checksum ") + checksum + "\n");
}

TEST(ModelArtifact, ArtifactBytesArePinnedGbr) {
  expect_pinned(RegressorKind::kGbr, "e942d9bee6489647");
}

TEST(ModelArtifact, ArtifactBytesArePinnedMlp) {
  expect_pinned(RegressorKind::kMlp, "f4ec8a5cc3762d5a");
}

TEST(ModelArtifact, ArtifactBytesArePinnedConvMlp) {
  expect_pinned(RegressorKind::kConvMlp, "3a8186e311052779");
}

TEST(ModelArtifact, InspectModelReportsVersionAndChecksum) {
  // inspect_model validates the envelope (the serve banner/healthz path)
  // without parsing the payload; version and checksum must match the
  // artifact bytes exactly.
  const std::string& artifact = reference_artifact();
  std::stringstream in(artifact);
  const ModelArtifactInfo info = inspect_model(in);
  EXPECT_EQ(info.version, "stencilmart-model-v1");
  const std::size_t pos = artifact.rfind("checksum ") + 9;
  EXPECT_EQ(info.checksum, artifact.substr(pos, 16));
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(
                    util::fnv1a64(reference_payload())));
  EXPECT_EQ(info.checksum, digest);

  // Path overload reads the same envelope from disk.
  const std::string path = testing::TempDir() + "smart_inspect_test.smart";
  save_model(trained_mart(RegressorKind::kGbr), path);
  const ModelArtifactInfo from_file = inspect_model(path);
  EXPECT_EQ(from_file.version, info.version);
  EXPECT_EQ(from_file.checksum, info.checksum);
  std::remove(path.c_str());
}

TEST(ModelArtifact, LoadReportsTheEnvelopeOfWhatItLoaded) {
  // The serve provider takes version and checksum from the load itself:
  // one read, one hash, and the metadata of exactly the bytes it parsed.
  const std::string path = testing::TempDir() + "smart_load_info_test.smart";
  save_model(trained_mart(RegressorKind::kGbr), path);
  ModelArtifactInfo info;
  const StencilMart loaded = load_model(path, info);
  EXPECT_TRUE(loaded.trained());
  const ModelArtifactInfo inspected = inspect_model(path);
  EXPECT_EQ(info.version, inspected.version);
  EXPECT_EQ(info.checksum, inspected.checksum);
  EXPECT_EQ(info.checksum, reference_artifact().substr(
                               reference_artifact().rfind("checksum ") + 9, 16));
  std::remove(path.c_str());
}

TEST(ModelArtifact, InspectModelRejectsEnvelopeCorruption) {
  const auto expect_inspect_fails = [](const std::string& text,
                                       const std::string& needle) {
    std::stringstream in(text);
    try {
      inspect_model(in);
      FAIL() << "inspect_model accepted a corrupted artifact";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "actual message: " << e.what();
    }
  };
  expect_inspect_fails("definitely-not-a-model\n", "bad magic");
  expect_inspect_fails("", "empty stream");
  const std::string& artifact = reference_artifact();
  expect_inspect_fails(artifact.substr(0, artifact.size() / 2), "truncated");
  std::string flipped = artifact;
  const std::size_t pos = flipped.rfind("checksum ") + 9;
  flipped[pos] = flipped[pos] == 'f' ? '0' : 'f';
  expect_inspect_fails(flipped, "checksum mismatch");
  EXPECT_THROW(inspect_model("/nonexistent/model.smart"), std::runtime_error);
}

TEST(ModelArtifact, AtomicSaveLeavesDestinationIntactOnFailure) {
  const std::string path = testing::TempDir() + "smart_atomic_model.smart";
  save_model(trained_mart(RegressorKind::kGbr), path);
  {
    const util::ScopedFaultInjection faults("seed=1;io:p=1");
    EXPECT_THROW(save_model(trained_mart(RegressorKind::kGbr), path),
                 std::runtime_error);
  }
  const StencilMart loaded = load_model(path);  // still the intact artifact
  EXPECT_TRUE(loaded.trained());
  std::remove(path.c_str());
}

TEST(ModelArtifact, TrainFromCorpusUsesMeasuredTimes) {
  // Make OC 7 uniformly ~1000x faster than everything the simulator would
  // produce. If train(dataset) actually consumes the corpus's measured
  // times (instead of silently re-profiling, the pre-fix behavior of
  // `advise --corpus`), every advised stencil lands in OC 7's merged group.
  ProfileDataset mutated = artifact_corpus();
  constexpr std::size_t kFastOc = 7;
  for (auto& per_gpu : mutated.times) {
    for (auto& per_oc : per_gpu) {
      for (std::size_t k = 0; k < per_oc[kFastOc].size(); ++k) {
        per_oc[kFastOc][k] = 1e-6 * static_cast<double>(k + 1);
      }
    }
  }
  StencilMart mart(small_config(RegressorKind::kGbr));
  mart.train(mutated);
  // The stored dataset is the corpus, bit for bit — not a fresh profile.
  expect_bitwise(mart.dataset().times[0][0][kFastOc][0], 1e-6);
  const int fast_group = mart.merger().groups()[kFastOc];
  for (std::size_t s = 0; s < mutated.stencils.size(); ++s) {
    const OcAdvice advice = mart.advise(mutated.stencils[s], "V100");
    EXPECT_EQ(advice.group, fast_group);
  }
}

/// One seeded edit of the kinds a damaged or hand-edited artifact shows.
void mutate(std::string& text, util::Rng& rng) {
  if (text.empty()) {
    text.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    return;
  }
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const std::size_t at = pick(text.size());
  // The line holding byte `at`: [begin, end), end at its '\n' or the end.
  const std::size_t begin = at == 0 ? 0 : text.rfind('\n', at - 1) + 1;
  const std::size_t end = std::min(text.find('\n', at), text.size());
  // The next whole token at or after `at` that `is_kind` accepts, replaced
  // by one of `spellings`.
  const auto respell = [&](auto is_kind, const auto& spellings) {
    for (std::size_t i = at; i < text.size();) {
      const std::size_t stop =
          std::min(text.find_first_of(" \n", i), text.size());
      if (stop > i && (i == 0 || text[i - 1] == ' ' || text[i - 1] == '\n') &&
          is_kind(std::string_view(text).substr(i, stop - i))) {
        text.replace(i, stop - i, spellings[pick(std::size(spellings))]);
        return;
      }
      i = stop + 1;
    }
  };
  switch (rng.uniform_int(0, 7)) {
    case 0:  // byte flip
      text[at] = static_cast<char>(rng.uniform_int(0, 255));
      break;
    case 1: {  // digit edit
      const char digit = static_cast<char>('0' + rng.uniform_int(0, 9));
      const std::size_t d = text.find_first_of("0123456789", at);
      if (d == std::string::npos) {
        text.insert(at, 1, digit);
      } else {
        text[d] = digit;
      }
      break;
    }
    case 2: {  // token deletion
      std::vector<std::pair<std::size_t, std::size_t>> tokens;
      for (std::size_t i = begin; i < end;) {
        const std::size_t stop = std::min(text.find(' ', i), end);
        if (stop > i) tokens.emplace_back(i, stop);
        i = stop + 1;
      }
      if (tokens.empty()) break;
      const auto [first, last] = tokens[pick(tokens.size())];
      const std::size_t from = first > begin ? first - 1 : first;
      text.erase(from, last - from);
      break;
    }
    case 3:  // line duplication
      text.insert(begin, text.substr(begin, end - begin) + '\n');
      break;
    case 4:  // line deletion
      text.erase(begin, end - begin + 1);
      break;
    case 5:  // truncation
      text.resize(at);
      break;
    case 6: {  // a number respelled: extremes, subnormals, decimals
      static const char* const kNumbers[] = {
          "0x1p+1023", "-0x0p+0", "0x0.0000000000001p-1022", "0x1p-1080",
          "-0x1.fffffffffffffp+1023", "1e-300", "-2.5", "7", "nan", "inf"};
      respell(
          [](std::string_view t) {
            return t.find("0x") != std::string_view::npos;
          },
          kNumbers);
      break;
    }
    default: {  // an integer (a count, index or feature) respelled
      static const char* const kCounts[] = {
          "0", "1", "2", "7", "100000000", "1000000000000000000",
          "18446744073709551616", "-1", "+3", "3x", ""};
      respell(
          [](std::string_view t) {
            return std::all_of(t.begin(), t.end(),
                               [](char c) { return c >= '0' && c <= '9'; });
          },
          kCounts);
      break;
    }
  }
}

/// The payload byte count an artifact declares (0 when it has none).
std::size_t declared_payload_size(const std::string& artifact) {
  const std::size_t line = artifact.find("\npayload ");
  if (line == std::string::npos) return 0;
  return std::strtoull(artifact.c_str() + line + 9, nullptr, 10);
}

/// True for an envelope error, or for "<source>: payload byte offset N: "
/// with N inside a payload of `payload_size` bytes.
bool located(const std::string& what, std::size_t payload_size) {
  if (what.rfind("load_model", 0) == 0) return true;
  const std::string prefix = "fuzz.smart: payload byte offset ";
  if (what.rfind(prefix, 0) != 0) return false;
  std::size_t i = prefix.size();
  std::size_t offset = 0;
  const std::size_t digits_from = i;
  while (i < what.size() && what[i] >= '0' && what[i] <= '9') {
    offset = offset * 10 + static_cast<std::size_t>(what[i++] - '0');
  }
  return i > digits_from && offset <= payload_size &&
         what.compare(i, 2, ": ") == 0;
}

TEST(ModelArtifact, MutationFuzzFailsLocatedOrRoundTrips) {
  // Every mutant of a GBR and an MLP artifact, with its envelope resealed
  // around the edited payload or left as edited, either fails with a
  // located std::runtime_error, or loads into a model that serves (every
  // per-GPU classifier and the regressor run on one stencil) and whose
  // save -> load -> save is byte-stable. No other exception may escape.
  const util::SerialSection serial;
  util::Rng rng(20261018);
  int accepted = 0;
  int rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const RegressorKind kind =
        iter % 2 == 0 ? RegressorKind::kGbr : RegressorKind::kMlp;
    const bool resealed = iter % 4 < 3;
    const std::string& artifact = splitting_artifact(kind);
    std::string text = resealed ? payload_of(artifact) : artifact;
    mutate(text, rng);
    if (rng.bernoulli(0.25)) mutate(text, rng);
    if (resealed) text = reseal(text);
    std::optional<StencilMart> loaded;
    try {
      std::stringstream in(text);
      loaded.emplace(load_model(in, "fuzz.smart"));
    } catch (const std::runtime_error& e) {
      ASSERT_TRUE(located(e.what(), declared_payload_size(text)))
          << "mutant " << iter << ": " << e.what();
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      FAIL() << "mutant " << iter << " escaped as a non-runtime_error: "
             << e.what();
    }
    const auto pattern = stencil::make_star(loaded->config().profile.dims, 1);
    for (const auto& gpu : loaded->dataset().gpus) {
      ASSERT_NO_THROW(loaded->advise(pattern, gpu.name)) << "mutant " << iter;
    }
    const std::string once = saved(*loaded);
    std::stringstream again(once);
    ASSERT_EQ(saved(load_model(again, "resaved.smart")), once)
        << "mutant " << iter;
    ++accepted;
  }
  // Both outcomes are common, so neither half of the contract is vacuous.
  EXPECT_GT(accepted, 200);
  EXPECT_GT(rejected, 200);
}

// --- parallel label: the same round-trip contracts at default threads. ---

TEST(ParallelModelArtifact, GbrRoundTripIsBitIdentical) {
  check_round_trip(RegressorKind::kGbr);
}

TEST(ParallelModelArtifact, MlpRoundTripIsBitIdentical) {
  check_round_trip(RegressorKind::kMlp);
}

TEST(ParallelModelArtifact, ConvMlpRoundTripIsBitIdentical) {
  check_round_trip(RegressorKind::kConvMlp);
}

}  // namespace
}  // namespace smart::core
