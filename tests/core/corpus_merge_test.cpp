// Sharded profiling + deterministic merge (DESIGN.md §14): N shard sweeps
// partition the work-unit space by a pure hash, and merging the N partial
// corpora reproduces the uninterrupted single-process corpus bit-for-bit —
// same serialized bytes, same dataset_checksum — at any thread count, under
// fault injection, and across a journal-truncating crash + resume of any
// shard. scripts/check.sh proves the kill -9 variant end-to-end through
// smartctl.
#include "core/corpus_merge.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/profile_dataset.hpp"
#include "core/serialize.hpp"
#include "util/fault.hpp"
#include "util/task_pool.hpp"

namespace smart::core {
namespace {

namespace fs = std::filesystem;

ProfileConfig small_config() {
  ProfileConfig cfg;
  cfg.dims = 2;
  cfg.num_stencils = 6;
  cfg.samples_per_oc = 2;
  cfg.seed = 99;
  return cfg;
}

std::string serialized(const ProfileDataset& ds) {
  std::ostringstream out;
  save_dataset(ds, out);
  return out.str();
}

ProfileDataset build_shard(const ProfileConfig& cfg, std::size_t index,
                           std::size_t count, int retries = 2) {
  ProfileRunOptions opts;
  opts.shard = ShardSpec{index, count};
  opts.retries = retries;
  return build_profile_dataset(cfg, opts);
}

std::vector<ProfileDataset> build_all_shards(const ProfileConfig& cfg,
                                             std::size_t count) {
  std::vector<ProfileDataset> shards;
  shards.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards.push_back(build_shard(cfg, i, count));
  }
  return shards;
}

std::vector<std::string> names(std::size_t count) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back("shard" + std::to_string(i) + ".txt");
  }
  return out;
}

/// Expects merge_shard_corpora to throw std::runtime_error whose message
/// contains `needle` (the satellite edge cases each have a distinct one).
void expect_merge_error(std::vector<ProfileDataset> shards,
                        const std::string& needle) {
  const auto sources = names(shards.size());
  try {
    merge_shard_corpora(std::move(shards), sources);
    FAIL() << "expected merge rejection mentioning '" << needle << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

// --- The tentpole invariant -----------------------------------------------

TEST(CorpusMergeTest, ShardedSweepMergesBitIdenticalForOneThreeFourShards) {
  const auto baseline = build_profile_dataset(small_config());
  const std::string golden = serialized(baseline);
  const std::uint64_t golden_sum = dataset_checksum(baseline);
  for (const std::size_t n : {1u, 3u, 4u}) {
    const auto merged =
        merge_shard_corpora(build_all_shards(small_config(), n), names(n));
    EXPECT_EQ(serialized(merged), golden) << "n=" << n;
    EXPECT_EQ(dataset_checksum(merged), golden_sum) << "n=" << n;
    EXPECT_FALSE(merged.shard.sharded());
  }
}

TEST(CorpusMergeTest, ShardSweepIsThreadCountInvariant) {
  const auto pooled = build_shard(small_config(), 1, 3);
  ProfileDataset serial;
  {
    const util::SerialSection guard;
    serial = build_shard(small_config(), 1, 3);
  }
  EXPECT_EQ(serialized(serial), serialized(pooled));
  EXPECT_EQ(dataset_checksum(serial), dataset_checksum(pooled));
}

TEST(CorpusMergeTest, PartitionCoversEveryUnitExactlyOnce) {
  const auto counts = shard_unit_counts(small_config(), 4);
  ASSERT_EQ(counts.size(), 4u);
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  const auto probe = build_profile_dataset(small_config());
  const std::size_t units = probe.stencils.size() *
                            ProfileDataset::num_ocs() * probe.num_gpus();
  EXPECT_EQ(total, units);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(build_shard(small_config(), i, 4).owned_units, counts[i]);
  }
  EXPECT_THROW(shard_unit_counts(small_config(), 0), std::invalid_argument);
}

TEST(CorpusMergeTest, ShardOwnerIsIndexAndThreadFree) {
  // Pure function of the unit identity: same inputs, same owner — and the
  // single-shard partition owns everything.
  EXPECT_EQ(shard_owner(0x1234u, 3, 2, 1), 0u);
  const std::size_t a = shard_owner(0xdeadbeefu, 5, 1, 7);
  EXPECT_EQ(a, shard_owner(0xdeadbeefu, 5, 1, 7));
  EXPECT_LT(a, 7u);
}

TEST(CorpusMergeTest, MergeUnderFaultInjectionIsBitIdentical) {
  // Transient faults retried plus permanent quarantines: the merged corpus
  // still matches the single-process run byte-for-byte, because fault
  // decisions hash the unit identity, not the execution order.
  const util::ScopedFaultInjection faults(
      "seed=13;measure:transient:p=0.1;measure:permanent:p=0.05");
  const auto baseline = build_profile_dataset(small_config());
  ASSERT_FALSE(baseline.quarantined.empty());
  const auto merged =
      merge_shard_corpora(build_all_shards(small_config(), 3), names(3));
  EXPECT_EQ(serialized(merged), serialized(baseline));
  EXPECT_EQ(merged.quarantined, baseline.quarantined);
}

TEST(CorpusMergeTest, QuarantineOnlyShardsMergeCleanly) {
  // p=1 permanent faults: every unit of every shard quarantines, so each
  // shard corpus is quarantine records plus all-NaN crash times. Still a
  // valid partition, still bit-identical to the single-process run.
  const util::ScopedFaultInjection faults("seed=4;measure:permanent:p=1.0");
  const auto baseline = build_profile_dataset(small_config());
  const std::size_t units = baseline.stencils.size() *
                            ProfileDataset::num_ocs() * baseline.num_gpus();
  ASSERT_EQ(baseline.quarantined.size(), units);
  const auto shards = build_all_shards(small_config(), 3);
  for (const auto& shard : shards) {
    EXPECT_EQ(shard.quarantined.size(), shard.owned_units);
  }
  const auto merged = merge_shard_corpora(shards, names(3));
  EXPECT_EQ(serialized(merged), serialized(baseline));
}

TEST(CorpusMergeTest, ZeroOwnedUnitsShardIsValidAndMergesCleanly) {
  // Shrink to one stencil and raise N until the hash leaves some shard
  // empty: an empty shard is a legitimate partition member, not an error.
  ProfileConfig cfg = small_config();
  cfg.num_stencils = 1;
  std::size_t n = 0;
  std::size_t empty_shard = 0;
  for (std::size_t candidate = 8; candidate <= 96; candidate += 8) {
    const auto counts = shard_unit_counts(cfg, candidate);
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == 0) {
        n = candidate;
        empty_shard = i;
        break;
      }
    }
    if (n != 0) break;
  }
  ASSERT_NE(n, 0u) << "no empty shard up to N=96; loosen the scan";
  const auto baseline = build_profile_dataset(cfg);
  const auto shards = build_all_shards(cfg, n);
  EXPECT_EQ(shards[empty_shard].owned_units, 0u);
  EXPECT_TRUE(shards[empty_shard].quarantined.empty());
  const auto merged = merge_shard_corpora(shards, names(n));
  EXPECT_EQ(serialized(merged), serialized(baseline));
}

TEST(CorpusMergeTest, InterruptedShardResumesThenMergesBitIdentical) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("smart_merge_resume_" +
       std::to_string(static_cast<long long>(::getpid())));
  fs::create_directories(dir);
  const std::string journal = (dir / "shard1.journal").string();

  const auto baseline = build_profile_dataset(small_config());
  auto shards = build_all_shards(small_config(), 3);

  // Re-run shard 1 with a journal, truncate it mid-line (the kill -9
  // shape), resume, and splice the resumed corpus into the merge.
  ProfileRunOptions opts;
  opts.shard = ShardSpec{1, 3};
  opts.journal_path = journal;
  build_profile_dataset(small_config(), opts);
  std::string full;
  {
    std::ifstream in(journal, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    full = buf.str();
  }
  {
    std::ofstream out(journal, std::ios::binary | std::ios::trunc);
    out << full.substr(0, full.size() / 2 - 11);
  }
  opts.resume = true;
  auto resumed = build_profile_dataset(small_config(), opts);
  EXPECT_GT(resumed.resumed_units, 0u);
  EXPECT_EQ(serialized(resumed), serialized(shards[1]));
  shards[1] = std::move(resumed);

  const auto merged = merge_shard_corpora(std::move(shards), names(3));
  EXPECT_EQ(serialized(merged), serialized(baseline));

  // The journal pins shard identity: a different shard cannot adopt it.
  ProfileRunOptions other;
  other.shard = ShardSpec{2, 3};
  other.journal_path = journal;
  other.resume = true;
  EXPECT_THROW(build_profile_dataset(small_config(), other),
               std::runtime_error);
  fs::remove_all(dir);
}

// --- Shard corpus round trip ----------------------------------------------

TEST(CorpusMergeTest, ShardCorpusRoundTripsWithHeaderAndDistinctChecksum) {
  const util::ScopedFaultInjection faults("seed=13;measure:transient:p=0.05");
  const auto shard = build_shard(small_config(), 2, 4, 3);
  const std::string bytes = serialized(shard);
  // The header pins the canonical (17-digit round-trip) fault spec text.
  EXPECT_NE(bytes.find("shard 2 4 3 seed=13;measure:transient:p="),
            std::string::npos);
  std::istringstream in(bytes);
  const auto loaded = load_dataset(in, "shard2.txt");
  EXPECT_EQ(loaded.shard, (ShardSpec{2, 4}));
  EXPECT_EQ(loaded.shard_retries, 3);
  EXPECT_EQ(loaded.shard_fault_spec, shard.shard_fault_spec);
  EXPECT_FALSE(loaded.shard_fault_spec.empty());
  EXPECT_EQ(serialized(loaded), bytes);
  EXPECT_EQ(dataset_checksum(loaded), dataset_checksum(shard));
  // A partial corpus must never collide with the complete run's digest.
  EXPECT_NE(dataset_checksum(shard),
            dataset_checksum(build_profile_dataset(small_config())));
}

TEST(CorpusMergeTest, LoadRejectsMalformedShardHeader) {
  const std::string bytes = serialized(build_shard(small_config(), 0, 3));
  const auto mangle = [&](const std::string& from, const std::string& to) {
    std::string copy = bytes;
    const std::size_t at = copy.find(from);
    ASSERT_NE(at, std::string::npos);
    copy.replace(at, from.size(), to);
    std::istringstream in(copy);
    EXPECT_THROW(load_dataset(in, "mangled.txt"), std::runtime_error);
  };
  mangle("shard 0 3", "shard 3 3");      // index out of range
  mangle("shard 0 3", "shard 0 1");      // count < 2 is not a shard
  mangle("shard 0 3", "shard x 3");      // unparsable index
  mangle("shard 0 3 2", "shard 0 3 -1");  // negative retries
}

// --- Merge validation: the satellite edge cases ---------------------------

TEST(CorpusMergeTest, MergeRejectsDuplicateShard) {
  auto shards = build_all_shards(small_config(), 3);
  shards[2] = shards[0];
  expect_merge_error(std::move(shards), "duplicate shard 0/3");
}

TEST(CorpusMergeTest, MergeRejectsMissingShard) {
  auto shards = build_all_shards(small_config(), 3);
  shards.pop_back();
  expect_merge_error(std::move(shards), "missing shard 2/3");
}

TEST(CorpusMergeTest, MergeSizesNothingFromTheHeaderCount) {
  // The count comes from the `shard i N` header of a file, so a hand-edited
  // header must not make the merge allocate one slot per claimed shard.
  auto shards = build_all_shards(small_config(), 3);
  shards.pop_back();
  for (ProfileDataset& shard : shards) shard.shard.count = 1ull << 62;
  expect_merge_error(std::move(shards), "missing shard 2/4611686018427387904");
}

TEST(CorpusMergeTest, MergeRejectsMixedShardCounts) {
  auto shards = build_all_shards(small_config(), 3);
  shards[1] = build_shard(small_config(), 1, 4);
  expect_merge_error(std::move(shards), "does not match");
}

TEST(CorpusMergeTest, MergeRejectsOverlappingShards) {
  // Hand-edited overlap: shard 0 additionally carries measurements for a
  // unit the hash assigns to another shard.
  const auto baseline = build_profile_dataset(small_config());
  auto shards = build_all_shards(small_config(), 3);
  bool planted = false;
  for (std::size_t s = 0; s < baseline.stencils.size() && !planted; ++s) {
    for (std::size_t g = 0; g < baseline.gpus.size() && !planted; ++g) {
      for (std::size_t oc = 0; oc < ProfileDataset::num_ocs(); ++oc) {
        if (shard_owner(baseline.stencils[s].hash(), oc, g, 3) != 0) {
          shards[0].times[s][g][oc] = baseline.times[s][g][oc];
          planted = true;
          break;
        }
      }
    }
  }
  ASSERT_TRUE(planted);
  expect_merge_error(std::move(shards), "overlapping shards");
}

TEST(CorpusMergeTest, MergeRejectsUnmeasuredOwnedUnit) {
  auto shards = build_all_shards(small_config(), 3);
  bool cleared = false;
  auto& shard = shards[1];
  for (std::size_t s = 0; s < shard.stencils.size() && !cleared; ++s) {
    for (std::size_t g = 0; g < shard.gpus.size() && !cleared; ++g) {
      for (std::size_t oc = 0; oc < ProfileDataset::num_ocs(); ++oc) {
        if (!shard.times[s][g][oc].empty()) {
          shard.times[s][g][oc].clear();
          cleared = true;
          break;
        }
      }
    }
  }
  ASSERT_TRUE(cleared);
  expect_merge_error(std::move(shards), "never measured");
}

TEST(CorpusMergeTest, MergeRejectsMismatchedRetryBudget) {
  auto shards = build_all_shards(small_config(), 3);
  shards[2] = build_shard(small_config(), 2, 3, /*retries=*/5);
  expect_merge_error(std::move(shards), "retry budget");
}

TEST(CorpusMergeTest, MergeRejectsMismatchedFaultSpec) {
  auto shards = build_all_shards(small_config(), 3);
  {
    const util::ScopedFaultInjection faults(
        "seed=13;measure:transient:p=0.01");
    shards[1] = build_shard(small_config(), 1, 3);
  }
  expect_merge_error(std::move(shards), "fault spec");
}

TEST(CorpusMergeTest, MergeRejectsMismatchedConfig) {
  auto shards = build_all_shards(small_config(), 3);
  ProfileConfig other = small_config();
  other.seed = 100;
  shards[1] = build_shard(other, 1, 3);
  expect_merge_error(std::move(shards), "differs from");
}

TEST(CorpusMergeTest, MergeRejectsForeignQuarantineRecord) {
  auto shards = build_all_shards(small_config(), 3);
  QuarantineRecord bogus;
  // Find a unit shard 0 does NOT own and claim it crashed there.
  for (std::size_t oc = 0; oc < ProfileDataset::num_ocs(); ++oc) {
    if (shard_owner(shards[0].stencils[0].hash(), oc, 0, 3) != 0) {
      bogus.stencil = 0;
      bogus.oc = oc;
      bogus.gpu = 0;
      bogus.reason = "hand-edited";
      break;
    }
  }
  shards[0].quarantined.push_back(bogus);
  expect_merge_error(std::move(shards), "belongs to shard");
}

TEST(CorpusMergeTest, MergeRequiresAtLeastOneShard) {
  EXPECT_THROW(merge_shard_corpora({}, {}), std::invalid_argument);
}

TEST(CorpusMergeTest, BuildRejectsInvalidShardSpec) {
  ProfileRunOptions opts;
  opts.shard = ShardSpec{3, 3};
  EXPECT_THROW(build_profile_dataset(small_config(), opts),
               std::invalid_argument);
  opts.shard = ShardSpec{0, 0};
  EXPECT_THROW(build_profile_dataset(small_config(), opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace smart::core
