#include "core/corpus_merge.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "util/timing.hpp"

namespace smart::core {

namespace {

std::string name_of(const std::vector<std::string>& sources, std::size_t k) {
  if (k < sources.size() && !sources[k].empty()) return sources[k];
  return "shard corpus #" + std::to_string(k);
}

[[noreturn]] void fail(const std::string& source, const std::string& what) {
  throw std::runtime_error("merge: " + source + ": " + what);
}

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Every field that makes two corpora "the same run": the profiling config
/// identity plus the pinned fault/retry schedule. Any mismatch means the
/// fleet did not execute one coherent single-process schedule, so the merge
/// result could not be bit-identical to anything.
void check_same_run(const ProfileDataset& a, const std::string& a_name,
                    const ProfileDataset& b, const std::string& b_name) {
  const auto differ = [&](const char* field) {
    fail(b_name, std::string(field) + " differs from " + a_name +
                     " (shards of one run must share the exact profiling "
                     "config, retry budget and fault spec)");
  };
  const ProfileConfig& ca = a.config;
  const ProfileConfig& cb = b.config;
  if (ca.dims != cb.dims) differ("dims");
  if (ca.max_order != cb.max_order) differ("max_order");
  if (ca.num_stencils != cb.num_stencils) differ("num_stencils");
  if (ca.samples_per_oc != cb.samples_per_oc) differ("samples_per_oc");
  if (ca.seed != cb.seed) differ("seed");
  if (!same_bits(ca.sim.noise_sigma, cb.sim.noise_sigma)) {
    differ("noise_sigma");
  }
  if (ca.sim.seed != cb.sim.seed) differ("sim seed");
  if (ca.vary_problem_size != cb.vary_problem_size) {
    differ("vary_problem_size");
  }
  if (ca.vary_boundary != cb.vary_boundary) differ("vary_boundary");
  if (a.shard_retries != b.shard_retries) differ("retry budget");
  if (a.shard_fault_spec != b.shard_fault_spec) differ("fault spec");

  if (a.stencils.size() != b.stencils.size()) differ("stencil count");
  for (std::size_t s = 0; s < a.stencils.size(); ++s) {
    if (a.stencils[s].hash() != b.stencils[s].hash()) differ("stencil set");
    const auto& pa = a.problems[s];
    const auto& pb = b.problems[s];
    if (std::tie(pa.nx, pa.ny, pa.nz, pa.boundary) !=
        std::tie(pb.nx, pb.ny, pb.nz, pb.boundary)) {
      differ("per-stencil problem sizes");
    }
  }
  for (std::size_t s = 0; s < a.settings.size(); ++s) {
    for (std::size_t oc = 0; oc < a.settings[s].size(); ++oc) {
      const auto& sa = a.settings[s][oc];
      const auto& sb = b.settings[s][oc];
      if (sa.size() != sb.size()) differ("sampled settings");
      for (std::size_t k = 0; k < sa.size(); ++k) {
        if (sa[k].hash() != sb[k].hash()) differ("sampled settings");
      }
    }
  }
}

}  // namespace

ProfileDataset merge_shard_corpora(std::vector<ProfileDataset> shards,
                                   const std::vector<std::string>& sources) {
  const util::PhaseTimer timer("merge.fold", shards.size());
  if (shards.empty()) {
    throw std::invalid_argument(
        "merge_shard_corpora: at least one shard corpus is required");
  }

  // --- Partition shape: every member agrees on N, indices are exactly
  // --- the permutation 0..N-1 (no duplicates, no gaps).
  const std::size_t count = shards[0].shard.count;
  for (std::size_t k = 1; k < shards.size(); ++k) {
    if (shards[k].shard.count != count) {
      fail(name_of(sources, k),
           "shard count " + std::to_string(shards[k].shard.count) +
               " does not match " + name_of(sources, 0) + " (" +
               std::to_string(count) + ")");
    }
  }
  // (index, file) pairs sorted by index: the checks below size nothing
  // from the count a header claims, only from the files given. Once they
  // pass, count == shards.size() and file_of_index[i].second is the file
  // holding shard i.
  std::vector<std::pair<std::size_t, std::size_t>> file_of_index;
  file_of_index.reserve(shards.size());
  for (std::size_t k = 0; k < shards.size(); ++k) {
    file_of_index.emplace_back(shards[k].shard.index, k);
  }
  std::sort(file_of_index.begin(), file_of_index.end());
  for (std::size_t k = 0; k < shards.size(); ++k) {
    const std::size_t i = shards[k].shard.index;
    if (i >= count) {
      fail(name_of(sources, k), "shard index " + std::to_string(i) +
                                    " out of range for an " +
                                    std::to_string(count) + "-way partition");
    }
    const std::size_t first =
        std::lower_bound(file_of_index.begin(), file_of_index.end(),
                         std::pair<std::size_t, std::size_t>{i, 0})
            ->second;
    if (first != k) {
      fail(name_of(sources, k),
           "duplicate shard " + std::to_string(i) + "/" +
               std::to_string(count) + " (already provided by " +
               name_of(sources, first) + ")");
    }
  }
  // The indices are now distinct and below count, so the smallest missing
  // one is the first position whose index differs from it, at most
  // shards.size().
  for (std::size_t i = 0; i < count; ++i) {
    if (i == file_of_index.size() || file_of_index[i].first != i) {
      fail("partition", "missing shard " + std::to_string(i) + "/" +
                            std::to_string(count) +
                            " (a merge needs the complete partition 0..N-1)");
    }
  }

  // --- One coherent run identity across all members.
  for (std::size_t k = 1; k < shards.size(); ++k) {
    check_same_run(shards[0], name_of(sources, 0), shards[k],
                   name_of(sources, k));
  }

  // --- Ownership audit: a measured (or quarantined) unit must come from
  // --- the shard the partition hash assigns it to, and every owned unit
  // --- must have been measured (quarantined units carry the all-NaN
  // --- crashed convention, so they are "measured" here too). This is what
  // --- rejects overlapping or incomplete hand-edited shards.
  const std::size_t n = shards[0].stencils.size();
  const std::size_t num_gpus = shards[0].gpus.size();
  const std::size_t num_ocs = ProfileDataset::num_ocs();
  std::vector<std::uint64_t> hashes(n);
  for (std::size_t s = 0; s < n; ++s) hashes[s] = shards[0].stencils[s].hash();

  for (std::size_t k = 0; k < shards.size(); ++k) {
    const ProfileDataset& shard = shards[k];
    const auto unit_name = [&](std::size_t s, std::size_t oc, std::size_t g) {
      return "unit (stencil " + std::to_string(s) + ", oc " +
             std::to_string(oc) + ", gpu " + std::to_string(g) + ")";
    };
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t g = 0; g < num_gpus; ++g) {
        for (std::size_t oc = 0; oc < num_ocs; ++oc) {
          const std::size_t owner = shard_owner(hashes[s], oc, g, count);
          const auto& times = shard.times[s][g][oc];
          if (owner == shard.shard.index) {
            if (times.size() != shards[0].settings[s][oc].size()) {
              fail(name_of(sources, k),
                   unit_name(s, oc, g) + (times.empty()
                       ? " is owned by this shard but was never measured"
                       : " has a time count that does not match the sampled "
                         "settings"));
            }
          } else if (!times.empty()) {
            fail(name_of(sources, k),
                 unit_name(s, oc, g) + " is owned by shard " +
                     std::to_string(owner) +
                     " but carries measurements here (overlapping shards)");
          }
        }
      }
    }
    for (const QuarantineRecord& q : shard.quarantined) {
      const std::size_t owner = shard_owner(hashes[q.stencil], q.oc, q.gpu, count);
      if (owner != shard.shard.index) {
        fail(name_of(sources, k),
             "quarantine record for " + unit_name(q.stencil, q.oc, q.gpu) +
                 " belongs to shard " + std::to_string(owner));
      }
    }
  }

  // --- Fold. Metadata moves from shard 0 (all members proved identical);
  // --- each unit's times move from its owner; quarantine records are
  // --- re-sorted into the canonical single-run order.
  ProfileDataset merged;
  merged.config = shards[0].config;
  merged.problem = shards[0].problem;
  merged.gpus = std::move(shards[0].gpus);
  merged.stencils = std::move(shards[0].stencils);
  merged.problems = std::move(shards[0].problems);
  merged.settings = std::move(shards[0].settings);
  merged.shard_retries = shards[0].shard_retries;
  merged.shard_fault_spec = shards[0].shard_fault_spec;
  merged.owned_units = n * num_gpus * num_ocs;

  merged.times.assign(n, std::vector<std::vector<std::vector<double>>>(
                             num_gpus,
                             std::vector<std::vector<double>>(num_ocs)));
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t g = 0; g < num_gpus; ++g) {
      for (std::size_t oc = 0; oc < num_ocs; ++oc) {
        const std::size_t k =
            file_of_index[shard_owner(hashes[s], oc, g, count)].second;
        merged.times[s][g][oc] = std::move(shards[k].times[s][g][oc]);
      }
    }
  }
  for (ProfileDataset& shard : shards) {
    merged.quarantined.insert(merged.quarantined.end(),
                              std::make_move_iterator(shard.quarantined.begin()),
                              std::make_move_iterator(shard.quarantined.end()));
  }
  // Reason is a tiebreak only for adversarial inputs (a real run journals at
  // most one quarantine per unit); the unit key alone reproduces the
  // single-run order.
  std::sort(merged.quarantined.begin(), merged.quarantined.end(),
            [](const QuarantineRecord& a, const QuarantineRecord& b) {
              return std::tie(a.stencil, a.oc, a.gpu, a.reason) <
                     std::tie(b.stencil, b.oc, b.gpu, b.reason);
            });
  return merged;
}

}  // namespace smart::core
