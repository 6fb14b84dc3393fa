#include "core/oc_merger.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <ostream>
#include <set>
#include <stdexcept>

#include "util/serialize_io.hpp"
#include "util/stats.hpp"

namespace smart::core {

namespace {

}  // namespace

std::vector<OcPairCorr> pairwise_pcc(const ProfileDataset& dataset,
                                     std::size_t gpu) {
  const std::size_t num_ocs = dataset.num_ocs();
  const std::size_t n = dataset.stencils.size();

  // Centered log best-times: subtracting each stencil's mean log time
  // removes the dominant "bigger stencil = slower under every OC" signal,
  // so the correlation reflects how similarly two OCs *rank* stencils —
  // the paper's notion of "small difference in performance achieved by
  // pairwise OCs under the same stencil" (Sec. III-C).
  std::vector<std::vector<double>> centered(
      n, std::vector<double>(num_ocs, std::numeric_limits<double>::quiet_NaN()));
  for (std::size_t s = 0; s < n; ++s) {
    double sum = 0.0;
    int count = 0;
    for (std::size_t oc = 0; oc < num_ocs; ++oc) {
      if (!dataset.oc_ok(s, gpu, oc)) continue;
      const double lt = std::log(dataset.oc_best_time(s, gpu, oc));
      centered[s][oc] = lt;
      sum += lt;
      ++count;
    }
    if (count == 0) continue;
    const double mean = sum / count;
    for (std::size_t oc = 0; oc < num_ocs; ++oc) centered[s][oc] -= mean;
  }

  std::vector<OcPairCorr> out;
  for (std::size_t a = 0; a < num_ocs; ++a) {
    for (std::size_t b = a + 1; b < num_ocs; ++b) {
      // Pairwise-complete (crashed OCs are missing data).
      std::vector<double> xs;
      std::vector<double> ys;
      for (std::size_t s = 0; s < n; ++s) {
        if (std::isnan(centered[s][a]) || std::isnan(centered[s][b])) continue;
        xs.push_back(centered[s][a]);
        ys.push_back(centered[s][b]);
      }
      OcPairCorr pair;
      pair.oc_a = static_cast<int>(a);
      pair.oc_b = static_cast<int>(b);
      pair.pcc = xs.size() >= 3 ? std::fabs(util::pearson(xs, ys)) : 0.0;
      out.push_back(pair);
    }
  }
  return out;
}

void OcMerger::fit(const ProfileDataset& dataset, Options options) {
  const int num_ocs = static_cast<int>(dataset.num_ocs());
  if (options.target_groups < 1 || options.target_groups > num_ocs) {
    throw std::invalid_argument("OcMerger: bad target_groups");
  }
  const std::size_t num_gpus = dataset.num_gpus();

  // Top-K pairs per GPU, and the pair-key sets for the intersection stat.
  top_pccs_per_gpu_.assign(num_gpus, {});
  std::vector<std::set<long long>> top_sets(num_gpus);
  std::vector<std::vector<OcPairCorr>> all_pairs(num_gpus);
  auto key_of = [num_ocs](const OcPairCorr& p) {
    return static_cast<long long>(p.oc_a) * num_ocs + p.oc_b;
  };
  for (std::size_t g = 0; g < num_gpus; ++g) {
    all_pairs[g] = pairwise_pcc(dataset, g);
    std::sort(all_pairs[g].begin(), all_pairs[g].end(),
              [](const OcPairCorr& a, const OcPairCorr& b) {
                return a.pcc > b.pcc;
              });
    const std::size_t k = std::min<std::size_t>(
        static_cast<std::size_t>(options.top_pairs), all_pairs[g].size());
    for (std::size_t i = 0; i < k; ++i) {
      top_pccs_per_gpu_[g].push_back(all_pairs[g][i].pcc);
      top_sets[g].insert(key_of(all_pairs[g][i]));
    }
  }

  // Intersection of the top-K sets across all GPUs.
  std::set<long long> intersection = top_sets.empty() ? std::set<long long>{}
                                                      : top_sets[0];
  for (std::size_t g = 1; g < num_gpus; ++g) {
    std::set<long long> next;
    std::set_intersection(intersection.begin(), intersection.end(),
                          top_sets[g].begin(), top_sets[g].end(),
                          std::inserter(next, next.begin()));
    intersection = std::move(next);
  }
  intersection_fraction_ =
      top_pccs_per_gpu_.empty() || top_pccs_per_gpu_[0].empty()
          ? 0.0
          : static_cast<double>(intersection.size()) /
                static_cast<double>(top_pccs_per_gpu_[0].size());

  // Aggregate PCC per pair = minimum across GPUs (a pair must correlate on
  // every architecture to be generically mergeable, Sec. III-C); pairs in
  // the cross-GPU top-K intersection get a similarity bonus so they merge
  // first, mirroring the paper's intersection-driven grouping.
  std::vector<std::vector<double>> sim(
      static_cast<std::size_t>(num_ocs),
      std::vector<double>(static_cast<std::size_t>(num_ocs), 0.0));
  for (const OcPairCorr& p : all_pairs[0]) {
    double value = p.pcc;
    for (std::size_t g = 1; g < num_gpus; ++g) {
      for (const OcPairCorr& q : all_pairs[g]) {
        if (q.oc_a == p.oc_a && q.oc_b == p.oc_b) {
          value = std::min(value, q.pcc);
          break;
        }
      }
    }
    if (intersection.contains(key_of(p))) value += 1.0;
    sim[static_cast<std::size_t>(p.oc_a)][static_cast<std::size_t>(p.oc_b)] = value;
    sim[static_cast<std::size_t>(p.oc_b)][static_cast<std::size_t>(p.oc_a)] = value;
  }

  // Average-linkage agglomerative clustering down to target_groups.
  // (Greedy transitive union merging degenerates into one giant chained
  // cluster; average linkage plus a size cap keeps groups coherent AND
  // ensures "each class contains sufficient data objects" (Sec. IV-D) —
  // one mega-group would starve the other classes of training labels.)
  const std::size_t max_group_size =
      (static_cast<std::size_t>(num_ocs) * 3) /
      (static_cast<std::size_t>(options.target_groups) * 2);
  std::vector<std::vector<int>> clusters;
  for (int oc = 0; oc < num_ocs; ++oc) clusters.push_back({oc});
  while (static_cast<int>(clusters.size()) > options.target_groups) {
    double best_link = -1.0;
    std::size_t best_a = 0;
    std::size_t best_b = 1;
    for (std::size_t a = 0; a < clusters.size(); ++a) {
      for (std::size_t b = a + 1; b < clusters.size(); ++b) {
        if (clusters[a].size() + clusters[b].size() > max_group_size) continue;
        double acc = 0.0;
        for (int oa : clusters[a]) {
          for (int ob : clusters[b]) {
            acc += sim[static_cast<std::size_t>(oa)][static_cast<std::size_t>(ob)];
          }
        }
        const double link =
            acc / (static_cast<double>(clusters[a].size()) *
                   static_cast<double>(clusters[b].size()));
        if (link > best_link) {
          best_link = link;
          best_a = a;
          best_b = b;
        }
      }
    }
    if (best_link < 0.0) {
      // No merge satisfies the size cap: merge the two smallest clusters.
      std::sort(clusters.begin(), clusters.end(),
                [](const auto& a, const auto& b) { return a.size() < b.size(); });
      best_a = 0;
      best_b = 1;
    }
    auto& target = clusters[best_a];
    target.insert(target.end(), clusters[best_b].begin(), clusters[best_b].end());
    clusters.erase(clusters.begin() + static_cast<std::ptrdiff_t>(best_b));
  }

  group_.assign(static_cast<std::size_t>(num_ocs), -1);
  for (std::size_t gid = 0; gid < clusters.size(); ++gid) {
    for (int oc : clusters[gid]) {
      group_[static_cast<std::size_t>(oc)] = static_cast<int>(gid);
    }
  }
  num_groups_ = static_cast<int>(clusters.size());

  // Representative of each group: the member winning the most cases.
  std::vector<std::vector<long long>> wins(
      static_cast<std::size_t>(num_groups_),
      std::vector<long long>(static_cast<std::size_t>(num_ocs), 0));
  for (std::size_t s = 0; s < dataset.stencils.size(); ++s) {
    for (std::size_t g = 0; g < num_gpus; ++g) {
      const int best = dataset.best_oc(s, g);
      if (best < 0) continue;
      ++wins[static_cast<std::size_t>(group_[static_cast<std::size_t>(best)])]
           [static_cast<std::size_t>(best)];
    }
  }
  representatives_.assign(static_cast<std::size_t>(num_groups_), 0);
  for (int gid = 0; gid < num_groups_; ++gid) {
    long long best_wins = -1;
    for (int oc = 0; oc < num_ocs; ++oc) {
      if (group_[static_cast<std::size_t>(oc)] != gid) continue;
      const long long w = wins[static_cast<std::size_t>(gid)][static_cast<std::size_t>(oc)];
      if (w > best_wins) {
        best_wins = w;
        representatives_[static_cast<std::size_t>(gid)] = oc;
      }
    }
  }
}

std::vector<int> OcMerger::members(int group) const {
  std::vector<int> out;
  for (std::size_t oc = 0; oc < group_.size(); ++oc) {
    if (group_[oc] == group) out.push_back(static_cast<int>(oc));
  }
  return out;
}

void OcMerger::save(std::ostream& out) const {
  out << "ocmerger " << num_groups_ << ' ' << group_.size();
  for (int g : group_) out << ' ' << g;
  for (int r : representatives_) out << ' ' << r;
  out << '\n';
}

OcMerger OcMerger::load(std::istream& in) {
  util::expect_word(in, "ocmerger", "OcMerger::load");
  const int num_groups = util::read_int(in, "ocmerger group count");
  const std::size_t num_ocs = util::read_size(in, "ocmerger oc count");
  if (num_groups < 1) {
    throw std::runtime_error("OcMerger::load: no groups");
  }
  OcMerger merger;
  merger.num_groups_ = num_groups;
  merger.group_.resize(num_ocs);
  for (int& g : merger.group_) {
    g = util::read_int(in, "ocmerger group id");
    if (g < 0 || g >= num_groups) {
      throw std::runtime_error("OcMerger::load: group id out of range");
    }
  }
  merger.representatives_.resize(static_cast<std::size_t>(num_groups));
  for (int gid = 0; gid < num_groups; ++gid) {
    const int rep = util::read_int(in, "ocmerger representative");
    if (rep < 0 || static_cast<std::size_t>(rep) >= num_ocs ||
        merger.group_[static_cast<std::size_t>(rep)] != gid) {
      throw std::runtime_error(
          "OcMerger::load: representative not a member of its group");
    }
    merger.representatives_[static_cast<std::size_t>(gid)] = rep;
  }
  return merger;
}

std::string OcMerger::group_name(int group) const {
  const auto& all = gpusim::valid_combinations();
  // Appended piece by piece: GCC 12 reports a false -Wrestrict on
  // "G" + std::to_string(...).
  std::string name = "G";
  name += std::to_string(group);
  name += '[';
  name += all[static_cast<std::size_t>(representative(group))].name();
  name += ']';
  return name;
}

}  // namespace smart::core
