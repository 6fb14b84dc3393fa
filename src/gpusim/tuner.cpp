#include "gpusim/tuner.hpp"

#include <algorithm>

#include "util/task_pool.hpp"
#include "util/timing.hpp"

namespace smart::gpusim {

TunedResult RandomSearchTuner::tune(const stencil::StencilPattern& pattern,
                                    const ProblemSize& problem,
                                    const OptCombination& oc,
                                    const GpuSpec& gpu,
                                    util::Rng& rng) const {
  TunedResult result;
  result.oc = oc;
  const ParamSpace space(oc, pattern.dims());
  // One analysis for the whole search: the per-sample loop only pays the
  // setting-dependent arithmetic.
  const KernelAnalysis analysis = sim_->analyze(pattern, problem, oc, gpu);
  const auto try_setting = [&](const ParamSetting& s) {
    ++result.samples_tried;
    const KernelProfile prof = sim_->measure(analysis, s);
    if (!prof.ok) {
      ++result.samples_crashed;
      return;
    }
    result.measurements.emplace_back(s, prof.time_ms);
    if (!result.best_setting || prof.time_ms < result.best_time_ms) {
      result.best_setting = s;
      result.best_time_ms = prof.time_ms;
    }
  };

  const std::size_t space_size = space.size();
  if (samples_per_oc_ > 0 &&
      space_size <= static_cast<std::size_t>(samples_per_oc_)) {
    // The sampling budget covers the whole space: random draws would burn
    // most of it on duplicates (and silently try fewer distinct settings),
    // so sweep the space exhaustively in enumeration order instead. No rng
    // draws are consumed on this path.
    result.measurements.reserve(space_size);
    space.for_each_setting(try_setting);
    return result;
  }

  // Duplicate draws are dropped by a linear scan over the hashes drawn so
  // far (at most samples_per_oc_ of them): the decisions of a hash set,
  // without its per-draw nodes.
  const auto budget = static_cast<std::size_t>(std::max(samples_per_oc_, 0));
  result.measurements.reserve(budget);
  std::vector<std::uint64_t> seen;
  seen.reserve(budget);
  for (int i = 0; i < samples_per_oc_; ++i) {
    const ParamSetting s = space.random_setting(rng);
    const std::uint64_t h = s.hash();
    if (std::find(seen.begin(), seen.end(), h) != seen.end()) continue;
    seen.push_back(h);
    try_setting(s);
  }
  return result;
}

std::vector<TunedResult> RandomSearchTuner::tune_all(
    const stencil::StencilPattern& pattern, const ProblemSize& problem,
    const GpuSpec& gpu, util::Rng& rng) const {
  const auto& ocs = valid_combinations();
  const util::PhaseTimer timer("tuner.tune_all", ocs.size());
  // One independent stream per OC (Rng::split) instead of one shared
  // sequential stream, so candidate evaluation parallelizes across OCs
  // while the result stays bit-identical for any thread count. Advancing
  // the caller's generator once keeps back-to-back tune_all calls on
  // distinct split families.
  rng();
  std::vector<TunedResult> out(ocs.size());
  util::parallel_for(ocs.size(), [&](std::size_t i) {
    util::Rng oc_rng = rng.split(i);
    out[i] = tune(pattern, problem, ocs[i], gpu, oc_rng);
  });
  return out;
}

int RandomSearchTuner::best_oc_index(const std::vector<TunedResult>& results) {
  int best = -1;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) continue;
    if (best < 0 || results[i].best_time_ms < results[static_cast<std::size_t>(best)].best_time_ms) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace smart::gpusim
