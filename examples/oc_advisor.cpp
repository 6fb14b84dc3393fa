// OC advisor: train an OC-selection model on a profiled corpus of random
// stencils, then advise the best optimization combination for *unseen*
// stencils (the representative gallery), comparing against exhaustive
// tuning and the Artemis / AN5D baselines.
//
// This is the paper's primary use case (Sec. IV-D): a user hands
// StencilMART a stencil pattern; StencilMART predicts which merged OC group
// to tune, saving the cost of searching every combination.
//
// Build & run:  ./build/examples/oc_advisor [num_training_stencils]
#include <cstdlib>
#include <exception>
#include <iostream>

#include "core/stencilmart.hpp"
#include "ml/gbdt.hpp"
#include "util/stats.hpp"
#include "stencil/features.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace smart;
  const int num_stencils = argc > 1 ? std::atoi(argv[1]) : 120;

  std::cout << "profiling " << num_stencils
            << " random 2-D stencils on the simulated V100...\n";
  core::ProfileConfig cfg;
  cfg.dims = 2;
  cfg.num_stencils = num_stencils;
  cfg.samples_per_oc = 4;
  cfg.seed = 99;
  const auto dataset = core::build_profile_dataset(cfg);

  core::OcMerger merger;
  merger.fit(dataset);
  std::cout << "merged " << core::ProfileDataset::num_ocs() << " OCs into "
            << merger.num_groups() << " prediction groups:";
  for (int g = 0; g < merger.num_groups(); ++g) {
    std::cout << ' ' << merger.group_name(g);
  }
  std::cout << "\n\n";

  // Train GBDT on the full corpus (features -> best group on V100).
  constexpr std::size_t kGpu = 1;  // V100
  const auto labels = core::true_groups(dataset, merger, kGpu);
  const auto x = core::stencil_feature_matrix(dataset);
  std::vector<std::size_t> rows;
  std::vector<int> y;
  for (std::size_t s = 0; s < labels.size(); ++s) {
    if (labels[s] >= 0) {
      rows.push_back(s);
      y.push_back(labels[s]);
    }
  }
  ml::GbdtClassifier classifier;
  classifier.fit(x.gather_rows(rows), y, merger.num_groups());

  // Advise the gallery stencils (never seen during training).
  const gpusim::Simulator sim;
  const gpusim::RandomSearchTuner tuner(sim, 24);
  const auto& v100 = gpusim::gpu_by_name("V100");
  util::Rng rng(5);

  util::Table table({"stencil", "advised group", "advised OC", "advised(ms)",
                     "exhaustive(ms)", "Artemis-policy(ms)", "AN5D-policy(ms)",
                     "vs exhaustive"});
  std::vector<double> ratios;
  for (const auto& pattern : stencil::representative_gallery()) {
    if (pattern.dims() != 2) continue;
    const auto problem = gpusim::ProblemSize::paper_default(2);
    const auto feats = stencil::extract_features(pattern, cfg.max_order)
                           .to_vector();
    const std::vector<float> fv(feats.begin(), feats.end());
    const int group = classifier.predict_row(fv);
    const int rep = merger.representative(group);
    const auto& rep_oc = gpusim::valid_combinations()[static_cast<std::size_t>(rep)];

    // Tune only the advised OC vs tuning everything.
    const auto advised = tuner.tune(pattern, problem, rep_oc, v100, rng);
    const auto all = tuner.tune_all(pattern, problem, v100, rng);
    const int best = gpusim::RandomSearchTuner::best_oc_index(all);
    const double exhaustive = all[static_cast<std::size_t>(best)].best_time_ms;

    // Baseline policies, reconstructed from the same measurement budget.
    gpusim::OptCombination st_tb;
    st_tb.st = true;
    st_tb.tb = true;
    const auto an5d = tuner.tune(pattern, problem, st_tb, v100, rng);
    gpusim::OptCombination st;
    st.st = true;
    const auto artemis = tuner.tune(pattern, problem, st, v100, rng);

    const double advised_ms = advised.ok() ? advised.best_time_ms : -1.0;
    table.row()
        .add(pattern.name())
        .add(merger.group_name(group))
        .add(rep_oc.name())
        .add(advised_ms, 3)
        .add(exhaustive, 3)
        .add(artemis.ok() ? artemis.best_time_ms : -1.0, 3)
        .add(an5d.ok() ? an5d.best_time_ms : -1.0, 3)
        .add(advised_ms > 0 ? advised_ms / exhaustive : -1.0, 2);
    if (advised_ms > 0) ratios.push_back(advised_ms / exhaustive);
  }
  table.print(std::cout);
  std::cout << "\nadvised-vs-exhaustive geomean ratio: "
            << util::geomean(ratios)
            << "  (1.00 = as good as searching all "
            << core::ProfileDataset::num_ocs() << " OCs, with 1/"
            << core::ProfileDataset::num_ocs() << " of the tuning cost)\n";
  return 0;
} catch (const std::exception& e) {
  // Library errors (a malformed SMART_* knob, a bad argument) end the
  // example with one diagnostic line instead of std::terminate.
  std::cerr << "oc_advisor: error: " << e.what() << '\n';
  return 1;
}
