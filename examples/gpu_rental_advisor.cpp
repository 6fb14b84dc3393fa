// GPU rental advisor: the paper's case study (Sec. V-D, "To Rent or Not To
// Rent a Cloud GPU"). A user owns a local GPU and wants to know, for their
// stencil workload, which cloud GPU gives the best performance and which
// gives the best performance per dollar — without renting anything first.
//
// The cross-architecture regression model is trained on profiled instances
// (stencil ⊕ OC parameters ⊕ GPU hardware features -> time) and then asked
// to extrapolate each workload to every rentable GPU.
//
// Build & run:  ./build/examples/gpu_rental_advisor [dims]
#include <cstdlib>
#include <exception>
#include <iostream>

#include "core/stencilmart.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace smart;
  const int dims = argc > 1 ? std::atoi(argv[1]) : 3;

  std::cout << "building the training corpus (simulated measurements)...\n";
  core::ProfileConfig cfg;
  cfg.dims = dims;
  cfg.num_stencils = 60;
  cfg.samples_per_oc = 4;
  cfg.seed = 314;
  const auto dataset = core::build_profile_dataset(cfg);

  core::RegressionConfig rc;
  rc.instance_cap = 6000;
  core::RegressionTask task(dataset, rc);
  std::cout << "training the MLP time predictor on "
            << task.instances().size() << " instances...\n\n";
  task.fit_full(core::RegressorKind::kMlp);

  // Pick a handful of user workloads: the first few profiled instances of
  // distinct stencils, treated as "the kernel the user wants to run".
  util::Table table({"workload", "OC", "P100 pred(ms)", "V100 pred(ms)",
                     "A100 pred(ms)", "best perf", "best $-eff",
                     "truth perf", "truth $-eff"});
  std::size_t shown = 0;
  std::size_t last_stencil = static_cast<std::size_t>(-1);
  const auto& gpus = dataset.gpus;
  for (std::size_t i = 0; i < task.instances().size() && shown < 10; ++i) {
    const auto& ins = task.instances()[i];
    if (ins.stencil == last_stencil || ins.gpu != 0) continue;
    last_stencil = ins.stencil;
    ++shown;

    double best_perf = 1e300;
    double best_cost = 1e300;
    std::string perf_pick;
    std::string cost_pick;
    std::vector<double> preds;
    for (std::size_t g = 0; g < gpus.size(); ++g) {
      if (gpus[g].rental_usd_hr <= 0.0) continue;  // 2080Ti is not rentable
      const double t = task.predict(i, g);
      preds.push_back(t);
      if (t < best_perf) {
        best_perf = t;
        perf_pick = gpus[g].name;
      }
      const double dollars = t * gpus[g].rental_usd_hr;
      if (dollars < best_cost) {
        best_cost = dollars;
        cost_pick = gpus[g].name;
      }
    }
    // Ground truth from the simulator's measurements.
    double truth_perf = 1e300;
    double truth_cost = 1e300;
    std::string truth_perf_pick;
    std::string truth_cost_pick;
    for (std::size_t g = 0; g < gpus.size(); ++g) {
      if (gpus[g].rental_usd_hr <= 0.0) continue;
      const double t = task.measured(i, g);
      if (std::isnan(t)) continue;
      if (t < truth_perf) {
        truth_perf = t;
        truth_perf_pick = gpus[g].name;
      }
      if (t * gpus[g].rental_usd_hr < truth_cost) {
        truth_cost = t * gpus[g].rental_usd_hr;
        truth_cost_pick = gpus[g].name;
      }
    }

    const auto& oc = gpusim::valid_combinations()[ins.oc];
    table.row()
        .add(dataset.stencils[ins.stencil].name())
        .add(oc.name())
        .add(preds[0], 3)
        .add(preds[1], 3)
        .add(preds[2], 3)
        .add(perf_pick)
        .add(cost_pick)
        .add(truth_perf_pick)
        .add(truth_cost_pick);
  }
  table.print(std::cout);
  std::cout << "\nrental prices (Table III): P100 $1.46/hr, V100 $2.48/hr, "
               "A100 $2.93/hr\n";
  return 0;
} catch (const std::exception& e) {
  // Library errors (a malformed SMART_* knob, a bad argument) end the
  // example with one diagnostic line instead of std::terminate.
  std::cerr << "gpu_rental_advisor: error: " << e.what() << '\n';
  return 1;
}
