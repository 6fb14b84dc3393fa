// Autotuner shoot-out on one stencil: exhaustive per-OC random search vs
// the Artemis policy (streaming family first, then merging) vs the AN5D
// policy (streaming + temporal blocking) across all four GPUs. Also dumps
// the cost-model diagnostics (registers, shared memory, occupancy, traffic)
// for the winning variant — the "explain" view of the simulator.
//
// Build & run:  ./build/examples/autotune_compare [shape] [dims] [order]
//   shape in {star, box, cross}
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>

#include "core/stencilmart.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace smart;
  const std::string shape = argc > 1 ? argv[1] : "box";
  const int dims = argc > 2 ? std::atoi(argv[2]) : 3;
  const int order = argc > 3 ? std::atoi(argv[3]) : 3;

  const stencil::StencilPattern pattern =
      shape == "star"  ? stencil::make_star(dims, order)
      : shape == "cross" ? stencil::make_cross(dims, order)
                         : stencil::make_box(dims, order);
  std::cout << "stencil: " << pattern.name() << " (" << pattern.size()
            << " points)\n\n";

  const gpusim::Simulator sim;
  const gpusim::RandomSearchTuner tuner(sim, 32);
  const auto problem = gpusim::ProblemSize::paper_default(dims);
  util::Rng rng(2718);

  util::Table table({"GPU", "exhaustive(ms)", "best OC", "Artemis(ms)",
                     "AN5D(ms)", "Artemis gap", "AN5D gap"});
  std::vector<gpusim::TunedResult> v100_results;
  for (const auto& gpu : gpusim::evaluation_gpus()) {
    const auto all = tuner.tune_all(pattern, problem, gpu, rng);
    if (gpu.name == "V100") v100_results = all;
    const int best = gpusim::RandomSearchTuner::best_oc_index(all);
    const double exhaustive = all[static_cast<std::size_t>(best)].best_time_ms;

    // Artemis: streaming family first, refine winner with merging.
    double artemis = std::numeric_limits<double>::infinity();
    gpusim::OptCombination artemis_winner;
    for (bool rt : {false, true}) {
      for (bool pr : {false, true}) {
        gpusim::OptCombination oc;
        oc.st = true;
        oc.rt = rt;
        oc.pr = pr;
        const auto r = all[static_cast<std::size_t>(gpusim::oc_index(oc))];
        if (r.ok() && r.best_time_ms < artemis) {
          artemis = r.best_time_ms;
          artemis_winner = oc;
        }
      }
    }
    for (int merge = 0; merge < 2; ++merge) {
      gpusim::OptCombination oc = artemis_winner;
      oc.bm = merge == 0;
      oc.cm = merge == 1;
      const auto r = all[static_cast<std::size_t>(gpusim::oc_index(oc))];
      if (r.ok()) artemis = std::min(artemis, r.best_time_ms);
    }

    // AN5D: ST+TB, falling back to plain ST.
    gpusim::OptCombination st_tb;
    st_tb.st = true;
    st_tb.tb = true;
    auto an5d_result = all[static_cast<std::size_t>(gpusim::oc_index(st_tb))];
    if (!an5d_result.ok()) {
      gpusim::OptCombination st;
      st.st = true;
      an5d_result = all[static_cast<std::size_t>(gpusim::oc_index(st))];
    }
    const double an5d = an5d_result.ok()
                            ? an5d_result.best_time_ms
                            : std::numeric_limits<double>::infinity();

    table.row()
        .add(gpu.name)
        .add(exhaustive, 3)
        .add(all[static_cast<std::size_t>(best)].oc.name())
        .add(artemis, 3)
        .add(an5d, 3)
        .add(artemis / exhaustive, 2)
        .add(an5d / exhaustive, 2);
  }
  table.print(std::cout);

  // Explain the winning variant on V100 (reusing the table's results).
  const auto& v100 = gpusim::gpu_by_name("V100");
  const int best = gpusim::RandomSearchTuner::best_oc_index(v100_results);
  const auto& winner = v100_results[static_cast<std::size_t>(best)];
  const auto profile = sim.evaluate(pattern, problem, winner.oc,
                                    *winner.best_setting, v100);
  std::cout << "\nV100 winning variant: " << winner.oc.name() << "  ["
            << winner.best_setting->to_string() << "]\n"
            << "  regs/thread     " << profile.regs_per_thread << "\n"
            << "  smem/block      " << profile.smem_per_block_bytes / 1024.0
            << " KB\n"
            << "  occupancy       " << profile.occupancy << "\n"
            << "  blocks          " << profile.total_blocks << "\n"
            << "  DRAM traffic    " << profile.dram_traffic_bytes / 1e9
            << " GB\n"
            << "  t_mem/t_comp/t_sync  " << profile.t_mem_ms << " / "
            << profile.t_comp_ms << " / " << profile.t_sync_ms << " ms\n";
  return 0;
} catch (const std::exception& e) {
  // Library errors (a malformed SMART_* knob, a bad argument) end the
  // example with one diagnostic line instead of std::terminate.
  std::cerr << "autotune_compare: error: " << e.what() << '\n';
  return 1;
}
