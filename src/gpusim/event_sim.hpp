// Block-level discrete-event execution simulator.
//
// The analytic KernelCostModel aggregates a kernel into closed-form
// roofline terms; this module cross-checks it with an execution-driven
// model of the paper's Sec. II-A: a thread-block scheduler dispatches
// blocks to SM slots round-robin as they free up, resident blocks share
// DRAM bandwidth (processor sharing, capped per block by the
// memory-level-parallelism limit), each block additionally needs its
// compute-pipe time and its serial synchronization time, and per-block
// log-normal work variation models divergence between blocks. The result
// exhibits wave quantization and tail effects the closed form ignores.
//
// Used by tests (the two models must agree in ranking and within a small
// factor in magnitude) and by the `bench_eventsim_crosscheck` bench.
#pragma once

#include "gpusim/cost_model.hpp"

namespace smart::gpusim {

struct EventSimResult {
  bool ok = false;
  std::string_view crash_reason;  // the analytic model's literal
  double time_ms = 0.0;
  long long blocks = 0;
  int waves = 0;              // ceil(blocks / concurrent slots)
  double avg_resident = 0.0;  // time-averaged resident block count
};

struct EventSimOptions {
  double block_noise_sigma = 0.03;  // per-block log-normal work variation
  std::uint64_t seed = 0xb10c;
};

class BlockLevelSimulator {
 public:
  explicit BlockLevelSimulator(EventSimOptions options = EventSimOptions{},
                               CostConstants constants = CostConstants{})
      : options_(options), model_(constants) {}

  /// Simulates one sweep of the variant block by block. Crash conditions
  /// are inherited from the analytic model (same resource rules).
  EventSimResult run(const stencil::StencilPattern& pattern,
                     const ProblemSize& problem, const OptCombination& oc,
                     const ParamSetting& setting, const GpuSpec& gpu) const;

 private:
  EventSimOptions options_;
  KernelCostModel model_;
};

}  // namespace smart::gpusim
