// Quickstart: the whole StencilMART pipeline on one stencil.
//
//   1. Generate a random stencil (Algorithm 1) and show its two
//      representations: the binary tensor and the Table II feature set.
//   2. Enumerate the valid optimization combinations (Table I) and tune
//      each on a simulated V100 with random parameter search.
//   3. Report the best OC, its parameter setting, and the gap to the worst.
//   4. Verify the functional semantics on the CPU: a temporally blocked
//      execution must match the naive executor bitwise.
//
// Build & run:  ./build/examples/quickstart [seed]
#include <cstdlib>
#include <exception>
#include <iostream>

#include "core/stencilmart.hpp"
#include "stencil/features.hpp"
#include "stencil/tensor_repr.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace smart;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;

  // --- 1. A random 2-D stencil and its representations ------------------
  stencil::GeneratorConfig gen_config;
  gen_config.dims = 2;
  gen_config.order = 3;
  const stencil::RandomStencilGenerator generator(gen_config);
  util::Rng rng(seed);
  const stencil::StencilPattern pattern = generator.generate(rng);

  std::cout << "generated stencil: " << pattern.name() << " ("
            << pattern.size() << " points, order " << pattern.order() << ")\n\n";

  const stencil::PatternTensor tensor(pattern, gen_config.order);
  std::cout << "binary tensor (" << tensor.extent() << "x" << tensor.extent()
            << "):\n";
  for (int y = gen_config.order; y >= -gen_config.order; --y) {
    std::cout << "  ";
    for (int x = -gen_config.order; x <= gen_config.order; ++x) {
      std::cout << (tensor.at(x, y) ? '#' : '.');
    }
    std::cout << '\n';
  }

  const auto features = stencil::extract_features(pattern, gen_config.order);
  std::cout << "\nTable II features: order=" << features.order
            << " nnz=" << features.nnz << " sparsity=" << features.sparsity
            << "\n  per-order counts:";
  for (int c : features.nnz_per_order) std::cout << ' ' << c;
  std::cout << "\n\n";

  // --- 2/3. Tune every OC on a simulated V100 ---------------------------
  const gpusim::Simulator sim;
  const gpusim::RandomSearchTuner tuner(sim, 24);
  const auto& v100 = gpusim::gpu_by_name("V100");
  const auto problem = gpusim::ProblemSize::paper_default(2);
  const auto results = tuner.tune_all(pattern, problem, v100, rng);

  util::Table table({"OC", "best time(ms)", "best setting", "crashed"});
  double worst = 0.0;
  for (const auto& r : results) {
    table.row().add(r.oc.name());
    if (r.ok()) {
      table.add(r.best_time_ms, 3).add(r.best_setting->to_string());
      worst = std::max(worst, r.best_time_ms);
    } else {
      table.add("-").add("-");
    }
    table.add(static_cast<long long>(r.samples_crashed));
  }
  table.print(std::cout);

  const int best = gpusim::RandomSearchTuner::best_oc_index(results);
  const auto& winner = results[static_cast<std::size_t>(best)];
  std::cout << "\nbest OC on V100: " << winner.oc.name() << " at "
            << winner.best_time_ms << " ms  ("
            << worst / winner.best_time_ms << "x over the worst OC)\n";

  // --- 4. Functional check on the CPU -----------------------------------
  const auto weights = stencil::uniform_weights(pattern);
  stencil::Grid grid(48, 48, 1, pattern.order());
  util::Rng fill_rng(seed + 1);
  grid.fill([&fill_rng](int, int, int) { return fill_rng.uniform(-1.0, 1.0); });
  const auto naive = stencil::run_naive({pattern, weights}, grid, 4);
  const auto blocked =
      stencil::run_temporal_blocked({pattern, weights}, grid, 4, 16, 16, 1, 2);
  std::cout << "temporal-blocking correctness: max |diff| = "
            << stencil::Grid::max_abs_diff(naive, blocked)
            << " (must be exactly 0)\n";
  return 0;
} catch (const std::exception& e) {
  // Library errors (a malformed SMART_* knob, a bad argument) end the
  // example with one diagnostic line instead of std::terminate.
  std::cerr << "quickstart: error: " << e.what() << '\n';
  return 1;
}
