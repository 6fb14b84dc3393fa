// Code generation demo: tune a stencil on a simulated GPU, then emit the
// CUDA source of the winning variant (kernel + host harness) — the
// artifact StencilMART's pipeline would hand to nvcc on a real system.
//
// Build & run:  ./build/examples/codegen_dump [shape] [dims] [order] [outdir]
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>

#include "codegen/cuda_codegen.hpp"
#include "core/stencilmart.hpp"

int main(int argc, char** argv) try {
  using namespace smart;
  const std::string shape = argc > 1 ? argv[1] : "star";
  const int dims = argc > 2 ? std::atoi(argv[2]) : 3;
  const int order = argc > 3 ? std::atoi(argv[3]) : 2;
  const std::string outdir = argc > 4 ? argv[4] : "";

  const stencil::StencilPattern pattern =
      shape == "box"     ? stencil::make_box(dims, order)
      : shape == "cross" ? stencil::make_cross(dims, order)
                         : stencil::make_star(dims, order);
  const auto problem = gpusim::ProblemSize::paper_default(dims);
  const auto& gpu = gpusim::gpu_by_name("V100");

  // Find the best variant with the exhaustive-per-OC random search.
  const gpusim::Simulator sim;
  const gpusim::RandomSearchTuner tuner(sim, 32);
  util::Rng rng(11);
  const auto results = tuner.tune_all(pattern, problem, gpu, rng);
  const int best = gpusim::RandomSearchTuner::best_oc_index(results);
  const auto& winner = results[static_cast<std::size_t>(best)];
  std::cout << "winning variant for " << pattern.name() << " on " << gpu.name
            << ": " << winner.oc.name() << " [" << winner.best_setting->to_string()
            << "] at " << winner.best_time_ms << " ms (simulated)\n\n";

  const codegen::CudaKernelGenerator generator;
  const auto kernel =
      generator.generate(pattern, winner.oc, *winner.best_setting, problem);
  const auto harness = generator.generate_harness(
      pattern, winner.oc, *winner.best_setting, problem, kernel);

  if (outdir.empty()) {
    std::cout << "---- " << kernel.name << ".cu ----\n" << kernel.source;
    std::cout << "\n---- harness ----\n" << harness;
  } else {
    const std::string kernel_path = outdir + "/" + kernel.name + ".cu";
    const std::string harness_path = outdir + "/" + kernel.name + "_main.cu";
    std::ofstream(kernel_path) << kernel.source;
    std::ofstream(harness_path) << harness;
    std::cout << "wrote " << kernel_path << " and " << harness_path << "\n";
  }
  std::cout << "\nshared memory: " << kernel.smem_doubles * 8 / 1024.0
            << " KB, block barrier: " << (kernel.has_barrier ? "yes" : "no")
            << "\n";
  return 0;
} catch (const std::exception& e) {
  // Library errors (a malformed SMART_* knob, a bad argument) end the
  // example with one diagnostic line instead of std::terminate.
  std::cerr << "codegen_dump: error: " << e.what() << '\n';
  return 1;
}
