// Problem sizes for the profiled stencil sweeps. The paper fixes the input
// grids to 8192^2 (2-D) and 512^3 (3-D) and leaves grid-size-aware models
// to future work (Sec. V-A2); we default to the same shapes.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "stencil/boundary.hpp"

namespace smart::gpusim {

struct ProblemSize {
  int nx = 0;
  int ny = 0;
  int nz = 1;  // 1 for 2-D problems
  /// Boundary handling of the generated kernels (extension of the paper's
  /// future work; the paper's evaluation uses Dirichlet-zero).
  stencil::Boundary boundary = stencil::Boundary::kDirichletZero;

  int dims() const noexcept { return nz == 1 ? 2 : 3; }

  long long volume() const noexcept {
    return static_cast<long long>(nx) * ny * nz;
  }

  int extent(int axis) const noexcept {
    return axis == 0 ? nx : axis == 1 ? ny : nz;
  }

  /// The paper's evaluation grids: 8192^2 for 2-D, 512^3 for 3-D.
  static ProblemSize paper_default(int dims) {
    return dims == 2 ? ProblemSize{8192, 8192, 1} : ProblemSize{512, 512, 512};
  }

  /// Candidate grids for the grid-size-aware extension (sizes bracketing
  /// the paper defaults, all fitting the evaluation GPUs' memory).
  static std::vector<ProblemSize> size_candidates(int dims) {
    if (dims == 2) {
      return {ProblemSize{4096, 4096, 1}, ProblemSize{8192, 8192, 1},
              ProblemSize{16384, 16384, 1}};
    }
    return {ProblemSize{256, 256, 256}, ProblemSize{512, 512, 512},
            ProblemSize{768, 768, 768}};
  }

  /// Model-input features for the grid-size/boundary extension:
  /// log2 extents plus the boundary flag.
  static constexpr int kNumFeatures = 4;
  std::vector<double> feature_vector() const;
  /// The same values without a heap vector.
  std::array<double, kNumFeatures> feature_array() const noexcept;
};

}  // namespace smart::gpusim
