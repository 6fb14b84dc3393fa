#include "gpusim/problem.hpp"

#include <cmath>

namespace smart::gpusim {

std::vector<double> ProblemSize::feature_vector() const {
  const auto features = feature_array();
  return {features.begin(), features.end()};
}

std::array<double, ProblemSize::kNumFeatures> ProblemSize::feature_array()
    const noexcept {
  return {std::log2(static_cast<double>(nx)), std::log2(static_cast<double>(ny)),
          std::log2(static_cast<double>(nz)),
          boundary == stencil::Boundary::kPeriodic ? 1.0 : 0.0};
}

}  // namespace smart::gpusim
