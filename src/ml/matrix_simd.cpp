// Relaxed float32 dense kernels (SMART_PRECISION "f32", DESIGN.md §13).
//
// matmul_relaxed.inc is compiled three times below: a portable baseline
// build (GCC vector extensions at the translation unit's default ISA), an
// AVX2+FMA build and an AVX-512F build. pick_kernel() probes the CPU once
// with __builtin_cpu_supports and installs the widest variant it can run —
// the "runtime-checked scalar fallback": a binary built anywhere runs
// correctly on pre-AVX2 hardware, it just dispatches the baseline build.
// On non-x86 / non-GCC-compatible toolchains only the baseline variant
// exists and the probe compiles away.

#include <cstddef>
#include <stdexcept>

#include "ml/matrix.hpp"
#include "util/task_pool.hpp"

namespace smart::ml {

namespace detail {

/// Column-remainder path shared by every ISA variant: a scalar dot product
/// over kRemPartials = 4 interleaved partial sums (reassociated relative to
/// the strict kernel — this is what makes the relaxed kernel relaxed even
/// without FMA). noinline so each element's math is identical no matter
/// which row-group path or ISA variant of the caller invokes it.
__attribute__((noinline)) float relaxed_dot_remainder(
    const float* arow, const float* bcol, std::size_t ldb, std::size_t inner,
    const float* bias, std::size_t j, bool relu) {
  float s0 = 0.0f;
  float s1 = 0.0f;
  float s2 = 0.0f;
  float s3 = 0.0f;
  std::size_t k = 0;
  for (; k + 4 <= inner; k += 4) {
    s0 += arow[k] * bcol[k * ldb];
    s1 += arow[k + 1] * bcol[(k + 1) * ldb];
    s2 += arow[k + 2] * bcol[(k + 2) * ldb];
    s3 += arow[k + 3] * bcol[(k + 3) * ldb];
  }
  for (; k < inner; ++k) s0 += arow[k] * bcol[k * ldb];
  float acc = (s0 + s1) + (s2 + s3);
  if (bias != nullptr) acc += bias[j];
  if (relu) acc = acc > 0.0f ? acc : 0.0f;
  return acc;
}

}  // namespace detail

namespace {

using RelaxedKernelFn = void (*)(const float*, std::size_t, const float*,
                                 std::size_t, const float*, bool, float*,
                                 std::size_t, std::size_t, std::size_t,
                                 std::size_t, std::size_t);

#define SMART_KERNEL_NAME relaxed_rows_baseline
#define SMART_VEC_LANES 8
#include "ml/matmul_relaxed.inc"  // NOLINT
#undef SMART_KERNEL_NAME
#undef SMART_VEC_LANES

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define SMART_HAVE_X86_VARIANTS 1

#pragma GCC push_options
#pragma GCC target("avx2,fma")
#define SMART_KERNEL_NAME relaxed_rows_avx2
#define SMART_VEC_LANES 8
#include "ml/matmul_relaxed.inc"  // NOLINT
#undef SMART_KERNEL_NAME
#undef SMART_VEC_LANES
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f")
#define SMART_KERNEL_NAME relaxed_rows_avx512
#define SMART_VEC_LANES 16
#include "ml/matmul_relaxed.inc"  // NOLINT
#undef SMART_KERNEL_NAME
#undef SMART_VEC_LANES
#pragma GCC pop_options

#endif  // x86-64 GCC

RelaxedKernelFn pick_kernel() {
#if defined(SMART_HAVE_X86_VARIANTS)
  if (__builtin_cpu_supports("avx512f")) return relaxed_rows_avx512;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return relaxed_rows_avx2;
  }
#endif
  return relaxed_rows_baseline;
}

RelaxedKernelFn dispatched() {
  static const RelaxedKernelFn fn = pick_kernel();
  return fn;
}

/// Same fan-out threshold as the strict kernels in matrix.cpp.
inline bool worth_parallel(std::size_t rows, std::size_t inner,
                           std::size_t cols) {
  return rows >= 16 && rows * inner * cols >= (1u << 15);
}

/// Rows per parallel task (matches the relaxed kernel's row-group size).
constexpr std::size_t kRowGroup = 4;

}  // namespace

void matmul_bias_act_relaxed_into(const Matrix& a, const Matrix& b,
                                  const Matrix& bias, bool relu, Matrix& c) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul: shape mismatch");
  }
  if (bias.rows() != 1 || bias.cols() != b.cols()) {
    throw std::invalid_argument("matmul_bias_act_relaxed_into: bad bias shape");
  }
  if (&c == &a || &c == &b || &c == &bias) {
    throw std::invalid_argument(
        "matmul_bias_act_relaxed_into: output aliases an input");
  }
  c.reshape_overwrite(a.rows(), b.cols());
  const RelaxedKernelFn fn = dispatched();
  const float* bias_ptr = bias.row(0).data();
  const auto run = [&](std::size_t i0, std::size_t i1) {
    fn(a.data(), a.cols(), b.data(), b.cols(), bias_ptr, relu, c.data(),
       c.cols(), i0, i1, a.cols(), b.cols());
  };
  if (worth_parallel(a.rows(), a.cols(), b.cols())) {
    // One task per row group: disjoint writes, and each row's math is
    // independent of the grouping, so any thread count gives the same bits.
    const std::size_t groups = (a.rows() + kRowGroup - 1) / kRowGroup;
    util::parallel_for(groups, [&](std::size_t gidx) {
      const std::size_t i0 = gidx * kRowGroup;
      run(i0, std::min(a.rows(), i0 + kRowGroup));
    });
  } else {
    run(0, a.rows());
  }
}

}  // namespace smart::ml
