#include "ml/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/task_pool.hpp"

namespace smart::ml {

namespace {

/// Fan a matmul's independent output rows over the task pool only when the
/// product is big enough to amortize the loop dispatch. Each output element
/// accumulates in the same operand order as the serial loop, so results are
/// bit-identical for any thread count.
inline bool worth_parallel(std::size_t rows, std::size_t inner,
                           std::size_t cols) {
  return rows >= 16 && rows * inner * cols >= (1u << 15);
}

}  // namespace

Matrix Matrix::from_rows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return {};
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != m.cols_) {
      throw std::invalid_argument("Matrix::from_rows: ragged rows");
    }
    std::copy(rows[r].begin(), rows[r].end(), m.data_.begin() + static_cast<std::ptrdiff_t>(r * m.cols_));
  }
  return m;
}

void Matrix::init_he(util::Rng& rng) {
  const double bound = std::sqrt(6.0 / static_cast<double>(std::max<std::size_t>(1, rows_)));
  for (float& w : data_) {
    w = static_cast<float>(rng.uniform(-bound, bound));
  }
}

void Matrix::save(util::TokenWriter& out) const {
  out << "mat " << rows_ << ' ' << cols_;
  for (float v : data_) {
    out << ' ';
    out.hexfloat(v);
  }
  out << '\n';
}

Matrix Matrix::load(util::TokenReader& in) {
  in.expect("mat", "Matrix::load");
  // Every element is a token and its separator, at least 2 bytes: a row
  // takes 2 * cols of them (a zero-column matrix holds no elements).
  const std::size_t rows = in.count("Matrix::load rows", 2);
  const std::size_t cols = in.count("Matrix::load cols", 2 * rows);
  Matrix m(rows, cols);
  for (float& v : m.data_) v = in.f32("Matrix::load element");
  return m;
}

Matrix Matrix::gather_rows(std::span<const std::size_t> indices) const {
  Matrix out(indices.size(), cols_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const auto src = row(indices[i]);
    std::copy(src.begin(), src.end(), out.row(i).begin());
  }
  return out;
}

namespace {

/// Output-tile width of the register-tiled matmul kernel: each k step
/// broadcasts a(i,k) into kJTile accumulators that live in registers, so
/// the C row is written once per tile instead of re-loaded per k.
constexpr std::size_t kJTile = 8;

/// Rows per register block. One row's accumulators form a single
/// dependency chain per k step; interleaving kITile independent rows hides
/// the FMA latency that chain would otherwise serialize on. Batched
/// inference (many rows) gets the full effect; a 1-row call degenerates to
/// the plain tiled kernel.
constexpr std::size_t kITile = 4;

/// Epilogue shared by the tiled kernels: the raw accumulator when
/// `bias == nullptr`, else the accumulator plus the broadcast bias, through
/// ReLU when `relu`. The bias add and the max are one FP op each, applied
/// after the full k sum — the exact per-element sequence of the legacy
/// matmul-then-bias-loop-then-ReLU-pass, so fused results are bit-identical
/// to the unfused ones.
inline float finish_elem(float acc, const float* bias, std::size_t j,
                         bool relu) {
  if (bias != nullptr) acc += bias[j];
  if (relu) acc = acc > 0.0f ? acc : 0.0f;
  return acc;
}

/// NR output rows of C = act(A * B + bias), j-tiled. Per output element the
/// accumulation runs over k ascending (zero a(i,k) skipped), exactly like
/// the untiled i-k-j loop this replaces — blocking only changes where
/// partial sums live and which elements progress together, never the order
/// one element's partial sums are combined in, so results are bit-identical
/// for any NR and identical to the single-row kernel.
template <std::size_t NR>
inline void matmul_rows_tiled(const Matrix& a, const Matrix& b, Matrix& c,
                              std::size_t i0, const float* bias, bool relu) {
  const std::size_t inner = a.cols();
  const std::size_t cols = b.cols();
  const float* arow[NR];
  float* crow[NR];
  for (std::size_t r = 0; r < NR; ++r) {
    arow[r] = a.row(i0 + r).data();
    crow[r] = c.row(i0 + r).data();
  }
  std::size_t j0 = 0;
  for (; j0 + kJTile <= cols; j0 += kJTile) {
    float acc[NR][kJTile] = {};
    for (std::size_t k = 0; k < inner; ++k) {
      const float* brow = b.row(k).data() + j0;
      for (std::size_t r = 0; r < NR; ++r) {
        const float aik = arow[r][k];
        if (aik == 0.0f) continue;
        for (std::size_t t = 0; t < kJTile; ++t) acc[r][t] += aik * brow[t];
      }
    }
    for (std::size_t r = 0; r < NR; ++r) {
      for (std::size_t t = 0; t < kJTile; ++t) {
        crow[r][j0 + t] = finish_elem(acc[r][t], bias, j0 + t, relu);
      }
    }
  }
  if (j0 < cols) {
    const std::size_t width = cols - j0;
    float acc[NR][kJTile] = {};
    for (std::size_t k = 0; k < inner; ++k) {
      const float* brow = b.row(k).data() + j0;
      for (std::size_t r = 0; r < NR; ++r) {
        const float aik = arow[r][k];
        if (aik == 0.0f) continue;
        for (std::size_t t = 0; t < width; ++t) acc[r][t] += aik * brow[t];
      }
    }
    for (std::size_t r = 0; r < NR; ++r) {
      for (std::size_t t = 0; t < width; ++t) {
        crow[r][j0 + t] = finish_elem(acc[r][t], bias, j0 + t, relu);
      }
    }
  }
}

/// All rows of the block [i0, i0 + n): full kITile groups, then singles.
inline void matmul_block(const Matrix& a, const Matrix& b, Matrix& c,
                         std::size_t i0, std::size_t n, const float* bias,
                         bool relu) {
  std::size_t i = i0;
  for (; i + kITile <= i0 + n; i += kITile) {
    matmul_rows_tiled<kITile>(a, b, c, i, bias, relu);
  }
  for (; i < i0 + n; ++i) matmul_rows_tiled<1>(a, b, c, i, bias, relu);
}

/// Shared driver of the strict kernels; `bias == nullptr` for plain matmul.
void matmul_fused_driver(const Matrix& a, const Matrix& b, Matrix& c,
                         const float* bias, bool relu) {
  if (a.cols() != b.rows()) throw std::invalid_argument("matmul: shape mismatch");
  if (&c == &a || &c == &b) {
    throw std::invalid_argument("matmul_into: output aliases an input");
  }
  // The kernels write every element of c, so skip resize()'s zero-fill.
  c.reshape_overwrite(a.rows(), b.cols());
  if (worth_parallel(a.rows(), a.cols(), b.cols())) {
    // One task per kITile row group (disjoint writes, any thread count).
    const std::size_t groups = (a.rows() + kITile - 1) / kITile;
    util::parallel_for(groups, [&](std::size_t gidx) {
      const std::size_t i0 = gidx * kITile;
      matmul_block(a, b, c, i0, std::min(kITile, a.rows() - i0), bias, relu);
    });
  } else {
    matmul_block(a, b, c, 0, a.rows(), bias, relu);
  }
}

}  // namespace

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c) {
  matmul_fused_driver(a, b, c, nullptr, false);
}

void matmul_bias_act_into(const Matrix& a, const Matrix& b, const Matrix& bias,
                          bool relu, Matrix& c) {
  if (bias.rows() != 1 || bias.cols() != b.cols()) {
    throw std::invalid_argument("matmul_bias_act_into: bad bias shape");
  }
  if (&c == &bias) {
    throw std::invalid_argument("matmul_bias_act_into: output aliases bias");
  }
  matmul_fused_driver(a, b, c, bias.row(0).data(), relu);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_into(a, b, c);
  return c;
}

Matrix matmul_bt(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols()) throw std::invalid_argument("matmul_bt: shape mismatch");
  Matrix c(a.rows(), b.rows());
  const auto row_kernel = [&](std::size_t i) {
    const float* arow = a.row(i).data();
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const float* brow = b.row(j).data();
      float acc = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += arow[k] * brow[k];
      c.at(i, j) = acc;
    }
  };
  if (worth_parallel(a.rows(), a.cols(), b.rows())) {
    util::parallel_for(a.rows(), row_kernel);
  } else {
    for (std::size_t i = 0; i < a.rows(); ++i) row_kernel(i);
  }
  return c;
}

Matrix matmul_at(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) throw std::invalid_argument("matmul_at: shape mismatch");
  Matrix c(a.cols(), b.cols());
  // Output rows of c = columns of a, so iterating i outermost makes the
  // writes disjoint per task. Per element the accumulation still runs over
  // n ascending — the exact FP order of the old n-outermost loop.
  const auto col_kernel = [&](std::size_t i) {
    float* crow = c.row(i).data();
    for (std::size_t n = 0; n < a.rows(); ++n) {
      const float ai = a.row(n).data()[i];
      if (ai == 0.0f) continue;
      const float* brow = b.row(n).data();
      for (std::size_t j = 0; j < b.cols(); ++j) {
        crow[j] += ai * brow[j];
      }
    }
  };
  if (worth_parallel(a.cols(), a.rows(), b.cols())) {
    util::parallel_for(a.cols(), col_kernel);
  } else {
    for (std::size_t i = 0; i < a.cols(); ++i) col_kernel(i);
  }
  return c;
}

}  // namespace smart::ml
