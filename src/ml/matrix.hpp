// Minimal dense row-major float matrix for the neural-network stack.
// Sized for StencilMART's workloads (batch x feature matrices up to a few
// thousand elements per row); the matmul uses an i-k-j loop order that
// vectorizes well and is cache-friendly at these sizes.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"
#include "util/serialize_io.hpp"

namespace smart::ml {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix from_rows(const std::vector<std::vector<float>>& rows);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  float at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  float& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }

  std::span<const float> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<float> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }

  const float* data() const noexcept { return data_.data(); }
  float* data() noexcept { return data_.data(); }

  void fill(float value) { std::fill(data_.begin(), data_.end(), value); }

  /// Reshapes in place to rows x cols, all elements set to `value`. Keeps
  /// the existing allocation when it is large enough — the inference paths
  /// call this once per batch on long-lived scratch matrices.
  void resize(std::size_t rows, std::size_t cols, float value = 0.0f) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, value);
  }

  /// Reshapes like resize() but leaves element values unspecified (stale
  /// contents from an earlier, possibly larger shape may remain). Only for
  /// callers that overwrite every element before reading — the matmul
  /// kernels do, which saves resize()'s O(rows*cols) zero-fill per batch.
  void reshape_overwrite(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// He-uniform initialization for layer weights (fan_in = rows()).
  void init_he(util::Rng& rng);

  /// Gathers a subset of rows (for minibatching / k-fold splits).
  Matrix gather_rows(std::span<const std::size_t> indices) const;

  /// Writes `mat rows cols` + hexfloat elements (one token each). load()
  /// reproduces every element bit-exactly and throws std::runtime_error on
  /// malformed input or non-finite values (a NaN weight must never load).
  void save(util::TokenWriter& out) const;
  static Matrix load(util::TokenReader& in);

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// C = A * B. Shapes must agree ((n x k) * (k x m)).
Matrix matmul(const Matrix& a, const Matrix& b);

/// C = A * B written into a caller-owned matrix (resized as needed) so hot
/// inference loops reuse one allocation. Uses a register-tiled i-k-j kernel;
/// every output element still accumulates over k in ascending order, so the
/// result is bit-identical to matmul() and independent of the tiling.
/// Throws std::invalid_argument when `c` aliases an input: the kernel
/// reshapes and overwrites `c` before it finishes reading A and B, so an
/// aliased call would silently corrupt the product.
void matmul_into(const Matrix& a, const Matrix& b, Matrix& c);

/// Strict fused inference kernel (every Dense layer's inference step):
/// C = act(A * B + bias) with `bias` a 1 x cols(B) row broadcast over the
/// batch and act = ReLU when `relu`, identity otherwise. Per element this
/// performs exactly the operations of matmul_into() followed by Dense's
/// training-time bias loop and ReLU pass, in the same order (sum over k
/// ascending, then one bias add, then the max) — so inference is
/// bit-identical to forward(); fusing only removes the intermediate memory
/// traffic. Same aliasing rule as matmul_into().
void matmul_bias_act_into(const Matrix& a, const Matrix& b, const Matrix& bias,
                          bool relu, Matrix& c);

/// Relaxed float32 variant of matmul_bias_act_into() (the SMART_PRECISION
/// "f32" mode, DESIGN.md §13): accumulation is still per-element over k
/// ascending, but mul+add may contract to FMA and the column-remainder path
/// splits the dot product over interleaved partial sums, so results are
/// only tolerance-equivalent to the strict kernel. Dispatches once at
/// runtime to the widest ISA this CPU supports (AVX-512F, then AVX2+FMA)
/// and falls back to a portable scalar-vector build elsewhere. For a fixed
/// machine the output is deterministic and independent of batch size,
/// blocking and thread count, exactly like the strict kernel.
void matmul_bias_act_relaxed_into(const Matrix& a, const Matrix& b,
                                  const Matrix& bias, bool relu, Matrix& c);

/// C = A * B^T ((n x k) * (m x k) -> n x m).
Matrix matmul_bt(const Matrix& a, const Matrix& b);

/// C = A^T * B ((n x k), (n x m) -> k x m).
Matrix matmul_at(const Matrix& a, const Matrix& b);

}  // namespace smart::ml
