#pragma once
// Minimal dense 2-D float tensor for the CPU GNN substrate. Row-major,
// value-semantic, with the handful of BLAS-ish kernels the GraphSAGE/GAT
// layers need. Deliberately small: this is the training substrate the
// paper's system runs on top of, not a general ML framework.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"
#include "util/uninit.hpp"

namespace moment::gnn {

class Tensor {
 public:
  Tensor() = default;
  Tensor(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  /// Glorot/Xavier-uniform initialisation.
  static Tensor glorot(std::size_t rows, std::size_t cols, util::Pcg32& rng);

  /// Makes this a (rows x cols) tensor with unspecified contents, for a
  /// buffer a kernel then writes in full. Never zero-fills; allocates only
  /// past the capacity reserved for its largest shape so far, and then
  /// reserves half again (a size that creeps up from batch to batch
  /// reallocates rarely; untouched pages are not resident).
  void reshape(std::size_t rows, std::size_t cols) {
    const std::size_t n = rows * cols;
    if (n > data_.capacity()) {
      data_ = Storage();  // free first; nothing stale is copied
      data_.reserve(n + n / 2);
    }
    data_.resize(n);
    rows_ = rows;
    cols_ = cols;
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }

  float& at(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float at(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::span<float> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const float> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  void zero() noexcept { std::fill(data_.begin(), data_.end(), 0.0f); }

  /// Frobenius norm; used by gradient-check tests and clipping.
  float norm() const noexcept;

  Tensor& operator*=(float s) noexcept;

 private:
  // Growing the storage does not zero-fill it (reshape).
  using Storage = std::vector<float, util::UninitAllocator<float>>;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Storage data_;
};

/// out = a @ b. Shapes (m,k) x (k,n) -> (m,n). `accumulate` adds into out.
void matmul(const Tensor& a, const Tensor& b, Tensor& out,
            bool accumulate = false);
/// out = a @ b^T. Shapes (m,k) x (n,k) -> (m,n).
void matmul_bt(const Tensor& a, const Tensor& b, Tensor& out,
               bool accumulate = false);
/// out = a^T @ b. Shapes (m,k) x (m,n) -> (k,n).
void matmul_at(const Tensor& a, const Tensor& b, Tensor& out,
               bool accumulate = false);

/// Row-wise softmax in place.
void softmax_rows(Tensor& x) noexcept;

}  // namespace moment::gnn
