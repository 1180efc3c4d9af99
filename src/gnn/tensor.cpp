#include "gnn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "gnn/kernels.hpp"

namespace moment::gnn {

Tensor Tensor::glorot(std::size_t rows, std::size_t cols, util::Pcg32& rng) {
  Tensor t(rows, cols);
  const float limit =
      std::sqrt(6.0f / static_cast<float>(rows + cols));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t.data()[i] =
        static_cast<float>(rng.next_double(-limit, limit));
  }
  return t;
}

float Tensor::norm() const noexcept {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

Tensor& Tensor::operator*=(float s) noexcept {
  for (float& v : data_) v *= s;
  return *this;
}

namespace {

void check_out(const Tensor& out, std::size_t m, std::size_t n) {
  if (out.rows() != m || out.cols() != n) {
    throw std::invalid_argument("matmul: output shape mismatch");
  }
}

}  // namespace

void matmul(const Tensor& a, const Tensor& b, Tensor& out, bool accumulate) {
  if (a.cols() != b.rows()) throw std::invalid_argument("matmul: inner dims");
  check_out(out, a.rows(), b.cols());
  kernels::gemm(a.rows(), a.cols(), b.cols(), a.data(), b.data(), out.data(),
                accumulate);
}

void matmul_bt(const Tensor& a, const Tensor& b, Tensor& out,
               bool accumulate) {
  if (a.cols() != b.cols()) throw std::invalid_argument("matmul_bt: dims");
  check_out(out, a.rows(), b.rows());
  kernels::gemm_bt(a.rows(), a.cols(), b.rows(), a.data(), b.data(),
                   out.data(), accumulate);
}

void matmul_at(const Tensor& a, const Tensor& b, Tensor& out,
               bool accumulate) {
  if (a.rows() != b.rows()) throw std::invalid_argument("matmul_at: dims");
  check_out(out, a.cols(), b.cols());
  kernels::gemm_at(a.rows(), a.cols(), b.cols(), a.data(), b.data(),
                   out.data(), accumulate);
}

void softmax_rows(Tensor& x) noexcept {
  for (std::size_t r = 0; r < x.rows(); ++r) {
    float* row = x.data() + r * x.cols();
    float mx = row[0];
    for (std::size_t c = 1; c < x.cols(); ++c) mx = std::max(mx, row[c]);
    float sum = 0.0f;
    for (std::size_t c = 0; c < x.cols(); ++c) {
      row[c] = std::exp(row[c] - mx);
      sum += row[c];
    }
    const float inv = 1.0f / sum;
    for (std::size_t c = 0; c < x.cols(); ++c) row[c] *= inv;
  }
}

}  // namespace moment::gnn
