#pragma once
// Scalar CSR aggregation that adds in the kernels' own order (stated in
// gnn/kernels.hpp): the bit-level contract of kernels::aggregate_mean,
// aggregate_coeff, aggregate_coeff_grad and sage_input_grad on every body,
// for test_kernels and bench_kernels. Every product is rounded before its
// sum: build including files with -ffp-contract=off.

#include <cstddef>

#include "gnn/block.hpp"

namespace moment::gnn::reference {

/// Element j of dst row i before the self term: from +0, the CSR neighbours
/// four at a time as (t0 + t1) + (t2 + t3), then one at a time. A term is
/// x[src] weighted by edge_coeff, or unweighted when edge_coeff is null.
inline float csr_sum(const Block& block, const float* edge_coeff,
                     const float* x, std::size_t dim, std::size_t i,
                     std::size_t j) {
  auto term = [&](int t) {
    const float v = x[static_cast<std::size_t>(block.src_of[t]) * dim + j];
    return edge_coeff == nullptr ? v : edge_coeff[t] * v;
  };
  const int e = block.dst_off[i + 1];
  float o = 0.0f;
  int t = block.dst_off[i];
  for (; t + 4 <= e; t += 4) {
    o = o + ((term(t) + term(t + 1)) + (term(t + 2) + term(t + 3)));
  }
  for (; t < e; ++t) o = o + term(t);
  return o;
}

inline void aggregate_mean(const Block& block, const float* x,
                           std::size_t dim, float* out) {
  for (std::size_t i = 0; i < block.num_dst(); ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      out[i * dim + j] =
          csr_sum(block, nullptr, x, dim, i, j) * block.inv_deg[i];
    }
  }
}

inline void aggregate_coeff(const Block& block, const float* edge_coeff,
                            const float* self_coeff, const float* x,
                            std::size_t dim, float* out) {
  for (std::size_t i = 0; i < block.num_dst(); ++i) {
    const auto self = static_cast<std::size_t>(block.self_src[i]);
    for (std::size_t j = 0; j < dim; ++j) {
      float o = csr_sum(block, edge_coeff, x, dim, i, j);
      if (self_coeff != nullptr) o = o + self_coeff[i] * x[self * dim + j];
      out[i * dim + j] = o;
    }
  }
}

/// From +0, one reverse-CSR edge at a time, then the self term.
inline void aggregate_coeff_grad(const Block& block,
                                 const float* edge_coeff,
                                 const float* self_coeff, const float* g,
                                 std::size_t dim, float* grad_src) {
  for (std::size_t v = 0; v < block.num_src(); ++v) {
    const int sd = block.src_to_dst[v];
    for (std::size_t j = 0; j < dim; ++j) {
      float o = 0.0f;
      for (int t = block.src_off[v]; t < block.src_off[v + 1]; ++t) {
        const int ed = block.rev_edge[static_cast<std::size_t>(t)];
        const auto d = static_cast<std::size_t>(block.dst_of[ed]);
        o = o + edge_coeff[ed] * g[d * dim + j];
      }
      if (self_coeff != nullptr && sd >= 0) {
        o = o + self_coeff[sd] * g[static_cast<std::size_t>(sd) * dim + j];
      }
      grad_src[v * dim + j] = o;
    }
  }
}

/// From grad_self of the dst v is self of (else +0), one reverse-CSR edge at
/// a time.
inline void sage_input_grad(const Block& block, const float* grad_self,
                            const float* grad_mean, std::size_t dim,
                            float* grad_src) {
  for (std::size_t v = 0; v < block.num_src(); ++v) {
    const int sd = block.src_to_dst[v];
    for (std::size_t j = 0; j < dim; ++j) {
      float o = sd >= 0 ? grad_self[static_cast<std::size_t>(sd) * dim + j]
                        : 0.0f;
      for (int t = block.src_off[v]; t < block.src_off[v + 1]; ++t) {
        const auto d = static_cast<std::size_t>(
            block.dst_of[block.rev_edge[static_cast<std::size_t>(t)]]);
        o = o + block.inv_deg[d] * grad_mean[d * dim + j];
      }
      grad_src[v * dim + j] = o;
    }
  }
}

}  // namespace moment::gnn::reference
