#pragma once
// Graph Convolutional Network layer (Kipf & Welling) — the third model the
// paper's Fig. 8 lists as an AutoModule input. Symmetric-normalized
// aggregation over a block with implicit self loops:
//
//   h_i = act( sum_{j in N(i) u {i}}  x_j W / sqrt(d_i * d_j)  + b )
//
// where d are in-block degrees (+1 for the self loop). Full
// forward/backward.

#include "gnn/block.hpp"
#include "gnn/kernels.hpp"
#include "gnn/layer.hpp"

namespace moment::gnn {

class GcnLayer final : public GnnLayer {
 public:
  GcnLayer(std::size_t in_dim, std::size_t out_dim, bool apply_relu,
           util::Pcg32& rng);

  const Tensor& forward(const Block& block, const Tensor& x_src) override;
  const Tensor& backward(const Block& block, const Tensor& grad_out,
                         bool input_grad = true) override;

  std::vector<Param*> parameters() override { return {&w_, &bias_}; }

  std::size_t in_dim() const noexcept { return in_dim_; }
  std::size_t out_dim() const noexcept override { return out_dim_; }

 private:
  std::size_t in_dim_, out_dim_;
  kernels::Activation act_;  // ReLU or none
  Param w_, bias_;

  std::size_t saved_num_src_ = 0;  // src rows of the last forward's block
  Tensor saved_agg_;   // normalized aggregation (num_dst x in)
  Tensor saved_out_;   // post-activation, then backward's pre-activation grad
  /// (1 x num_edges + num_dst): indexed by the block's CSR edge id,
  /// with the per-dst self-loop coefficients appended after the edges.
  Tensor saved_coeff_;
  Tensor grad_agg_;    // (num_dst x in)
  Tensor grad_src_;    // backward's return (num_src x in)
};

}  // namespace moment::gnn
