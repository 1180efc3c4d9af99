#pragma once
// Graph Attention Network layer (Velickovic et al.), multi-head with
// concatenation — the paper's compute-heavy model (hidden 64, 8 heads).
//
//   z_j   = W_h x_j                       (per head h)
//   e_ij  = LeakyReLU(a_l . z_i + a_r . z_j)
//   alpha = softmax_j(e_ij)  (per dst i)
//   h_i   = ELU( concat_h( sum_j alpha_ij z_j ) + b )
//
// Full forward/backward over a Block, including attention softmax backward.

#include "gnn/block.hpp"
#include "gnn/kernels.hpp"
#include "gnn/layer.hpp"

namespace moment::gnn {

class GatLayer final : public GnnLayer {
 public:
  GatLayer(std::size_t in_dim, std::size_t num_heads, std::size_t head_dim,
           bool apply_elu, util::Pcg32& rng);

  const Tensor& forward(const Block& block, const Tensor& x_src) override;
  const Tensor& backward(const Block& block, const Tensor& grad_out,
                         bool input_grad = true) override;

  std::vector<Param*> parameters() override {
    return {&w_, &attn_l_, &attn_r_, &bias_};
  }

  std::size_t in_dim() const noexcept { return in_dim_; }
  std::size_t out_dim() const noexcept override {
    return num_heads_ * head_dim_;
  }
  std::size_t num_heads() const noexcept { return num_heads_; }

  static constexpr float kLeakySlope = 0.2f;

 private:
  std::size_t in_dim_, num_heads_, head_dim_;
  kernels::Activation act_;  // ELU or none
  Param w_;       // (in_dim x heads*head_dim), heads column-blocked
  Param attn_l_;  // (heads x head_dim)
  Param attn_r_;  // (heads x head_dim)
  Param bias_;    // (1 x heads*head_dim)

  // Saved state for backward. Per-edge state is indexed by the block's CSR
  // edge id (head-minor: edge * num_heads + head) — the per-dst adjacency
  // comes from the block, not a layer-local copy.
  const Tensor* saved_x_src_ = nullptr;  // forward's input, read in place
  Tensor saved_z_;      // (num_src x heads*head_dim), head-minor columns
  Tensor saved_out_;    // (num_dst x heads*head_dim) output, then its grad
  Tensor saved_alpha_;  // (CSR edges x heads)
  Tensor saved_score_;  // pre-LeakyReLU logits (CSR edges x heads)
  Tensor w_minor_;      // W with head-minor columns (in_dim x out_dim)
  Tensor el_, er_;      // attention logits per dst / per src (rows x heads)
  Tensor grad_z_;       // (num_src x heads*head_dim), head-minor
  Tensor grad_w_;       // dW with head-minor columns (in_dim x out_dim)
  Tensor grad_z_major_; // grad_z_ with head-major columns
  Tensor grad_x_;       // backward's return (num_src x in_dim)
};

}  // namespace moment::gnn
