#pragma once
// GraphSAGE layer with mean aggregation (Hamilton et al., the paper's primary
// model): h_dst = act(W_self x_dst + W_neigh mean_{src in N(dst)} x_src + b).
// Full forward/backward over a Block.

#include "gnn/block.hpp"
#include "gnn/kernels.hpp"
#include "gnn/layer.hpp"

namespace moment::gnn {

class SageLayer final : public GnnLayer {
 public:
  SageLayer(std::size_t in_dim, std::size_t out_dim, bool apply_relu,
            util::Pcg32& rng);

  const Tensor& forward(const Block& block, const Tensor& x_src) override;
  const Tensor& backward(const Block& block, const Tensor& grad_out,
                         bool input_grad = true) override;

  std::vector<Param*> parameters() override {
    return {&w_self_, &w_neigh_, &bias_};
  }

  std::size_t in_dim() const noexcept { return in_dim_; }
  std::size_t out_dim() const noexcept override { return out_dim_; }

 private:
  std::size_t in_dim_, out_dim_;
  kernels::Activation act_;  // ReLU or none
  Param w_self_, w_neigh_, bias_;

  // Saved activations (degrees live in the block's CSR), backward's buffers.
  Tensor saved_x_dst_;   // (num_dst x in)
  Tensor saved_mean_;    // (num_dst x in)
  Tensor saved_out_;     // (num_dst x out), post-activation, then its grad
  Tensor grad_self_;     // (num_dst x in)
  Tensor grad_mean_;     // (num_dst x in)
  Tensor grad_src_;      // backward's return (num_src x in)
};

}  // namespace moment::gnn
