#include "gnn/sage_layer.hpp"

#include <stdexcept>

#include "gnn/kernels.hpp"

namespace moment::gnn {

SageLayer::SageLayer(std::size_t in_dim, std::size_t out_dim, bool apply_relu,
                     util::Pcg32& rng)
    : in_dim_(in_dim), out_dim_(out_dim),
      act_(apply_relu ? kernels::Activation::kRelu
                      : kernels::Activation::kNone),
      w_self_("w_self", Tensor::glorot(in_dim, out_dim, rng)),
      w_neigh_("w_neigh", Tensor::glorot(in_dim, out_dim, rng)),
      bias_("bias", Tensor::zeros(1, out_dim)) {}

const Tensor& SageLayer::forward(const Block& block, const Tensor& x_src) {
  if (x_src.rows() != block.num_src() || x_src.cols() != in_dim_) {
    throw std::invalid_argument("SageLayer::forward: x_src shape mismatch");
  }
  const CompiledBlock& cb = block.compiled();
  const std::size_t nd = block.num_dst();

  saved_x_dst_ = Tensor(nd, in_dim_);
  kernels::gather_rows(cb.self_src.data(), nd, x_src.data(), in_dim_,
                       saved_x_dst_.data());
  saved_mean_ = Tensor(nd, in_dim_);
  kernels::aggregate_mean(cb, x_src.data(), in_dim_, saved_mean_.data());

  saved_out_ = Tensor(nd, out_dim_);
  matmul(saved_x_dst_, w_self_.value, saved_out_);
  matmul(saved_mean_, w_neigh_.value, saved_out_, /*accumulate=*/true);
  kernels::bias_act(nd, out_dim_, bias_.value.data(), act_, saved_out_.data());
  return saved_out_;
}

Tensor SageLayer::backward(const Block& block, const Tensor& grad_out,
                           bool input_grad) {
  if (grad_out.rows() != block.num_dst() || grad_out.cols() != out_dim_) {
    throw std::invalid_argument("SageLayer::backward: grad shape mismatch");
  }
  const CompiledBlock& cb = block.compiled();
  Tensor grad(block.num_dst(), out_dim_);
  kernels::bias_act_grad(block.num_dst(), out_dim_, grad_out.data(),
                         saved_out_.data(), act_, grad.data(),
                         bias_.grad.data());

  // Weight gradients.
  matmul_at(saved_x_dst_, grad, w_self_.grad, /*accumulate=*/true);
  matmul_at(saved_mean_, grad, w_neigh_.grad, /*accumulate=*/true);
  if (!input_grad) return {};

  // Input gradients: the self part lands on each dst's own src row, the
  // neighbor part fans grad @ W_neigh^T / degree back along the reverse CSR
  // (race-free over src rows).
  Tensor grad_self(block.num_dst(), in_dim_);
  matmul_bt(grad, w_self_.value, grad_self);
  Tensor grad_mean(block.num_dst(), in_dim_);
  matmul_bt(grad, w_neigh_.value, grad_mean);

  Tensor grad_src(block.num_src(), in_dim_);
  kernels::sage_input_grad(cb, grad_self.data(), grad_mean.data(), in_dim_,
                           grad_src.data());
  return grad_src;
}

}  // namespace moment::gnn
