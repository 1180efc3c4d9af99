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
      bias_("bias", Tensor(1, out_dim)) {}

const Tensor& SageLayer::forward(const Block& block, const Tensor& x_src) {
  if (x_src.rows() != block.num_src() || x_src.cols() != in_dim_) {
    throw std::invalid_argument("SageLayer::forward: x_src shape mismatch");
  }
  const std::size_t nd = block.num_dst();

  saved_x_dst_.reshape(nd, in_dim_);
  kernels::gather_rows(block.self_src.data(), nd, x_src.data(), in_dim_,
                       saved_x_dst_.data());
  saved_mean_.reshape(nd, in_dim_);
  kernels::aggregate_mean(block, x_src.data(), in_dim_, saved_mean_.data());

  saved_out_.reshape(nd, out_dim_);
  matmul(saved_x_dst_, w_self_.value, saved_out_);
  matmul(saved_mean_, w_neigh_.value, saved_out_, /*accumulate=*/true);
  kernels::bias_act(nd, out_dim_, bias_.value.data(), act_, saved_out_.data());
  return saved_out_;
}

const Tensor& SageLayer::backward(const Block& block, const Tensor& grad_out,
                                  bool input_grad) {
  const std::size_t nd = block.num_dst();
  if (grad_out.rows() != nd || grad_out.cols() != out_dim_) {
    throw std::invalid_argument("SageLayer::backward: grad shape mismatch");
  }
  if (saved_out_.rows() != nd) {
    throw std::logic_error(
        "SageLayer::backward: block differs from the last forward's");
  }
  Tensor& grad = saved_out_;  // in place: bias_act_grad allows it
  kernels::bias_act_grad(nd, out_dim_, grad_out.data(), saved_out_.data(),
                         act_, grad.data(), bias_.grad.data());

  // Weight gradients.
  matmul_at(saved_x_dst_, grad, w_self_.grad, /*accumulate=*/true);
  matmul_at(saved_mean_, grad, w_neigh_.grad, /*accumulate=*/true);
  if (input_grad) {
    // Input gradients: the self part lands on each dst's own src row, the
    // neighbor part fans grad @ W_neigh^T / degree back along the reverse
    // CSR (race-free over src rows).
    grad_self_.reshape(nd, in_dim_);
    matmul_bt(grad, w_self_.value, grad_self_);
    grad_mean_.reshape(nd, in_dim_);
    matmul_bt(grad, w_neigh_.value, grad_mean_);
    grad_src_.reshape(block.num_src(), in_dim_);
    kernels::sage_input_grad(block, grad_self_.data(), grad_mean_.data(),
                             in_dim_, grad_src_.data());
  } else {
    grad_src_.reshape(0, 0);
  }
  saved_out_.reshape(0, 0);  // consumed: a second backward needs a forward
  return grad_src_;
}

}  // namespace moment::gnn
