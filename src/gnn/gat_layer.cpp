#include "gnn/gat_layer.hpp"

#include <stdexcept>

#include "gnn/kernels.hpp"

namespace moment::gnn {

GatLayer::GatLayer(std::size_t in_dim, std::size_t num_heads,
                   std::size_t head_dim, bool apply_elu, util::Pcg32& rng)
    : in_dim_(in_dim), num_heads_(num_heads), head_dim_(head_dim),
      act_(apply_elu ? kernels::Activation::kElu : kernels::Activation::kNone),
      w_("w", Tensor::glorot(in_dim, num_heads * head_dim, rng)),
      attn_l_("attn_l", Tensor::glorot(num_heads, head_dim, rng)),
      attn_r_("attn_r", Tensor::glorot(num_heads, head_dim, rng)),
      bias_("bias", Tensor(1, num_heads * head_dim)) {}

const Tensor& GatLayer::forward(const Block& block, const Tensor& x_src) {
  if (x_src.rows() != block.num_src() || x_src.cols() != in_dim_) {
    throw std::invalid_argument("GatLayer::forward: x_src shape mismatch");
  }
  const std::size_t nd = block.num_dst();
  const std::size_t ns = block.num_src();
  const std::size_t ne = block.num_edges();
  const std::size_t od = out_dim();

  // z = x W with W's columns permuted head-minor, so z comes out head-minor
  // with the same bits per element.
  saved_x_src_ = &x_src;
  w_minor_.reshape(in_dim_, od);
  kernels::heads_to_minor(in_dim_, num_heads_, head_dim_, w_.value.data(),
                          w_minor_.data());
  saved_z_.reshape(ns, od);
  matmul(x_src, w_minor_, saved_z_);

  el_.reshape(nd, num_heads_);
  er_.reshape(ns, num_heads_);
  kernels::gat_logits(block, saved_z_.data(), num_heads_, head_dim_,
                      attn_l_.value.data(), attn_r_.value.data(), el_.data(),
                      er_.data());
  saved_score_.reshape(ne, num_heads_);
  saved_alpha_.reshape(ne, num_heads_);
  saved_out_.reshape(nd, od);
  kernels::gat_attention_forward(block, el_.data(), er_.data(),
                                 saved_z_.data(), num_heads_, head_dim_,
                                 kLeakySlope, saved_score_.data(),
                                 saved_alpha_.data(), saved_out_.data());
  kernels::bias_act(nd, od, bias_.value.data(), act_, saved_out_.data());
  return saved_out_;
}

const Tensor& GatLayer::backward(const Block& block, const Tensor& grad_out,
                                 bool input_grad) {
  const std::size_t nd = block.num_dst();
  const std::size_t ns = block.num_src();
  const std::size_t od = out_dim();
  if (grad_out.rows() != nd || grad_out.cols() != od) {
    throw std::invalid_argument("GatLayer::backward: grad shape mismatch");
  }
  if (saved_out_.rows() != nd || saved_z_.rows() != ns ||
      saved_score_.rows() != block.num_edges()) {
    throw std::logic_error(
        "GatLayer::backward: block differs from the last forward's");
  }
  Tensor& grad = saved_out_;  // in place: bias_act_grad allows it
  kernels::bias_act_grad(nd, od, grad_out.data(), saved_out_.data(), act_,
                         grad.data(), bias_.grad.data());

  grad_z_.reshape(ns, od);
  kernels::gat_attention_backward(
      block, grad.data(), saved_z_.data(), num_heads_, head_dim_, kLeakySlope,
      attn_l_.value.data(), attn_r_.value.data(), saved_score_.data(),
      saved_alpha_.data(), grad_z_.data(), attn_l_.grad.data(),
      attn_r_.grad.data());
  saved_out_.reshape(0, 0);  // consumed: a second backward needs a forward

  // Z = X W: accumulate dW in W's head-minor column order, then put it back.
  grad_w_.reshape(in_dim_, od);
  kernels::heads_to_minor(in_dim_, num_heads_, head_dim_, w_.grad.data(),
                          grad_w_.data());
  matmul_at(*saved_x_src_, grad_z_, grad_w_, /*accumulate=*/true);
  kernels::heads_to_major(in_dim_, num_heads_, head_dim_, grad_w_.data(),
                          w_.grad.data());
  if (!input_grad) {
    grad_x_.reshape(0, 0);
    return grad_x_;
  }
  // dX sums over W's columns in head-major order.
  grad_z_major_.reshape(ns, od);
  kernels::heads_to_major(ns, num_heads_, head_dim_, grad_z_.data(),
                          grad_z_major_.data());
  grad_x_.reshape(ns, in_dim_);
  matmul_bt(grad_z_major_, w_.value, grad_x_);
  return grad_x_;
}

}  // namespace moment::gnn
