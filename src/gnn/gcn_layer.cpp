#include "gnn/gcn_layer.hpp"

#include <cmath>
#include <stdexcept>

#include "gnn/kernels.hpp"

namespace moment::gnn {

GcnLayer::GcnLayer(std::size_t in_dim, std::size_t out_dim, bool apply_relu,
                   util::Pcg32& rng)
    : in_dim_(in_dim), out_dim_(out_dim),
      act_(apply_relu ? kernels::Activation::kRelu
                      : kernels::Activation::kNone),
      w_("w", Tensor::glorot(in_dim, out_dim, rng)),
      bias_("bias", Tensor(1, out_dim)) {}

const Tensor& GcnLayer::forward(const Block& block, const Tensor& x_src) {
  if (x_src.rows() != block.num_src() || x_src.cols() != in_dim_) {
    throw std::invalid_argument("GcnLayer::forward: x_src shape mismatch");
  }
  const std::size_t nd = block.num_dst();
  const std::size_t ne = block.num_edges();

  // In-block degree (+1 self loop) per dst. A source that is also a dst uses
  // its dst degree; frontier-only sources count as degree 1 (their in-block
  // fan-in is not sampled).
  auto deg = [&](std::size_t i) {
    return 1.0 + static_cast<double>(block.degree(i));
  };

  // Normalisation coefficients, indexed by CSR edge id (self coefficients
  // appended), so backward can replay them through the reverse CSR.
  saved_coeff_.reshape(1, ne + nd);
  float* coeff = saved_coeff_.data();
  for (std::size_t i = 0; i < nd; ++i) {
    const int b = block.dst_off[i], e = block.dst_off[i + 1];
    for (int t = b; t < e; ++t) {
      const int sd =
          block.src_to_dst[static_cast<std::size_t>(block.src_of[t])];
      const double src_deg = sd >= 0 ? deg(static_cast<std::size_t>(sd)) : 1.0;
      coeff[static_cast<std::size_t>(t)] =
          static_cast<float>(1.0 / std::sqrt(deg(i) * src_deg));
    }
    // 1/sqrt(d_i * d_i) for the self loop.
    coeff[ne + i] = static_cast<float>(1.0 / deg(i));
  }

  saved_num_src_ = block.num_src();
  saved_agg_.reshape(nd, in_dim_);
  kernels::aggregate_coeff(block, coeff, coeff + ne, x_src.data(), in_dim_,
                           saved_agg_.data());

  saved_out_.reshape(nd, out_dim_);
  matmul(saved_agg_, w_.value, saved_out_);
  kernels::bias_act(nd, out_dim_, bias_.value.data(), act_, saved_out_.data());
  return saved_out_;
}

const Tensor& GcnLayer::backward(const Block& block, const Tensor& grad_out,
                                 bool input_grad) {
  const std::size_t nd = block.num_dst();
  if (grad_out.rows() != nd || grad_out.cols() != out_dim_) {
    throw std::invalid_argument("GcnLayer::backward: grad shape mismatch");
  }
  const std::size_t ne = block.num_edges();
  if (saved_out_.rows() != nd || saved_num_src_ != block.num_src() ||
      saved_coeff_.size() != ne + nd) {
    throw std::logic_error(
        "GcnLayer::backward: block differs from the last forward's");
  }
  Tensor& grad = saved_out_;  // in place: bias_act_grad allows it
  kernels::bias_act_grad(nd, out_dim_, grad_out.data(), saved_out_.data(),
                         act_, grad.data(), bias_.grad.data());

  matmul_at(saved_agg_, grad, w_.grad, /*accumulate=*/true);
  if (input_grad) {
    grad_agg_.reshape(nd, in_dim_);
    matmul_bt(grad, w_.value, grad_agg_);
    grad_src_.reshape(block.num_src(), in_dim_);
    kernels::aggregate_coeff_grad(block, saved_coeff_.data(),
                                  saved_coeff_.data() + ne, grad_agg_.data(),
                                  in_dim_, grad_src_.data());
  } else {
    grad_src_.reshape(0, 0);
  }
  saved_out_.reshape(0, 0);  // consumed: a second backward needs a forward
  return grad_src_;
}

}  // namespace moment::gnn
