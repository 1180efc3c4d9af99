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
      bias_("bias", Tensor::zeros(1, out_dim)) {}

const Tensor& GcnLayer::forward(const Block& block, const Tensor& x_src) {
  if (x_src.rows() != block.num_src() || x_src.cols() != in_dim_) {
    throw std::invalid_argument("GcnLayer::forward: x_src shape mismatch");
  }
  const CompiledBlock& cb = block.compiled();
  const std::size_t nd = block.num_dst();
  const std::size_t ne = cb.num_edges();

  // In-block degree (+1 self loop) per dst. A source that is also a dst uses
  // its dst degree; frontier-only sources count as degree 1 (their in-block
  // fan-in is not sampled).
  std::vector<double> deg(nd);
  for (std::size_t i = 0; i < nd; ++i) {
    deg[i] = 1.0 + static_cast<double>(cb.degree(i));
  }

  // Normalisation coefficients, indexed by CSR edge id (self coefficients
  // appended), so backward can replay them through the reverse CSR.
  saved_coeff_.assign(ne + nd, 0.0f);
  for (std::size_t i = 0; i < nd; ++i) {
    const int b = cb.dst_off[i], e = cb.dst_off[i + 1];
    for (int t = b; t < e; ++t) {
      const int sd = cb.src_to_dst[static_cast<std::size_t>(cb.src_of[t])];
      const double src_deg = sd >= 0 ? deg[static_cast<std::size_t>(sd)] : 1.0;
      saved_coeff_[static_cast<std::size_t>(t)] =
          static_cast<float>(1.0 / std::sqrt(deg[i] * src_deg));
    }
    // 1/sqrt(d_i * d_i) for the self loop.
    saved_coeff_[ne + i] = static_cast<float>(1.0 / deg[i]);
  }

  saved_num_src_ = block.num_src();
  saved_agg_ = Tensor(nd, in_dim_);
  kernels::aggregate_coeff(cb, saved_coeff_.data(), saved_coeff_.data() + ne,
                           x_src.data(), in_dim_, saved_agg_.data());

  saved_out_ = Tensor(nd, out_dim_);
  matmul(saved_agg_, w_.value, saved_out_);
  kernels::bias_act(nd, out_dim_, bias_.value.data(), act_, saved_out_.data());
  return saved_out_;
}

Tensor GcnLayer::backward(const Block& block, const Tensor& grad_out,
                          bool input_grad) {
  if (grad_out.rows() != block.num_dst() || grad_out.cols() != out_dim_) {
    throw std::invalid_argument("GcnLayer::backward: grad shape mismatch");
  }
  const CompiledBlock& cb = block.compiled();
  if (saved_num_src_ != block.num_src() ||
      saved_coeff_.size() != cb.num_edges() + block.num_dst()) {
    throw std::logic_error(
        "GcnLayer::backward: block differs from the last forward's");
  }
  Tensor grad(block.num_dst(), out_dim_);
  kernels::bias_act_grad(block.num_dst(), out_dim_, grad_out.data(),
                         saved_out_.data(), act_, grad.data(),
                         bias_.grad.data());

  matmul_at(saved_agg_, grad, w_.grad, /*accumulate=*/true);
  if (!input_grad) return {};

  Tensor grad_agg(block.num_dst(), in_dim_);
  matmul_bt(grad, w_.value, grad_agg);

  Tensor grad_src(block.num_src(), in_dim_);
  kernels::aggregate_coeff_grad(cb, saved_coeff_.data(),
                                saved_coeff_.data() + cb.num_edges(),
                                grad_agg.data(), in_dim_, grad_src.data());
  return grad_src;
}

}  // namespace moment::gnn
