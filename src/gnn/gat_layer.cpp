#include "gnn/gat_layer.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "gnn/kernels.hpp"
#include "util/thread_pool.hpp"

namespace moment::gnn {

float elu_scalar(float x) noexcept {
  return x > 0.0f ? x : std::expm1(x);
}

float elu_grad_from_out(float out) noexcept {
  // For ELU(alpha=1): d/dx = 1 if x > 0 else exp(x) = out + 1.
  return out > 0.0f ? 1.0f : out + 1.0f;
}

GatLayer::GatLayer(std::size_t in_dim, std::size_t num_heads,
                   std::size_t head_dim, bool apply_elu, util::Pcg32& rng)
    : in_dim_(in_dim), num_heads_(num_heads), head_dim_(head_dim),
      apply_elu_(apply_elu),
      w_("w", Tensor::glorot(in_dim, num_heads * head_dim, rng)),
      attn_l_("attn_l", Tensor::glorot(num_heads, head_dim, rng)),
      attn_r_("attn_r", Tensor::glorot(num_heads, head_dim, rng)),
      bias_("bias", Tensor::zeros(1, num_heads * head_dim)) {}

void GatLayer::project_head(std::size_t h, std::vector<float>& pl,
                            std::vector<float>& pr) const {
  const std::size_t ns = saved_z_.rows();
  const std::size_t od = out_dim();
  const std::size_t off = h * head_dim_;
  const float* al = attn_l_.value.data() + h * head_dim_;
  const float* ar = attn_r_.value.data() + h * head_dim_;
  pl.resize(ns);
  pr.resize(ns);
  util::parallel_for(
      util::compute_pool(), 0, ns, kernels::kRowGrain * 4,
      [&](std::size_t v0, std::size_t v1) {
        for (std::size_t v = v0; v < v1; ++v) {
          const float* z = saved_z_.data() + v * od + off;
          float l = 0.0f, r = 0.0f;
          for (std::size_t c = 0; c < head_dim_; ++c) {
            l += al[c] * z[c];
            r += ar[c] * z[c];
          }
          pl[v] = l;
          pr[v] = r;
        }
      });
}

Tensor GatLayer::forward(const Block& block, const Tensor& x_src) {
  if (x_src.rows() != block.num_src() || x_src.cols() != in_dim_) {
    throw std::invalid_argument("GatLayer::forward: x_src shape mismatch");
  }
  const CompiledBlock& cb = block.compiled();
  const std::size_t nd = block.num_dst();
  const std::size_t ne = cb.num_edges();
  const std::size_t od = out_dim();

  saved_x_src_ = x_src;
  saved_z_ = Tensor(block.num_src(), od);
  matmul(x_src, w_.value, saved_z_);

  // Per-(CSR edge, head) attention state, interleaved head-minor so each
  // head's kernel call strides by num_heads_.
  saved_score_.assign(ne * num_heads_, 0.0f);
  saved_alpha_.assign(ne * num_heads_, 0.0f);
  saved_pre_ = Tensor(nd, od);

  std::vector<float> pl, pr, el(nd);
  for (std::size_t h = 0; h < num_heads_; ++h) {
    const std::size_t off = h * head_dim_;
    project_head(h, pl, pr);
    for (std::size_t i = 0; i < nd; ++i) {
      el[i] = pl[static_cast<std::size_t>(cb.self_src[i])];
    }
    kernels::gat_attention_forward(
        cb, el.data(), pr.data(), saved_z_.data() + off, od, head_dim_,
        kLeakySlope, num_heads_, saved_score_.data() + h,
        saved_alpha_.data() + h, saved_pre_.data() + off);
  }

  add_bias(saved_pre_, bias_.value);
  Tensor out = saved_pre_;
  if (apply_elu_) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out.data()[i] = elu_scalar(out.data()[i]);
    }
  }
  saved_pre_ = out;  // keep post-activation for the ELU derivative
  return out;
}

Tensor GatLayer::backward(const Block& block, const Tensor& grad_out,
                          bool input_grad) {
  const CompiledBlock& cb = block.compiled();
  const std::size_t nd = block.num_dst();
  const std::size_t ne = cb.num_edges();
  const std::size_t ns = block.num_src();
  const std::size_t od = out_dim();
  if (grad_out.rows() != nd || grad_out.cols() != od) {
    throw std::invalid_argument("GatLayer::backward: grad shape mismatch");
  }
  Tensor grad = grad_out;
  if (apply_elu_) {
    for (std::size_t i = 0; i < grad.size(); ++i) {
      grad.data()[i] *= elu_grad_from_out(saved_pre_.data()[i]);
    }
  }
  bias_grad(grad, bias_.grad);

  Tensor grad_z(ns, od);
  std::vector<float> ds(ne * num_heads_, 0.0f);
  std::vector<float> del(nd), der(ns);

  for (std::size_t h = 0; h < num_heads_; ++h) {
    const std::size_t off = h * head_dim_;
    const float* g = grad.data() + off;
    const float* z = saved_z_.data() + off;

    // Pass 1 (parallel over dst): per-edge score gradient + per-dst logit
    // gradient. Pass 2 (parallel over src): aggregation term into grad_z and
    // the per-src logit gradient.
    kernels::gat_attention_backward_dst(cb, g, z, od, head_dim_, kLeakySlope,
                                        num_heads_, saved_score_.data() + h,
                                        saved_alpha_.data() + h, ds.data() + h,
                                        del.data());
    kernels::gat_attention_backward_src(cb, g, od, head_dim_, num_heads_,
                                        saved_alpha_.data() + h, ds.data() + h,
                                        der.data(), grad_z.data() + off);

    // el[i] = attn_l . z[self];  er[v] = attn_r . z[v]. Fold the logit
    // gradients into attn grads and grad_z. Serial: O((nd + ns) * head_dim).
    const float* al = attn_l_.value.data() + h * head_dim_;
    const float* ar = attn_r_.value.data() + h * head_dim_;
    float* gal = attn_l_.grad.data() + h * head_dim_;
    float* gar = attn_r_.grad.data() + h * head_dim_;
    for (std::size_t i = 0; i < nd; ++i) {
      const float gl = del[i];
      if (gl == 0.0f) continue;
      const auto self = static_cast<std::size_t>(cb.self_src[i]);
      const float* zr = z + self * od;
      float* gz = grad_z.data() + self * od + off;
      for (std::size_t c = 0; c < head_dim_; ++c) {
        gal[c] += gl * zr[c];
        gz[c] += gl * al[c];
      }
    }
    for (std::size_t v = 0; v < ns; ++v) {
      const float gr = der[v];
      if (gr == 0.0f) continue;
      const float* zr = z + v * od;
      float* gz = grad_z.data() + v * od + off;
      for (std::size_t c = 0; c < head_dim_; ++c) {
        gar[c] += gr * zr[c];
        gz[c] += gr * ar[c];
      }
    }
  }

  // Z = X W: accumulate dW and dX.
  matmul_at(saved_x_src_, grad_z, w_.grad, /*accumulate=*/true);
  if (!input_grad) return {};
  Tensor grad_x(ns, in_dim_);
  matmul_bt(grad_z, w_.value, grad_x);
  return grad_x;
}

}  // namespace moment::gnn
