#pragma once
// Per-head GAT attention reference: a serial copy of the attention code
// GatLayer ran before the all-head kernels — the per-head logits, the three
// one-head kernels and the two fold loops into the attention-vector and
// projected-feature gradients. It is the bit-level contract of
// kernels::gat_logits, gat_attention_forward and gat_attention_backward, and
// serves test_gnn and bench_kernels. Every dot product is an ascending chain
// of separately rounded multiplies and adds: build including files with
// -ffp-contract=off.
//
// Layouts are the layer's: z, g, out and grad_z are head-major
// (row * heads*head_dim + h*head_dim + c), attn_* are (heads x head_dim), and
// per-edge state is [csr_edge * heads + h].

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "gnn/block.hpp"

namespace moment::gnn::reference {

/// Writes score and alpha for every edge and out (nd rows, zeroed by the
/// caller) for every head.
inline void gat_attention_forward(const Block& block, const float* z,
                                  std::size_t heads, std::size_t hd,
                                  const float* attn_l, const float* attn_r,
                                  float slope, float* score, float* alpha,
                                  float* out) {
  const std::size_t nd = block.num_dst(), ns = block.num_src(), od = heads * hd;
  std::vector<float> pl(ns), pr(ns);
  for (std::size_t h = 0; h < heads; ++h) {
    const std::size_t off = h * hd;
    const float* al = attn_l + off;
    const float* ar = attn_r + off;
    for (std::size_t v = 0; v < ns; ++v) {
      const float* zr = z + v * od + off;
      float l = 0.0f, r = 0.0f;
      for (std::size_t c = 0; c < hd; ++c) {
        l += al[c] * zr[c];
        r += ar[c] * zr[c];
      }
      pl[v] = l;
      pr[v] = r;
    }
    for (std::size_t i = 0; i < nd; ++i) {
      float* o = out + i * od + off;
      const int b = block.dst_off[i], e = block.dst_off[i + 1];
      if (e == b) continue;
      const float el = pl[static_cast<std::size_t>(block.self_src[i])];
      float mx = -std::numeric_limits<float>::infinity();
      for (int t = b; t < e; ++t) {
        const float s = el + pr[static_cast<std::size_t>(block.src_of[t])];
        score[static_cast<std::size_t>(t) * heads + h] = s;
        mx = std::max(mx, s > 0.0f ? s : slope * s);
      }
      float denom = 0.0f;
      for (int t = b; t < e; ++t) {
        const float s = score[static_cast<std::size_t>(t) * heads + h];
        const float w = std::exp((s > 0.0f ? s : slope * s) - mx);
        alpha[static_cast<std::size_t>(t) * heads + h] = w;
        denom += w;
      }
      const float inv = 1.0f / denom;
      for (int t = b; t < e; ++t) {
        float& a = alpha[static_cast<std::size_t>(t) * heads + h];
        a = a * inv;
        const float* zr =
            z + static_cast<std::size_t>(block.src_of[t]) * od + off;
        for (std::size_t j = 0; j < hd; ++j) o[j] += a * zr[j];
      }
    }
  }
}

/// Writes grad_z (ns rows, zeroed by the caller) and adds into grad_attn_l
/// and grad_attn_r; g is the gradient of forward's out.
inline void gat_attention_backward(const Block& block, const float* g,
                                   const float* z, std::size_t heads,
                                   std::size_t hd, float slope,
                                   const float* attn_l, const float* attn_r,
                                   const float* score, const float* alpha,
                                   float* grad_z, float* grad_attn_l,
                                   float* grad_attn_r) {
  const std::size_t nd = block.num_dst(), ns = block.num_src(), od = heads * hd;
  std::vector<float> ds(block.num_edges() * heads, 0.0f), del(nd), der(ns);
  for (std::size_t h = 0; h < heads; ++h) {
    const std::size_t off = h * hd;
    for (std::size_t i = 0; i < nd; ++i) {
      const int b = block.dst_off[i], e = block.dst_off[i + 1];
      del[i] = 0.0f;
      if (e == b) continue;
      const float* gi = g + i * od + off;
      float sum = 0.0f;
      for (int t = b; t < e; ++t) {
        const float* zr =
            z + static_cast<std::size_t>(block.src_of[t]) * od + off;
        float dot = 0.0f;
        for (std::size_t j = 0; j < hd; ++j) dot += gi[j] * zr[j];
        const std::size_t idx = static_cast<std::size_t>(t) * heads + h;
        ds[idx] = dot;
        sum += alpha[idx] * dot;
      }
      float acc = 0.0f;
      for (int t = b; t < e; ++t) {
        const std::size_t idx = static_cast<std::size_t>(t) * heads + h;
        const float grad_act = alpha[idx] * (ds[idx] - sum);
        ds[idx] = grad_act * (score[idx] > 0.0f ? 1.0f : slope);
        acc += ds[idx];
      }
      del[i] = acc;
    }
    for (std::size_t v = 0; v < ns; ++v) {
      float* o = grad_z + v * od + off;
      float acc = 0.0f;
      for (int t = block.src_off[v]; t < block.src_off[v + 1]; ++t) {
        const auto ed = static_cast<std::size_t>(block.rev_edge[t]);
        const auto d = static_cast<std::size_t>(block.dst_of[ed]);
        const float a = alpha[ed * heads + h];
        acc += ds[ed * heads + h];
        const float* gr = g + d * od + off;
        for (std::size_t j = 0; j < hd; ++j) o[j] += a * gr[j];
      }
      der[v] = acc;
    }
    const float* al = attn_l + off;
    const float* ar = attn_r + off;
    float* gal = grad_attn_l + off;
    float* gar = grad_attn_r + off;
    for (std::size_t i = 0; i < nd; ++i) {
      const float gl = del[i];
      if (gl == 0.0f) continue;
      const auto self = static_cast<std::size_t>(block.self_src[i]);
      const float* zr = z + self * od + off;
      float* gz = grad_z + self * od + off;
      for (std::size_t c = 0; c < hd; ++c) {
        gal[c] += gl * zr[c];
        gz[c] += gl * al[c];
      }
    }
    for (std::size_t v = 0; v < ns; ++v) {
      const float gr = der[v];
      if (gr == 0.0f) continue;
      const float* zr = z + v * od + off;
      float* gz = grad_z + v * od + off;
      for (std::size_t c = 0; c < hd; ++c) {
        gar[c] += gr * zr[c];
        gz[c] += gr * ar[c];
      }
    }
  }
}

}  // namespace moment::gnn::reference
