#include "gnn/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "util/thread_pool.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MOMENT_KERNELS_X86 1
#endif

// This translation unit is compiled -O3 -funroll-loops -ffp-contract=off (see
// CMakeLists.txt). The last flag is load-bearing: every GEMM output element is
// c = c + a*b with the multiply and the add rounded separately, which is what
// makes the portable and the AVX2 tile bodies agree bit for bit.

namespace moment::gnn::kernels {

namespace {

// One output tile: C (rows x cols, row stride ldc) += sum over p < depth of
// A(r, p) * B(p, j), with A(r, p) = a[r*sr + p*sp] and B(p, j) = b[p*ldb + j].
// The accumulators start from C (load_c) or zero, stay in registers for the
// whole p loop and are stored once. rows <= kTileRows, cols <= kTileCols.
using TileFn = void (*)(std::size_t rows, std::size_t cols, std::size_t depth,
                        const float* a, std::size_t sr, std::size_t sp,
                        const float* b, std::size_t ldb, float* c,
                        std::size_t ldc, bool load_c);

// Any tile shape, one element at a time: the column tails of both bodies.
void tile_scalar(std::size_t rows, std::size_t cols, std::size_t depth,
                 const float* a, std::size_t sr, std::size_t sp,
                 const float* b, std::size_t ldb, float* c, std::size_t ldc,
                 bool load_c) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < cols; ++j) {
      float acc = load_c ? c[r * ldc + j] : 0.0f;
      for (std::size_t p = 0; p < depth; ++p) {
        acc = acc + a[r * sr + p * sp] * b[p * ldb + j];
      }
      c[r * ldc + j] = acc;
    }
  }
}

// Portable body: GNU vector extension with 4 lanes (SSE2, NEON, or scalar
// code where there is neither). The 16 tile columns run as two 8-wide halves
// so the 8 accumulators and 2 B vectors fit in 16 registers.
struct PortableBody {
  using V = float __attribute__((vector_size(16)));
  template <std::size_t R>
  static void rows(std::size_t depth, const float* a, std::size_t sr,
                   std::size_t sp, const float* b, std::size_t ldb, float* c,
                   std::size_t ldc, bool load_c) {
    for (std::size_t h = 0; h < kTileCols; h += 8) {
      V acc[R][2];
      for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t q = 0; q < 2; ++q) {
          acc[r][q] = V{};
          if (load_c) std::memcpy(&acc[r][q], c + r * ldc + h + 4 * q, 16);
        }
      }
      for (std::size_t p = 0; p < depth; ++p) {
        V b0, b1;
        std::memcpy(&b0, b + p * ldb + h, 16);
        std::memcpy(&b1, b + p * ldb + h + 4, 16);
        for (std::size_t r = 0; r < R; ++r) {
          const float av = a[r * sr + p * sp];
          acc[r][0] = acc[r][0] + av * b0;
          acc[r][1] = acc[r][1] + av * b1;
        }
      }
      for (std::size_t r = 0; r < R; ++r) {
        std::memcpy(c + r * ldc + h, &acc[r][0], 16);
        std::memcpy(c + r * ldc + h + 4, &acc[r][1], 16);
      }
    }
  }
};

#ifdef MOMENT_KERNELS_X86
// AVX2 body: two 8-lane accumulators per row. Deliberately mul then add, not
// FMA, so each lane rounds exactly as the portable body does.
struct Avx2Body {
  template <std::size_t R>
  __attribute__((target("avx2"))) static void rows(
      std::size_t depth, const float* a, std::size_t sr, std::size_t sp,
      const float* b, std::size_t ldb, float* c, std::size_t ldc,
      bool load_c) {
    __m256 acc[R][2];
    for (std::size_t r = 0; r < R; ++r) {
      acc[r][0] = load_c ? _mm256_loadu_ps(c + r * ldc) : _mm256_setzero_ps();
      acc[r][1] =
          load_c ? _mm256_loadu_ps(c + r * ldc + 8) : _mm256_setzero_ps();
    }
    for (std::size_t p = 0; p < depth; ++p) {
      const __m256 b0 = _mm256_loadu_ps(b + p * ldb);
      const __m256 b1 = _mm256_loadu_ps(b + p * ldb + 8);
      for (std::size_t r = 0; r < R; ++r) {
        const __m256 av = _mm256_broadcast_ss(a + r * sr + p * sp);
        acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_mul_ps(av, b0));
        acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_mul_ps(av, b1));
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      _mm256_storeu_ps(c + r * ldc, acc[r][0]);
      _mm256_storeu_ps(c + r * ldc + 8, acc[r][1]);
    }
  }
};
#endif

template <typename Body>
void tile(std::size_t rows, std::size_t cols, std::size_t depth,
          const float* a, std::size_t sr, std::size_t sp, const float* b,
          std::size_t ldb, float* c, std::size_t ldc, bool load_c) {
  static_assert(kTileRows == 4 && kTileCols == 16);
  if (cols != kTileCols) {
    return tile_scalar(rows, cols, depth, a, sr, sp, b, ldb, c, ldc, load_c);
  }
  switch (rows) {
    case 4:
      return Body::template rows<4>(depth, a, sr, sp, b, ldb, c, ldc, load_c);
    case 3:
      return Body::template rows<3>(depth, a, sr, sp, b, ldb, c, ldc, load_c);
    case 2:
      return Body::template rows<2>(depth, a, sr, sp, b, ldb, c, ldc, load_c);
    default:
      return Body::template rows<1>(depth, a, sr, sp, b, ldb, c, ldc, load_c);
  }
}

TileFn tile_for([[maybe_unused]] detail::Body body) {
#ifdef MOMENT_KERNELS_X86
  if (body == detail::Body::kAvx2 && detail::avx2_supported()) {
    return tile<Avx2Body>;
  }
#endif
  return tile<PortableBody>;
}

// C rows [r0, r1) (row-major, n wide) of A (rows x inner, strides sr/sp) @
// B (inner x n, row-major). The inner index is blocked by kKcBlock so a B
// panel stays cache-resident across the row tiles; C round-trips through
// memory between blocks, which is exact, so every element is still
// c = c + a*b in ascending inner index, whatever the tiling or threading.
void gemm_rows(TileFn tile_fn, std::size_t r0, std::size_t r1,
               std::size_t inner, std::size_t n, const float* a,
               std::size_t sr, std::size_t sp, const float* b, float* c,
               bool accumulate) {
  if (inner == 0 && !accumulate) {
    std::memset(c + r0 * n, 0, (r1 - r0) * n * sizeof(float));
  }
  for (std::size_t p0 = 0; p0 < inner; p0 += kKcBlock) {
    const std::size_t depth = std::min(kKcBlock, inner - p0);
    const bool load_c = accumulate || p0 > 0;
    for (std::size_t r = r0; r < r1; r += kTileRows) {
      const std::size_t rows = std::min(kTileRows, r1 - r);
      for (std::size_t j = 0; j < n; j += kTileCols) {
        tile_fn(rows, std::min(kTileCols, n - j), depth, a + r * sr + p0 * sp,
                sr, sp, b + p0 * n + j, n, c + r * n + j, n, load_c);
      }
    }
  }
}

detail::Body active_body() {
  static const detail::Body body = detail::avx2_supported()
                                       ? detail::Body::kAvx2
                                       : detail::Body::kPortable;
  return body;
}

inline const float* row(const float* x, std::size_t i, std::size_t dim) {
  return x + i * dim;
}

}  // namespace

namespace detail {

bool avx2_supported() {
#ifdef MOMENT_KERNELS_X86
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
#else
  return false;
#endif
}

void gemm(Body body, std::size_t m, std::size_t k, std::size_t n,
          const float* a, const float* b, float* c, bool accumulate) {
  const TileFn tile_fn = tile_for(body);
  util::parallel_for(util::compute_pool(), 0, m, kRowGrain,
                     [&](std::size_t r0, std::size_t r1) {
                       gemm_rows(tile_fn, r0, r1, k, n, a, k, 1, b, c,
                                 accumulate);
                     });
}

void gemm_bt(Body body, std::size_t m, std::size_t k, std::size_t n,
             const float* a, const float* b, float* c, bool accumulate) {
  // Pack B (n x k) as B^T (k x n) into a per-thread buffer that is reused,
  // not reallocated, from call to call; then it is a plain gemm.
  thread_local std::vector<float> bt;
  bt.resize(k * n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t p = 0; p < k; ++p) bt[p * n + j] = b[j * k + p];
  }
  gemm(body, m, k, n, a, bt.data(), c, accumulate);
}

void gemm_at(Body body, std::size_t m, std::size_t k, std::size_t n,
             const float* a, const float* b, float* c, bool accumulate) {
  // Output is k x n: parallelise over the k rows of c (columns of a), reading
  // a transposed: A(r, i) = a[i*k + r].
  const TileFn tile_fn = tile_for(body);
  util::parallel_for(util::compute_pool(), 0, k, kRowGrain,
                     [&](std::size_t r0, std::size_t r1) {
                       gemm_rows(tile_fn, r0, r1, m, n, a, 1, k, b, c,
                                 accumulate);
                     });
}

}  // namespace detail

const char* isa() {
  return active_body() == detail::Body::kAvx2 ? "avx2" : "portable";
}

void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const float* b, float* c, bool accumulate) {
  detail::gemm(active_body(), m, k, n, a, b, c, accumulate);
}

void gemm_bt(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, bool accumulate) {
  detail::gemm_bt(active_body(), m, k, n, a, b, c, accumulate);
}

void gemm_at(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, bool accumulate) {
  detail::gemm_at(active_body(), m, k, n, a, b, c, accumulate);
}

void aggregate_mean(const CompiledBlock& cb, const float* x, std::size_t dim,
                    float* out) {
  const int* __restrict src_of = cb.src_of.data();
  util::parallel_for(
      util::compute_pool(), 0, cb.num_dst(), kRowGrain,
      [&](std::size_t d0, std::size_t d1) {
        for (std::size_t i = d0; i < d1; ++i) {
          float* __restrict o = out + i * dim;
          std::memset(o, 0, dim * sizeof(float));
          const int b = cb.dst_off[i], e = cb.dst_off[i + 1];
          int t = b;
          // 4 neighbor rows per step plus prefetch of the next 4: the random
          // feature-row reads are latency-bound, so overlapping misses is
          // worth more than the extra adds.
          for (; t + 4 <= e; t += 4) {
            const float* __restrict s0 =
                row(x, static_cast<std::size_t>(src_of[t + 0]), dim);
            const float* __restrict s1 =
                row(x, static_cast<std::size_t>(src_of[t + 1]), dim);
            const float* __restrict s2 =
                row(x, static_cast<std::size_t>(src_of[t + 2]), dim);
            const float* __restrict s3 =
                row(x, static_cast<std::size_t>(src_of[t + 3]), dim);
            if (t + 8 <= e) {
              __builtin_prefetch(row(x, static_cast<std::size_t>(src_of[t + 4]), dim));
              __builtin_prefetch(row(x, static_cast<std::size_t>(src_of[t + 5]), dim));
              __builtin_prefetch(row(x, static_cast<std::size_t>(src_of[t + 6]), dim));
              __builtin_prefetch(row(x, static_cast<std::size_t>(src_of[t + 7]), dim));
            }
            for (std::size_t j = 0; j < dim; ++j) {
              o[j] += (s0[j] + s1[j]) + (s2[j] + s3[j]);
            }
          }
          for (; t < e; ++t) {
            const float* __restrict s =
                row(x, static_cast<std::size_t>(src_of[t]), dim);
            for (std::size_t j = 0; j < dim; ++j) o[j] += s[j];
          }
          const float inv = cb.inv_deg[i];
          for (std::size_t j = 0; j < dim; ++j) o[j] *= inv;
        }
      });
}

void aggregate_coeff(const CompiledBlock& cb, const float* edge_coeff,
                     const float* self_coeff, const float* x, std::size_t dim,
                     float* out) {
  const int* __restrict src_of = cb.src_of.data();
  util::parallel_for(
      util::compute_pool(), 0, cb.num_dst(), kRowGrain,
      [&](std::size_t d0, std::size_t d1) {
        for (std::size_t i = d0; i < d1; ++i) {
          float* __restrict o = out + i * dim;
          std::memset(o, 0, dim * sizeof(float));
          const int b = cb.dst_off[i], e = cb.dst_off[i + 1];
          int t = b;
          for (; t + 4 <= e; t += 4) {
            const float w0 = edge_coeff[t + 0], w1 = edge_coeff[t + 1];
            const float w2 = edge_coeff[t + 2], w3 = edge_coeff[t + 3];
            const float* __restrict s0 =
                row(x, static_cast<std::size_t>(src_of[t + 0]), dim);
            const float* __restrict s1 =
                row(x, static_cast<std::size_t>(src_of[t + 1]), dim);
            const float* __restrict s2 =
                row(x, static_cast<std::size_t>(src_of[t + 2]), dim);
            const float* __restrict s3 =
                row(x, static_cast<std::size_t>(src_of[t + 3]), dim);
            if (t + 8 <= e) {
              __builtin_prefetch(row(x, static_cast<std::size_t>(src_of[t + 4]), dim));
              __builtin_prefetch(row(x, static_cast<std::size_t>(src_of[t + 5]), dim));
              __builtin_prefetch(row(x, static_cast<std::size_t>(src_of[t + 6]), dim));
              __builtin_prefetch(row(x, static_cast<std::size_t>(src_of[t + 7]), dim));
            }
            for (std::size_t j = 0; j < dim; ++j) {
              o[j] += (w0 * s0[j] + w1 * s1[j]) + (w2 * s2[j] + w3 * s3[j]);
            }
          }
          for (; t < e; ++t) {
            const float w = edge_coeff[t];
            const float* __restrict s =
                row(x, static_cast<std::size_t>(src_of[t]), dim);
            for (std::size_t j = 0; j < dim; ++j) o[j] += w * s[j];
          }
          if (self_coeff != nullptr) {
            const float w = self_coeff[i];
            const float* __restrict s =
                row(x, static_cast<std::size_t>(cb.self_src[i]), dim);
            for (std::size_t j = 0; j < dim; ++j) o[j] += w * s[j];
          }
        }
      });
}

void aggregate_coeff_grad(const CompiledBlock& cb, const float* edge_coeff,
                          const float* self_coeff, const float* g,
                          std::size_t dim, float* grad_src) {
  const int* __restrict rev_edge = cb.rev_edge.data();
  const int* __restrict dst_of = cb.dst_of.data();
  util::parallel_for(
      util::compute_pool(), 0, cb.num_src(), kRowGrain,
      [&](std::size_t v0, std::size_t v1) {
        for (std::size_t v = v0; v < v1; ++v) {
          float* __restrict o = grad_src + v * dim;
          std::memset(o, 0, dim * sizeof(float));
          const int b = cb.src_off[v], e = cb.src_off[v + 1];
          for (int t = b; t < e; ++t) {
            const int ed = rev_edge[t];
            const std::size_t d = static_cast<std::size_t>(dst_of[ed]);
            if (t + 1 < e) {
              __builtin_prefetch(
                  row(g, static_cast<std::size_t>(dst_of[rev_edge[t + 1]]), dim));
            }
            const float w = edge_coeff[ed];
            const float* __restrict gr = row(g, d, dim);
            for (std::size_t j = 0; j < dim; ++j) o[j] += w * gr[j];
          }
          const int sd = cb.src_to_dst[v];
          if (self_coeff != nullptr && sd >= 0) {
            const float w = self_coeff[sd];
            const float* __restrict gr =
                row(g, static_cast<std::size_t>(sd), dim);
            for (std::size_t j = 0; j < dim; ++j) o[j] += w * gr[j];
          }
        }
      });
}

void sage_input_grad(const CompiledBlock& cb, const float* grad_self,
                     const float* grad_mean, std::size_t dim,
                     float* grad_src) {
  const int* __restrict rev_edge = cb.rev_edge.data();
  const int* __restrict dst_of = cb.dst_of.data();
  util::parallel_for(
      util::compute_pool(), 0, cb.num_src(), kRowGrain,
      [&](std::size_t v0, std::size_t v1) {
        for (std::size_t v = v0; v < v1; ++v) {
          float* __restrict o = grad_src + v * dim;
          const int sd = cb.src_to_dst[v];
          if (sd >= 0) {
            std::memcpy(o, row(grad_self, static_cast<std::size_t>(sd), dim),
                        dim * sizeof(float));
          } else {
            std::memset(o, 0, dim * sizeof(float));
          }
          const int b = cb.src_off[v], e = cb.src_off[v + 1];
          for (int t = b; t < e; ++t) {
            const std::size_t d = static_cast<std::size_t>(dst_of[rev_edge[t]]);
            if (t + 1 < e) {
              __builtin_prefetch(
                  row(grad_mean, static_cast<std::size_t>(dst_of[rev_edge[t + 1]]),
                      dim));
            }
            const float w = cb.inv_deg[d];
            const float* __restrict gm = row(grad_mean, d, dim);
            for (std::size_t j = 0; j < dim; ++j) o[j] += w * gm[j];
          }
        }
      });
}

void gat_attention_forward(const CompiledBlock& cb, const float* el,
                           const float* er, const float* z, std::size_t stride,
                           std::size_t head_dim, float leaky_slope,
                           std::size_t alpha_stride, float* score, float* alpha,
                           float* out) {
  const int* __restrict src_of = cb.src_of.data();
  util::parallel_for(
      util::compute_pool(), 0, cb.num_dst(), kRowGrain,
      [&](std::size_t d0, std::size_t d1) {
        for (std::size_t i = d0; i < d1; ++i) {
          float* __restrict o = out + i * stride;
          std::memset(o, 0, head_dim * sizeof(float));
          const int b = cb.dst_off[i], e = cb.dst_off[i + 1];
          if (e == b) continue;
          float mx = -std::numeric_limits<float>::infinity();
          for (int t = b; t < e; ++t) {
            const float s = el[i] + er[src_of[t]];
            score[static_cast<std::size_t>(t) * alpha_stride] = s;
            const float act = s > 0.0f ? s : leaky_slope * s;
            mx = std::max(mx, act);
          }
          float denom = 0.0f;
          for (int t = b; t < e; ++t) {
            const float s = score[static_cast<std::size_t>(t) * alpha_stride];
            const float act = s > 0.0f ? s : leaky_slope * s;
            const float w = std::exp(act - mx);
            alpha[static_cast<std::size_t>(t) * alpha_stride] = w;
            denom += w;
          }
          const float inv = 1.0f / denom;
          for (int t = b; t < e; ++t) {
            const float a = alpha[static_cast<std::size_t>(t) * alpha_stride] * inv;
            alpha[static_cast<std::size_t>(t) * alpha_stride] = a;
            const float* __restrict zr =
                z + static_cast<std::size_t>(src_of[t]) * stride;
            for (std::size_t j = 0; j < head_dim; ++j) o[j] += a * zr[j];
          }
        }
      });
}

void gat_attention_backward_dst(const CompiledBlock& cb, const float* g,
                                const float* z, std::size_t stride,
                                std::size_t head_dim, float leaky_slope,
                                std::size_t alpha_stride, const float* score,
                                const float* alpha, float* ds, float* del) {
  const int* __restrict src_of = cb.src_of.data();
  util::parallel_for(
      util::compute_pool(), 0, cb.num_dst(), kRowGrain,
      [&](std::size_t d0, std::size_t d1) {
        for (std::size_t i = d0; i < d1; ++i) {
          const int b = cb.dst_off[i], e = cb.dst_off[i + 1];
          del[i] = 0.0f;
          if (e == b) continue;
          const float* __restrict gi = g + i * stride;
          // t_e = g_i . z_src[e]; S = sum_e alpha_e t_e. Stash t_e in ds.
          float sum = 0.0f;
          for (int t = b; t < e; ++t) {
            const float* __restrict zr =
                z + static_cast<std::size_t>(src_of[t]) * stride;
            float dot = 0.0f;
            for (std::size_t j = 0; j < head_dim; ++j) dot += gi[j] * zr[j];
            ds[static_cast<std::size_t>(t) * alpha_stride] = dot;
            sum += alpha[static_cast<std::size_t>(t) * alpha_stride] * dot;
          }
          float acc = 0.0f;
          for (int t = b; t < e; ++t) {
            const std::size_t idx = static_cast<std::size_t>(t) * alpha_stride;
            const float grad_act = alpha[idx] * (ds[idx] - sum);
            const float lg = score[idx] > 0.0f ? 1.0f : leaky_slope;
            ds[idx] = grad_act * lg;
            acc += ds[idx];
          }
          del[i] = acc;
        }
      });
}

void gat_attention_backward_src(const CompiledBlock& cb, const float* g,
                                std::size_t stride, std::size_t head_dim,
                                std::size_t alpha_stride, const float* alpha,
                                const float* ds, float* der, float* gz) {
  const int* __restrict rev_edge = cb.rev_edge.data();
  const int* __restrict dst_of = cb.dst_of.data();
  util::parallel_for(
      util::compute_pool(), 0, cb.num_src(), kRowGrain,
      [&](std::size_t v0, std::size_t v1) {
        for (std::size_t v = v0; v < v1; ++v) {
          float* __restrict o = gz + v * stride;
          float acc = 0.0f;
          const int b = cb.src_off[v], e = cb.src_off[v + 1];
          for (int t = b; t < e; ++t) {
            const std::size_t ed = static_cast<std::size_t>(rev_edge[t]);
            const std::size_t d = static_cast<std::size_t>(dst_of[ed]);
            const float a = alpha[ed * alpha_stride];
            acc += ds[ed * alpha_stride];
            const float* __restrict gr = g + d * stride;
            for (std::size_t j = 0; j < head_dim; ++j) o[j] += a * gr[j];
          }
          der[v] = acc;
        }
      });
}

void gather_rows(const int* index, std::size_t rows, const float* x,
                 std::size_t dim, float* out) {
  util::parallel_for(util::compute_pool(), 0, rows, kRowGrain * 4,
                     [&](std::size_t r0, std::size_t r1) {
                       for (std::size_t i = r0; i < r1; ++i) {
                         std::memcpy(out + i * dim,
                                     x + static_cast<std::size_t>(index[i]) * dim,
                                     dim * sizeof(float));
                       }
                     });
}

}  // namespace moment::gnn::kernels
