#include "gnn/kernels.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "gnn/tensor.hpp"
#include "util/thread_pool.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define MOMENT_KERNELS_X86 1
#endif

// This translation unit is compiled -O3 -funroll-loops -ffp-contract=off (see
// CMakeLists.txt). The last flag is load-bearing: every GEMM output element is
// c = c + a*b with the multiply and the add rounded separately, which is what
// makes the portable, AVX2 and AVX-512 builds of every kernel agree bit for
// bit, and ELU's vector expm1 rounds every step on its own, as the scalar
// fdlibm routine it reproduces does.

namespace moment::gnn::kernels {

namespace {

// GNU vectors of 4, 8 and 16 floats. They are declared here, not inside a
// template: GCC drops a vector_size that depends on a template parameter, and
// the "vector" silently becomes one float.
using V4 = float __attribute__((vector_size(16)));
using V8 = float __attribute__((vector_size(32)));
using V16 = float __attribute__((vector_size(64)));

// Floats per V; 1 for V = float (scalar lanes).
template <typename V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(float);

// One output tile: C (rows x cols, row stride ldc) += sum over p < depth of
// A(r, p) * B(p, j), with A(r, p) = a[r*sr + p*sp] and B(p, j) = b[p*ldb + j].
// The accumulators start from C (load_c) or zero, stay in registers for the
// whole p loop and are stored once.

// Any tile shape, one element at a time: every body's column tails.
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

// The one GEMM tile: R full rows of N vectors V, mul then add per lane, never
// FMA. Like every template below it is always_inline, so with_body compiles
// it for each body's ISA. The row loops are unrolled before GCC scalarizes
// acc, so the accumulators live in registers instead of being stored every
// step.
template <typename V, std::size_t N, std::size_t R>
[[gnu::always_inline]] inline void tile_rows(std::size_t depth,
                                             const float* a, std::size_t sr,
                                             std::size_t sp, const float* b,
                                             std::size_t ldb, float* c,
                                             std::size_t ldc, bool load_c) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
  V acc[R][N];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t q = 0; q < N; ++q) {
      acc[r][q] = V{};
      if (load_c) std::memcpy(&acc[r][q], c + r * ldc + q * kLanes, sizeof(V));
    }
  }
  for (std::size_t p = 0; p < depth; ++p) {
    V bv[N];
    for (std::size_t q = 0; q < N; ++q) {
      std::memcpy(&bv[q], b + p * ldb + q * kLanes, sizeof(V));
    }
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const float av = a[r * sr + p * sp];
      for (std::size_t q = 0; q < N; ++q) acc[r][q] = acc[r][q] + av * bv[q];
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t q = 0; q < N; ++q) {
      std::memcpy(c + r * ldc + q * kLanes, &acc[r][q], sizeof(V));
    }
  }
}

// ---- Elementwise tails, one vector V at a time ------------------------------

// fdlibm's s_expm1f.c constants, by their bits.
constexpr float kLn2Hi = std::bit_cast<float>(0x3f317180u);
constexpr float kLn2Lo = std::bit_cast<float>(0x3717f7d1u);
constexpr float kInvLn2 = std::bit_cast<float>(0x3fb8aa3bu);
constexpr float kQ1 = std::bit_cast<float>(0xbd088889u);
constexpr float kQ2 = std::bit_cast<float>(0x3ad00d01u);
constexpr float kQ3 = std::bit_cast<float>(0xb8a670cdu);
constexpr float kQ4 = std::bit_cast<float>(0x36867e54u);
constexpr float kQ5 = std::bit_cast<float>(0xb457edbbu);

// expm1 of every lane with x <= 0 (or NaN): fdlibm's s_expm1f.c (glibc's
// expm1f) with its branches turned into selects. The k = 0, k = -1 and
// k <= -2 reductions are one reduction with t = k, which rounds the same:
// t * ln2_hi and t * ln2_lo are exact for t in {0, -1}. Every step is one
// rounded +, -, * or / (the TU is built -ffp-contract=off), so each lane
// has the bits of the scalar routine. Lanes with x > 0 get values the
// callers select away.
template <typename V>
[[gnu::always_inline]] inline void expm1_nonpos(const V& x, V& out) {
  using VI = decltype(x > x);  // int32 lanes
  const V one = V{} + 1.0f;
  const VI hx = __builtin_bit_cast(VI, x) & 0x7fffffff;
  const VI big = hx >= 0x4195b844;  // |x| >= 27 ln2, inf and NaN too
  const V xs = big ? V{} : x;       // keeps the int conversion in range
  VI k = __builtin_convertvector(kInvLn2 * xs - 0.5f, VI);
  k = hx > 0x3eb17218 ? (hx < 0x3f851592 ? VI{} - 1 : k) : VI{};
  const V t = __builtin_convertvector(k, V);
  const V hi = xs - t * kLn2Hi, lo = t * kLn2Lo;
  const V r = hi - lo;  // in the primary range
  const V c = (hi - r) - lo;
  const V hfx = 0.5f * r, hxs = r * hfx;
  const V r1 =
      one + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const V u = 3.0f - r1 * hfx;
  V e = hxs * ((r1 - u) / (6.0f - r * u));
  const V k0 = r - (r * e - hxs);
  e = r * (e - c) - c;
  e = e - hxs;
  const V km1 = 0.5f * (r - e) - 0.5f;
  // k <= -2: 2^k (1 - (e - r)) - 1, adding k to the exponent's bits.
  const V y = 1.0f - (e - r);
  const V kn =
      __builtin_bit_cast(V, __builtin_bit_cast(VI, y) + k * 0x800000) - one;
  out = k == 0 ? k0 : k == -1 ? km1 : kn;
  out = hx < 0x33000000 ? x : out;  // |x| < 2^-25
  out = big ? V{} - one : out;
  out = hx > 0x7f800000 ? x + x : out;
}

// v = act(v).
template <Activation A, typename V>
[[gnu::always_inline]] inline void activate(V& v) {
  if constexpr (A == Activation::kRelu) {
    v = v > V{} ? v : V{};
  } else if constexpr (A == Activation::kElu) {
    V e;
    expm1_nonpos(v, e);
    v = v > V{} ? v : e;
  }
}

// g = g * act'(y), y being the activation's output.
template <Activation A, typename V>
[[gnu::always_inline]] inline void activate_grad(V& g, const V& y) {
  if constexpr (A == Activation::kRelu) {
    g = y > V{} ? g : V{};
  } else if constexpr (A == Activation::kElu) {
    const V one = V{} + 1.0f;
    g = g * (y > V{} ? one : y + one);
  }
}

// x = act(x + bias) for one vector.
template <Activation A, typename V>
[[gnu::always_inline]] inline void act_step(const float* bias, float* x) {
  V v, b;
  std::memcpy(&v, x, sizeof(V));
  std::memcpy(&b, bias, sizeof(V));
  v = v + b;
  activate<A>(v);
  std::memcpy(x, &v, sizeof(V));
}

// grad = act'(...) for one vector, then grad_bias += grad.
template <Activation A, typename V>
[[gnu::always_inline]] inline void act_grad_step(const float* go,
                                                 const float* y, float* grad,
                                                 float* grad_bias) {
  V g, o, b;
  std::memcpy(&g, go, sizeof(V));
  std::memcpy(&o, y, sizeof(V));
  std::memcpy(&b, grad_bias, sizeof(V));
  activate_grad<A>(g, o);
  b = b + g;
  std::memcpy(grad, &g, sizeof(V));
  std::memcpy(grad_bias, &b, sizeof(V));
}

// bias_act over rows [r0, r1). A column tail shorter than V runs act_step
// on zero-padded copies.
template <Activation A, typename V>
[[gnu::always_inline]] inline void act_rows(std::size_t r0, std::size_t r1,
                                            std::size_t cols,
                                            const float* bias, float* x) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
  const std::size_t full = cols - cols % kLanes, n = cols - full;
  float bias_tail[kLanes] = {};
  std::memcpy(bias_tail, bias + full, n * sizeof(float));
  for (std::size_t r = r0; r < r1; ++r) {
    float* row = x + r * cols;
    for (std::size_t c = 0; c < full; c += kLanes) {
      act_step<A, V>(bias + c, row + c);
    }
    if (n == 0) continue;
    float pad[kLanes] = {};
    std::memcpy(pad, row + full, n * sizeof(float));
    act_step<A, V>(bias_tail, pad);
    std::memcpy(row + full, pad, n * sizeof(float));
  }
}

// bias_act_grad over columns [c0, c1) of every row, rows ascending. A
// column tail shorter than V runs act_grad_step on zero-padded copies.
template <Activation A, typename V>
[[gnu::always_inline]] inline void act_grad_cols(
    std::size_t rows, std::size_t cols, std::size_t c0, std::size_t c1,
    const float* grad_out, const float* out, float* grad, float* grad_bias) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
  const std::size_t full = c1 - (c1 - c0) % kLanes, n = c1 - full;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t at = r * cols;
    for (std::size_t c = c0; c < full; c += kLanes) {
      act_grad_step<A, V>(grad_out + at + c, out + at + c, grad + at + c,
                          grad_bias + c);
    }
    if (n == 0) continue;
    float go[kLanes] = {}, y[kLanes] = {}, g[kLanes], gb[kLanes] = {};
    std::memcpy(go, grad_out + at + full, n * sizeof(float));
    std::memcpy(y, out + at + full, n * sizeof(float));
    std::memcpy(gb, grad_bias + full, n * sizeof(float));
    act_grad_step<A, V>(go, y, g, gb);
    std::memcpy(grad + at + full, g, n * sizeof(float));
    std::memcpy(grad_bias + full, gb, n * sizeof(float));
  }
}

// The tails with the activation picked once per call.
template <typename V>
[[gnu::always_inline]] inline void act_rows(std::size_t r0, std::size_t r1,
                                            std::size_t cols,
                                            const float* bias, Activation act,
                                            float* x) {
  switch (act) {
    case Activation::kNone:
      return act_rows<Activation::kNone, V>(r0, r1, cols, bias, x);
    case Activation::kRelu:
      return act_rows<Activation::kRelu, V>(r0, r1, cols, bias, x);
    case Activation::kElu:
      return act_rows<Activation::kElu, V>(r0, r1, cols, bias, x);
  }
}

template <typename V>
[[gnu::always_inline]] inline void act_grad_cols(
    std::size_t rows, std::size_t cols, std::size_t c0, std::size_t c1,
    const float* grad_out, const float* out, Activation act, float* grad,
    float* grad_bias) {
  switch (act) {
    case Activation::kNone:
      return act_grad_cols<Activation::kNone, V>(rows, cols, c0, c1, grad_out,
                                                 out, grad, grad_bias);
    case Activation::kRelu:
      return act_grad_cols<Activation::kRelu, V>(rows, cols, c0, c1, grad_out,
                                                 out, grad, grad_bias);
    case Activation::kElu:
      return act_grad_cols<Activation::kElu, V>(rows, cols, c0, c1, grad_out,
                                                out, grad, grad_bias);
  }
}

// The tile of the body with vector V: kTileRows<V> rows of kTileVecs<V>
// vectors. Portable (V4) 4 x 8, so the 8 accumulators and 2 B vectors fit
// in 16 registers; AVX2 (V8) 4 x 16, since 8 rows would need more than 16
// ymm registers; AVX-512 (V16) 8 x 16, so 8 accumulators and one B vector
// use 9 of the 32 zmm registers.
template <typename V>
constexpr std::size_t kTileRows = kLanes<V> == 16 ? 8 : 4;
template <typename V>
constexpr std::size_t kTileVecs = kLanes<V> == 16 ? 1 : 2;

// tile_rows on a full-width tile of `rows` <= R rows; each row count is its
// own inlined instance.
template <typename V, std::size_t R = kTileRows<V>>
[[gnu::always_inline]] inline void tile_upto(std::size_t rows,
                                             std::size_t depth,
                                             const float* a, std::size_t sr,
                                             std::size_t sp, const float* b,
                                             std::size_t ldb, float* c,
                                             std::size_t ldc, bool load_c) {
  if constexpr (R > 1) {
    if (rows < R) {
      return tile_upto<V, R - 1>(rows, depth, a, sr, sp, b, ldb, c, ldc,
                                 load_c);
    }
  }
  tile_rows<V, kTileVecs<V>, R>(depth, a, sr, sp, b, ldb, c, ldc, load_c);
}

// C rows [r0, r1) (row-major, n wide) of A (rows x inner, strides sr/sp) @
// B (inner x n, row-major). The inner index is blocked by kKcBlock so a B
// panel stays cache-resident across the row tiles; C round-trips through
// memory between blocks, which is exact, so every element is still
// c = c + a*b in ascending inner index, whatever the tiling or threading.
// Column tails narrower than the tile run tile_scalar.
template <typename V>
[[gnu::always_inline]] inline void gemm_rows(std::size_t r0, std::size_t r1,
                                             std::size_t inner, std::size_t n,
                                             const float* a, std::size_t sr,
                                             std::size_t sp, const float* b,
                                             float* c, bool accumulate) {
  constexpr std::size_t kRows = kTileRows<V>;
  constexpr std::size_t kCols = kTileVecs<V> * kLanes<V>;
  if (inner == 0 && !accumulate) {
    std::memset(c + r0 * n, 0, (r1 - r0) * n * sizeof(float));
  }
  for (std::size_t p0 = 0; p0 < inner; p0 += kKcBlock) {
    const std::size_t depth = std::min(kKcBlock, inner - p0);
    const bool load_c = accumulate || p0 > 0;
    for (std::size_t r = r0; r < r1; r += kRows) {
      const std::size_t rows = std::min(kRows, r1 - r);
      const float* ar = a + r * sr + p0 * sp;
      for (std::size_t j = 0; j < n; j += kCols) {
        const float* bj = b + p0 * n + j;
        float* cj = c + r * n + j;
        if (n - j < kCols) {
          tile_scalar(rows, n - j, depth, ar, sr, sp, bj, n, cj, n, load_c);
        } else {
          tile_upto<V>(rows, depth, ar, sr, sp, bj, n, cj, n, load_c);
        }
      }
    }
  }
}

// ---- The one ISA dispatch -------------------------------------------------
// Every kernel that does arithmetic writes its per-task loop once, as a
// generic lambda f(Lanes<V>, i0, i1) marked __attribute__((always_inline))
// (GCC 12 silently ignores [[gnu::always_inline]] in that place). with_body
// calls it from one of three functions, each under its body's target
// attribute, so the loop is inlined into each and compiled for that ISA:
// portable with V4 (SSE2, NEON, or scalar code where there is neither), AVX2
// with V8 and AVX-512 with V16. Every template the loop calls with V is
// always_inline too, and takes vectors by reference: a 32- or 64-byte vector
// passed by value draws GCC's -Wpsabi note even where the call is inlined.

template <typename V>
using Lanes = std::type_identity<V>;

template <typename F>
void portable_body(F& f, std::size_t i0, std::size_t i1) {
  f(Lanes<V4>{}, i0, i1);
}

#ifdef MOMENT_KERNELS_X86
template <typename F>
__attribute__((target("avx2"))) void avx2_body(F& f, std::size_t i0,
                                               std::size_t i1) {
  f(Lanes<V8>{}, i0, i1);
}

template <typename F>
__attribute__((target("avx512f"))) void avx512_body(F& f, std::size_t i0,
                                                    std::size_t i1) {
  f(Lanes<V16>{}, i0, i1);
}
#endif

template <typename F>
void with_body(detail::Body body, F& f, std::size_t i0, std::size_t i1) {
  switch (body) {
#ifdef MOMENT_KERNELS_X86
    case detail::Body::kAvx512:
      return avx512_body(f, i0, i1);
    case detail::Body::kAvx2:
      return avx2_body(f, i0, i1);
#endif
    default:
      return portable_body(f, i0, i1);
  }
}

// The body detail::ScopedBody pinned on this thread; kAvx512, the widest the
// CPU has, when there is no pin.
thread_local detail::Body pinned_body = detail::Body::kAvx512;

// The pinned body, or the next one the CPU has: kAvx512 -> kAvx2 -> portable.
detail::Body current_body() {
  if (pinned_body == detail::Body::kAvx512 && detail::avx512_supported()) {
    return detail::Body::kAvx512;
  }
  if (pinned_body != detail::Body::kPortable && detail::avx2_supported()) {
    return detail::Body::kAvx2;
  }
  return detail::Body::kPortable;
}

// f(Lanes<V>, i0, i1) over [0, n) on the compute pool, in tasks of at least
// `grain`, on the calling thread's body. The body is read here, before the
// fan-out, so the pool threads never read their own.
template <typename F>
void parallel_on_body(std::size_t n, std::size_t grain, F&& f) {
  const detail::Body body = current_body();
  util::parallel_for(0, n, grain, [&](std::size_t i0, std::size_t i1) {
    with_body(body, f, i0, i1);
  });
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

bool avx512_supported() {
#ifdef MOMENT_KERNELS_X86
  static const bool supported = __builtin_cpu_supports("avx512f");
  return supported;
#else
  return false;
#endif
}

ScopedBody::ScopedBody(Body body) : saved_(pinned_body) { pinned_body = body; }

ScopedBody::~ScopedBody() { pinned_body = saved_; }

}  // namespace detail

const char* isa() {
  switch (current_body()) {
    case detail::Body::kAvx512:
      return "avx512";
    case detail::Body::kAvx2:
      return "avx2";
    case detail::Body::kPortable:
      break;
  }
  return "portable";
}

void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const float* b, float* c, bool accumulate) {
  parallel_on_body(
      m, kRowGrain,
      [&]<typename V>(Lanes<V>, std::size_t r0, std::size_t r1)
          __attribute__((always_inline)) {
            gemm_rows<V>(r0, r1, k, n, a, k, 1, b, c, accumulate);
          });
}

void gemm_bt(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, bool accumulate) {
  // Pack B (n x k) as B^T (k x n) into a per-thread buffer that is reused,
  // not reallocated, from call to call; then it is a plain gemm.
  thread_local Tensor bt;
  bt.reshape(k, n);
  float* t = bt.data();
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t p = 0; p < k; ++p) t[p * n + j] = b[j * k + p];
  }
  gemm(m, k, n, a, t, c, accumulate);
}

void gemm_at(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, bool accumulate) {
  // Output is k x n: parallelise over the k rows of c (columns of a), reading
  // a transposed: A(r, i) = a[i*k + r].
  parallel_on_body(
      k, kRowGrain,
      [&]<typename V>(Lanes<V>, std::size_t r0, std::size_t r1)
          __attribute__((always_inline)) {
            gemm_rows<V>(r0, r1, m, n, a, 1, k, b, c, accumulate);
          });
}

void aggregate_mean(const Block& block, const float* x, std::size_t dim,
                    float* out) {
  const int* __restrict src_of = block.src_of.data();
  parallel_on_body(
      block.num_dst(), kRowGrain,
      [&](auto, std::size_t d0, std::size_t d1) __attribute__((always_inline)) {
        for (std::size_t i = d0; i < d1; ++i) {
          float* __restrict o = out + i * dim;
          std::memset(o, 0, dim * sizeof(float));
          const int b = block.dst_off[i], e = block.dst_off[i + 1];
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
          const float inv = block.inv_deg[i];
          for (std::size_t j = 0; j < dim; ++j) o[j] *= inv;
        }
      });
}

void aggregate_coeff(const Block& block, const float* edge_coeff,
                     const float* self_coeff, const float* x, std::size_t dim,
                     float* out) {
  const int* __restrict src_of = block.src_of.data();
  parallel_on_body(
      block.num_dst(), kRowGrain,
      [&](auto, std::size_t d0, std::size_t d1) __attribute__((always_inline)) {
        for (std::size_t i = d0; i < d1; ++i) {
          float* __restrict o = out + i * dim;
          std::memset(o, 0, dim * sizeof(float));
          const int b = block.dst_off[i], e = block.dst_off[i + 1];
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
                row(x, static_cast<std::size_t>(block.self_src[i]), dim);
            for (std::size_t j = 0; j < dim; ++j) o[j] += w * s[j];
          }
        }
      });
}

void aggregate_coeff_grad(const Block& block, const float* edge_coeff,
                          const float* self_coeff, const float* g,
                          std::size_t dim, float* grad_src) {
  const int* __restrict rev_edge = block.rev_edge.data();
  const int* __restrict dst_of = block.dst_of.data();
  parallel_on_body(
      block.num_src(), kRowGrain,
      [&](auto, std::size_t v0, std::size_t v1) __attribute__((always_inline)) {
        for (std::size_t v = v0; v < v1; ++v) {
          float* __restrict o = grad_src + v * dim;
          std::memset(o, 0, dim * sizeof(float));
          const int b = block.src_off[v], e = block.src_off[v + 1];
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
          const int sd = block.src_to_dst[v];
          if (self_coeff != nullptr && sd >= 0) {
            const float w = self_coeff[sd];
            const float* __restrict gr =
                row(g, static_cast<std::size_t>(sd), dim);
            for (std::size_t j = 0; j < dim; ++j) o[j] += w * gr[j];
          }
        }
      });
}

void sage_input_grad(const Block& block, const float* grad_self,
                     const float* grad_mean, std::size_t dim,
                     float* grad_src) {
  const int* __restrict rev_edge = block.rev_edge.data();
  const int* __restrict dst_of = block.dst_of.data();
  parallel_on_body(
      block.num_src(), kRowGrain,
      [&](auto, std::size_t v0, std::size_t v1) __attribute__((always_inline)) {
        for (std::size_t v = v0; v < v1; ++v) {
          float* __restrict o = grad_src + v * dim;
          const int sd = block.src_to_dst[v];
          if (sd >= 0) {
            std::memcpy(o, row(grad_self, static_cast<std::size_t>(sd), dim),
                        dim * sizeof(float));
          } else {
            std::memset(o, 0, dim * sizeof(float));
          }
          const int b = block.src_off[v], e = block.src_off[v + 1];
          for (int t = b; t < e; ++t) {
            const std::size_t d = static_cast<std::size_t>(dst_of[rev_edge[t]]);
            if (t + 1 < e) {
              __builtin_prefetch(
                  row(grad_mean, static_cast<std::size_t>(dst_of[rev_edge[t + 1]]),
                      dim));
            }
            const float w = block.inv_deg[d];
            const float* __restrict gm = row(grad_mean, d, dim);
            for (std::size_t j = 0; j < dim; ++j) o[j] += w * gm[j];
          }
        }
      });
}

// ---- GAT attention --------------------------------------------------------

namespace {

// Lane primitives over `n` feature indices of one head-minor row, element
// [c * heads + h]: the heads are independent lanes, and each lane runs the
// ascending-c chain a one-head loop would. `s` holds one value per head.

// out[h] = 0 + a[0,h]*b[0,h] + a[1,h]*b[1,h] + ..., kLanes<L> heads at a
// time: L is a vector whose lane count divides heads, or float.
template <typename L>
[[gnu::always_inline]] inline void dot_lanes(std::size_t heads, std::size_t n,
                                             const float* a, const float* b,
                                             float* out) {
  for (std::size_t h0 = 0; h0 < heads; h0 += kLanes<L>) {
    L acc{};
    for (std::size_t c = 0; c < n; ++c) {
      L av, bv;
      std::memcpy(&av, a + c * heads + h0, sizeof(L));
      std::memcpy(&bv, b + c * heads + h0, sizeof(L));
      acc = acc + av * bv;
    }
    std::memcpy(out + h0, &acc, sizeof(L));
  }
}

// dot_lanes on the widest of V16, V8 and V4, up to the body's V, whose lane
// count divides heads; scalar lanes when none does.
template <typename V>
[[gnu::always_inline]] inline void dot(std::size_t heads, std::size_t n,
                                       const float* a, const float* b,
                                       float* out) {
  if constexpr (kLanes<V> >= 16) {
    if (heads % 16 == 0) return dot_lanes<V16>(heads, n, a, b, out);
  }
  if constexpr (kLanes<V> >= 8) {
    if (heads % 8 == 0) return dot_lanes<V8>(heads, n, a, b, out);
  }
  if (heads % 4 == 0) return dot_lanes<V4>(heads, n, a, b, out);
  dot_lanes<float>(heads, n, a, b, out);
}

// y[c,h] += s[h] * x[c,h]; with skip_zero, lanes with s[h] == 0 are left as
// they are (adding a zero product would turn -0 into +0). Every element is
// computed on its own, so the vectors run over the flat index: when heads
// divides kLanes<V>, one vector holds several feature indices and s repeats
// in it; when kLanes<V> divides heads, a feature index takes heads / kLanes
// vectors. What is left, and any other head count, runs scalar lanes.
template <typename V>
[[gnu::always_inline]] inline void axpy(std::size_t heads, std::size_t n,
                                        const float* s, const float* x,
                                        float* y, bool skip_zero) {
  constexpr std::size_t kL = kLanes<V>;
  // The vector loop covers feature indices [0, done) in steps of `width`
  // floats, whose s values start at sv.
  std::size_t width = 0, done = 0;
  const float* sv = s;
  float rep[kL];
  if (heads % kL == 0) {
    width = heads;
    done = n;
  } else if (kL % heads == 0) {
    // heads divides kL, a power of two, so l % heads == l & (heads - 1).
    for (std::size_t l = 0; l < kL; ++l) rep[l] = s[l & (heads - 1)];
    sv = rep;
    width = kL;
    done = n - n % (kL / heads);
  }
  const std::size_t full = done * heads;
  for (std::size_t h0 = 0; h0 < width; h0 += kL) {
    V sh;
    std::memcpy(&sh, sv + h0, sizeof(V));
    const auto live = sh != V{};
    for (std::size_t i = h0; i < full; i += width) {
      V xv, yv;
      std::memcpy(&xv, x + i, sizeof(V));
      std::memcpy(&yv, y + i, sizeof(V));
      const V sum = yv + sh * xv;
      yv = skip_zero ? (live ? sum : yv) : sum;
      std::memcpy(y + i, &yv, sizeof(V));
    }
  }
  for (std::size_t c = done; c < n; ++c) {
    for (std::size_t h = 0; h < heads; ++h) {
      const float v = y[c * heads + h];
      const float sum = v + s[h] * x[c * heads + h];
      y[c * heads + h] = skip_zero ? (s[h] != 0.0f ? sum : v) : sum;
    }
  }
}

// out row r = in row r, an (a x b) row-major block, transposed to (b x a).
void transpose_rows(std::size_t rows, std::size_t a, std::size_t b,
                    const float* in, float* out) {
  util::parallel_for(0, rows, kRowGrain * 4,
                     [&](std::size_t r0, std::size_t r1) {
                       for (std::size_t r = r0; r < r1; ++r) {
                         const float* __restrict src = in + r * a * b;
                         float* __restrict dst = out + r * a * b;
                         for (std::size_t i = 0; i < a; ++i) {
                           for (std::size_t j = 0; j < b; ++j) {
                             dst[j * a + i] = src[i * b + j];
                           }
                         }
                       }
                     });
}

// Software prefetch of a whole feature row: the attention kernels read rows
// of random src vertices, one per edge.
inline void prefetch_row(const float* p, std::size_t n) {
  for (std::size_t k = 0; k < n; k += 16) __builtin_prefetch(p + k);
}

std::vector<float> minor_copy(std::size_t heads, std::size_t head_dim,
                              const float* row) {
  std::vector<float> out(heads * head_dim);
  heads_to_minor(1, heads, head_dim, row, out.data());
  return out;
}

}  // namespace

void heads_to_minor(std::size_t rows, std::size_t heads, std::size_t head_dim,
                    const float* in, float* out) {
  transpose_rows(rows, heads, head_dim, in, out);
}

void heads_to_major(std::size_t rows, std::size_t heads, std::size_t head_dim,
                    const float* in, float* out) {
  transpose_rows(rows, head_dim, heads, in, out);
}

void gat_logits(const Block& block, const float* z, std::size_t heads,
                std::size_t head_dim, const float* attn_l,
                const float* attn_r, float* el, float* er) {
  const std::size_t od = heads * head_dim;
  const std::vector<float> al = minor_copy(heads, head_dim, attn_l);
  const std::vector<float> ar = minor_copy(heads, head_dim, attn_r);
  parallel_on_body(
      block.num_src(), kRowGrain * 4,
      [&]<typename V>(Lanes<V>, std::size_t v0, std::size_t v1)
          __attribute__((always_inline)) {
            for (std::size_t v = v0; v < v1; ++v) {
              dot<V>(heads, head_dim, ar.data(), z + v * od, er + v * heads);
            }
          });
  parallel_on_body(
      block.num_dst(), kRowGrain * 4,
      [&]<typename V>(Lanes<V>, std::size_t i0, std::size_t i1)
          __attribute__((always_inline)) {
            for (std::size_t i = i0; i < i1; ++i) {
              const auto self = static_cast<std::size_t>(block.self_src[i]);
              dot<V>(heads, head_dim, al.data(), z + self * od,
                     el + i * heads);
            }
          });
}

void gat_attention_forward(const Block& block, const float* el,
                           const float* er, const float* z, std::size_t heads,
                           std::size_t head_dim, float leaky_slope,
                           float* score, float* alpha, float* out) {
  const std::size_t od = heads * head_dim;
  const int* __restrict src_of = block.src_of.data();
  parallel_on_body(
      block.num_dst(), kRowGrain,
      [&]<typename V>(Lanes<V>, std::size_t d0, std::size_t d1)
          __attribute__((always_inline)) {
        // acc: the dst row head-minor; mx: per-head running max, then the
        // softmax denominator's inverse.
        std::vector<float> buf(od + heads);
        float* __restrict acc = buf.data();
        float* __restrict mx = acc + od;
        for (std::size_t i = d0; i < d1; ++i) {
          float* __restrict o = out + i * od;
          const int b = block.dst_off[i], e = block.dst_off[i + 1];
          if (e == b) {
            std::memset(o, 0, od * sizeof(float));
            continue;
          }
          const float* __restrict eli = el + i * heads;
          std::fill(mx, mx + heads, -std::numeric_limits<float>::infinity());
          for (int t = b; t < e; ++t) {
            const float* __restrict err =
                er + static_cast<std::size_t>(src_of[t]) * heads;
            float* __restrict sc = score + static_cast<std::size_t>(t) * heads;
            for (std::size_t h = 0; h < heads; ++h) {
              const float s = eli[h] + err[h];
              sc[h] = s;
              mx[h] = std::max(mx[h], s > 0.0f ? s : leaky_slope * s);
            }
          }
          std::memset(acc, 0, heads * sizeof(float));  // denominators
          for (int t = b; t < e; ++t) {
            const float* __restrict sc =
                score + static_cast<std::size_t>(t) * heads;
            float* __restrict al = alpha + static_cast<std::size_t>(t) * heads;
            for (std::size_t h = 0; h < heads; ++h) {
              const float s = sc[h];
              const float act = s > 0.0f ? s : leaky_slope * s;
              const float w = std::exp(act - mx[h]);
              al[h] = w;
              acc[h] += w;
            }
          }
          for (std::size_t h = 0; h < heads; ++h) mx[h] = 1.0f / acc[h];
          std::memset(acc, 0, od * sizeof(float));
          for (int t = b; t < e; ++t) {
            if (t + 1 < e) {
              prefetch_row(z + static_cast<std::size_t>(src_of[t + 1]) * od,
                           od);
            }
            float* __restrict al = alpha + static_cast<std::size_t>(t) * heads;
            for (std::size_t h = 0; h < heads; ++h) al[h] = al[h] * mx[h];
            axpy<V>(heads, head_dim, al,
                    z + static_cast<std::size_t>(src_of[t]) * od, acc, false);
          }
          heads_to_major(1, heads, head_dim, acc, o);
        }
      });
}

void gat_attention_backward(const Block& block, const float* g,
                            const float* z, std::size_t heads,
                            std::size_t head_dim, float leaky_slope,
                            const float* attn_l, const float* attn_r,
                            const float* score, const float* alpha,
                            float* grad_z, float* grad_attn_l,
                            float* grad_attn_r) {
  const std::size_t nd = block.num_dst(), ns = block.num_src();
  const std::size_t od = heads * head_dim;
  const int* __restrict src_of = block.src_of.data();
  const int* __restrict rev_edge = block.rev_edge.data();
  const int* __restrict dst_of = block.dst_of.data();

  // The calling thread's scratch, kept from call to call; every float is
  // written before it is read. Tasks get plain pointers (a thread_local
  // named in a task would be the task thread's).
  thread_local Tensor scratch;
  scratch.reshape(1, nd * od + (block.num_edges() + nd + ns) * heads);
  float* gt = scratch.data();  // g, head-minor
  float* ds = gt + nd * od;
  float* del = ds + block.num_edges() * heads;
  float* der = del + nd * heads;
  heads_to_minor(nd, heads, head_dim, g, gt);

  // Pass 1 (over dst): ds holds g.z per edge, then the score gradient.
  parallel_on_body(
      nd, kRowGrain,
      [&]<typename V>(Lanes<V>, std::size_t d0, std::size_t d1)
          __attribute__((always_inline)) {
        std::vector<float> sum(heads);
        for (std::size_t i = d0; i < d1; ++i) {
          float* __restrict dl = del + i * heads;
          std::memset(dl, 0, heads * sizeof(float));
          const int b = block.dst_off[i], e = block.dst_off[i + 1];
          if (e == b) continue;
          const float* gi = gt + i * od;
          std::fill(sum.begin(), sum.end(), 0.0f);
          for (int t = b; t < e; ++t) {
            if (t + 1 < e) {
              prefetch_row(z + static_cast<std::size_t>(src_of[t + 1]) * od,
                           od);
            }
            const std::size_t idx = static_cast<std::size_t>(t) * heads;
            float* __restrict dot_e = ds + idx;
            dot<V>(heads, head_dim, gi,
                   z + static_cast<std::size_t>(src_of[t]) * od, dot_e);
            for (std::size_t h = 0; h < heads; ++h) {
              sum[h] += alpha[idx + h] * dot_e[h];
            }
          }
          for (int t = b; t < e; ++t) {
            const std::size_t idx = static_cast<std::size_t>(t) * heads;
            float* __restrict d = ds + idx;
            for (std::size_t h = 0; h < heads; ++h) {
              const float grad_act = alpha[idx + h] * (d[h] - sum[h]);
              d[h] = grad_act * (score[idx + h] > 0.0f ? 1.0f : leaky_slope);
              dl[h] += d[h];
            }
          }
        }
      });

  // Pass 2 (over src): grad_z rows and der.
  const std::vector<float> al = minor_copy(heads, head_dim, attn_l);
  const std::vector<float> ar = minor_copy(heads, head_dim, attn_r);
  parallel_on_body(
      ns, kRowGrain,
      [&]<typename V>(Lanes<V>, std::size_t v0, std::size_t v1)
          __attribute__((always_inline)) {
        for (std::size_t v = v0; v < v1; ++v) {
          float* __restrict o = grad_z + v * od;
          std::memset(o, 0, od * sizeof(float));
          float* __restrict dr = der + v * heads;
          std::memset(dr, 0, heads * sizeof(float));
          for (int t = block.src_off[v]; t < block.src_off[v + 1]; ++t) {
            const std::size_t ed = static_cast<std::size_t>(rev_edge[t]);
            const std::size_t d = static_cast<std::size_t>(dst_of[ed]);
            for (std::size_t h = 0; h < heads; ++h) {
              dr[h] += ds[ed * heads + h];
            }
            axpy<V>(heads, head_dim, alpha + ed * heads, gt + d * od, o,
                    false);
          }
          const int sd = block.src_to_dst[v];
          if (sd >= 0) {
            axpy<V>(heads, head_dim,
                    del + static_cast<std::size_t>(sd) * heads,
                    al.data(), o, true);
          }
          axpy<V>(heads, head_dim, dr, ar.data(), o, true);
        }
      });

  // Attention-vector gradients: every element sums over rows in ascending
  // order, so tasks split the feature index instead.
  std::vector<float> gl = minor_copy(heads, head_dim, grad_attn_l);
  std::vector<float> gr = minor_copy(heads, head_dim, grad_attn_r);
  parallel_on_body(
      head_dim, 8,
      [&]<typename V>(Lanes<V>, std::size_t c0, std::size_t c1)
          __attribute__((always_inline)) {
        const std::size_t off = c0 * heads, n = c1 - c0;
        for (std::size_t i = 0; i < nd; ++i) {
          const auto self = static_cast<std::size_t>(block.self_src[i]);
          axpy<V>(heads, n, del + i * heads, z + self * od + off,
                  gl.data() + off, true);
        }
        for (std::size_t v = 0; v < ns; ++v) {
          axpy<V>(heads, n, der + v * heads, z + v * od + off,
                  gr.data() + off, true);
        }
      });
  heads_to_major(1, heads, head_dim, gl.data(), grad_attn_l);
  heads_to_major(1, heads, head_dim, gr.data(), grad_attn_r);
}

void bias_act(std::size_t rows, std::size_t cols, const float* bias,
              Activation act, float* x) {
  parallel_on_body(
      rows, kRowGrain,
      [&]<typename V>(Lanes<V>, std::size_t r0, std::size_t r1)
          __attribute__((always_inline)) {
            act_rows<V>(r0, r1, cols, bias, act, x);
          });
}

void bias_act_grad(std::size_t rows, std::size_t cols, const float* grad_out,
                   const float* out, Activation act, float* grad,
                   float* grad_bias) {
  // Every grad_bias element sums over rows in ascending order, so tasks split
  // the columns instead, in blocks of the widest vector.
  constexpr std::size_t kColBlock = 16;
  parallel_on_body(
      (cols + kColBlock - 1) / kColBlock, 4,
      [&]<typename V>(Lanes<V>, std::size_t b0, std::size_t b1)
          __attribute__((always_inline)) {
            act_grad_cols<V>(rows, cols, b0 * kColBlock,
                             std::min(cols, b1 * kColBlock), grad_out, out,
                             act, grad, grad_bias);
          });
}

void gather_rows(const int* index, std::size_t rows, const float* x,
                 std::size_t dim, float* out) {
  util::parallel_for(0, rows, kRowGrain * 4,
                     [&](std::size_t r0, std::size_t r1) {
                       for (std::size_t i = r0; i < r1; ++i) {
                         std::memcpy(out + i * dim,
                                     x + static_cast<std::size_t>(index[i]) * dim,
                                     dim * sizeof(float));
                       }
                     });
}

}  // namespace moment::gnn::kernels
