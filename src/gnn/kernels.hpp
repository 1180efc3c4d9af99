#pragma once
// SIMD-friendly parallel compute kernels — the hot math under the GNN layers.
//
// All kernels are raw-pointer, row-major, and fan out over the process-wide
// compute pool through util::parallel_for (the calling thread runs chunks
// too) with *row-partitioned* parallelism: every output row is produced
// start-to-finish by exactly one task, and the accumulation order within a
// row is fixed by construction. Sums over rows (the bias and
// attention-vector gradients) split the columns instead, and each element
// still adds its rows in ascending order. Results are therefore bitwise
// identical for any thread count (1..N), which is what keeps the engine's
// depth-1 vs depth-2 trajectory-equality guarantees intact.
//
// Every kernel that does arithmetic has one source, compiled for three
// bodies: portable (4-lane GNU vectors), AVX2 (8 lanes) and AVX-512 (16
// lanes). A call runs the widest body the CPU has (isa()), or the one
// detail::ScopedBody pins on the calling thread. No body fuses a multiply
// and an add (the TU is built -ffp-contract=off) or reorders a sum, so every
// body gives the same bits.
//
// GEMMs: one strided register tile (accumulators for 4 or 8 output rows x 8
// or 16 columns held for the whole inner loop, operand A read as
// a[r*sr + p*sp]) serves all three variants. gemm calls it directly,
// gemm_at reads A transposed, and gemm_bt packs B^T into a reused
// per-thread buffer and then runs gemm. The inner index is blocked by
// kKcBlock so the B panel stays cache-resident. Every output element is
// c = c + a*b in ascending inner index: the bits of a plain float loop.

#include <cstddef>

#include "gnn/block.hpp"

namespace moment::gnn::kernels {

/// Inner-dimension block size: a B panel of KC x n stays cache-resident while
/// the row tiles sweep it.
inline constexpr std::size_t kKcBlock = 256;
/// parallel_for grain for row-partitioned loops.
inline constexpr std::size_t kRowGrain = 16;

/// Body the kernels run on this thread: "avx512", "avx2" or "portable".
const char* isa();

namespace detail {
/// The bodies: 4-, 8- and 16-lane GNU vectors.
enum class Body { kPortable, kAvx2, kAvx512 };
bool avx2_supported();
bool avx512_supported();

/// Pins the body of every kernel this thread calls (and of its pool tasks)
/// while in scope, so tests and bench_kernels can run each body. A body the
/// CPU lacks falls back: kAvx512 -> kAvx2 -> kPortable.
class ScopedBody {
 public:
  explicit ScopedBody(Body body);
  ~ScopedBody();
  ScopedBody(const ScopedBody&) = delete;
  ScopedBody& operator=(const ScopedBody&) = delete;

 private:
  Body saved_;
};
}  // namespace detail

// ---- GEMM -----------------------------------------------------------------

/// c (m x n) = a (m x k) @ b (k x n); adds into c when `accumulate`.
void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const float* b, float* c, bool accumulate);

/// c (m x n) = a (m x k) @ b (n x k)^T; adds into c when `accumulate`.
void gemm_bt(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, bool accumulate);

/// c (k x n) = a (m x k)^T @ b (m x n); adds into c when `accumulate`.
void gemm_at(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, bool accumulate);

// ---- Block aggregation (x: num_src x dim, out: num_dst x dim) -------------
// The forward kernels read four neighbour rows at a time and prefetch the
// next four: the random row reads are latency-bound. Summation order per
// element: from +0, the CSR neighbours in CSR order, four at a time as
// (s0 + s1) + (s2 + s3) (terms weighted for aggregate_coeff), the rest one at
// a time, then the self term or the product by inv_deg. The transposed
// kernels start from +0 or the grad_self row and add one edge at a time in
// reverse-CSR order, then the self term.

/// out[i] = mean over CSR neighbors of x[src]; zero row for isolated dsts.
void aggregate_mean(const Block& block, const float* x, std::size_t dim,
                    float* out);

/// out[i] = sum_e edge_coeff[e] * x[src_of[e]]  +  self_coeff[i] * x[self_i]
/// (GCN symmetric-normalized aggregation; edge_coeff indexed by CSR edge id,
/// self_i = the src row holding dst i's own features).
void aggregate_coeff(const Block& block, const float* edge_coeff,
                     const float* self_coeff, const float* x, std::size_t dim,
                     float* out);

/// Transpose of aggregate_coeff, race-free over src rows:
/// grad_src[v] = sum_{e into v} edge_coeff[e] * g[dst_of[e]]
///             + [v is self of dst d] self_coeff[d] * g[d].
/// Pass self_coeff = nullptr to skip the self term.
void aggregate_coeff_grad(const Block& block, const float* edge_coeff,
                          const float* self_coeff, const float* g,
                          std::size_t dim, float* grad_src);

/// SAGE input gradient, race-free over src rows:
/// grad_src[v] = [v is self of d] grad_self[d]
///             + sum_{e into v} inv_deg[dst_of[e]] * grad_mean[dst_of[e]].
void sage_input_grad(const Block& block, const float* grad_self,
                     const float* grad_mean, std::size_t dim, float* grad_src);

// ---- GAT attention (all heads per call) -----------------------------------
// A row of `heads` heads of head_dim features is stored head-major
// ([h * head_dim + c], the layer's concatenated layout) or head-minor
// ([c * heads + h], all heads of one feature index side by side). The
// attention kernels read and write projected features head-minor, so every
// inner loop runs over the heads as independent lanes; per-row and per-edge
// state (el, er, score, alpha) is [row * heads + h]. Every dot product is
// still one ascending-c chain per head with the multiply and the add rounded
// separately, so the results are the bits of a one-head-at-a-time loop on
// every body.

/// out row r = in row r converted head-major -> head-minor.
void heads_to_minor(std::size_t rows, std::size_t heads, std::size_t head_dim,
                    const float* in, float* out);
/// out row r = in row r converted head-minor -> head-major.
void heads_to_major(std::size_t rows, std::size_t heads, std::size_t head_dim,
                    const float* in, float* out);

/// Attention logits from head-minor z (num_src rows): er[v*heads + h] =
/// attn_r[h] . z[v] for every src row and el[i*heads + h] =
/// attn_l[h] . z[self_src[i]] for every dst row. attn_l/attn_r are the
/// (heads x head_dim) parameters, head-major.
void gat_logits(const Block& block, const float* z, std::size_t heads,
                std::size_t head_dim, const float* attn_l,
                const float* attn_r, float* el, float* er);

/// Softmax-normalized attention aggregation, one pass over the forward CSR,
/// parallel over dst: stores the pre-LeakyReLU logit el[i] + er[src] into
/// score, the max-shifted softmax of LeakyReLU(score) into alpha (both
/// [csr_edge * heads + h]) and writes out[i] = concat_h sum_e alpha * z[src]
/// head-major. Isolated dsts get a zero row and no edge state.
void gat_attention_forward(const Block& block, const float* el,
                           const float* er, const float* z, std::size_t heads,
                           std::size_t head_dim, float leaky_slope,
                           float* score, float* alpha, float* out);

/// Backward of gat_logits + gat_attention_forward. g is the head-major
/// gradient of `out`. Pass 1 (over dst) computes the per-edge score gradient
/// ds = alpha (g.z_e - sum_e' alpha_e' g.z_e') LeakyReLU'(score) and the
/// per-dst logit gradient del = sum_e ds. Pass 2 (over src) writes the
/// head-minor grad_z row by row: the aggregation term sum_e alpha g[dst],
/// then del[self] * attn_l, then der * attn_r, der = sum_{e into v} ds (a
/// zero logit gradient adds nothing). The last pass adds
/// sum_i del[i] z[self_i] into grad_attn_l and sum_v der[v] z[v] into
/// grad_attn_r, rows ascending. Needs src_to_dst to invert self_src.
void gat_attention_backward(const Block& block, const float* g,
                            const float* z, std::size_t heads,
                            std::size_t head_dim, float leaky_slope,
                            const float* attn_l, const float* attn_r,
                            const float* score, const float* alpha,
                            float* grad_z, float* grad_attn_l,
                            float* grad_attn_r);

// ---- Elementwise tails ----------------------------------------------------
// Branch-free loops over the body's vectors.
// Every element is computed on its own, so results do not depend on the
// body, the vector width or the thread count. ELU's expm1 is computed in
// this library, not by the host libm: it is fdlibm's expm1f (the routine
// glibc ships) written with selects, with the same bits.

/// A layer's activation: identity, ReLU or ELU.
enum class Activation { kNone, kRelu, kElu };

/// x[r] = act(x[r] + bias) in place, parallel over rows. Where the sum is not
/// > 0 (NaN included), ReLU writes +0 and ELU expm1 of it, bit for bit
/// fdlibm's expm1f.
void bias_act(std::size_t rows, std::size_t cols, const float* bias,
              Activation act, float* x);

/// grad = grad_out * act'(out), out being the post-activation output (ELU':
/// out + 1 where out is not > 0), and grad_bias[c] += grad[r][c], rows
/// ascending; tasks split the columns. ReLU selects (out > 0 ? grad_out : 0)
/// rather than multiplies, so a masked gradient is +0 whatever grad_out's
/// sign. grad may alias out or grad_out: each element is read before it is
/// written.
void bias_act_grad(std::size_t rows, std::size_t cols, const float* grad_out,
                   const float* out, Activation act, float* grad,
                   float* grad_bias);

// ---- Row gather -----------------------------------------------------------

/// out[i] = x[index[i]] for `rows` rows of `dim` floats, parallel over i.
void gather_rows(const int* index, std::size_t rows, const float* x,
                 std::size_t dim, float* out);

}  // namespace moment::gnn::kernels
