#pragma once
// SIMD-friendly parallel compute kernels — the hot math under the GNN layers.
//
// All kernels are raw-pointer, row-major, and fan out over the process-wide
// util::compute_pool() with *row-partitioned* parallelism: every output row
// is produced start-to-finish by exactly one task, and the accumulation order
// within a row is fixed by construction. Results are therefore bitwise
// identical for any thread count (1..N), which is what keeps the engine's
// depth-1 vs depth-2 trajectory-equality guarantees intact.
//
// GEMMs: one strided register tile (kTileRows x kTileCols accumulators held
// for the whole inner loop, operand A read as a[r*sr + p*sp]) serves all
// three variants. gemm calls it directly, gemm_at reads A transposed, and
// gemm_bt packs B^T into a reused per-thread buffer and then runs gemm. The
// inner index is blocked by kKcBlock so the B panel stays cache-resident.
// The tile has a portable body and an AVX2 body, picked once at start-up
// (isa()). Every output element is c = c + a*b in ascending inner index with
// the multiply and add rounded separately (no FMA; the TU is built with
// -ffp-contract=off), so both bodies, any tiling and any thread count give
// the same bits as a plain ascending float triple loop.
//
// Aggregation kernels walk the CompiledBlock CSR with 4-way neighbor-row
// accumulation plus software prefetch, which buys memory-level parallelism
// on the random feature-row reads that dominate sampled-block aggregation.

#include <cstddef>

#include "gnn/block.hpp"

namespace moment::gnn::kernels {

/// Inner-dimension block size: a B panel of KC x n stays cache-resident while
/// the row tiles sweep it.
inline constexpr std::size_t kKcBlock = 256;
/// GEMM register tile: output rows x columns accumulated in registers.
inline constexpr std::size_t kTileRows = 4;
inline constexpr std::size_t kTileCols = 16;
/// parallel_for grain for row-partitioned loops.
inline constexpr std::size_t kRowGrain = 16;

// ---- GEMM -----------------------------------------------------------------

/// Tile body the GEMMs run on this CPU: "avx2" or "portable".
const char* isa();

/// c (m x n) = a (m x k) @ b (k x n); adds into c when `accumulate`.
void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const float* b, float* c, bool accumulate);

/// c (m x n) = a (m x k) @ b (n x k)^T; adds into c when `accumulate`.
void gemm_bt(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, bool accumulate);

/// c (k x n) = a (m x k)^T @ b (m x n); adds into c when `accumulate`.
void gemm_at(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, bool accumulate);

namespace detail {
/// The GEMMs above with the tile body named explicitly, so tests can pin both
/// bodies to the same bits. kAvx2 runs the portable body on CPUs without AVX2.
enum class Body { kPortable, kAvx2 };
bool avx2_supported();
void gemm(Body body, std::size_t m, std::size_t k, std::size_t n,
          const float* a, const float* b, float* c, bool accumulate);
void gemm_bt(Body body, std::size_t m, std::size_t k, std::size_t n,
             const float* a, const float* b, float* c, bool accumulate);
void gemm_at(Body body, std::size_t m, std::size_t k, std::size_t n,
             const float* a, const float* b, float* c, bool accumulate);
}  // namespace detail

// ---- Block aggregation (x: num_src x dim, out: num_dst x dim) -------------

/// out[i] = mean over CSR neighbors of x[src]; zero row for isolated dsts.
void aggregate_mean(const CompiledBlock& cb, const float* x, std::size_t dim,
                    float* out);

/// out[i] = sum_e edge_coeff[e] * x[src_of[e]]  +  self_coeff[i] * x[self_i]
/// (GCN symmetric-normalized aggregation; edge_coeff indexed by CSR edge id,
/// self_i = the src row holding dst i's own features).
void aggregate_coeff(const CompiledBlock& cb, const float* edge_coeff,
                     const float* self_coeff, const float* x, std::size_t dim,
                     float* out);

/// Transpose of aggregate_coeff, race-free over src rows:
/// grad_src[v] = sum_{e into v} edge_coeff[e] * g[dst_of[e]]
///             + [v is self of dst d] self_coeff[d] * g[d].
/// Pass self_coeff = nullptr to skip the self term.
void aggregate_coeff_grad(const CompiledBlock& cb, const float* edge_coeff,
                          const float* self_coeff, const float* g,
                          std::size_t dim, float* grad_src);

/// SAGE input gradient, race-free over src rows:
/// grad_src[v] = [v is self of d] grad_self[d]
///             + sum_{e into v} inv_deg[dst_of[e]] * grad_mean[dst_of[e]].
void sage_input_grad(const CompiledBlock& cb, const float* grad_self,
                     const float* grad_mean, std::size_t dim, float* grad_src);

// ---- GAT attention (one head per call) ------------------------------------
// Head slices: row v of the projected features lives at z + v*stride (+ the
// head offset, already applied by the caller), head_dim floats wide. el[i] is
// the dst-side attention logit (attn_l . z[self of dst i]), er[v] the
// src-side logit. Per-edge state (score/alpha/ds) is indexed
// [csr_edge * alpha_stride], so multi-head layers can interleave heads.

/// Softmax-normalized attention aggregation for one head, parallel over dst:
/// stores the pre-LeakyReLU logit el[i] + er[src] into score, the
/// max-shifted softmax of LeakyReLU(score) into alpha, and writes
/// out[i] = sum_e alpha[e] * z[src_of[e]] over the head_dim slice.
void gat_attention_forward(const CompiledBlock& cb, const float* el,
                           const float* er, const float* z, std::size_t stride,
                           std::size_t head_dim, float leaky_slope,
                           std::size_t alpha_stride, float* score, float* alpha,
                           float* out);

/// Backward pass 1, parallel over dst rows: from the head's output gradient
/// g (same layout as out) computes the per-edge pre-activation score gradient
/// ds[e] = alpha_e (g.z_e - sum_e' alpha_e' g.z_e') * LeakyReLU'(score[e])
/// and the per-dst logit gradient del[i] = sum_e ds[e].
void gat_attention_backward_dst(const CompiledBlock& cb, const float* g,
                                const float* z, std::size_t stride,
                                std::size_t head_dim, float leaky_slope,
                                std::size_t alpha_stride, const float* score,
                                const float* alpha, float* ds, float* del);

/// Backward pass 2, parallel over src rows: accumulates
/// gz[v] += sum_{e into v} alpha[e] * g[dst_of[e]] (head slice of the
/// projected-feature gradient) and writes der[v] = sum_{e into v} ds[e].
void gat_attention_backward_src(const CompiledBlock& cb, const float* g,
                                std::size_t stride, std::size_t head_dim,
                                std::size_t alpha_stride, const float* alpha,
                                const float* ds, float* der, float* gz);

// ---- Row gather -----------------------------------------------------------

/// out[i] = x[index[i]] for `rows` rows of `dim` floats, parallel over i.
void gather_rows(const int* index, std::size_t rows, const float* x,
                 std::size_t dim, float* out);

}  // namespace moment::gnn::kernels
