// Microbenchmark for the gnn/kernels layer: blocked/vectorized GEMM and CSR
// block aggregation against the naive loops they replaced. The naive
// references below are verbatim copies of the pre-kernel implementations and
// compile at the project-default optimisation level, so the reported speedups
// are honest before/after numbers, not strawmen.
//
// Every per-body row runs once per body this CPU has (portable, avx2,
// avx512), pinned with kernels::detail::ScopedBody. The GAT layer-0 rows
// time the three GEMMs at the shape GAT trains on, on one thread, and check
// each bit for bit against an ascending-order float loop. The gat_attention
// rows time the all-head attention kernels (logits, forward, backward)
// against the per-head reference (tests/gat_reference.hpp) at the layer-0
// block shape on one thread, and check every output bit for bit. The
// activation_tails rows time the ELU tails (bias_act forward and
// bias_act_grad) at the GAT layer-0 output shape on one thread against the
// scalar loops they replaced (libm std::expm1 and a branch per element), and
// check them bit for bit against the same loops with the fdlibm expm1f port
// (tests/expm1f_reference.hpp). The aggregate_mean rows time the mean
// aggregation on the compute pool against the edge-list loop it replaced and
// check it bit for bit against the loop in the kernel's order
// (tests/aggregate_reference.hpp). The gat_layer0_step rows time one whole
// GatLayer forward + backward (no input gradient, as layer 0 runs) at the
// layer-0 block shape on one thread, after an untimed step that sizes the
// layer's workspaces: the layer's own memory traffic (allocation, zero fill,
// head permutations) on top of the kernels above.
// --smoke runs every bitwise check at small shapes on every body, the four
// aggregation kernels included, and fails on any mismatch.
//
// Every wall time is the median of kReps = 5 repeats on a warm cache. The
// JSON's host block names the CPU, the body the kernels use unpinned
// (isa) and the repeat count; timings from a shared VM stay noisy, so
// compare bodies within one run, not across runs.
//
// Usage:
//   bench_kernels [--threads N] [--out FILE]   full run, writes BENCH_kernels.json
//   bench_kernels --smoke                      tiny-shape correctness only
//
// GEMM shapes are (1024 x d) @ (d x 256) for the paper's feature dims
// d in {100, 128, 256, 602, 1024} (Table 2: Products 100, Papers100M 128,
// MAG240M 768-class hidden 256, UK-Union 602, Clueweb 1024-ish). The
// aggregation shape (10k dst / 200k edge / 30k src, dim 256) matches a
// fanout-20 sampled block.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "aggregate_reference.hpp"
#include "block_reference.hpp"
#include "body_cases.hpp"
#include "expm1f_reference.hpp"
#include "gat_reference.hpp"
#include "gnn/block.hpp"
#include "gnn/gat_layer.hpp"
#include "gnn/kernels.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using moment::gnn::Block;
namespace kernels = moment::gnn::kernels;
namespace reference = moment::gnn::reference;
using reference::for_each_body;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<float> random_matrix(std::size_t rows, std::size_t cols,
                                 moment::util::Pcg32& rng) {
  std::vector<float> m(rows * cols);
  for (float& v : m) v = static_cast<float>(rng.next_double(-1.0, 1.0));
  return m;
}

// ---- naive references (the pre-kernel implementations, verbatim) ----------

void naive_gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
                const float* b, float* c) {
  std::memset(c, 0, m * n * sizeof(float));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      float* orow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

// Ascending-order float oracle for all three GEMM variants: C(r, j) =
// sum over q of A(r, q) B(q, j) with A(r, q) = a[r*sr + q*sq] and
// B(q, j) = b[q*bq + j*bj], added from 0 in ascending q with the multiply and
// add rounded separately (this file is built with -ffp-contract=off) — the
// exact bits the kernels promise.
void ascending_gemm(std::size_t rows, std::size_t inner, std::size_t n,
                    const float* a, std::size_t sr, std::size_t sq,
                    const float* b, std::size_t bq, std::size_t bj, float* c) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t q = 0; q < inner; ++q) {
        acc = acc + a[r * sr + q * sq] * b[q * bq + j * bj];
      }
      c[r * n + j] = acc;
    }
  }
}

/// Local (dst, src) pairs of a block.
using Edges = std::vector<std::pair<int, int>>;

// Edge-list mean aggregation, as SageLayer::forward did it pre-kernels.
void naive_aggregate_mean(std::size_t nd, const Edges& edges, const float* x,
                          std::size_t dim, float* out) {
  std::memset(out, 0, nd * dim * sizeof(float));
  std::vector<std::size_t> degree(nd, 0);
  for (const auto& [dst, src] : edges) {
    const auto d = static_cast<std::size_t>(dst);
    const float* srow = x + static_cast<std::size_t>(src) * dim;
    float* orow = out + d * dim;
    for (std::size_t c = 0; c < dim; ++c) orow[c] += srow[c];
    ++degree[d];
  }
  for (std::size_t i = 0; i < nd; ++i) {
    if (degree[i] == 0) continue;
    const float inv = 1.0f / static_cast<float>(degree[i]);
    float* orow = out + i * dim;
    for (std::size_t c = 0; c < dim; ++c) orow[c] *= inv;
  }
}

// ---- harness ---------------------------------------------------------------

/// Max relative mismatch, with an absolute floor so near-zero entries don't
/// blow the ratio up.
double max_rel_diff(const std::vector<float>& ref,
                    const std::vector<float>& got) {
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double denom = std::max(1.0, std::abs(static_cast<double>(ref[i])));
    worst = std::max(
        worst, std::abs(static_cast<double>(ref[i]) - got[i]) / denom);
  }
  return worst;
}

/// Repeats of every timed call; the reported time is their median.
constexpr int kReps = 5;

/// Median wall time of fn; setup runs untimed before every repeat.
template <typename Fn, typename Setup = void (*)()>
double time_median(Fn&& fn, Setup&& setup = [] {}) {
  std::vector<double> t(kReps);
  for (double& ti : t) {
    setup();
    const double t0 = now_s();
    fn();
    ti = now_s() - t0;
  }
  std::nth_element(t.begin(), t.begin() + kReps / 2, t.end());
  return t[kReps / 2];
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

Block random_block(std::size_t nd, std::size_t ns, std::size_t ne,
                   moment::util::Pcg32& rng) {
  return reference::identity_block(nd, ns,
                                   reference::random_edges(nd, ns, ne, rng));
}

constexpr double kTol = 1e-4;

bool same(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct GatAttentionRow {
  const char* body;
  std::size_t nd, ns, ne, heads, head_dim;
  double reference_s, logits_s, forward_s, backward_s;
  bool bitwise;
};

/// All-head attention kernels on every body vs the per-head reference on one
/// random block, each on one thread: score, alpha, out, grad_z and both
/// attention-vector gradients must match bit for bit. Times are medians of
/// kReps when `timed`.
std::vector<GatAttentionRow> run_gat_attention(std::size_t nd, std::size_t ns,
                                               std::size_t ne,
                                               std::size_t heads,
                                               std::size_t hd, bool timed,
                                               moment::util::Pcg32& rng) {
  const std::size_t threads = moment::util::compute_pool_threads();
  moment::util::set_compute_pool_threads(1);
  const Block block = random_block(nd, ns, ne, rng);
  const std::size_t od = heads * hd;
  const float slope = 0.2f;
  const auto z = random_matrix(ns, od, rng);
  const auto g = random_matrix(nd, od, rng);
  const auto attn_l = random_matrix(heads, hd, rng);
  const auto attn_r = random_matrix(heads, hd, rng);
  const auto grad_attn0 = random_matrix(2, od, rng);

  struct Outputs {
    std::vector<float> score, alpha, out, grad_z, gal, gar;
  };
  auto fresh = [&] {
    Outputs o{std::vector<float>(ne * heads), std::vector<float>(ne * heads),
              std::vector<float>(nd * od),    std::vector<float>(ns * od),
              std::vector<float>(grad_attn0.begin(), grad_attn0.begin() + od),
              std::vector<float>(grad_attn0.begin() + od, grad_attn0.end())};
    return o;
  };
  Outputs ref = fresh();
  auto run_reference = [&] {
    std::fill(ref.out.begin(), ref.out.end(), 0.0f);
    std::fill(ref.grad_z.begin(), ref.grad_z.end(), 0.0f);
    moment::gnn::reference::gat_attention_forward(
        block, z.data(), heads, hd, attn_l.data(), attn_r.data(), slope,
        ref.score.data(), ref.alpha.data(), ref.out.data());
    moment::gnn::reference::gat_attention_backward(
        block, g.data(), z.data(), heads, hd, slope, attn_l.data(),
        attn_r.data(), ref.score.data(), ref.alpha.data(), ref.grad_z.data(),
        ref.gal.data(), ref.gar.data());
  };
  run_reference();

  std::vector<GatAttentionRow> rows;
  for_each_body([&](const char* body) {
    Outputs got = fresh();
    std::vector<float> zm(ns * od), grad_zm(ns * od), el(nd * heads),
        er(ns * heads);
    kernels::heads_to_minor(ns, heads, hd, z.data(), zm.data());
    auto logits = [&] {
      kernels::gat_logits(block, zm.data(), heads, hd, attn_l.data(),
                          attn_r.data(), el.data(), er.data());
    };
    auto forward = [&] {
      kernels::gat_attention_forward(block, el.data(), er.data(), zm.data(),
                                     heads, hd, slope, got.score.data(),
                                     got.alpha.data(), got.out.data());
    };
    auto backward = [&] {
      kernels::gat_attention_backward(
          block, g.data(), zm.data(), heads, hd, slope, attn_l.data(),
          attn_r.data(), got.score.data(), got.alpha.data(), grad_zm.data(),
          got.gal.data(), got.gar.data());
    };
    logits();
    forward();
    backward();
    kernels::heads_to_major(ns, heads, hd, grad_zm.data(), got.grad_z.data());
    GatAttentionRow row{body, nd, ns, ne, heads, hd, 0.0, 0.0, 0.0, 0.0,
                        same(ref.score, got.score) &&
                            same(ref.alpha, got.alpha) &&
                            same(ref.out, got.out) &&
                            same(ref.grad_z, got.grad_z) &&
                            same(ref.gal, got.gal) && same(ref.gar, got.gar)};
    if (timed) {
      row.logits_s = time_median(logits);
      row.forward_s = time_median(forward);
      row.backward_s = time_median(backward);
    }
    rows.push_back(row);
  });
  // Last: every repeat adds into the reference's attention-vector gradients.
  if (timed) {
    const double reference_s = time_median(run_reference);
    for (GatAttentionRow& row : rows) row.reference_s = reference_s;
  }
  moment::util::set_compute_pool_threads(threads);
  return rows;
}

/// The three GEMMs on the pinned body against the ascending float oracle,
/// bit for bit: gemm (m x k x n), gemm_bt (m x k x n, B given n x k) and
/// gemm_at (k x n from an m-row A and B).
bool gemm_bitwise(std::size_t m, std::size_t k, std::size_t n,
                  moment::util::Pcg32& rng) {
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  const auto bt = random_matrix(n, k, rng);
  const auto bm = random_matrix(m, n, rng);
  std::vector<float> ref(m * n), got(m * n);
  ascending_gemm(m, k, n, a.data(), k, 1, b.data(), n, 1, ref.data());
  kernels::gemm(m, k, n, a.data(), b.data(), got.data(), false);
  bool ok = same(ref, got);
  ascending_gemm(m, k, n, a.data(), k, 1, bt.data(), 1, k, ref.data());
  kernels::gemm_bt(m, k, n, a.data(), bt.data(), got.data(), false);
  ok &= same(ref, got);
  ref.resize(k * n);
  got.resize(k * n);
  ascending_gemm(k, m, n, a.data(), 1, k, bm.data(), n, 1, ref.data());
  kernels::gemm_at(m, k, n, a.data(), bm.data(), got.data(), false);
  return ok & same(ref, got);
}

/// The four aggregation kernels on the pinned body against the loops in
/// their order (aggregate_reference.hpp), bit for bit, on one random block.
bool aggregation_bitwise(std::size_t nd, std::size_t ns, std::size_t ne,
                         std::size_t dim, moment::util::Pcg32& rng) {
  const Block block = random_block(nd, ns, ne, rng);
  const auto x = random_matrix(ns, dim, rng);
  const auto g = random_matrix(nd, dim, rng);
  const auto g2 = random_matrix(nd, dim, rng);
  const auto coeff = random_matrix(1, ne + nd, rng);
  const float* self = coeff.data() + ne;
  std::vector<float> ref(nd * dim), got(nd * dim);
  reference::aggregate_mean(block, x.data(), dim, ref.data());
  kernels::aggregate_mean(block, x.data(), dim, got.data());
  bool ok = same(ref, got);
  reference::aggregate_coeff(block, coeff.data(), self, x.data(), dim,
                             ref.data());
  kernels::aggregate_coeff(block, coeff.data(), self, x.data(), dim,
                           got.data());
  ok &= same(ref, got);
  ref.resize(ns * dim);
  got.resize(ns * dim);
  reference::aggregate_coeff_grad(block, coeff.data(), self, g.data(), dim,
                                  ref.data());
  kernels::aggregate_coeff_grad(block, coeff.data(), self, g.data(), dim,
                                got.data());
  ok &= same(ref, got);
  reference::sage_input_grad(block, g.data(), g2.data(), dim, ref.data());
  kernels::sage_input_grad(block, g.data(), g2.data(), dim, got.data());
  return ok & same(ref, got);
}

// ---- ELU tails -------------------------------------------------------------

// The scalar ELU loops bias_act and bias_act_grad ran before the vector
// tails, verbatim; `expm1` is std::expm1 for the timed baseline and the
// fdlibm port for the bitwise oracle.
template <float (*Expm1)(float)>
void scalar_elu(std::size_t rows, std::size_t cols, const float* bias,
                float* x) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* __restrict row = x + r * cols;
    for (std::size_t c = 0; c < cols; ++c) row[c] += bias[c];
    for (std::size_t c = 0; c < cols; ++c) {
      if (!(row[c] > 0.0f)) row[c] = Expm1(row[c]);
    }
  }
}

float libm_expm1(float x) { return std::expm1(x); }

void scalar_elu_grad(std::size_t rows, std::size_t cols,
                     const float* grad_out, const float* out, float* grad,
                     float* grad_bias) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* __restrict go = grad_out + r * cols;
    const float* __restrict y = out + r * cols;
    float* __restrict gr = grad + r * cols;
    float* __restrict gb = grad_bias;
    for (std::size_t c = 0; c < cols; ++c) {
      gr[c] = go[c] * (y[c] > 0.0f ? 1.0f : y[c] + 1.0f);
    }
    for (std::size_t c = 0; c < cols; ++c) gb[c] += gr[c];
  }
}

struct TailRow {
  const char* body;
  const char* name;
  std::size_t rows, cols;
  double scalar_s, kernel_s;
  bool bitwise;
};

/// ELU forward and gradient on every body, one thread, against the
/// scalar loops: inputs uniform in [lo, hi) so every expm1 reduction runs.
/// Times are medians of kReps when `timed`; the forward is restored from
/// its input, untimed, before every repeat.
std::vector<TailRow> run_activation_tails(std::size_t rows, std::size_t cols,
                                          float lo, float hi, bool timed,
                                          moment::util::Pcg32& rng) {
  const std::size_t threads = moment::util::compute_pool_threads();
  moment::util::set_compute_pool_threads(1);
  const std::size_t n = rows * cols;
  std::vector<float> pre(n), bias = random_matrix(1, cols, rng);
  for (float& v : pre) v = static_cast<float>(rng.next_double(lo, hi));
  const auto grad_out = random_matrix(rows, cols, rng);
  const auto grad_bias0 = random_matrix(1, cols, rng);

  std::vector<float> ref = pre;
  scalar_elu<moment::gnn::reference::expm1f_nonpos>(rows, cols, bias.data(),
                                                    ref.data());
  std::vector<float> ref_grad(n), ref_gb = grad_bias0;
  scalar_elu_grad(rows, cols, grad_out.data(), ref.data(), ref_grad.data(),
                  ref_gb.data());

  std::vector<float> x(n), grad(n), gb(cols);
  auto restore = [&] { x = pre; };
  double scalar_fwd_s = 0.0, scalar_grad_s = 0.0;
  if (timed) {
    scalar_fwd_s = time_median(
        [&] { scalar_elu<libm_expm1>(rows, cols, bias.data(), x.data()); },
        restore);
    scalar_grad_s = time_median([&] {
      scalar_elu_grad(rows, cols, grad_out.data(), ref.data(), grad.data(),
                      gb.data());
    });
  }
  std::vector<TailRow> out;
  for_each_body([&](const char* body) {
    auto forward = [&] {
      kernels::bias_act(rows, cols, bias.data(), kernels::Activation::kElu,
                        x.data());
    };
    auto backward = [&] {
      kernels::bias_act_grad(rows, cols, grad_out.data(), ref.data(),
                             kernels::Activation::kElu, grad.data(),
                             gb.data());
    };
    restore();
    forward();
    gb = grad_bias0;
    backward();
    TailRow f{body, "elu_forward", rows, cols, scalar_fwd_s, 0.0,
              same(ref, x)};
    TailRow g{body, "elu_grad", rows, cols, scalar_grad_s, 0.0,
              same(ref_grad, grad) && same(ref_gb, gb)};
    if (timed) {
      f.kernel_s = time_median(forward, restore);
      g.kernel_s = time_median(backward);
    }
    out.push_back(f);
    out.push_back(g);
  });
  moment::util::set_compute_pool_threads(threads);
  return out;
}

int run_smoke() {
  moment::util::Pcg32 rng(42);
  bool pass = true;
  // Ragged rows of the 4- and 8-row tiles, column tails (n < 16 as well),
  // a KC block boundary and an inner dimension of 1.
  const std::size_t shapes[][3] = {
      {1, 1, 1},    {3, 5, 2},   {17, 33, 29}, {65, 1, 129}, {33, 257, 7},
      {21, 40, 15}, {22, 9, 33}, {23, 260, 1}, {16, 64, 16}, {45, 31, 47}};
  for_each_body([&](const char* body) {
    bool ok = true;
    for (const auto& s : shapes) ok &= gemm_bitwise(s[0], s[1], s[2], rng);
    std::printf("%s gemm/gemm_bt/gemm_at %s body: %s\n",
                ok ? "ok  " : "FAIL", body,
                ok ? "bitwise" : "BITWISE MISMATCH vs ascending loop");
    pass &= ok;
    // dim 33: a column tail on every body.
    ok = aggregation_bitwise(50, 120, 400, 33, rng);
    std::printf("%s aggregate_mean/coeff/coeff_grad/sage_input_grad %s body: "
                "%s\n",
                ok ? "ok  " : "FAIL", body,
                ok ? "bitwise" : "BITWISE MISMATCH vs ordered loop");
    pass &= ok;
  });
  const std::size_t gat_shapes[][2] = {{8, 64}, {3, 7}, {4, 7}, {16, 5},
                                       {1, 16}};
  for (const auto& s : gat_shapes) {
    for (const GatAttentionRow& r :
         run_gat_attention(50, 120, 400, s[0], s[1], false, rng)) {
      std::printf("%s gat_attention heads %zu x %zu %s body: %s\n",
                  r.bitwise ? "ok  " : "FAIL", r.heads, r.head_dim, r.body,
                  r.bitwise ? "bitwise" : "BITWISE MISMATCH vs per-head");
      pass &= r.bitwise;
    }
  }
  // 37 x 33: column tails on every body; [-20, 4) reaches the -1 clamp.
  for (const TailRow& r : run_activation_tails(37, 33, -20.0f, 4.0f, false,
                                               rng)) {
    std::printf("%s %s %s body: %s\n", r.bitwise ? "ok  " : "FAIL", r.name,
                r.body,
                r.bitwise ? "bitwise" : "BITWISE MISMATCH vs scalar fdlibm");
    pass &= r.bitwise;
  }
  std::printf("smoke: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

struct BitwiseRow {
  const char* body;
  const char* name;
  std::size_t m, k, n;
  double kernel_s;
  bool bitwise;
};

/// The three GEMMs at the GAT layer-0 shape (5.8k sampled sources, 128 input
/// features, 8 heads of 64): Z = X W, dX = dZ W^T, dW = X^T dZ, on one thread
/// and on every body this CPU has. Each output is compared bit for bit
/// with the ascending float oracle.
std::vector<BitwiseRow> run_gat_layer0(moment::util::Pcg32& rng) {
  const std::size_t threads = moment::util::compute_pool_threads();
  moment::util::set_compute_pool_threads(1);
  const std::size_t m = 5800, k = 128, n = 512;
  const auto x = random_matrix(m, k, rng);
  const auto w = random_matrix(k, n, rng);
  const auto dz = random_matrix(m, n, rng);
  std::vector<float> ref_z(m * n), ref_dx(m * k), ref_dw(k * n);
  ascending_gemm(m, k, n, x.data(), k, 1, w.data(), n, 1, ref_z.data());
  ascending_gemm(m, n, k, dz.data(), n, 1, w.data(), 1, n, ref_dx.data());
  ascending_gemm(k, m, n, x.data(), 1, k, dz.data(), n, 1, ref_dw.data());
  std::vector<BitwiseRow> rows;
  for_each_body([&](const char* body) {
    auto record = [&](const char* name, std::size_t rm, std::size_t rk,
                      std::size_t rn, const std::vector<float>& ref,
                      auto&& fn) {
      std::vector<float> got(ref.size());
      fn(got.data());
      const bool bitwise = same(ref, got);
      const double t = time_median([&] { fn(got.data()); });
      std::printf("  %-8s %-8s %zu x %zu x %zu  %7.2f ms (%5.2f GF/s)  %s\n",
                  body, name, rm, rk, rn, t * 1e3,
                  2.0 * static_cast<double>(rm * rk * rn) / t / 1e9,
                  bitwise ? "bitwise ok" : "BITWISE MISMATCH");
      rows.push_back({body, name, rm, rk, rn, t, bitwise});
    };
    record("gemm", m, k, n, ref_z, [&](float* c) {
      kernels::gemm(m, k, n, x.data(), w.data(), c, false);
    });
    record("gemm_bt", m, n, k, ref_dx, [&](float* c) {
      kernels::gemm_bt(m, n, k, dz.data(), w.data(), c, false);
    });
    record("gemm_at", m, k, n, ref_dw, [&](float* c) {
      kernels::gemm_at(m, k, n, x.data(), dz.data(), c, false);
    });
  });
  moment::util::set_compute_pool_threads(threads);
  return rows;
}

struct LayerStepRow {
  const char* body;
  std::size_t nd, ns, ne, in_dim, heads, head_dim;
  double step_s;
};

/// One GatLayer (ELU, 8 heads of 64 by default) forward + backward without
/// the input gradient, on every body, one thread: the median of kReps steps
/// after one untimed step.
std::vector<LayerStepRow> run_gat_layer0_step(std::size_t nd, std::size_t ns,
                                              std::size_t ne,
                                              std::size_t in_dim,
                                              std::size_t heads,
                                              std::size_t hd,
                                              moment::util::Pcg32& rng) {
  const std::size_t threads = moment::util::compute_pool_threads();
  moment::util::set_compute_pool_threads(1);
  const Block block = random_block(nd, ns, ne, rng);
  moment::gnn::Tensor x(ns, in_dim), grad_out(nd, heads * hd);
  const auto xv = random_matrix(ns, in_dim, rng);
  const auto gv = random_matrix(nd, heads * hd, rng);
  std::copy(xv.begin(), xv.end(), x.data());
  std::copy(gv.begin(), gv.end(), grad_out.data());
  std::vector<LayerStepRow> rows;
  for_each_body([&](const char* body) {
    moment::util::Pcg32 wrng(7);
    moment::gnn::GatLayer layer(in_dim, heads, hd, /*apply_elu=*/true, wrng);
    auto step = [&] {
      layer.forward(block, x);
      layer.backward(block, grad_out, /*input_grad=*/false);
    };
    step();
    rows.push_back({body, nd, ns, ne, in_dim, heads, hd, time_median(step)});
  });
  moment::util::set_compute_pool_threads(threads);
  return rows;
}

struct GemmRow {
  std::size_t m, k, n;
  double naive_s, kernel_s, speedup, naive_gflops, kernel_gflops;
};

int run_full(std::size_t threads, const std::string& out_path) {
  moment::util::set_compute_pool_threads(threads);
  const std::string cpu = cpu_model();
  std::printf("host: %s, isa %s, compute pool %zu thread(s), median of %d "
              "repeats\n",
              cpu.c_str(), kernels::isa(),
              moment::util::compute_pool_threads(), kReps);
  moment::util::Pcg32 rng(42);
  bool pass = true;

  const std::size_t m = 1024, n = 256;
  const std::size_t feat_dims[] = {100, 128, 256, 602, 1024};
  std::vector<GemmRow> rows;
  std::printf("\nGEMM (%zu x d) @ (d x %zu):\n", m, n);
  for (const std::size_t k : feat_dims) {
    const auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(k, n, rng);
    std::vector<float> ref(m * n), got(m * n);
    naive_gemm(m, k, n, a.data(), b.data(), ref.data());
    kernels::gemm(m, k, n, a.data(), b.data(), got.data(), false);
    if (max_rel_diff(ref, got) > kTol) {
      std::printf("FAIL gemm d=%zu exceeds tolerance\n", k);
      pass = false;
    }
    GemmRow r;
    r.m = m; r.k = k; r.n = n;
    r.naive_s = time_median([&] {
      naive_gemm(m, k, n, a.data(), b.data(), ref.data());
    });
    r.kernel_s = time_median([&] {
      kernels::gemm(m, k, n, a.data(), b.data(), got.data(), false);
    });
    const double flops = 2.0 * static_cast<double>(m * k * n);
    r.naive_gflops = flops / r.naive_s / 1e9;
    r.kernel_gflops = flops / r.kernel_s / 1e9;
    r.speedup = r.naive_s / r.kernel_s;
    rows.push_back(r);
    std::printf("  d=%-5zu naive %7.2f ms (%5.2f GF/s)  kernel %7.2f ms "
                "(%5.2f GF/s)  speedup %.2fx\n",
                k, r.naive_s * 1e3, r.naive_gflops, r.kernel_s * 1e3,
                r.kernel_gflops, r.speedup);
  }

  std::printf("\nGAT layer-0 GEMMs, each body, 1 thread:\n");
  const std::vector<BitwiseRow> gat = run_gat_layer0(rng);
  for (const BitwiseRow& r : gat) pass &= r.bitwise;

  // GAT layer-0 block: 1.15k dst, 4.8k src, 10.7k edges, 8 heads of 64.
  const std::vector<GatAttentionRow> att =
      run_gat_attention(1150, 4800, 10700, 8, 64, true, rng);
  auto att_kernel_s = [](const GatAttentionRow& r) {
    return r.logits_s + r.forward_s + r.backward_s;
  };
  std::printf("\ngat_attention %zu dst / %zu edges / %zu src, %zu heads x "
              "%zu, each body, 1 thread: per-head reference %7.2f ms\n",
              att[0].nd, att[0].ne, att[0].ns, att[0].heads, att[0].head_dim,
              att[0].reference_s * 1e3);
  for (const GatAttentionRow& r : att) {
    std::printf("  %-8s all-head %7.2f ms (logits %.2f, forward %.2f, "
                "backward %.2f)  speedup %.2fx  %s\n",
                r.body, att_kernel_s(r) * 1e3, r.logits_s * 1e3,
                r.forward_s * 1e3, r.backward_s * 1e3,
                r.reference_s / att_kernel_s(r),
                r.bitwise ? "bitwise ok" : "BITWISE MISMATCH");
    pass &= r.bitwise;
  }

  const std::vector<LayerStepRow> steps =
      run_gat_layer0_step(1150, 4800, 10700, 128, 8, 64, rng);
  std::printf("\ngat_layer0_step GatLayer forward + backward, %zu dst / %zu "
              "edges / %zu src, %zu -> %zu heads x %zu, each body, 1 thread:\n",
              steps[0].nd, steps[0].ne, steps[0].ns, steps[0].in_dim,
              steps[0].heads, steps[0].head_dim);
  for (const LayerStepRow& r : steps) {
    std::printf("  %-8s %7.2f ms\n", r.body, r.step_s * 1e3);
  }

  // GAT layer-0 output: 1,238 dst rows of 8 heads x 64.
  std::printf("\nactivation_tails (ELU), each body, 1 thread:\n");
  const std::vector<TailRow> tails =
      run_activation_tails(1238, 512, -3.0f, 3.0f, true, rng);
  for (const TailRow& r : tails) {
    std::printf("  %-8s %-11s %zu x %zu  scalar %6.2f ms  kernel %6.2f ms  "
                "speedup %5.2fx  %s\n",
                r.body, r.name, r.rows, r.cols, r.scalar_s * 1e3,
                r.kernel_s * 1e3, r.scalar_s / r.kernel_s,
                r.bitwise ? "bitwise ok" : "BITWISE MISMATCH");
    pass &= r.bitwise;
  }

  const std::size_t nd = 10000, ns = 30000, ne = 200000, dim = 256;
  const Edges edges = reference::random_edges(nd, ns, ne, rng);
  const Block block = reference::identity_block(nd, ns, edges);
  const auto x = random_matrix(ns, dim, rng);
  std::vector<float> naive(nd * dim), ref(nd * dim), got(nd * dim);
  reference::aggregate_mean(block, x.data(), dim, ref.data());
  const double agg_naive_s = time_median([&] {
    naive_aggregate_mean(nd, edges, x.data(), dim, naive.data());
  });
  std::printf("\naggregate_mean %zu dst / %zu edges / %zu src, dim %zu, each "
              "body, %zu thread(s): naive %7.2f ms\n",
              nd, ne, ns, dim, moment::util::compute_pool_threads(),
              agg_naive_s * 1e3);
  struct AggregateRow {
    const char* body;
    double kernel_s;
    bool bitwise;
  };
  std::vector<AggregateRow> agg;
  for_each_body([&](const char* body) {
    kernels::aggregate_mean(block, x.data(), dim, got.data());
    const bool bitwise = same(ref, got);
    const double t = time_median([&] {
      kernels::aggregate_mean(block, x.data(), dim, got.data());
    });
    std::printf("  %-8s kernel %7.2f ms  speedup %.2fx  %s\n", body, t * 1e3,
                agg_naive_s / t, bitwise ? "bitwise ok" : "BITWISE MISMATCH");
    agg.push_back({body, t, bitwise});
    pass &= bitwise;
  });

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::printf("cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"host\": {\"cpu\": \"%s\", \"isa\": \"%s\", "
               "\"threads\": %zu, \"timing\": \"median of %d repeats\"},\n"
               "  \"gemm\": [\n",
               cpu.c_str(), kernels::isa(),
               moment::util::compute_pool_threads(), kReps);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GemmRow& r = rows[i];
    std::fprintf(f,
                 "    {\"m\": %zu, \"k\": %zu, \"n\": %zu, "
                 "\"naive_s\": %.6f, \"kernel_s\": %.6f, "
                 "\"naive_gflops\": %.3f, \"kernel_gflops\": %.3f, "
                 "\"speedup\": %.3f}%s\n",
                 r.m, r.k, r.n, r.naive_s, r.kernel_s, r.naive_gflops,
                 r.kernel_gflops, r.speedup,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"gat_layer0\": [\n");
  for (std::size_t i = 0; i < gat.size(); ++i) {
    const BitwiseRow& r = gat[i];
    std::fprintf(f,
                 "    {\"body\": \"%s\", \"kernel\": \"%s\", \"m\": %zu, "
                 "\"k\": %zu, \"n\": %zu, \"threads\": 1, "
                 "\"kernel_s\": %.6f, \"bitwise\": %s}%s\n",
                 r.body, r.name, r.m, r.k, r.n, r.kernel_s,
                 r.bitwise ? "true" : "false", i + 1 < gat.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"gat_attention\": [\n");
  for (std::size_t i = 0; i < att.size(); ++i) {
    const GatAttentionRow& r = att[i];
    std::fprintf(f,
                 "    {\"body\": \"%s\", \"num_dst\": %zu, \"num_edges\": %zu, "
                 "\"num_src\": %zu, \"heads\": %zu, \"head_dim\": %zu, "
                 "\"threads\": 1, \"reference_s\": %.6f, \"kernel_s\": %.6f, "
                 "\"logits_s\": %.6f, \"forward_s\": %.6f, "
                 "\"backward_s\": %.6f, \"speedup\": %.3f, "
                 "\"bitwise\": %s}%s\n",
                 r.body, r.nd, r.ne, r.ns, r.heads, r.head_dim, r.reference_s,
                 att_kernel_s(r), r.logits_s, r.forward_s, r.backward_s,
                 r.reference_s / att_kernel_s(r), r.bitwise ? "true" : "false",
                 i + 1 < att.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"gat_layer0_step\": [\n");
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const LayerStepRow& r = steps[i];
    std::fprintf(f,
                 "    {\"body\": \"%s\", \"num_dst\": %zu, "
                 "\"num_edges\": %zu, \"num_src\": %zu, \"in_dim\": %zu, "
                 "\"heads\": %zu, \"head_dim\": %zu, \"threads\": 1, "
                 "\"step_s\": %.6f}%s\n",
                 r.body, r.nd, r.ne, r.ns, r.in_dim, r.heads, r.head_dim,
                 r.step_s, i + 1 < steps.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"activation_tails\": [\n");
  for (std::size_t i = 0; i < tails.size(); ++i) {
    const TailRow& r = tails[i];
    std::fprintf(f,
                 "    {\"body\": \"%s\", \"kernel\": \"%s\", "
                 "\"rows\": %zu, \"cols\": %zu, \"threads\": 1, "
                 "\"scalar_s\": %.6f, \"kernel_s\": %.6f, "
                 "\"speedup\": %.3f, \"bitwise\": %s}%s\n",
                 r.body, r.name, r.rows, r.cols, r.scalar_s, r.kernel_s,
                 r.scalar_s / r.kernel_s, r.bitwise ? "true" : "false",
                 i + 1 < tails.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"aggregate_mean\": [\n");
  for (std::size_t i = 0; i < agg.size(); ++i) {
    const AggregateRow& r = agg[i];
    std::fprintf(f,
                 "    {\"body\": \"%s\", \"num_dst\": %zu, \"num_edges\": %zu, "
                 "\"num_src\": %zu, \"dim\": %zu, \"threads\": %zu, "
                 "\"naive_s\": %.6f, \"kernel_s\": %.6f, \"speedup\": %.3f, "
                 "\"bitwise\": %s}%s\n",
                 r.body, nd, ne, ns, dim, moment::util::compute_pool_threads(),
                 agg_naive_s, r.kernel_s, agg_naive_s / r.kernel_s,
                 r.bitwise ? "true" : "false", i + 1 < agg.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t threads = 4;
  std::string out_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::printf("usage: %s [--smoke] [--threads N] [--out FILE]\n", argv[0]);
      return 2;
    }
  }
  return smoke ? run_smoke() : run_full(threads, out_path);
}
