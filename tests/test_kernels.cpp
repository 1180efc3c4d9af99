// Kernel-vs-naive equivalence for the gnn/kernels layer: the tiled GEMM
// variants against reference triple loops on ragged shapes (within a
// tolerance against double loops, and bit for bit against ascending float
// loops for every body), the bias + activation tails against scalar loops
// bit for bit (ELU against the fdlibm expm1f port in expm1f_reference.hpp)
// on every body, block CSR structure, CSR aggregation bit for bit
// against scalar loops in the kernels' order (aggregate_reference.hpp) on
// every body, and bitwise thread-count invariance of every parallel kernel
// on every body.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "aggregate_reference.hpp"
#include "block_reference.hpp"
#include "body_cases.hpp"
#include "expm1f_reference.hpp"
#include "gnn/block.hpp"
#include "gnn/kernels.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using moment::gnn::Block;
namespace kernels = moment::gnn::kernels;
namespace reference = moment::gnn::reference;
using reference::for_each_body;

constexpr double kTol = 1e-4;

std::vector<float> random_matrix(std::size_t rows, std::size_t cols,
                                 moment::util::Pcg32& rng) {
  std::vector<float> m(rows * cols);
  for (float& v : m) v = static_cast<float>(rng.next_double(-1.0, 1.0));
  return m;
}

void ref_gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
              const float* b, float* c, bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = accumulate ? c[i * n + j] : 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

void ref_gemm_bt(std::size_t m, std::size_t k, std::size_t n, const float* a,
                 const float* b, float* c, bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = accumulate ? c[i * n + j] : 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) * b[j * k + p];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

void ref_gemm_at(std::size_t m, std::size_t k, std::size_t n, const float* a,
                 const float* b, float* c, bool accumulate) {
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = accumulate ? c[p * n + j] : 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        acc += static_cast<double>(a[i * k + p]) * b[i * n + j];
      }
      c[p * n + j] = static_cast<float>(acc);
    }
  }
}

void expect_close(const std::vector<float>& ref, const std::vector<float>& got,
                  const char* what) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double denom = std::max(1.0, std::abs(static_cast<double>(ref[i])));
    ASSERT_NEAR(ref[i], got[i], kTol * denom) << what << " at index " << i;
  }
}

/// A hand-built bipartite block: 4 dsts (dst 3 isolated), 7 srcs.
const std::vector<std::pair<int, int>> kTinyEdges = {
    {0, 4}, {0, 1}, {1, 5}, {1, 4}, {1, 6}, {2, 0}, {0, 4}};

Block tiny_block(const std::vector<std::pair<int, int>>& edges = kTinyEdges) {
  return reference::block_from_edges({0, 1, 2, 3, 4, 5, 6}, {0, 1, 2, 3},
                                     edges);
}

Block random_block(std::size_t nd, std::size_t ns, std::size_t ne,
                   moment::util::Pcg32& rng) {
  return reference::identity_block(nd, ns,
                                   reference::random_edges(nd, ns, ne, rng));
}

TEST(Kernels, GemmVariantsMatchReferenceOnRaggedShapes) {
  moment::util::Pcg32 rng(7);
  const std::size_t shapes[][3] = {
      {1, 1, 1}, {3, 5, 2}, {17, 33, 29}, {65, 1, 129}, {33, 257, 7},
      {4, 256, 8}, {5, 300, 9}};
  for (const auto& s : shapes) {
    const std::size_t m = s[0], k = s[1], n = s[2];
    const auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(k, n, rng);
    const auto bt = random_matrix(n, k, rng);
    const auto bm = random_matrix(m, n, rng);
    for (const bool acc : {false, true}) {
      auto ref = random_matrix(m, n, rng);
      auto got = ref;  // same starting contents so accumulate is comparable
      ref_gemm(m, k, n, a.data(), b.data(), ref.data(), acc);
      kernels::gemm(m, k, n, a.data(), b.data(), got.data(), acc);
      expect_close(ref, got, "gemm");

      auto ref2 = random_matrix(m, n, rng);
      auto got2 = ref2;
      ref_gemm_bt(m, k, n, a.data(), bt.data(), ref2.data(), acc);
      kernels::gemm_bt(m, k, n, a.data(), bt.data(), got2.data(), acc);
      expect_close(ref2, got2, "gemm_bt");

      auto ref3 = random_matrix(k, n, rng);
      auto got3 = ref3;
      ref_gemm_at(m, k, n, a.data(), bm.data(), ref3.data(), acc);
      kernels::gemm_at(m, k, n, a.data(), bm.data(), got3.data(), acc);
      expect_close(ref3, got3, "gemm_at");
    }
  }
}

// Float oracle in the order the kernels promise, for all three variants:
// C(r, j) starts at c (accumulate) or 0 and takes c = c + A(r, q) * B(q, j)
// for q ascending, with A(r, q) = a[r*sr + q*sq] and B(q, j) =
// b[q*bq + j*bj]. This file is built with -ffp-contract=off, like
// kernels.cpp, so the compiler cannot fuse the multiply and the add.
void ascending_gemm(std::size_t rows, std::size_t inner, std::size_t n,
                    const float* a, std::size_t sr, std::size_t sq,
                    const float* b, std::size_t bq, std::size_t bj, float* c,
                    bool accumulate) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = accumulate ? c[r * n + j] : 0.0f;
      for (std::size_t q = 0; q < inner; ++q) {
        acc = acc + a[r * sr + q * sq] * b[q * bq + j * bj];
      }
      c[r * n + j] = acc;
    }
  }
}

void expect_bitwise(const std::vector<float>& ref,
                    const std::vector<float>& got, const char* what) {
  ASSERT_EQ(ref.size(), got.size());
  if (ref.empty() ||
      std::memcmp(ref.data(), got.data(), ref.size() * sizeof(float)) == 0) {
    return;
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(std::memcmp(&ref[i], &got[i], sizeof(float)), 0)
        << what << " first differs at index " << i << ": " << ref[i]
        << " vs " << got[i];
  }
}

TEST(Kernels, GemmBitwiseMatchesAscendingFloatOracle) {
  // Ragged rows for both tile heights (m % 4 != 0; m % 8 in {5, 6, 7}),
  // ragged columns (n % 16 != 0, including n < 16), n a multiple of 8 but not
  // of 16 (full tiles of the 8-wide portable body, tails of the 16-wide
  // ones), inner dimensions past one kKcBlock (> 256), an empty inner
  // dimension, and full tiles.
  const std::size_t shapes[][3] = {
      {1, 1, 1},    {3, 5, 2},    {17, 33, 29}, {65, 1, 129}, {33, 257, 7},
      {4, 256, 16}, {6, 300, 37}, {13, 520, 48}, {8, 0, 16},  {37, 70, 130},
      {21, 40, 15}, {22, 9, 33},  {23, 260, 1}, {16, 64, 16}, {45, 31, 47},
      {9, 70, 24},  {5, 3, 8}};
  for_each_body([&](const char* body) {
    SCOPED_TRACE(testing::Message() << body << " body");
    moment::util::Pcg32 rng(11);
    for (const auto& s : shapes) {
      const std::size_t m = s[0], k = s[1], n = s[2];
      SCOPED_TRACE(testing::Message() << m << "x" << k << "x" << n);
      const auto a = random_matrix(m, k, rng);
      const auto b = random_matrix(k, n, rng);
      const auto bt = random_matrix(n, k, rng);
      const auto bm = random_matrix(m, n, rng);
      for (const bool acc : {false, true}) {
        auto ref = random_matrix(m, n, rng);
        auto got = ref;
        ascending_gemm(m, k, n, a.data(), k, 1, b.data(), n, 1, ref.data(),
                       acc);
        kernels::gemm(m, k, n, a.data(), b.data(), got.data(), acc);
        expect_bitwise(ref, got, "gemm");

        auto ref2 = random_matrix(m, n, rng);
        auto got2 = ref2;
        ascending_gemm(m, k, n, a.data(), k, 1, bt.data(), 1, k, ref2.data(),
                       acc);
        kernels::gemm_bt(m, k, n, a.data(), bt.data(), got2.data(), acc);
        expect_bitwise(ref2, got2, "gemm_bt");

        auto ref3 = random_matrix(k, n, rng);
        auto got3 = ref3;
        ascending_gemm(k, m, n, a.data(), 1, k, bm.data(), n, 1, ref3.data(),
                       acc);
        kernels::gemm_at(m, k, n, a.data(), bm.data(), got3.data(), acc);
        expect_bitwise(ref3, got3, "gemm_at");
      }
    }
  });
  const std::string isa = kernels::isa();
  EXPECT_EQ(isa, kernels::detail::avx512_supported() ? "avx512"
                 : kernels::detail::avx2_supported() ? "avx2"
                                                     : "portable");
  // A pin holds on this thread until it goes out of scope.
  {
    const kernels::detail::ScopedBody pin(kernels::detail::Body::kPortable);
    EXPECT_STREQ(kernels::isa(), "portable");
  }
  EXPECT_EQ(kernels::isa(), isa);
}

// The bias + activation tails as the scalar loops they replaced, with ELU's
// expm1 from the scalar fdlibm port instead of the host libm. ReLU writes +0
// where the sum is not > 0, so -0 (a -0 input plus a -0 bias) and NaN come
// out +0: the signed-zero rule is part of the bitwise comparison.
void scalar_bias_act(std::size_t rows, std::size_t cols, const float* bias,
                     kernels::Activation act, float* x) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      float& v = x[r * cols + c];
      v += bias[c];
      if (act == kernels::Activation::kRelu && !(v > 0.0f)) v = 0.0f;
      if (act == kernels::Activation::kElu && !(v > 0.0f)) {
        v = moment::gnn::reference::expm1f_nonpos(v);
      }
    }
  }
}

void scalar_bias_act_grad(std::size_t rows, std::size_t cols,
                          const float* grad_out, const float* out,
                          kernels::Activation act, float* grad,
                          float* grad_bias) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t i = r * cols + c;
      const float go = grad_out[i], y = out[i];
      grad[i] = act == kernels::Activation::kRelu ? (y > 0.0f ? go : 0.0f)
                : act == kernels::Activation::kElu
                    ? go * (y > 0.0f ? 1.0f : y + 1.0f)
                    : go;
      grad_bias[c] += grad[i];
    }
  }
}

/// A strided sweep of every float with the sign bit set (-0 to -NaN), a
/// coarser one of the positive floats, the words fdlibm's expm1f branches
/// on, each with its neighbours, in both signs (zeros, denormals, 2^-25,
/// 0.5 ln2, 1.5 ln2, 27 ln2, the largest finite float, inf and NaNs), and
/// inputs whose result changes when one multiply-add of the routine is fused
/// into an FMA.
std::vector<float> activation_inputs() {
  std::vector<float> in;
  for (std::uint64_t w = 0x80000000u; w <= 0xffffffffu; w += 4093) {
    in.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(w)));
  }
  for (std::uint64_t w = 0; w < 0x80000000u; w += 65521) {
    in.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(w)));
  }
  const std::uint32_t words[] = {0x00000000, 0x00000001, 0x007fffff,
                                 0x00800000, 0x33000000, 0x3eb17218,
                                 0x3f851592, 0x4195b844, 0x7f7fffff,
                                 0x7f800000, 0x7f800001, 0x7fc00000,
                                 0x7fffffff};
  for (const std::uint32_t w : words) {
    for (const std::uint32_t sign : {0u, 0x80000000u}) {
      for (const std::uint32_t d : {0u, 1u, 2u}) {
        if (w >= d) in.push_back(std::bit_cast<float>(sign | (w - d)));
        in.push_back(std::bit_cast<float>(sign | (w + d)));
      }
    }
  }
  // Two witnesses each, from an exhaustive search over x <= 0, for fusing
  // r1 = 1 + hxs*p (38 inputs change, none on the sweep), 3 - r1*hfx,
  // 6 - x*t, x*e - hxs and x*(e - c) - c. Fusing any of the Q5..Q1 steps,
  // the k estimate or the k = -1 result changes no input at all.
  const std::uint32_t fma_witnesses[] = {
      0xbe42562e, 0xbe4e5d98, 0xbcda972a, 0xbd08d0e7, 0xbc4638ae,
      0xbc76698b, 0xbaffcc41, 0xbb408200, 0xbeb17dcd, 0xbeb19818};
  for (const std::uint32_t w : fma_witnesses) {
    in.push_back(std::bit_cast<float>(w));
  }
  return in;
}

/// expect_bitwise, except that where ref is a NaN any NaN will do: when two
/// NaNs meet in a sum, IEEE 754 leaves open whose payload and sign survive,
/// and the compiler may order the operands of a + either way.
void expect_bitwise_any_nan(const std::vector<float>& ref,
                            const std::vector<float>& got, const char* what) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (std::isnan(ref[i])) {
      ASSERT_TRUE(std::isnan(got[i])) << what << " at index " << i;
    } else {
      ASSERT_EQ(std::memcmp(&ref[i], &got[i], sizeof(float)), 0)
          << what << " first differs at index " << i << ": " << ref[i]
          << " vs " << got[i];
    }
  }
}

const char* act_name(kernels::Activation act) {
  return act == kernels::Activation::kRelu  ? "relu"
         : act == kernels::Activation::kElu ? "elu"
                                            : "none";
}

/// bias_act and bias_act_grad on every body against the scalar loops, bit for
/// bit: x (rows x cols) is the input, the gradient is taken at the scalar
/// output and adds into a copy of grad_bias.
void expect_tails_match_scalar(std::size_t rows, std::size_t cols,
                               const std::vector<float>& x,
                               const std::vector<float>& bias,
                               const std::vector<float>& grad_out,
                               const std::vector<float>& grad_bias,
                               kernels::Activation act) {
  std::vector<float> ref = x;
  scalar_bias_act(rows, cols, bias.data(), act, ref.data());
  std::vector<float> ref_grad(x.size()), ref_gb = grad_bias;
  scalar_bias_act_grad(rows, cols, grad_out.data(), ref.data(), act,
                       ref_grad.data(), ref_gb.data());
  for_each_body([&](const char* body) {
    SCOPED_TRACE(testing::Message() << body << " body");
    std::vector<float> got = x;
    kernels::bias_act(rows, cols, bias.data(), act, got.data());
    expect_bitwise(ref, got, "bias_act");
    std::vector<float> grad(x.size()), gb = grad_bias;
    kernels::bias_act_grad(rows, cols, grad_out.data(), ref.data(), act,
                           grad.data(), gb.data());
    expect_bitwise(ref_grad, grad, "bias_act_grad grad");
    // Each bias sums many rows, NaN ones among them.
    expect_bitwise_any_nan(ref_gb, gb, "bias_act_grad grad_bias");
  });
}

TEST(Kernels, ActivationTailsMatchScalarOracleBitwise) {
  const std::vector<float> in = activation_inputs();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    moment::util::set_compute_pool_threads(threads);
    moment::util::Pcg32 rng(19);
    // Column counts below one vector, past one, and a whole number of them.
    for (const std::size_t cols : {std::size_t{7}, std::size_t{33},
                                   std::size_t{16}}) {
      const std::size_t rows = (in.size() + cols - 1) / cols;
      std::vector<float> x(rows * cols);
      for (std::size_t i = 0; i < x.size(); ++i) x[i] = in[i % in.size()];
      const auto grad_out = random_matrix(rows, cols, rng);
      const auto grad_bias = random_matrix(1, cols, rng);
      // A -0 bias passes every input through the add unchanged; a random
      // one exercises the add.
      for (const bool zero_bias : {true, false}) {
        const std::vector<float> bias =
            zero_bias ? std::vector<float>(cols, -0.0f)
                      : random_matrix(1, cols, rng);
        for (const auto act :
             {kernels::Activation::kNone, kernels::Activation::kRelu,
              kernels::Activation::kElu}) {
          SCOPED_TRACE(testing::Message()
                       << act_name(act) << ", cols " << cols << ", "
                       << (zero_bias ? "-0" : "random") << " bias, "
                       << threads << " thread(s)");
          expect_tails_match_scalar(rows, cols, x, bias, grad_out, grad_bias,
                                    act);
        }
      }
    }
  }
  moment::util::set_compute_pool_threads(0);
}

TEST(BlockCsr, StructureMatchesEdgeList) {
  const Block block = tiny_block();
  ASSERT_EQ(block.num_dst(), 4u);
  ASSERT_EQ(block.num_src(), 7u);
  ASSERT_EQ(block.num_edges(), kTinyEdges.size());

  // Forward CSR: neighbors sorted ascending, degrees match the edge list.
  EXPECT_EQ(block.degree(0), 3);  // {4, 1, 4}
  EXPECT_EQ(block.degree(1), 3);  // {5, 4, 6}
  EXPECT_EQ(block.degree(2), 1);
  EXPECT_EQ(block.degree(3), 0);  // isolated
  EXPECT_EQ(std::vector<int>(block.src_of.begin() + block.dst_off[0],
                             block.src_of.begin() + block.dst_off[1]),
            (std::vector<int>{1, 4, 4}));
  EXPECT_EQ(std::vector<int>(block.src_of.begin() + block.dst_off[1],
                             block.src_of.begin() + block.dst_off[2]),
            (std::vector<int>{4, 5, 6}));
  EXPECT_FLOAT_EQ(block.inv_deg[0], 1.0f / 3.0f);
  EXPECT_FLOAT_EQ(block.inv_deg[3], 0.0f);

  // Reverse CSR: every CSR edge id appears exactly once, attached to its src.
  std::vector<int> seen(block.num_edges(), 0);
  for (std::size_t v = 0; v < block.num_src(); ++v) {
    for (int t = block.src_off[v]; t < block.src_off[v + 1]; ++t) {
      const int e = block.rev_edge[static_cast<std::size_t>(t)];
      EXPECT_EQ(block.src_of[static_cast<std::size_t>(e)], static_cast<int>(v));
      ++seen[static_cast<std::size_t>(e)];
    }
  }
  for (int count : seen) EXPECT_EQ(count, 1);

  // dst_of inverts the forward CSR; self maps are mutual inverses.
  for (std::size_t i = 0; i < block.num_dst(); ++i) {
    for (int t = block.dst_off[i]; t < block.dst_off[i + 1]; ++t) {
      EXPECT_EQ(block.dst_of[static_cast<std::size_t>(t)], static_cast<int>(i));
    }
    EXPECT_EQ(block.src_to_dst[static_cast<std::size_t>(block.self_src[i])],
              static_cast<int>(i));
  }
}

TEST(BlockCsr, RejectsOutOfRangeEdges) {
  std::vector<std::pair<int, int>> edges = kTinyEdges;
  edges.emplace_back(0, 99);
  EXPECT_THROW(tiny_block(edges), std::out_of_range);
  edges.back() = {0, -1};
  EXPECT_THROW(tiny_block(edges), std::out_of_range);
}

TEST(Kernels, AggregateMeanMatchesEdgeListOracle) {
  moment::util::Pcg32 rng(11);
  const std::size_t nd = 60, ns = 150, ne = 700, dim = 37;
  std::vector<std::pair<int, int>> edges =
      reference::random_edges(nd, ns, ne, rng);
  // Force a zero-degree dst: rewire every edge pointing at dst 0 to dst 1.
  for (auto& [dst, src] : edges) {
    if (dst == 0) dst = 1;
  }
  const Block block = reference::identity_block(nd, ns, edges);
  ASSERT_EQ(block.degree(0), 0);
  const auto x = random_matrix(ns, dim, rng);
  std::vector<float> ref(nd * dim);
  reference::aggregate_mean(block, x.data(), dim, ref.data());
  for_each_body([&](const char* body) {
    SCOPED_TRACE(testing::Message() << body << " body");
    std::vector<float> got(nd * dim, 1.0f);  // rows must be overwritten
    kernels::aggregate_mean(block, x.data(), dim, got.data());
    expect_bitwise(ref, got, "aggregate_mean");
    for (std::size_t c = 0; c < dim; ++c) EXPECT_EQ(got[c], 0.0f);
  });
}

TEST(Kernels, AggregateCoeffAndGradMatchOracle) {
  moment::util::Pcg32 rng(13);
  const std::size_t nd = 40, ns = 90, ne = 350, dim = 19;
  const Block block = random_block(nd, ns, ne, rng);
  const auto x = random_matrix(ns, dim, rng);
  const auto g = random_matrix(nd, dim, rng);
  std::vector<float> edge_coeff(ne), self_coeff(nd);
  for (float& v : edge_coeff) v = static_cast<float>(rng.next_double(0.1, 1.0));
  for (float& v : self_coeff) v = static_cast<float>(rng.next_double(0.1, 1.0));
  // With and without the self term (coefficients are CSR-indexed).
  for (const float* self : {self_coeff.data(), static_cast<float*>(nullptr)}) {
    std::vector<float> ref(nd * dim), gref(ns * dim);
    reference::aggregate_coeff(block, edge_coeff.data(), self, x.data(), dim,
                               ref.data());
    reference::aggregate_coeff_grad(block, edge_coeff.data(), self, g.data(),
                                    dim, gref.data());
    for_each_body([&](const char* body) {
      SCOPED_TRACE(testing::Message()
                   << body << " body, self term " << (self != nullptr));
      std::vector<float> got(nd * dim, 1.0f), ggot(ns * dim, 1.0f);
      kernels::aggregate_coeff(block, edge_coeff.data(), self, x.data(), dim,
                               got.data());
      expect_bitwise(ref, got, "aggregate_coeff");
      kernels::aggregate_coeff_grad(block, edge_coeff.data(), self, g.data(),
                                    dim, ggot.data());
      expect_bitwise(gref, ggot, "aggregate_coeff_grad");
    });
  }
}

TEST(Kernels, SageInputGradMatchesOracle) {
  moment::util::Pcg32 rng(17);
  const std::size_t nd = 45, ns = 110, ne = 400, dim = 23;
  const Block block = random_block(nd, ns, ne, rng);
  const auto grad_self = random_matrix(nd, dim, rng);
  const auto grad_mean = random_matrix(nd, dim, rng);
  std::vector<float> ref(ns * dim);
  reference::sage_input_grad(block, grad_self.data(), grad_mean.data(), dim,
                             ref.data());
  for_each_body([&](const char* body) {
    SCOPED_TRACE(testing::Message() << body << " body");
    std::vector<float> got(ns * dim, 1.0f);
    kernels::sage_input_grad(block, grad_self.data(), grad_mean.data(), dim,
                             got.data());
    expect_bitwise(ref, got, "sage_input_grad");
  });
}

TEST(Kernels, ResultsAreBitwiseThreadCountInvariant) {
  moment::util::Pcg32 rng(23);
  const std::size_t m = 130, k = 77, n = 53;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  const std::size_t nd = 70, ns = 160, ne = 900, dim = 31;
  const Block block = random_block(nd, ns, ne, rng);
  const auto x = random_matrix(ns, dim, rng);
  const auto g = random_matrix(nd, dim, rng);
  const auto g2 = random_matrix(nd, dim, rng);
  const auto coeff = random_matrix(1, ne + nd, rng);
  // GAT rows of up to 8 heads x 19: head_dim is past the 8-wide grain of the
  // attention-vector gradient pass, so that pass splits too.
  const std::size_t hd = 19;
  const auto z = random_matrix(ns, 8 * hd, rng);
  const auto go = random_matrix(nd, 8 * hd, rng);
  const auto attn = random_matrix(2, 8 * hd, rng);

  // Every output of GEMM, the four aggregations and the three attention
  // kernels (8 and 3 heads), concatenated.
  auto run_all = [&] {
    std::vector<float> all;
    auto take = [&](std::size_t size, auto&& fn) {
      std::vector<float> out(size);
      fn(out.data());
      all.insert(all.end(), out.begin(), out.end());
    };
    take(m * n, [&](float* c) {
      kernels::gemm(m, k, n, a.data(), b.data(), c, false);
    });
    take(nd * dim, [&](float* o) {
      kernels::aggregate_mean(block, x.data(), dim, o);
    });
    take(nd * dim, [&](float* o) {
      kernels::aggregate_coeff(block, coeff.data(), coeff.data() + ne, x.data(),
                               dim, o);
    });
    take(ns * dim, [&](float* o) {
      kernels::aggregate_coeff_grad(block, coeff.data(), coeff.data() + ne,
                                    g.data(), dim, o);
    });
    take(ns * dim, [&](float* o) {
      kernels::sage_input_grad(block, g.data(), g2.data(), dim, o);
    });
    for (const std::size_t heads : {std::size_t{8}, std::size_t{3}}) {
      const std::size_t od = heads * hd;
      std::vector<float> el(nd * heads), er(ns * heads), score(ne * heads),
          alpha(ne * heads), out(nd * od), grad_z(ns * od), gal(od), gar(od);
      kernels::gat_logits(block, z.data(), heads, hd, attn.data(),
                          attn.data() + od, el.data(), er.data());
      kernels::gat_attention_forward(block, el.data(), er.data(), z.data(),
                                     heads, hd, 0.2f, score.data(),
                                     alpha.data(), out.data());
      kernels::gat_attention_backward(
          block, go.data(), z.data(), heads, hd, 0.2f, attn.data(),
          attn.data() + od, score.data(), alpha.data(), grad_z.data(),
          gal.data(), gar.data());
      for (const auto* v : {&el, &er, &score, &alpha, &out, &grad_z, &gal,
                            &gar}) {
        all.insert(all.end(), v->begin(), v->end());
      }
    }
    return all;
  };
  // Row-partitioned work with a fixed per-row accumulation order: bitwise
  // equality, not just tolerance.
  for_each_body([&](const char* body) {
    SCOPED_TRACE(testing::Message() << body << " body");
    moment::util::set_compute_pool_threads(1);
    const std::vector<float> one = run_all();
    moment::util::set_compute_pool_threads(4);
    expect_bitwise(one, run_all(), "1 vs 4 pool threads");
  });
  moment::util::set_compute_pool_threads(0);  // back to auto
}

}  // namespace
