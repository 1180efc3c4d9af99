// Tests for the GNN substrate: tensor kernels, blocks, numeric gradient
// checks for both layer types, losses, optimizers, and end-to-end learning
// on the synthetic task.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "block_reference.hpp"
#include "body_cases.hpp"
#include "expm1f_reference.hpp"
#include "gat_reference.hpp"
#include "gnn/block.hpp"
#include "gnn/features.hpp"
#include "gnn/gat_layer.hpp"
#include "gnn/gcn_layer.hpp"
#include "gnn/kernels.hpp"
#include "gnn/loss.hpp"
#include "gnn/model.hpp"
#include "gnn/optimizer.hpp"
#include "gnn/sage_layer.hpp"
#include "gnn/synthetic.hpp"
#include "graph/generators.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "util/thread_pool.hpp"

namespace moment::gnn {
namespace {

using reference::for_each_body;

TEST(Tensor, MatmulAgainstHand) {
  Tensor a(2, 3), b(3, 2), out(2, 2);
  const float av[] = {1, 2, 3, 4, 5, 6};
  const float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  matmul(a, b, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 58);
  EXPECT_FLOAT_EQ(out.at(0, 1), 64);
  EXPECT_FLOAT_EQ(out.at(1, 0), 139);
  EXPECT_FLOAT_EQ(out.at(1, 1), 154);
}

TEST(Tensor, MatmulTransposedVariantsConsistent) {
  util::Pcg32 rng(1);
  Tensor a = Tensor::glorot(4, 3, rng);
  Tensor b = Tensor::glorot(3, 5, rng);
  Tensor ab(4, 5);
  matmul(a, b, ab);
  Tensor bt(5, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 5; ++j) bt.at(j, i) = b.at(i, j);
  }
  Tensor ab2(4, 5);
  matmul_bt(a, bt, ab2);
  for (std::size_t i = 0; i < ab.size(); ++i) {
    EXPECT_NEAR(ab.data()[i], ab2.data()[i], 1e-5);
  }
  Tensor at(3, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 3; ++j) at.at(j, i) = a.at(i, j);
  }
  Tensor ab3(4, 5);
  matmul_at(at, b, ab3);
  for (std::size_t i = 0; i < ab.size(); ++i) {
    EXPECT_NEAR(ab.data()[i], ab3.data()[i], 1e-5);
  }
}

TEST(Tensor, MatmulShapeChecks) {
  Tensor a(2, 3), b(4, 2), out(2, 2);
  EXPECT_THROW(matmul(a, b, out), std::invalid_argument);
}

TEST(Tensor, SoftmaxRowsSumToOne) {
  util::Pcg32 rng(2);
  Tensor x = Tensor::glorot(5, 7, rng);
  x *= 10.0f;
  softmax_rows(x);
  for (std::size_t r = 0; r < 5; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 7; ++c) {
      EXPECT_GE(x.at(r, c), 0.0f);
      sum += x.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Tensor, ReluAndBackward) {
  const float bias[] = {0.0f, 0.0f, 1.0f, -1.0f, -0.0f};
  float x[] = {-1.0f, -0.0f, 1.0f, 1.0f, 0.0f};
  kernels::bias_act(1, 5, bias, kernels::Activation::kRelu, x);
  const float want_x[] = {0.0f, 0.0f, 2.0f, 0.0f, 0.0f};
  EXPECT_EQ(std::memcmp(x, want_x, sizeof x), 0);
  // The gradient selects: a masked entry is +0 even where grad_out < 0.
  const float grad_out[] = {-1.0f, -2.0f, -3.0f, 4.0f, -5.0f};
  float grad[5], grad_bias[5] = {};
  kernels::bias_act_grad(1, 5, grad_out, x, kernels::Activation::kRelu, grad,
                         grad_bias);
  const float want_grad[] = {0.0f, 0.0f, -3.0f, 0.0f, 0.0f};
  EXPECT_EQ(std::memcmp(grad, want_grad, sizeof grad), 0);
  EXPECT_EQ(std::memcmp(grad_bias, want_grad, sizeof grad_bias), 0);
}

/// A tiny fixed block: 3 dst vertices, 5 src vertices.
const std::vector<std::pair<int, int>> kTinyEdges = {
    {0, 3}, {0, 4}, {1, 0}, {1, 3}, {2, 2}, {2, 4}, {2, 1}};

Block tiny_block() {
  return reference::block_from_edges({0, 1, 2, 3, 4}, {0, 1, 2}, kTinyEdges);
}

/// Central-difference gradient check through an arbitrary layer.
template <typename Layer>
void check_gradients(Layer& layer, const Block& block, std::size_t in_dim,
                     float tol) {
  util::Pcg32 rng(7);
  Tensor x = Tensor::glorot(block.num_src(), in_dim, rng);
  const Tensor out0 = layer.forward(block, x);
  Tensor w = Tensor::glorot(out0.rows(), out0.cols(), rng);
  auto loss_of = [&](const Tensor& input) {
    const Tensor o = layer.forward(block, input);
    double acc = 0.0;
    for (std::size_t i = 0; i < o.size(); ++i) {
      acc += static_cast<double>(o.data()[i]) * w.data()[i];
    }
    return acc;
  };

  layer.forward(block, x);  // refresh saved state
  for (Param* p : layer.parameters()) p->zero_grad();
  const Tensor grad_x = layer.backward(block, w);

  const float eps = 1e-3f;
  for (std::size_t idx : {std::size_t{0}, x.size() / 2, x.size() - 1}) {
    Tensor xp = x, xm = x;
    xp.data()[idx] += eps;
    xm.data()[idx] -= eps;
    const double num = (loss_of(xp) - loss_of(xm)) / (2.0 * eps);
    EXPECT_NEAR(grad_x.data()[idx], num, tol) << "input grad @" << idx;
  }

  layer.forward(block, x);
  for (Param* p : layer.parameters()) p->zero_grad();
  layer.backward(block, w);
  Param* p0 = layer.parameters()[0];
  for (std::size_t idx : {std::size_t{0}, p0->value.size() / 2}) {
    const float orig = p0->value.data()[idx];
    p0->value.data()[idx] = orig + eps;
    const double lp = loss_of(x);
    p0->value.data()[idx] = orig - eps;
    const double lm = loss_of(x);
    p0->value.data()[idx] = orig;
    const double num = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(p0->grad.data()[idx], num, tol) << "param grad @" << idx;
  }
}

TEST(SageLayer, ForwardShape) {
  util::Pcg32 rng(3);
  SageLayer layer(6, 4, true, rng);
  const Block b = tiny_block();
  Tensor x = Tensor::glorot(b.num_src(), 6, rng);
  const Tensor out = layer.forward(b, x);
  EXPECT_EQ(out.rows(), b.num_dst());
  EXPECT_EQ(out.cols(), 4u);
}

TEST(SageLayer, GradientCheckLinear) {
  util::Pcg32 rng(4);
  SageLayer layer(5, 3, /*apply_relu=*/false, rng);
  const Block b = tiny_block();
  check_gradients(layer, b, 5, 2e-2f);
}

TEST(SageLayer, GradientCheckRelu) {
  util::Pcg32 rng(5);
  SageLayer layer(5, 3, /*apply_relu=*/true, rng);
  const Block b = tiny_block();
  check_gradients(layer, b, 5, 2e-2f);
}

TEST(GatLayer, ForwardShapeMultiHead) {
  util::Pcg32 rng(6);
  GatLayer layer(6, 2, 3, true, rng);
  const Block b = tiny_block();
  Tensor x = Tensor::glorot(b.num_src(), 6, rng);
  const Tensor out = layer.forward(b, x);
  EXPECT_EQ(out.rows(), b.num_dst());
  EXPECT_EQ(out.cols(), 6u);  // 2 heads x 3 dims
}

TEST(GatLayer, OutputsFinite) {
  util::Pcg32 rng(8);
  GatLayer layer(4, 1, 4, false, rng);
  const Block b = tiny_block();
  Tensor x = Tensor::glorot(b.num_src(), 4, rng);
  x *= 20.0f;  // stress the softmax stability path
  const Tensor out = layer.forward(b, x);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(std::isfinite(out.data()[i]));
  }
}

TEST(GatLayer, GradientCheckSingleHead) {
  util::Pcg32 rng(9);
  GatLayer layer(4, 1, 3, /*apply_elu=*/false, rng);
  const Block b = tiny_block();
  check_gradients(layer, b, 4, 3e-2f);
}

TEST(GatLayer, GradientCheckMultiHeadElu) {
  util::Pcg32 rng(10);
  GatLayer layer(4, 2, 3, /*apply_elu=*/true, rng);
  const Block b = tiny_block();
  check_gradients(layer, b, 4, 3e-2f);
}

TEST(Loss, CrossEntropyKnownValue) {
  Tensor logits(1, 2);
  const std::int32_t labels[] = {1};
  const LossResult r = softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(r.loss, std::log(2.0f), 1e-5f);
  EXPECT_NEAR(r.grad_logits.at(0, 0), 0.5f, 1e-5f);
  EXPECT_NEAR(r.grad_logits.at(0, 1), -0.5f, 1e-5f);
}

TEST(Loss, GradientSumsToZeroPerRow) {
  util::Pcg32 rng(11);
  Tensor logits = Tensor::glorot(6, 5, rng);
  const std::vector<std::int32_t> labels = {0, 1, 2, 3, 4, 0};
  const LossResult r = softmax_cross_entropy(logits, labels);
  for (std::size_t i = 0; i < 6; ++i) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 5; ++c) sum += r.grad_logits.at(i, c);
    EXPECT_NEAR(sum, 0.0f, 1e-6f);
  }
}

TEST(Loss, AccuracyComputed) {
  Tensor logits(2, 2);
  logits.at(0, 0) = 5.0f;  // predicts 0
  logits.at(1, 1) = 5.0f;  // predicts 1
  const std::int32_t labels[] = {0, 0};
  EXPECT_NEAR(softmax_cross_entropy(logits, labels).accuracy, 0.5f, 1e-6f);
}

TEST(Loss, RejectsBadLabels) {
  Tensor logits(1, 2);
  const std::int32_t bad[] = {7};
  EXPECT_THROW(softmax_cross_entropy(logits, bad), std::out_of_range);
}

TEST(Optimizer, AdamDescendsQuadratic) {
  Param p("w", Tensor(1, 1));
  p.value.at(0, 0) = 4.0f;
  Adam opt({&p}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    p.zero_grad();
    p.grad.at(0, 0) = 2.0f * p.value.at(0, 0);
    opt.step();
  }
  EXPECT_NEAR(p.value.at(0, 0), 0.0f, 1e-2f);
}

TEST(Blocks, BuiltFromSampledSubgraph) {
  graph::RmatParams gp;
  gp.num_vertices = 512;
  gp.num_edges = 4000;
  const auto g = graph::generate_rmat(gp);
  sampling::NeighborSampler sampler(g, {5, 3});
  util::Pcg32 rng(12);
  const std::vector<graph::VertexId> seeds = {1, 2, 3, 4};
  const auto sg = sampler.sample(seeds, rng);
  const auto blocks = build_blocks(sg);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks.back().dst_ids, seeds);
  for (const auto& b : blocks) {
    for (std::size_t i = 0; i < b.dst_ids.size(); ++i) {
      EXPECT_EQ(b.src_ids[static_cast<std::size_t>(b.self_src[i])],
                b.dst_ids[i]);
    }
    for (int src : b.src_of) {
      EXPECT_LT(static_cast<std::size_t>(src), b.num_src());
    }
  }
}

/// Whole vectors compared byte for byte (inv_deg included).
template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

TEST(Blocks, CsrMatchesEdgeListOracle) {
  // Sparse RMAT graphs leave many vertices isolated: those dsts get degree
  // 0 in every hop. Seeds are distinct and shuffled, never sorted.
  for (std::uint64_t graph_seed : {5u, 6u}) {
    graph::RmatParams gp;
    gp.num_vertices = 2048;
    gp.num_edges = 3000;
    gp.seed = graph_seed;
    const auto g = graph::generate_rmat(gp);
    std::vector<graph::VertexId> isolated, pool;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      (g.degree(v) == 0 ? isolated : pool).push_back(v);
    }
    ASSERT_FALSE(isolated.empty());
    for (const std::vector<int>& fanouts :
         {std::vector<int>{25, 10}, std::vector<int>{3, 3, 3},
          std::vector<int>{1}}) {
      sampling::NeighborSampler sampler(g, fanouts);
      for (std::size_t batch : {1u, 7u, 256u}) {
        for (std::size_t threads : {1u, 4u}) {
          SCOPED_TRACE(testing::Message()
                       << "graph " << graph_seed << ", hops "
                       << fanouts.size() << ", batch " << batch << ", "
                       << threads << " threads");
          util::set_compute_pool_threads(threads);
          util::Pcg32 rng(graph_seed * 100 + batch);
          std::vector<graph::VertexId> seeds = pool;
          for (std::size_t i = seeds.size(); i > 1; --i) {
            std::swap(seeds[i - 1],
                      seeds[rng.next_below(static_cast<std::uint32_t>(i))]);
          }
          seeds.resize(batch);
          if (batch > 1) seeds[batch / 2] = isolated[batch % isolated.size()];
          if (batch > 2) {
            ASSERT_FALSE(std::is_sorted(seeds.begin(), seeds.end()));
          }

          const auto sg = sampler.sample(seeds, rng);
          const std::vector<Block> blocks = build_blocks(sg);
          ASSERT_EQ(blocks.size(), fanouts.size());
          EXPECT_EQ(blocks.front().src_ids, sg.fetch_set);
          EXPECT_EQ(blocks.back().dst_ids, seeds);
          for (std::size_t k = 0; k < blocks.size(); ++k) {
            SCOPED_TRACE(testing::Message() << "block " << k);
            const auto& layer = sg.layers[blocks.size() - 1 - k];
            const reference::BlockCsr want = reference::block_csr(
                layer.dst_vertices, reference::layer_edges(layer));
            const Block& got = blocks[k];
            EXPECT_EQ(got.src_ids, want.src_ids);
            EXPECT_EQ(got.dst_ids, want.dst_ids);
            EXPECT_TRUE(same_bytes(got.dst_off, want.dst_off));
            EXPECT_TRUE(same_bytes(got.src_of, want.src_of));
            EXPECT_TRUE(same_bytes(got.inv_deg, want.inv_deg));
            EXPECT_TRUE(same_bytes(got.src_off, want.src_off));
            EXPECT_TRUE(same_bytes(got.rev_edge, want.rev_edge));
            EXPECT_TRUE(same_bytes(got.dst_of, want.dst_of));
            EXPECT_TRUE(same_bytes(got.src_to_dst, want.src_to_dst));
            EXPECT_TRUE(same_bytes(got.self_src, want.self_src));
          }
        }
      }
    }
  }
  util::set_compute_pool_threads(0);
}

TEST(Blocks, RejectsRepeatedSeed) {
  // A repeated dst would leave its second copy without edges or a self row
  // of its own, so the builder refuses it. The sampler itself accepts
  // repeats (the traced simulator reads only the fetch set).
  graph::RmatParams gp;
  gp.num_vertices = 512;
  gp.num_edges = 4000;
  const auto g = graph::generate_rmat(gp);
  sampling::NeighborSampler sampler(g, {4, 4});
  util::Pcg32 rng(14);
  const std::vector<graph::VertexId> seeds = {9, 40, 9};
  const auto sg = sampler.sample(seeds, rng);
  EXPECT_EQ(sg.layers[0].dst_vertices, seeds);
  EXPECT_TRUE(std::binary_search(sg.fetch_set.begin(), sg.fetch_set.end(), 9u));
  EXPECT_THROW(build_blocks(sg), std::invalid_argument);

  const std::size_t off[] = {0, 1, 2};
  EXPECT_THROW(make_block({0, 1, 2}, {1, 1}, off, {0, 2}),
               std::invalid_argument);
}

TEST(Blocks, MakeBlockRejectsMalformedInput) {
  const std::size_t off[] = {0, 1, 2};
  EXPECT_NO_THROW(make_block({0, 1, 2}, {1, 2}, off, {0, 2}));
  // A dst outside the src set has no self row.
  EXPECT_THROW(make_block({0, 1, 2}, {1, 3}, off, {0, 2}), std::out_of_range);
  EXPECT_THROW(make_block({0, 1, 2}, {1, 2}, off, {0, 3}), std::out_of_range);
  EXPECT_THROW(make_block({0, 2, 1}, {1, 2}, off, {0, 2}),
               std::invalid_argument);
  EXPECT_THROW(make_block({0, 1, 1, 2}, {1, 2}, off, {0, 2}),
               std::invalid_argument);
  const std::size_t past_end[] = {0, 1, 3};
  EXPECT_THROW(make_block({0, 1, 2}, {1, 2}, past_end, {0, 2}),
               std::invalid_argument);
  const std::size_t descending[] = {0, 2, 1};
  EXPECT_THROW(make_block({0, 1, 2}, {1, 2}, descending, {0}),
               std::invalid_argument);
}

TEST(Model, ForwardProducesSeedLogits) {
  graph::RmatParams gp;
  gp.num_vertices = 512;
  gp.num_edges = 4000;
  const auto g = graph::generate_rmat(gp);
  sampling::NeighborSampler sampler(g, {4, 4});
  util::Pcg32 rng(13);
  const std::vector<graph::VertexId> seeds = {9, 10, 11};
  const auto blocks = build_blocks(sampler.sample(seeds, rng));

  for (ModelKind kind : {ModelKind::kGraphSage, ModelKind::kGat}) {
    ModelConfig cfg;
    cfg.kind = kind;
    cfg.in_dim = 8;
    cfg.hidden_dim = 6;
    cfg.num_classes = 4;
    cfg.gat_heads = 2;
    GnnModel model(cfg);
    Tensor x0 = Tensor::glorot(blocks[0].num_src(), 8, rng);
    const Tensor logits = model.forward(blocks, x0);
    EXPECT_EQ(logits.rows(), seeds.size());
    EXPECT_EQ(logits.cols(), 4u);
    EXPECT_GT(model.num_parameters(), 0u);
  }
}

std::vector<Block> sample_two_hop_blocks() {
  graph::RmatParams gp;
  gp.num_vertices = 512;
  gp.num_edges = 4000;
  const auto g = graph::generate_rmat(gp);
  sampling::NeighborSampler sampler(g, {4, 4});
  util::Pcg32 rng(13);
  const std::vector<graph::VertexId> seeds = {9, 10, 11, 40, 41};
  return build_blocks(sampler.sample(seeds, rng));
}

std::vector<float> flat_grads(const std::vector<Param*>& params) {
  std::vector<float> out;
  for (const Param* p : params) {
    out.insert(out.end(), p->grad.data(), p->grad.data() + p->grad.size());
  }
  return out;
}

/// Two standalone layers chained by hand, every layer backpropagated with
/// input_grad=true: the reference for GnnModel's layer-0 skip. Checks the
/// model's logits bitwise (same construction order, same rng stream) and
/// returns the parameter gradients in GnnModel::parameters() order. Also
/// checks that layer 0 with input_grad=false returns an empty tensor and
/// leaves the same parameter gradients.
template <typename Layer>
std::vector<float> reference_param_grads(Layer& l0, Layer& l1,
                                         const std::vector<Block>& blocks,
                                         const Tensor& x0, const Tensor& grad,
                                         const Tensor& model_logits) {
  const Block& b0 = blocks[0];
  const Block& b1 = blocks[1];
  std::vector<std::size_t> rows;  // b1.src_ids[i] == b0.dst_ids[rows[i]]
  for (VertexId v : b1.src_ids) {
    const auto it = std::lower_bound(b0.dst_ids.begin(), b0.dst_ids.end(), v);
    rows.push_back(static_cast<std::size_t>(it - b0.dst_ids.begin()));
  }
  const Tensor h = l0.forward(b0, x0);
  Tensor h1(b1.num_src(), h.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::copy(h.row(rows[i]).begin(), h.row(rows[i]).end(),
              h1.row(i).begin());
  }
  const Tensor logits = l1.forward(b1, h1);
  EXPECT_EQ(std::memcmp(logits.data(), model_logits.data(),
                        logits.size() * sizeof(float)),
            0);

  l0.zero_grad();
  l1.zero_grad();
  const Tensor g1 = l1.backward(b1, grad, true);
  Tensor g0(b0.num_dst(), g1.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::copy(g1.row(i).begin(), g1.row(i).end(), g0.row(rows[i]).begin());
  }
  EXPECT_EQ(l0.backward(b0, g0, true).rows(), b0.num_src());
  std::vector<Param*> params = l0.parameters();
  for (Param* p : l1.parameters()) params.push_back(p);
  const std::vector<float> with_input_grad = flat_grads(params);

  l0.zero_grad();
  l0.forward(b0, x0);
  EXPECT_TRUE(l0.backward(b0, g0, false).empty());
  const std::vector<float> l0_skipped = flat_grads(l0.parameters());
  EXPECT_EQ(std::memcmp(l0_skipped.data(), with_input_grad.data(),
                        l0_skipped.size() * sizeof(float)),
            0);
  return with_input_grad;
}

TEST(GnnModel, FirstLayerInputGradSkipKeepsParamGrads) {
  const std::vector<Block> blocks = sample_two_hop_blocks();
  for (ModelKind kind :
       {ModelKind::kGraphSage, ModelKind::kGcn, ModelKind::kGat}) {
    SCOPED_TRACE(static_cast<int>(kind));
    ModelConfig cfg;
    cfg.kind = kind;
    cfg.in_dim = 8;
    cfg.hidden_dim = 6;
    cfg.num_classes = 4;
    cfg.gat_heads = 2;
    cfg.seed = 5;
    GnnModel model(cfg);
    util::Pcg32 rng(17);
    const Tensor x0 = Tensor::glorot(blocks[0].num_src(), cfg.in_dim, rng);
    const Tensor logits = model.forward(blocks, x0);
    const Tensor grad = Tensor::glorot(logits.rows(), logits.cols(), rng);
    model.zero_grad();
    model.backward(blocks, grad);
    const std::vector<float> got = flat_grads(model.parameters());

    // The layers GnnModel builds for `cfg`, from the same rng stream.
    util::Pcg32 mrng(cfg.seed, 0x4d4f444c);
    std::vector<float> want;
    if (kind == ModelKind::kGraphSage) {
      SageLayer l0(8, 6, true, mrng), l1(6, 4, false, mrng);
      want = reference_param_grads(l0, l1, blocks, x0, grad, logits);
    } else if (kind == ModelKind::kGcn) {
      GcnLayer l0(8, 6, true, mrng), l1(6, 4, false, mrng);
      want = reference_param_grads(l0, l1, blocks, x0, grad, logits);
    } else {
      GatLayer l0(8, 2, 6, true, mrng), l1(12, 1, 4, false, mrng);
      want = reference_param_grads(l0, l1, blocks, x0, grad, logits);
    }
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0);
  }
}

TEST(GnnModel, BackwardRejectsBrokenBlockChaining) {
  const std::vector<Block> blocks = sample_two_hop_blocks();
  ASSERT_EQ(blocks[0].dst_ids, blocks[1].src_ids);
  ModelConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden_dim = 6;
  cfg.num_classes = 4;
  GnnModel model(cfg);
  util::Pcg32 rng(19);
  const Tensor x0 = Tensor::glorot(blocks[0].num_src(), cfg.in_dim, rng);
  const Tensor logits = model.forward(blocks, x0);
  const Tensor grad = Tensor::glorot(logits.rows(), logits.cols(), rng);

  // blocks[1]'s last src vertex is missing from blocks[0]'s dsts: once
  // dropped (the scatter would write past the end of its output) and once
  // replaced by another id (it would land on the wrong row).
  for (const bool drop : {true, false}) {
    std::vector<Block> broken = blocks;
    if (drop) {
      broken[0].dst_ids.pop_back();
    } else {
      broken[0].dst_ids.back() += 1;
    }
    try {
      model.backward(broken, grad);
      ADD_FAILURE() << "no exception, drop=" << drop;
    } catch (const std::logic_error& e) {
      EXPECT_STREQ(e.what(), "GnnModel: block chaining broken");
    }
  }
  model.backward(blocks, grad);  // the well-formed pair still works
}

// ---- Per-head GAT reference -------------------------------------------------
// The GAT layer as it was before the all-head kernels: the shared per-head
// attention reference (gat_reference.hpp) between the same GEMMs, bias,
// ELU and their gradients. The bit-level contract GatLayer must keep.

struct GatReference {
  Tensor out, grad_x;
  std::vector<float> param_grads;  // w, attn_l, attn_r, bias (flattened)
};

GatReference gat_per_head_reference(const Block& block, const Tensor& x,
                                    const Tensor& grad_out,
                                    std::vector<Param> params,
                                    std::size_t heads, std::size_t hd,
                                    bool elu) {
  const std::size_t nd = block.num_dst(), ns = block.num_src(),
                    ne = block.num_edges(), od = heads * hd;
  Param &w = params[0], &attn_l = params[1], &attn_r = params[2],
        &bias = params[3];

  Tensor z(ns, od);
  matmul(x, w.value, z);
  std::vector<float> score(ne * heads, 0.0f), alpha(ne * heads, 0.0f);
  Tensor pre(nd, od);
  reference::gat_attention_forward(block, z.data(), heads, hd,
                                   attn_l.value.data(), attn_r.value.data(),
                                   GatLayer::kLeakySlope, score.data(),
                                   alpha.data(), pre.data());
  for (std::size_t i = 0; i < pre.size(); ++i) {
    const float v = pre.data()[i] + bias.value.data()[i % od];
    pre.data()[i] = !elu || v > 0.0f ? v : reference::expm1f_nonpos(v);
  }

  Tensor grad = grad_out;
  if (elu) {
    for (std::size_t i = 0; i < grad.size(); ++i) {
      const float out = pre.data()[i];
      grad.data()[i] *= out > 0.0f ? 1.0f : out + 1.0f;
    }
  }
  for (std::size_t i = 0; i < grad.size(); ++i) {
    bias.grad.data()[i % od] += grad.data()[i];
  }
  Tensor grad_z(ns, od);
  reference::gat_attention_backward(
      block, grad.data(), z.data(), heads, hd, GatLayer::kLeakySlope,
      attn_l.value.data(), attn_r.value.data(), score.data(), alpha.data(),
      grad_z.data(), attn_l.grad.data(), attn_r.grad.data());
  matmul_at(x, grad_z, w.grad, /*accumulate=*/true);
  GatReference ref{pre, Tensor(ns, x.cols()), {}};
  matmul_bt(grad_z, w.value, ref.grad_x);
  for (const Param& p : params) {
    ref.param_grads.insert(ref.param_grads.end(), p.grad.data(),
                           p.grad.data() + p.grad.size());
  }
  return ref;
}

/// 150 src rows, 48 dst rows (every third src, so self rows are spread out),
/// ~5 random in-edges per dst. dst 5 has no in-edges and src 149 no
/// out-edges, so both zero-gradient skips are exercised.
Block gat_reference_block() {
  util::Pcg32 rng(23);
  std::vector<VertexId> src_ids, dst_ids;
  std::vector<std::pair<int, int>> edges;
  for (VertexId v = 0; v < 150; ++v) src_ids.push_back(v);
  for (int i = 0; i < 48; ++i) {
    dst_ids.push_back(static_cast<VertexId>(3 * i + 1));
  }
  for (int i = 0; i < 48; ++i) {
    if (i == 5) continue;
    const int deg = 1 + static_cast<int>(rng.next_below(9));
    for (int k = 0; k < deg; ++k) {
      edges.emplace_back(i, static_cast<int>(rng.next_below(149)));
    }
  }
  return reference::block_from_edges(std::move(src_ids), std::move(dst_ids),
                                     edges);
}

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

TEST(GatLayer, MatchesPerHeadReferenceBitwise) {
  const Block block = gat_reference_block();
  constexpr std::size_t kInDim = 10;
  for_each_body([&](const char* body) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      util::set_compute_pool_threads(threads);
      for (const std::size_t heads : {1u, 3u, 4u, 8u, 9u, 16u}) {
        for (const std::size_t hd : {1u, 7u, 64u}) {
          for (const bool elu : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << body << " body, threads=" << threads
                         << " heads=" << heads << " head_dim=" << hd
                         << " elu=" << elu);
            util::Pcg32 rng(31 + heads * 7 + hd);
            GatLayer layer(kInDim, heads, hd, elu, rng);
            Tensor x = Tensor::glorot(block.num_src(), kInDim, rng);
            x *= 3.0f;
            for (Param* p : layer.parameters()) {
              if (p->name == "bias") {
                p->value = Tensor::glorot(1, heads * hd, rng);
              }
              p->grad = Tensor::glorot(p->value.rows(), p->value.cols(), rng);
            }
            const Tensor grad_out =
                Tensor::glorot(block.num_dst(), heads * hd, rng);
            std::vector<Param> params;
            for (Param* p : layer.parameters()) params.push_back(*p);

            const GatReference ref = gat_per_head_reference(
                block, x, grad_out, params, heads, hd, elu);
            const Tensor out = layer.forward(block, x);
            const Tensor grad_x = layer.backward(block, grad_out);
            ASSERT_EQ(out.size(), ref.out.size());
            EXPECT_TRUE(same_bits(out.data(), ref.out.data(), out.size()));
            ASSERT_EQ(grad_x.size(), ref.grad_x.size());
            EXPECT_TRUE(
                same_bits(grad_x.data(), ref.grad_x.data(), grad_x.size()));
            const std::vector<float> got = flat_grads(layer.parameters());
            ASSERT_EQ(got.size(), ref.param_grads.size());
            std::size_t at = 0;
            for (const Param* p : layer.parameters()) {
              EXPECT_TRUE(same_bits(got.data() + at,
                                    ref.param_grads.data() + at,
                                    p->grad.size()))
                  << p->name;
              at += p->grad.size();
            }
          }
        }
      }
    }
  });
  util::set_compute_pool_threads(0);
}

// ---- SAGE/GCN reference -----------------------------------------------------
// Each layer's GEMMs and aggregation kernels with the bias + ReLU tail and its
// gradient written out as loops. The bit-level contract of SageLayer and
// GcnLayer.

struct LayerReference {
  Tensor out, grad_x;
  std::vector<float> param_grads;  // parameters() order, flattened
};

/// out = act(pre + bias) in place, act = ReLU (x > 0 ? x : 0) or identity.
void reference_bias_act(Tensor& pre, const Tensor& bias, bool relu) {
  for (std::size_t r = 0; r < pre.rows(); ++r) {
    for (std::size_t c = 0; c < pre.cols(); ++c) {
      const float v = pre.at(r, c) + bias.at(0, c);
      pre.at(r, c) = relu && !(v > 0.0f) ? 0.0f : v;
    }
  }
}

/// Gradient of reference_bias_act given its output; adds the column sums,
/// rows ascending, into grad_bias.
Tensor reference_bias_act_grad(const Tensor& out, const Tensor& grad_out,
                               bool relu, Tensor& grad_bias) {
  Tensor grad = grad_out;
  for (std::size_t r = 0; r < grad.rows(); ++r) {
    for (std::size_t c = 0; c < grad.cols(); ++c) {
      if (relu && !(out.at(r, c) > 0.0f)) grad.at(r, c) = 0.0f;
      grad_bias.at(0, c) += grad.at(r, c);
    }
  }
  return grad;
}

void append_grads(const std::vector<Param>& params, LayerReference& ref) {
  for (const Param& p : params) {
    ref.param_grads.insert(ref.param_grads.end(), p.grad.data(),
                           p.grad.data() + p.grad.size());
  }
}

LayerReference sage_reference(const Block& block, const Tensor& x,
                              const Tensor& grad_out,
                              std::vector<Param> params, bool relu) {
  const std::size_t nd = block.num_dst(), in = x.cols();
  Param &w_self = params[0], &w_neigh = params[1], &bias = params[2];
  Tensor x_dst(nd, in), mean(nd, in);
  for (std::size_t i = 0; i < nd; ++i) {
    const auto self = x.row(static_cast<std::size_t>(block.self_src[i]));
    std::copy(self.begin(), self.end(), x_dst.row(i).begin());
  }
  kernels::aggregate_mean(block, x.data(), in, mean.data());
  Tensor out(nd, w_self.value.cols());
  matmul(x_dst, w_self.value, out);
  matmul(mean, w_neigh.value, out, /*accumulate=*/true);
  reference_bias_act(out, bias.value, relu);

  const Tensor grad = reference_bias_act_grad(out, grad_out, relu, bias.grad);
  matmul_at(x_dst, grad, w_self.grad, /*accumulate=*/true);
  matmul_at(mean, grad, w_neigh.grad, /*accumulate=*/true);
  Tensor grad_self(nd, in), grad_mean(nd, in);
  matmul_bt(grad, w_self.value, grad_self);
  matmul_bt(grad, w_neigh.value, grad_mean);
  LayerReference ref{out, Tensor(block.num_src(), in), {}};
  kernels::sage_input_grad(block, grad_self.data(), grad_mean.data(), in,
                           ref.grad_x.data());
  append_grads(params, ref);
  return ref;
}

LayerReference gcn_reference(const Block& block, const Tensor& x,
                             const Tensor& grad_out, std::vector<Param> params,
                             bool relu) {
  const std::size_t nd = block.num_dst(), ne = block.num_edges(), in = x.cols();
  Param &w = params[0], &bias = params[1];
  // Symmetric normalisation 1/sqrt(d_dst * d_src) with in-block degrees + 1;
  // frontier-only sources count as degree 1. Self coefficients follow the
  // edge coefficients.
  std::vector<float> coeff(ne + nd);
  for (std::size_t i = 0; i < nd; ++i) {
    const double di = 1.0 + static_cast<double>(block.degree(i));
    for (int t = block.dst_off[i]; t < block.dst_off[i + 1]; ++t) {
      const int sd =
          block.src_to_dst[static_cast<std::size_t>(block.src_of[t])];
      const double ds =
          sd >= 0 ? 1.0 + static_cast<double>(
                              block.degree(static_cast<std::size_t>(sd)))
                  : 1.0;
      coeff[static_cast<std::size_t>(t)] =
          static_cast<float>(1.0 / std::sqrt(di * ds));
    }
    coeff[ne + i] = static_cast<float>(1.0 / di);
  }
  Tensor agg(nd, in);
  kernels::aggregate_coeff(block, coeff.data(), coeff.data() + ne, x.data(), in,
                           agg.data());
  Tensor out(nd, w.value.cols());
  matmul(agg, w.value, out);
  reference_bias_act(out, bias.value, relu);

  const Tensor grad = reference_bias_act_grad(out, grad_out, relu, bias.grad);
  matmul_at(agg, grad, w.grad, /*accumulate=*/true);
  Tensor grad_agg(nd, in);
  matmul_bt(grad, w.value, grad_agg);
  LayerReference ref{out, Tensor(block.num_src(), in), {}};
  kernels::aggregate_coeff_grad(block, coeff.data(), coeff.data() + ne,
                                grad_agg.data(), in, ref.grad_x.data());
  append_grads(params, ref);
  return ref;
}

/// Runs `Layer` against `reference` on gat_reference_block() on every body,
/// ReLU on and off, with 1 and 4 pool threads, and compares every output
/// bit. Output column 0 is a dead ReLU unit (bias -100, negative upstream
/// gradient) whose bias gradient starts at -0: it stays -0 only if the masked
/// gradient is -0, so a ReLU gradient that multiplies by 0 instead of
/// selecting shows.
template <class Layer, class Reference>
void expect_layer_matches_reference(Reference reference) {
  const Block block = gat_reference_block();
  constexpr std::size_t kInDim = 10, kOutDim = 9;
  for_each_body([&](const char* body) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      util::set_compute_pool_threads(threads);
      for (const bool relu : {false, true}) {
        SCOPED_TRACE(::testing::Message() << body << " body, threads="
                                          << threads << " relu=" << relu);
        util::Pcg32 rng(relu ? 57 : 53);
        Layer layer(kInDim, kOutDim, relu, rng);
        Tensor x = Tensor::glorot(block.num_src(), kInDim, rng);
        x *= 3.0f;
        for (Param* p : layer.parameters()) {
          if (p->name == "bias") {
            p->value = Tensor::glorot(1, kOutDim, rng);
            p->value.at(0, 0) = -100.0f;
            p->grad = Tensor::glorot(1, kOutDim, rng);
            p->grad.at(0, 0) = -0.0f;
          } else {
            p->grad = Tensor::glorot(p->value.rows(), p->value.cols(), rng);
          }
        }
        Tensor grad_out = Tensor::glorot(block.num_dst(), kOutDim, rng);
        for (std::size_t r = 0; r < grad_out.rows(); ++r) {
          grad_out.at(r, 0) = -1.0f - std::fabs(grad_out.at(r, 0));
        }
        std::vector<Param> params;
        for (Param* p : layer.parameters()) params.push_back(*p);

        const LayerReference ref = reference(block, x, grad_out, params, relu);
        const Tensor out = layer.forward(block, x);
        const Tensor grad_x = layer.backward(block, grad_out);
        ASSERT_EQ(out.size(), ref.out.size());
        EXPECT_TRUE(same_bits(out.data(), ref.out.data(), out.size()));
        ASSERT_EQ(grad_x.size(), ref.grad_x.size());
        EXPECT_TRUE(
            same_bits(grad_x.data(), ref.grad_x.data(), grad_x.size()));
        const std::vector<float> got = flat_grads(layer.parameters());
        ASSERT_EQ(got.size(), ref.param_grads.size());
        std::size_t at = 0;
        for (const Param* p : layer.parameters()) {
          EXPECT_TRUE(same_bits(got.data() + at, ref.param_grads.data() + at,
                                p->grad.size()))
              << p->name;
          at += p->grad.size();
        }
      }
    }
  });
  util::set_compute_pool_threads(0);
}

TEST(SageLayer, MatchesReferenceBitwise) {
  expect_layer_matches_reference<SageLayer>(sage_reference);
}

TEST(GcnLayer, MatchesReferenceBitwise) {
  expect_layer_matches_reference<GcnLayer>(gcn_reference);
}

/// tiny_block() with one more src row and two more edges: same dst count,
/// so a gradient for one block has the shape of the other's.
Block wider_tiny_block() {
  std::vector<std::pair<int, int>> edges = kTinyEdges;
  edges.emplace_back(0, 5);
  edges.emplace_back(2, 5);
  return reference::block_from_edges({0, 1, 2, 3, 4, 5}, {0, 1, 2}, edges);
}

TEST(GatLayer, BackwardRejectsBlockOfOtherForward) {
  util::Pcg32 rng(41);
  GatLayer layer(4, 2, 3, true, rng);
  const Block small = tiny_block(), wide = wider_tiny_block();
  const Tensor x = Tensor::glorot(wide.num_src(), 4, rng);
  const Tensor out = layer.forward(wide, x);
  try {
    layer.backward(small, out);
    ADD_FAILURE() << "no exception";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(),
                 "GatLayer::backward: block differs from the last forward's");
  }
  EXPECT_EQ(layer.backward(wide, out).rows(), wide.num_src());
}

TEST(GcnLayer, BackwardRejectsBlockOfOtherForward) {
  util::Pcg32 rng(43);
  GcnLayer layer(4, 3, true, rng);
  const Block small = tiny_block(), wide = wider_tiny_block();
  const Tensor x = Tensor::glorot(small.num_src(), 4, rng);
  const Tensor out = layer.forward(small, x);
  try {
    layer.backward(wide, out);
    ADD_FAILURE() << "no exception";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(),
                 "GcnLayer::backward: block differs from the last forward's");
  }
  EXPECT_EQ(layer.backward(small, out).rows(), small.num_src());
}

/// backward writes its gradient over the forward's saved output, so a second
/// backward without a forward must throw, not read a gradient as an output.
void expect_second_backward_throws(GnnLayer& layer, std::size_t in_dim) {
  const Block block = tiny_block();
  util::Pcg32 rng(97);
  const Tensor x = Tensor::glorot(block.num_src(), in_dim, rng);
  const Tensor grad = Tensor::glorot(block.num_dst(), layer.out_dim(), rng);
  layer.forward(block, x);
  layer.backward(block, grad, true);
  EXPECT_THROW(layer.backward(block, grad, true), std::logic_error);
  layer.forward(block, x);
  EXPECT_EQ(layer.backward(block, grad, true).rows(), block.num_src());
}

TEST(GatLayer, SecondBackwardNeedsItsOwnForward) {
  util::Pcg32 rng(101);
  GatLayer layer(4, 2, 3, true, rng);
  expect_second_backward_throws(layer, 4);
}

TEST(SageLayer, SecondBackwardNeedsItsOwnForward) {
  util::Pcg32 rng(103);
  SageLayer layer(4, 3, true, rng);
  expect_second_backward_throws(layer, 4);
}

TEST(GcnLayer, SecondBackwardNeedsItsOwnForward) {
  util::Pcg32 rng(107);
  GcnLayer layer(4, 3, true, rng);
  expect_second_backward_throws(layer, 4);
}

// ---- Reused workspaces ------------------------------------------------------
// Layers and the model reshape their buffers in place, so a buffer holds the
// last, larger step's values until a kernel overwrites it. Running a large
// block, a small one and the large one again through one layer (or model)
// and comparing every step with a freshly built one catches any kernel that
// relied on a zero-filled output.

/// num_dst dsts (src rows 2i+1) over num_src srcs, 1-8 random in-edges each,
/// except dst 3, which has none.
Block random_block(int num_src, int num_dst, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  std::vector<VertexId> src_ids, dst_ids;
  std::vector<std::pair<int, int>> edges;
  for (int v = 0; v < num_src; ++v) {
    src_ids.push_back(static_cast<VertexId>(v));
  }
  for (int i = 0; i < num_dst; ++i) {
    dst_ids.push_back(static_cast<VertexId>(2 * i + 1));
  }
  for (int i = 0; i < num_dst; ++i) {
    if (i == 3) continue;
    const int deg = 1 + static_cast<int>(rng.next_below(8));
    for (int k = 0; k < deg; ++k) {
      edges.emplace_back(i, static_cast<int>(rng.next_below(
                                static_cast<std::uint32_t>(num_src))));
    }
  }
  return reference::block_from_edges(std::move(src_ids), std::move(dst_ids),
                                     edges);
}

/// One forward + backward from zeroed parameter gradients: the output, the
/// input gradient and the parameter gradients, flattened in that order.
std::vector<float> layer_step(GnnLayer& layer, const Block& block,
                              std::size_t in_dim) {
  util::Pcg32 rng(block.num_src());
  const Tensor x = Tensor::glorot(block.num_src(), in_dim, rng);
  layer.zero_grad();
  std::vector<float> bits;
  const Tensor& out = layer.forward(block, x);
  bits.insert(bits.end(), out.data(), out.data() + out.size());
  const Tensor grad_out = Tensor::glorot(out.rows(), out.cols(), rng);
  const Tensor& grad_x = layer.backward(block, grad_out, true);
  bits.insert(bits.end(), grad_x.data(), grad_x.data() + grad_x.size());
  const std::vector<float> grads = flat_grads(layer.parameters());
  bits.insert(bits.end(), grads.begin(), grads.end());
  return bits;
}

template <typename Make>
void expect_reused_layer_matches_fresh(Make make, std::size_t in_dim) {
  const Block large = random_block(300, 100, 61);
  const Block small = random_block(120, 40, 67);
  for_each_body([&](const char* body) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      util::set_compute_pool_threads(threads);
      const auto reused = make();
      int step = 0;
      for (const Block* b : {&large, &small, &large}) {
        SCOPED_TRACE(::testing::Message() << body << " body, threads="
                                          << threads << " step " << step++);
        const std::vector<float> got = layer_step(*reused, *b, in_dim);
        const std::vector<float> want = layer_step(*make(), *b, in_dim);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_TRUE(same_bits(got.data(), want.data(), got.size()));
      }
    }
  });
  util::set_compute_pool_threads(0);
}

TEST(GatLayer, ReusedWorkspacesMatchFreshLayerBitwise) {
  for (const bool elu : {false, true}) {
    SCOPED_TRACE(elu ? "elu" : "no activation");
    expect_reused_layer_matches_fresh(
        [&] {
          util::Pcg32 rng(73);
          return std::make_unique<GatLayer>(12, 8, 8, elu, rng);
        },
        12);
  }
}

TEST(SageLayer, ReusedWorkspacesMatchFreshLayerBitwise) {
  for (const bool relu : {false, true}) {
    SCOPED_TRACE(relu ? "relu" : "no activation");
    expect_reused_layer_matches_fresh(
        [&] {
          util::Pcg32 rng(79);
          return std::make_unique<SageLayer>(12, 10, relu, rng);
        },
        12);
  }
}

TEST(GcnLayer, ReusedWorkspacesMatchFreshLayerBitwise) {
  for (const bool relu : {false, true}) {
    SCOPED_TRACE(relu ? "relu" : "no activation");
    expect_reused_layer_matches_fresh(
        [&] {
          util::Pcg32 rng(83);
          return std::make_unique<GcnLayer>(12, 10, relu, rng);
        },
        12);
  }
}

TEST(GnnModel, ReusedWorkspacesMatchFreshModelBitwise) {
  graph::RmatParams gp;
  gp.num_vertices = 512;
  gp.num_edges = 4000;
  const auto g = graph::generate_rmat(gp);
  sampling::NeighborSampler sampler(g, {4, 4});
  util::Pcg32 srng(89);
  std::vector<graph::VertexId> many, few = {5, 77, 300};
  for (graph::VertexId v = 0; v < 512; v += 16) many.push_back(v);
  const std::vector<Block> large = build_blocks(sampler.sample(many, srng));
  const std::vector<Block> small = build_blocks(sampler.sample(few, srng));
  std::vector<std::int32_t> labels(512);
  for (std::size_t v = 0; v < labels.size(); ++v) {
    labels[v] = static_cast<std::int32_t>(v % 4);
  }
  // The loss, the accuracy and every parameter gradient of one train_step.
  auto step = [&](GnnModel& model, const std::vector<Block>& blocks) {
    util::Pcg32 rng(blocks[0].num_src());
    const Tensor x0 = Tensor::glorot(blocks[0].num_src(), 8, rng);
    const LossResult& loss = train_step(model, blocks, x0, labels);
    std::vector<float> bits = flat_grads(model.parameters());
    bits.push_back(loss.loss);
    bits.push_back(loss.accuracy);
    return bits;
  };
  for (ModelKind kind :
       {ModelKind::kGraphSage, ModelKind::kGcn, ModelKind::kGat}) {
    SCOPED_TRACE(static_cast<int>(kind));
    ModelConfig cfg;
    cfg.kind = kind;
    cfg.in_dim = 8;
    cfg.hidden_dim = 6;
    cfg.num_classes = 4;
    cfg.gat_heads = 3;
    GnnModel reused(cfg);
    for (const auto* blocks : {&large, &small, &large}) {
      GnnModel fresh(cfg);
      const std::vector<float> got = step(reused, *blocks);
      const std::vector<float> want = step(fresh, *blocks);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_TRUE(same_bits(got.data(), want.data(), got.size()));
    }
  }
}

TEST(Features, AsyncProtocolFallsBackToSync) {
  // InMemoryFeatures uses the base-class fallback: gather_begin completes
  // the gather immediately and reports a synchronous ticket.
  Tensor feats(16, 4);
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      feats.at(r, c) = static_cast<float>(r * 10 + c);
    }
  }
  InMemoryFeatures provider(feats);
  const std::vector<graph::VertexId> vs = {3, 0, 15, 7};
  Tensor sync_out(vs.size(), 4), async_out(vs.size(), 4);
  provider.gather(vs, sync_out);
  const auto ticket = provider.gather_begin(vs, async_out);
  EXPECT_EQ(ticket, FeatureProvider::kSyncTicket);
  // Already filled before wait — the engine may read it right away.
  for (std::size_t i = 0; i < vs.size(); ++i) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_FLOAT_EQ(async_out.at(i, c), sync_out.at(i, c));
    }
  }
  provider.gather_wait(ticket);  // no-op
  EXPECT_FLOAT_EQ(async_out.at(0, 0), 30.0f);
}

TEST(Model, ConstParametersViewMatchesMutable) {
  ModelConfig cfg;
  cfg.in_dim = 8;
  cfg.hidden_dim = 6;
  cfg.num_classes = 4;
  GnnModel model(cfg);
  const GnnModel& cmodel = model;
  const auto mut = model.parameters();
  const auto view = cmodel.parameters();
  ASSERT_EQ(mut.size(), view.size());
  for (std::size_t i = 0; i < mut.size(); ++i) {
    EXPECT_EQ(mut[i], view[i]);  // same underlying Param objects
  }
  EXPECT_EQ(model.num_parameters(), cmodel.num_parameters());
}

TEST(Synthetic, TaskIsLearnable) {
  // End-to-end: training on the synthetic task must beat chance clearly.
  graph::RmatParams gp;
  gp.num_vertices = 1024;
  gp.num_edges = 8000;
  const auto g = graph::generate_rmat(gp);
  const auto task = make_synthetic_task(g, 4, 16, 0.3, 21);
  InMemoryFeatures features(task.features);

  ModelConfig cfg;
  cfg.kind = ModelKind::kGraphSage;
  cfg.in_dim = 16;
  cfg.hidden_dim = 16;
  cfg.num_classes = 4;
  GnnModel model(cfg);
  Adam opt(model.parameters(), 0.01f);

  sampling::NeighborSampler sampler(g, {5, 5});
  auto train = sampling::select_train_vertices(g, 0.2, 3);
  sampling::BatchIterator batches(train, 64, 4);
  util::Pcg32 rng(22);

  const float initial = model.parameters()[0]->value.norm();
  float last_acc = 0.0f;
  for (int epoch = 0; epoch < 6; ++epoch) {
    batches.reset_epoch();
    for (;;) {
      const auto batch = batches.next();
      if (batch.empty()) break;
      const std::vector<Block> blocks =
          build_blocks(sampler.sample(batch, rng));
      Tensor x0(blocks[0].num_src(), features.dim());
      features.gather(blocks[0].src_ids, x0);
      last_acc = train_step(model, blocks, x0, task.labels).accuracy;
      opt.step();
    }
  }
  EXPECT_GT(last_acc, 0.6f);
  EXPECT_NE(model.parameters()[0]->value.norm(), initial);
}

}  // namespace
}  // namespace moment::gnn
