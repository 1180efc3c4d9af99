// Tests for the sampling module: k-hop neighbor sampling (DGL block
// semantics), batch iteration, training-set selection, and the hotness
// profiler whose skew fingerprint drives DDAK.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/generators.hpp"
#include "sampling/hotness.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "util/thread_pool.hpp"

namespace moment::sampling {
namespace {

CsrGraph test_graph() {
  graph::RmatParams p;
  p.num_vertices = 1 << 11;
  p.num_edges = 16000;
  return graph::generate_rmat(p);
}

TEST(NeighborSampler, RejectsBadFanouts) {
  const CsrGraph g = test_graph();
  EXPECT_THROW(NeighborSampler(g, {}), std::invalid_argument);
  EXPECT_THROW(NeighborSampler(g, {5, 0}), std::invalid_argument);
}

TEST(NeighborSampler, ExpansionFactorDglSemantics) {
  const CsrGraph g = test_graph();
  EXPECT_DOUBLE_EQ(NeighborSampler(g, {25, 10}).expansion_factor(),
                   26.0 * 11.0);
  EXPECT_DOUBLE_EQ(NeighborSampler(g, {5}).expansion_factor(), 6.0);
}

TEST(NeighborSampler, FetchSetContainsSeeds) {
  const CsrGraph g = test_graph();
  NeighborSampler sampler(g, {5, 3});
  util::Pcg32 rng(1);
  const std::vector<graph::VertexId> seeds = {1, 5, 9, 200};
  const auto sg = sampler.sample(seeds, rng);
  for (graph::VertexId s : seeds) {
    EXPECT_TRUE(std::binary_search(sg.fetch_set.begin(), sg.fetch_set.end(), s));
  }
  EXPECT_EQ(sg.layers[0].dst_vertices, seeds);  // the seed hop
  EXPECT_EQ(sg.layers.size(), 2u);
}

TEST(NeighborSampler, EdgeCountsRespectFanout) {
  const CsrGraph g = test_graph();
  NeighborSampler sampler(g, {7});
  util::Pcg32 rng(2);
  const std::vector<graph::VertexId> seeds = {0, 1, 2, 3};
  const auto sg = sampler.sample(seeds, rng);
  // Each seed with degree > 0 contributes exactly 7 edges (with replacement).
  std::size_t expected = 0;
  for (graph::VertexId s : seeds) {
    if (g.degree(s) > 0) expected += 7;
  }
  EXPECT_EQ(sg.layers[0].nbr.size(), expected);
  ASSERT_EQ(sg.layers[0].nbr_off.size(), seeds.size() + 1);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(sg.layers[0].nbr_off[i + 1] - sg.layers[0].nbr_off[i],
              g.degree(seeds[i]) > 0 ? 7u : 0u);
  }
}

TEST(NeighborSampler, EdgesPointIntoGraph) {
  const CsrGraph g = test_graph();
  NeighborSampler sampler(g, {4, 4});
  util::Pcg32 rng(3);
  const std::vector<graph::VertexId> seeds = {10, 20, 30};
  const auto sg = sampler.sample(seeds, rng);
  for (const auto& layer : sg.layers) {
    ASSERT_EQ(layer.nbr_off.size(), layer.dst_vertices.size() + 1);
    EXPECT_EQ(layer.nbr_off.back(), layer.nbr.size());
    for (std::size_t i = 0; i < layer.dst_vertices.size(); ++i) {
      const graph::VertexId dst = layer.dst_vertices[i];
      EXPECT_LT(dst, g.num_vertices());
      // Every src must actually be a neighbor of its dst.
      const auto nbrs = g.neighbors(dst);
      for (std::size_t t = layer.nbr_off[i]; t < layer.nbr_off[i + 1]; ++t) {
        EXPECT_TRUE(std::find(nbrs.begin(), nbrs.end(), layer.nbr[t]) !=
                    nbrs.end());
      }
    }
  }
}

TEST(NeighborSampler, FrontierGrowsMonotonically) {
  // DGL block semantics: each hop's frontier includes the previous one.
  const CsrGraph g = test_graph();
  NeighborSampler sampler(g, {3, 3, 3});
  util::Pcg32 rng(4);
  const std::vector<graph::VertexId> seeds = {42, 43};
  const auto sg = sampler.sample(seeds, rng);
  for (std::size_t l = 1; l < sg.layers.size(); ++l) {
    EXPECT_TRUE(std::includes(sg.layers[l].dst_vertices.begin(),
                              sg.layers[l].dst_vertices.end(),
                              sg.layers[l - 1].dst_vertices.begin(),
                              sg.layers[l - 1].dst_vertices.end()));
  }
}

TEST(NeighborSampler, DeterministicGivenRngState) {
  const CsrGraph g = test_graph();
  NeighborSampler sampler(g, {5, 5});
  util::Pcg32 a(7), b(7);
  const std::vector<graph::VertexId> seeds = {3, 14, 159};
  const auto sa = sampler.sample(seeds, a);
  const auto sb = sampler.sample(seeds, b);
  EXPECT_EQ(sa.fetch_set, sb.fetch_set);
  EXPECT_EQ(sa.layers[1].nbr_off, sb.layers[1].nbr_off);
  EXPECT_EQ(sa.layers[1].nbr, sb.layers[1].nbr);
}

TEST(NeighborSampler, ThreadCountInvariantSubgraphs) {
  // The parallel sampler's per-(hop, dst) counter-based streams make the
  // subgraph a pure function of the two words drawn from the caller's rng —
  // identical for any compute-pool size.
  const CsrGraph g = test_graph();
  NeighborSampler sampler(g, {6, 4});
  std::vector<graph::VertexId> seeds(200);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    seeds[i] = static_cast<graph::VertexId>((i * 7) % g.num_vertices());
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());

  util::set_compute_pool_threads(1);
  util::Pcg32 r1(77);
  const auto inline_run = sampler.sample(seeds, r1);
  util::set_compute_pool_threads(4);
  util::Pcg32 r4(77);
  const auto pooled_run = sampler.sample(seeds, r4);
  util::set_compute_pool_threads(0);  // restore auto sizing

  EXPECT_EQ(inline_run.fetch_set, pooled_run.fetch_set);
  ASSERT_EQ(inline_run.layers.size(), pooled_run.layers.size());
  for (std::size_t l = 0; l < inline_run.layers.size(); ++l) {
    EXPECT_EQ(inline_run.layers[l].dst_vertices,
              pooled_run.layers[l].dst_vertices);
    EXPECT_EQ(inline_run.layers[l].nbr_off, pooled_run.layers[l].nbr_off);
    EXPECT_EQ(inline_run.layers[l].nbr, pooled_run.layers[l].nbr);
  }
  // Both runs must have advanced the caller's generator identically.
  EXPECT_EQ(r1.next(), r4.next());
}

TEST(NeighborSampler, DrawsExactlyTwoWordsPerBatch) {
  // The batch-content-independent rng contract: sample() consumes exactly
  // two words, so sibling samplers sharing a seed derivation stay aligned
  // no matter what they sample.
  const CsrGraph g = test_graph();
  NeighborSampler small(g, {2});
  NeighborSampler big(g, {9, 9});
  util::Pcg32 a(5), b(5), reference(5);
  reference.next();
  reference.next();
  const std::vector<graph::VertexId> few = {1};
  std::vector<graph::VertexId> many(64);
  for (std::size_t i = 0; i < many.size(); ++i) {
    many[i] = static_cast<graph::VertexId>(i * 3);
  }
  small.sample(few, a);
  big.sample(many, b);
  const auto expected = reference.next();
  EXPECT_EQ(a.next(), expected);
  EXPECT_EQ(b.next(), expected);
}

TEST(BatchIterator, CoversAllVerticesOncePerEpoch) {
  std::vector<graph::VertexId> train = {1, 2, 3, 4, 5, 6, 7};
  BatchIterator it(train, 3, 5);
  std::multiset<graph::VertexId> seen;
  for (;;) {
    const auto b = it.next();
    if (b.empty()) break;
    seen.insert(b.begin(), b.end());
  }
  EXPECT_EQ(seen.size(), 7u);
  for (graph::VertexId v : train) EXPECT_EQ(seen.count(v), 1u);
  EXPECT_EQ(it.num_batches(), 3u);
}

TEST(BatchIterator, ReshufflesBetweenEpochs) {
  std::vector<graph::VertexId> train(64);
  for (graph::VertexId v = 0; v < 64; ++v) train[v] = v;
  BatchIterator it(train, 64, 9);
  const auto b1 = it.next();
  const std::vector<graph::VertexId> first(b1.begin(), b1.end());
  it.reset_epoch();
  const auto b2 = it.next();
  const std::vector<graph::VertexId> second(b2.begin(), b2.end());
  EXPECT_NE(first, second);  // astronomically unlikely to repeat
}

TEST(BatchIterator, RejectsZeroBatch) {
  EXPECT_THROW(BatchIterator({1, 2}, 0, 1), std::invalid_argument);
}

TEST(SelectTrainVertices, FractionAndUniqueness) {
  const CsrGraph g = test_graph();
  const auto train = select_train_vertices(g, 0.01, 3);
  EXPECT_EQ(train.size(),
            static_cast<std::size_t>(0.01 * g.num_vertices()));
  std::set<graph::VertexId> uniq(train.begin(), train.end());
  EXPECT_EQ(uniq.size(), train.size());
  EXPECT_TRUE(std::is_sorted(train.begin(), train.end()));
}

TEST(SelectTrainVertices, AtLeastOne) {
  const CsrGraph g = test_graph();
  EXPECT_EQ(select_train_vertices(g, 0.0, 1).size(), 1u);
}

TEST(Hotness, ProfilesSkewedTraffic) {
  const CsrGraph g = test_graph();
  NeighborSampler sampler(g, {25, 10});
  const auto train = select_train_vertices(g, 0.05, 11);
  HotnessOptions opts;
  opts.batch_size = 16;
  const auto profile = profile_hotness(g, sampler, train, opts);
  EXPECT_EQ(profile.hotness.size(), g.num_vertices());
  EXPECT_GT(profile.fetches_per_batch, 100.0);
  EXPECT_EQ(profile.batch_size, 16u);
  // It stops once two fetches per vertex are recorded.
  const double recorded = profile.fetches_per_batch *
                          static_cast<double>(profile.profiled_batches);
  EXPECT_GE(recorded + 0.5, 2.0 * static_cast<double>(g.num_vertices()));
  // RMAT skew: the top 1% of vertices must carry a disproportionate share.
  EXPECT_GT(profile.top1pct_traffic, 0.05);
  EXPECT_GT(profile.top5pct_traffic, profile.top1pct_traffic);
  EXPECT_GT(profile.top10pct_traffic, profile.top5pct_traffic);
  EXPECT_LE(profile.top10pct_traffic, 1.0);
}

TEST(Hotness, ByHotnessDescSorted) {
  const CsrGraph g = test_graph();
  NeighborSampler sampler(g, {10, 5});
  const auto train = select_train_vertices(g, 0.05, 13);
  HotnessOptions opts;
  opts.batch_size = 8;
  const auto profile = profile_hotness(g, sampler, train, opts);
  const auto order = profile.by_hotness_desc();
  ASSERT_EQ(order.size(), profile.hotness.size());
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(profile.hotness[order[i - 1]], profile.hotness[order[i]]);
    if (profile.hotness[order[i - 1]] == profile.hotness[order[i]]) {
      EXPECT_LT(order[i - 1], order[i]);  // ties by ascending id
    }
  }
  // A hand-filled profile (no stored order) sorts to the same order.
  HotnessProfile by_hand;
  by_hand.hotness = profile.hotness;
  EXPECT_EQ(by_hand.by_hotness_desc(), order);
}

TEST(Hotness, RejectsEmptyTrainingSet) {
  const CsrGraph g = test_graph();
  NeighborSampler sampler(g, {10, 5});
  EXPECT_THROW(profile_hotness(g, sampler, {}, {}), std::invalid_argument);
}

TEST(Hotness, DeterministicGivenSeed) {
  const CsrGraph g = test_graph();
  NeighborSampler sampler(g, {5, 5});
  const auto train = select_train_vertices(g, 0.05, 17);
  HotnessOptions opts;
  opts.batch_size = 8;
  const auto p1 = profile_hotness(g, sampler, train, opts);
  const auto p2 = profile_hotness(g, sampler, train, opts);
  EXPECT_EQ(p1.hotness, p2.hotness);
}

}  // namespace
}  // namespace moment::sampling
