// Tests for the DDAK module: the epoch workload model (paper-scale traffic
// arithmetic) and the data-distribution-aware knapsack allocator vs the hash
// baseline.

#include <gtest/gtest.h>

#include <numeric>

#include "ddak/ddak.hpp"
#include "ddak/workload.hpp"
#include "graph/datasets.hpp"
#include "runtime/systems.hpp"
#include "topology/machine.hpp"

namespace moment::ddak {
namespace {

/// A synthetic Zipf-flavoured hotness profile over n vertices.
sampling::HotnessProfile synthetic_profile(std::size_t n, double exponent) {
  sampling::HotnessProfile p;
  p.hotness.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.hotness[i] = 1.0 / std::pow(static_cast<double>(i + 1), exponent);
  }
  // Shuffle so vertex id != rank (DDAK must sort, not assume).
  util::Pcg32 rng(5);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(p.hotness[i - 1], p.hotness[rng.next_below(
        static_cast<std::uint32_t>(i))]);
  }
  p.fetches_per_batch = 100.0;
  p.batch_size = 10;
  p.profiled_batches = 1;
  return p;
}

std::vector<Bin> simple_bins(std::size_t n) {
  // One GPU cache (2% capacity), one CPU cache (5%), two SSDs.
  std::vector<Bin> bins(4);
  bins[0] = {"GPU0.HBM", 0, topology::StorageTier::kGpuHbm, 0.02 * n, 40.0, {}};
  bins[1] = {"DRAM0", 1, topology::StorageTier::kCpuDram, 0.05 * n, 25.0, {}};
  bins[2] = {"SSD0", 2, topology::StorageTier::kSsd, static_cast<double>(n),
             25.0, {}};
  bins[3] = {"SSD1", 3, topology::StorageTier::kSsd, static_cast<double>(n),
             10.0, {}};
  return bins;
}

TEST(HotShare, MonotoneAndBounded) {
  const auto p = synthetic_profile(1000, 1.0);
  const double s1 = hot_traffic_share(p, 0.01);
  const double s10 = hot_traffic_share(p, 0.10);
  const double s100 = hot_traffic_share(p, 1.0);
  EXPECT_GT(s1, 0.0);
  EXPECT_LT(s1, s10);
  EXPECT_LT(s10, s100);
  EXPECT_NEAR(s100, 1.0, 1e-9);
}

TEST(HotShare, RangeAdditive) {
  const auto p = synthetic_profile(500, 0.8);
  const double a = hot_traffic_share_range(p, 0.0, 0.05);
  const double b = hot_traffic_share_range(p, 0.05, 0.20);
  const double both = hot_traffic_share_range(p, 0.0, 0.20);
  EXPECT_NEAR(a + b, both, 1e-9);
  EXPECT_EQ(hot_traffic_share_range(p, 0.3, 0.2), 0.0);
}

TEST(Workload, PaperScaleArithmetic) {
  const auto ds = graph::make_dataset(graph::DatasetId::kPA, 3);
  auto p = synthetic_profile(ds.scaled.vertices, 1.0);
  p.batch_size = 16;
  p.fetches_per_batch = 16 * 50.0;  // 50 unique fetches per seed
  CacheConfig cache;
  const auto w = make_epoch_workload(ds, p, cache, 4);
  EXPECT_EQ(w.num_gpus, 4);
  EXPECT_EQ(w.batch_size, 8000u);
  EXPECT_NEAR(w.fetches_per_batch, 8000.0 * 50.0, 1.0);
  // 1% of 111M train vertices over batches of 8000.
  EXPECT_EQ(w.batches_per_epoch,
            static_cast<std::size_t>(std::ceil(1'110'000.0 / 8000.0)));
  EXPECT_NEAR(w.total_bytes,
              w.fetches_per_batch * 4096.0 * w.batches_per_epoch, 1.0);
  EXPECT_NEAR(w.per_gpu_bytes * 4, w.total_bytes, 1.0);
  EXPECT_NEAR(w.gpu_hit_fraction + w.cpu_hit_fraction + w.ssd_fraction, 1.0,
              1e-9);
  EXPECT_GT(w.gpu_hit_fraction, 0.0);
}

TEST(Workload, PartitionedCacheCoversMore) {
  const auto ds = graph::make_dataset(graph::DatasetId::kPA, 4);
  auto p = synthetic_profile(ds.scaled.vertices, 1.0);
  CacheConfig repl;
  CacheConfig part;
  part.gpu_cache_mode = GpuCacheMode::kPartitioned;
  const auto wr = make_epoch_workload(ds, p, repl, 4);
  const auto wp = make_epoch_workload(ds, p, part, 4);
  // Disjoint slices cache 4x the vertices, so the hit share must be higher.
  EXPECT_GT(wp.gpu_hit_fraction, wr.gpu_hit_fraction);
}

TEST(Workload, RejectsEmptyProfile) {
  const auto ds = graph::make_dataset(graph::DatasetId::kPA, 4);
  sampling::HotnessProfile empty;
  EXPECT_THROW(make_epoch_workload(ds, empty, CacheConfig{}, 2),
               std::invalid_argument);
  const auto p = synthetic_profile(ds.scaled.vertices, 1.0);
  EXPECT_THROW(make_epoch_workload(ds, p, CacheConfig{}, 0),
               std::invalid_argument);
}

TEST(Ddak, PlacesEveryVertexOnce) {
  const auto p = synthetic_profile(2000, 1.0);
  const auto bins = simple_bins(2000);
  const auto r = ddak_place(bins, p);
  std::size_t placed = 0;
  for (auto b : r.bin_of_vertex) {
    ASSERT_GE(b, 0);
    ASSERT_LT(b, 4);
    ++placed;
  }
  EXPECT_EQ(placed, 2000u);
  EXPECT_EQ(std::accumulate(r.bin_count.begin(), r.bin_count.end(), 0ull),
            2000ull);
}

TEST(Ddak, RespectsCapacities) {
  const auto p = synthetic_profile(2000, 1.0);
  const auto bins = simple_bins(2000);
  const auto r = ddak_place(bins, p);
  for (std::size_t i = 0; i < bins.size(); ++i) {
    EXPECT_LE(static_cast<double>(r.bin_count[i]),
              bins[i].capacity_vertices + 1.0)
        << bins[i].name;
  }
}

TEST(Ddak, HotVerticesLandInFastTiers) {
  const auto p = synthetic_profile(2000, 1.2);
  const auto bins = simple_bins(2000);
  const auto r = ddak_place(bins, p);
  // The single hottest vertex must be in the GPU cache.
  const auto order = p.by_hotness_desc();
  EXPECT_EQ(r.bin_of_vertex[order[0]], 0);
  // GPU bin achieves far more traffic share than its 2% capacity share.
  EXPECT_GT(r.bin_traffic_share[0], 0.10);
}

TEST(Ddak, TracksTrafficTargetsBetterThanHash) {
  const auto p = synthetic_profile(4000, 1.0);
  // Asymmetric SSD targets (e.g. one SSD sits behind a contended bus).
  auto bins = simple_bins(4000);
  const auto ddak = ddak_place(bins, p);
  const auto hash = hash_place(bins, p);
  EXPECT_LT(ddak.traffic_share_error, hash.traffic_share_error);
  // DDAK's SSD split should reflect the 25:10 target ratio.
  EXPECT_GT(ddak.bin_traffic_share[2], ddak.bin_traffic_share[3]);
  // Hash stripes SSD *traffic* evenly (uniform vertex assignment).
  EXPECT_NEAR(hash.bin_traffic_share[2], hash.bin_traffic_share[3], 0.05);
}

TEST(Ddak, PoolSizeChangesGranularityNotCoverage) {
  const auto p = synthetic_profile(3000, 1.0);
  const auto bins = simple_bins(3000);
  DdakOptions small;
  small.pool_size = 10;
  DdakOptions large;
  large.pool_size = 500;
  const auto rs = ddak_place(bins, p, small);
  const auto rl = ddak_place(bins, p, large);
  EXPECT_EQ(std::accumulate(rs.bin_count.begin(), rs.bin_count.end(), 0ull),
            3000ull);
  EXPECT_EQ(std::accumulate(rl.bin_count.begin(), rl.bin_count.end(), 0ull),
            3000ull);
  // Pooling is a planning-cost/precision trade-off (paper fixes n = 100);
  // both granularities must stay in a sane tracking range. (With partially
  // infeasible targets the greedy isn't monotone in pool size, so we do not
  // assert an ordering.)
  EXPECT_LT(rs.traffic_share_error, 0.8);
  EXPECT_LT(rl.traffic_share_error, 0.8);
  EXPECT_THROW(ddak_place(bins, p, DdakOptions{0}), std::invalid_argument);
}

TEST(Ddak, ThrowsWhenBinsTooSmall) {
  const auto p = synthetic_profile(100, 1.0);
  std::vector<Bin> bins(1);
  bins[0] = {"SSD0", 0, topology::StorageTier::kSsd, 50.0, 1.0, {}};
  EXPECT_THROW(ddak_place(bins, p), std::invalid_argument);
  EXPECT_THROW(hash_place(bins, p), std::invalid_argument);
}

TEST(Ddak, ZeroTargetSsdBinsFillEvenlyByCapacity) {
  // The flow plan sends nothing to any SSD, so every SSD bin is park-only.
  // They must share the rows the caches cannot hold by capacity, not leave
  // them all on the first SSD.
  const std::size_t n = 6000;
  const auto p = synthetic_profile(n, 1.0);
  std::vector<Bin> bins(5);
  bins[0] = {"GPU0.HBM", 0, topology::StorageTier::kGpuHbm, 0.02 * n, 40.0, {}};
  bins[1] = {"DRAM0", 1, topology::StorageTier::kCpuDram, 0.05 * n, 25.0, {}};
  bins[2] = {"SSD0", 2, topology::StorageTier::kSsd, 1.0 * n, 0.0, {}};
  bins[3] = {"SSD1", 3, topology::StorageTier::kSsd, 1.0 * n, 0.0, {}};
  bins[4] = {"SSD2", 4, topology::StorageTier::kSsd, 0.5 * n, 0.0, {}};
  DdakOptions options;
  options.pool_size = 50;
  const auto r = ddak_place(bins, p, options);
  const double parked = static_cast<double>(n - r.bin_count[0] -
                                            r.bin_count[1]);
  const double ssd_capacity = 2.5 * n;
  for (std::size_t i = 2; i < bins.size(); ++i) {
    const double share = parked * bins[i].capacity_vertices / ssd_capacity;
    EXPECT_LE(static_cast<double>(r.bin_count[i]),
              share + static_cast<double>(options.pool_size))
        << bins[i].name;
  }
}

TEST(HashPlace, CachesStillHoldHotSet) {
  // GIDS-style static cache: hash only stripes the SSD remainder.
  const auto p = synthetic_profile(2000, 1.2);
  const auto bins = simple_bins(2000);
  const auto r = hash_place(bins, p);
  const auto order = p.by_hotness_desc();
  EXPECT_EQ(r.bin_of_vertex[order[0]], 0);   // hottest in GPU
  // GPU fills to capacity.
  EXPECT_EQ(r.bin_count[0], static_cast<std::size_t>(0.02 * 2000));
}

TEST(HashPlace, RequiresSsdBin) {
  const auto p = synthetic_profile(100, 1.0);
  std::vector<Bin> bins(1);
  bins[0] = {"GPU0.HBM", 0, topology::StorageTier::kGpuHbm, 200.0, 1.0, {}};
  EXPECT_THROW(hash_place(bins, p), std::invalid_argument);
}

TEST(MakeBins, FromFlowGraph) {
  const auto spec = topology::make_machine_a();
  const auto topo = topology::instantiate(
      spec, topology::classic_placement(spec, 'c', 4, 8));
  const auto fg = topology::compile_flow_graph(topo);
  std::vector<double> traffic(fg.storage.size(), 1.0);
  const auto bins = make_bins(topo, fg, traffic, 10000, 0.005, 0.01);
  ASSERT_EQ(bins.size(), fg.storage.size());
  double gpu_cap = 0.0;
  for (const auto& b : bins) {
    if (b.tier == topology::StorageTier::kGpuHbm) gpu_cap += b.capacity_vertices;
    if (b.tier == topology::StorageTier::kCpuDram) {
      // "CPU caches 1% of the vertices" is a total budget split per socket.
      EXPECT_NEAR(b.capacity_vertices, 0.01 * 10000 / 2, 1.0);
    }
    if (b.tier == topology::StorageTier::kSsd) {
      EXPECT_GE(b.capacity_vertices, 10000.0);
    }
  }
  EXPECT_NEAR(gpu_cap, 4 * 0.005 * 10000, 1.0);
}

TEST(ToFlowDemand, TierBudgetsMatchWorkload) {
  const auto ds = graph::make_dataset(graph::DatasetId::kIG, 4);
  auto p = synthetic_profile(ds.scaled.vertices, 1.0);
  const auto w = make_epoch_workload(ds, p, CacheConfig{}, 2);
  const auto spec = topology::make_machine_a();
  const auto topo = topology::instantiate(
      spec, topology::classic_placement(spec, 'c', 2, 8));
  const auto fg = topology::compile_flow_graph(topo);
  const auto demand = to_flow_demand(w, fg);
  ASSERT_EQ(demand.per_gpu_bytes.size(), 2u);
  ASSERT_EQ(demand.per_tier_bytes.size(), 3u);
  EXPECT_NEAR(demand.per_tier_bytes[0] + demand.per_tier_bytes[1] +
                  demand.per_tier_bytes[2],
              w.total_bytes, w.total_bytes * 1e-9);
  // Uniform hash mode pins every SSD to an equal share.
  const auto hash_demand = to_flow_demand(w, fg, SupplyModel::kUniformHash);
  double ssd_bytes = 0.0;
  int ssd_count = 0;
  for (std::size_t i = 0; i < fg.storage.size(); ++i) {
    if (fg.storage[i].tier == topology::StorageTier::kSsd) {
      EXPECT_GE(hash_demand.per_storage_bytes[i], 0.0);
      ssd_bytes += hash_demand.per_storage_bytes[i];
      ++ssd_count;
    }
  }
  EXPECT_EQ(ssd_count, 8);
  EXPECT_NEAR(ssd_bytes, w.total_bytes * w.ssd_fraction,
              w.total_bytes * 1e-9);
}

}  // namespace
}  // namespace moment::ddak
