// Tests for the gather pipeline: the sharded CLOCK row cache, run
// coalescing, hotness-seeded warmup, failover invalidation, concurrent
// multi-client gathers, and IO progressing on the client's IO thread. Every batch, duplicates included, must return the
// exact source bytes, and every gathered row is counted by exactly one
// source. Registered under the `cache` CTest label (also run under TSan).

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "gnn/synthetic.hpp"
#include "graph/generators.hpp"
#include "iostack/fault_injector.hpp"
#include "iostack/feature_store.hpp"
#include "iostack/row_cache.hpp"
#include "util/rng.hpp"

namespace moment::iostack {
namespace {

constexpr std::size_t kVertices = 512;
constexpr std::size_t kDim = 12;
constexpr std::size_t kFirstSsdVertex = 64;  // v < 32 GPU, v < 64 CPU

/// Three-SSD tiered store over a synthetic RMAT task, mirroring the
/// bench_faults rig: the coldest ~87% of vertices live striped across SSDs.
struct Rig {
  graph::CsrGraph g;
  gnn::SyntheticTask task;
  std::vector<BinBacking> bins;
  std::vector<std::int32_t> bov;
  SsdArray array;
  TieredFeatureStore store;

  Rig()
      : g(make_graph()),
        task(gnn::make_synthetic_task(g, 4, kDim, 0.3, 9)),
        bins({{BinBacking::Kind::kGpuCache, -1},
              {BinBacking::Kind::kCpuCache, -1},
              {BinBacking::Kind::kSsd, 0},
              {BinBacking::Kind::kSsd, 1},
              {BinBacking::Kind::kSsd, 2}}),
        bov(make_bov()),
        array(3, make_ssd_options()),
        store(task.features, bov, bins, array) {}

  static graph::CsrGraph make_graph() {
    graph::RmatParams gp;
    gp.num_vertices = kVertices;
    gp.num_edges = 4000;
    return graph::generate_rmat(gp);
  }
  static std::vector<std::int32_t> make_bov() {
    std::vector<std::int32_t> bov(kVertices);
    for (std::size_t v = 0; v < kVertices; ++v) {
      if (v < 32) {
        bov[v] = 0;
      } else if (v < kFirstSsdVertex) {
        bov[v] = 1;
      } else {
        bov[v] = static_cast<std::int32_t>(2 + v % 3);
      }
    }
    return bov;
  }
  static SsdOptions make_ssd_options() {
    SsdOptions opts;
    opts.capacity_bytes = 2ull << 20;
    return opts;
  }

  /// SSD-resident vertices in descending synthetic "hotness" (low ids
  /// first), the order the power-law batches below favour.
  std::vector<graph::VertexId> hot_order() const {
    std::vector<graph::VertexId> order;
    for (graph::VertexId v = kFirstSsdVertex; v < kVertices; ++v) {
      order.push_back(v);
    }
    return order;
  }
};

/// Zipf(alpha) batch over the SSD-resident vertex range: rank r maps to
/// vertex kFirstSsdVertex + r, so low vertex ids are the hot ones.
std::vector<graph::VertexId> zipf_batch(std::size_t batch,
                                        util::Pcg32& rng) {
  static const util::ZipfSampler sampler(kVertices - kFirstSsdVertex, 1.2);
  std::vector<graph::VertexId> vs(batch);
  for (auto& v : vs) {
    v = static_cast<graph::VertexId>(kFirstSsdVertex + sampler.sample(rng));
  }
  return vs;
}

/// Uniform batch over all tiers, with duplicates (bound < batch size).
std::vector<graph::VertexId> uniform_batch(std::size_t batch,
                                           util::Pcg32& rng) {
  std::vector<graph::VertexId> vs(batch);
  for (auto& v : vs) {
    v = static_cast<graph::VertexId>(rng.next_below(kVertices));
  }
  return vs;
}

void expect_bytes_match(const gnn::Tensor& out,
                        std::span<const graph::VertexId> vs,
                        const gnn::Tensor& truth, const char* what) {
  ASSERT_EQ(out.rows(), vs.size());
  for (std::size_t i = 0; i < vs.size(); ++i) {
    const auto got = out.row(i);
    const auto want = truth.row(vs[i]);
    ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(float)))
        << what << ": vertex " << vs[i] << " at row " << i;
  }
}

/// Rows served by any source; equals the rows requested when no read fails.
std::uint64_t rows_served(const GatherStats& s) {
  return s.gpu_hits + s.cpu_hits + s.peer_hits + s.remote_hbm_host_reads +
         s.cache_hits + s.ssd_reads;
}

// ---------------------------------------------------------------------------
// RowCache unit tests
// ---------------------------------------------------------------------------

TEST(RowCache, LookupInsertRoundTrip) {
  RowCacheOptions opts;
  opts.capacity_rows = 4;
  opts.shards = 1;
  RowCache cache(opts, 3);
  std::vector<float> row = {1.0f, 2.0f, 3.0f};
  std::vector<float> out(3, 0.0f);

  EXPECT_FALSE(cache.lookup(7, out));  // cold miss
  cache.insert(7, row);
  ASSERT_TRUE(cache.lookup(7, out));
  EXPECT_EQ(0, std::memcmp(out.data(), row.data(), 3 * sizeof(float)));
  EXPECT_EQ(cache.size(), 1u);

  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(RowCache, ClockEvictionIsDeterministicAtTinyCapacity) {
  // Two caches fed the identical access sequence end up with identical
  // stats and identical residency: CLOCK has no hidden randomness.
  auto run = [](RowCache& cache) {
    std::vector<float> row(2);
    std::vector<float> out(2);
    for (graph::VertexId v = 0; v < 16; ++v) {
      row[0] = static_cast<float>(v);
      row[1] = static_cast<float>(v) * 0.5f;
      cache.insert(v, row);
      if (v % 3 == 0) cache.lookup(v, out);  // touch: second chance
    }
  };
  RowCacheOptions opts;
  opts.capacity_rows = 4;
  opts.shards = 1;
  RowCache a(opts, 2), b(opts, 2);
  run(a);
  run(b);

  const auto sa = a.stats();
  const auto sb = b.stats();
  EXPECT_EQ(sa.insertions, sb.insertions);
  EXPECT_EQ(sa.evictions, sb.evictions);
  EXPECT_EQ(sa.hits, sb.hits);
  EXPECT_GT(sa.evictions, 0u);           // tiny capacity must evict
  EXPECT_EQ(a.size(), 4u);               // full after overflow
  EXPECT_EQ(a.size(), b.size());
  std::vector<float> out(2);
  for (graph::VertexId v = 0; v < 16; ++v) {
    EXPECT_EQ(a.lookup(v, out), b.lookup(v, out)) << "vertex " << v;
  }
}

TEST(RowCache, ReinsertNeverChangesBytes) {
  RowCacheOptions opts;
  opts.capacity_rows = 2;
  opts.shards = 1;
  RowCache cache(opts, 1);
  const float first[] = {42.0f};
  const float imposter[] = {-1.0f};
  cache.insert(5, first);
  cache.insert(5, imposter);  // refresh only: bytes must not change
  std::vector<float> out(1);
  ASSERT_TRUE(cache.lookup(5, out));
  EXPECT_EQ(out[0], 42.0f);
}

TEST(RowCache, InvalidateAllDropsEverythingAndCounts) {
  RowCacheOptions opts;
  opts.capacity_rows = 8;
  opts.shards = 4;
  RowCache cache(opts, 2);
  std::vector<float> row(2, 1.0f);
  for (graph::VertexId v = 0; v < 8; ++v) cache.insert(v, row);
  const std::size_t resident = cache.size();
  ASSERT_GT(resident, 0u);

  cache.invalidate_all();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, resident);
  std::vector<float> out(2);
  for (graph::VertexId v = 0; v < 8; ++v) {
    EXPECT_FALSE(cache.lookup(v, out)) << "vertex " << v;
  }
}

TEST(RowCache, ZeroCapacityIsInert) {
  RowCacheOptions opts;
  opts.capacity_rows = 0;
  RowCache cache(opts, 4);
  std::vector<float> row(4, 1.0f);
  std::vector<float> out(4);
  cache.insert(1, row);
  EXPECT_FALSE(cache.lookup(1, out));
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// Gather pipeline: byte-identity and row conservation
// ---------------------------------------------------------------------------

TEST(GatherPipeline, DuplicateHeavyBatchesAreByteIdenticalAndConserveRows) {
  Rig rig;
  RowCacheOptions cache_opts;
  cache_opts.capacity_rows = 128;
  rig.store.enable_row_cache(cache_opts);
  TieredFeatureClient client(rig.store, 256, {});
  rig.array.start_all();

  util::Pcg32 rng(11);
  for (int batch = 0; batch < 6; ++batch) {
    // 192 uniform draws over 512 vertices on every tier repeat vertices;
    // each occurrence is routed on its own.
    const auto vs = uniform_batch(192, rng);
    const std::set<graph::VertexId> unique(vs.begin(), vs.end());
    ASSERT_LT(unique.size(), vs.size()) << "batch " << batch;
    const std::uint64_t before = rows_served(client.stats());
    gnn::Tensor out(vs.size(), kDim);
    client.gather(vs, out);
    expect_bytes_match(out, vs, rig.task.features, "uniform batch");
    EXPECT_EQ(rows_served(client.stats()) - before, vs.size())
        << "batch " << batch;
  }
  rig.array.stop_all();

  const auto& s = client.stats();
  EXPECT_GT(s.gpu_hits, 0u);
  EXPECT_GT(s.cpu_hits, 0u);
  EXPECT_GT(s.ssd_reads, 0u);
  EXPECT_LE(s.ssd_commands, s.ssd_reads);
  // Later batches hit rows the earlier ones filled into the cache.
  EXPECT_GT(s.cache_hits, 0u);
  EXPECT_EQ(s.failovers, 0u);
}

TEST(GatherPipeline, CoalescingMergesAdjacentRunsOnFullRangeBatch) {
  // A batch covering every vertex gives each SSD a fully contiguous slot
  // range (slots are assigned in vertex order within a device), so run
  // coalescing must pack many rows per command.
  Rig rig;
  TieredFeatureClient client(rig.store, 256, {});
  rig.array.start_all();

  std::vector<graph::VertexId> vs(kVertices);
  for (std::size_t v = 0; v < kVertices; ++v) {
    vs[v] = static_cast<graph::VertexId>(v);
  }
  gnn::Tensor out(vs.size(), kDim);
  client.gather(vs, out);
  rig.array.stop_all();
  expect_bytes_match(out, vs, rig.task.features, "full range");

  const auto& s = client.stats();
  EXPECT_EQ(s.ssd_reads, kVertices - kFirstSsdVertex);
  EXPECT_GT(s.coalesced_commands, 0u);
  EXPECT_LT(s.ssd_commands, s.ssd_reads / 4)
      << "contiguous slots should coalesce aggressively";
  EXPECT_GT(s.coalesce_rows_per_cmd(), 4.0);
  // Each command stays within the transfer bound.
  const std::size_t max_rows =
      kMaxTransferBytes / rig.store.row_bytes();
  EXPECT_LE(s.coalesce_rows_per_cmd(),
            static_cast<double>(std::max<std::size_t>(1, max_rows)));
}

TEST(GatherPipeline, PowerLawBatchesCutCommandsVsNaive) {
  Rig rig;
  RowCacheOptions cache_opts;
  cache_opts.capacity_rows = 128;
  rig.store.enable_row_cache(cache_opts);
  rig.store.warm_row_cache(rig.hot_order());

  TieredFeatureClient client(rig.store, 256, {});
  rig.array.start_all();

  util::Pcg32 rng(21);
  constexpr std::size_t kBatches = 8, kBatch = 256;
  for (std::size_t batch = 0; batch < kBatches; ++batch) {
    const auto vs = zipf_batch(kBatch, rng);
    gnn::Tensor out(vs.size(), kDim);
    client.gather(vs, out);
    expect_bytes_match(out, vs, rig.task.features, "power-law");
  }
  rig.array.stop_all();

  // The naive gather issues one read per SSD-resident occurrence, and every
  // such occurrence either hit the cache or was read. Zipf(1.2) batches are
  // reuse-heavy: the pipeline must issue far fewer commands than that.
  const auto& s = client.stats();
  const std::uint64_t naive = s.ssd_reads + s.cache_hits;
  EXPECT_EQ(naive, kBatches * kBatch);
  EXPECT_GT(s.cache_hits, 0u);
  EXPECT_LT(s.ssd_commands, naive / 2);
}

// ---------------------------------------------------------------------------
// Cache behaviour under a skewed trace
// ---------------------------------------------------------------------------

TEST(GatherPipeline, CacheHitsGrowMonotonicallyUnderSkewedTrace) {
  Rig rig;
  RowCacheOptions cache_opts;
  cache_opts.capacity_rows = 512;  // every SSD row fits: steady state = all hits
  rig.store.enable_row_cache(cache_opts);

  TieredFeatureClient client(rig.store, 256, {});
  rig.array.start_all();

  util::Pcg32 rng(33);
  std::vector<std::uint64_t> hit_deltas, miss_deltas;
  std::uint64_t prev_hits = 0, prev_misses = 0;
  for (int round = 0; round < 6; ++round) {
    const auto vs = zipf_batch(256, rng);
    gnn::Tensor out(vs.size(), kDim);
    client.gather(vs, out);
    expect_bytes_match(out, vs, rig.task.features, "skewed trace");

    const auto& s = client.stats();
    hit_deltas.push_back(s.cache_hits - prev_hits);
    miss_deltas.push_back(s.cache_misses - prev_misses);
    prev_hits = s.cache_hits;
    prev_misses = s.cache_misses;
  }
  rig.array.stop_all();

  // The cache only fills (capacity covers the whole SSD-resident set, so
  // nothing is ever evicted): every round after the first hits rows the
  // previous rounds fetched, and the final round is almost all hits.
  for (std::size_t r = 1; r < hit_deltas.size(); ++r) {
    EXPECT_GT(hit_deltas[r], 0u) << "round " << r;
    EXPECT_GE(hit_deltas[r], hit_deltas[0]) << "round " << r;
  }
  EXPECT_GT(hit_deltas.back(), miss_deltas.back());
  EXPECT_LT(miss_deltas.back(), miss_deltas.front())
      << "misses must shrink as the cache warms";
  EXPECT_EQ(rig.store.row_cache()->stats().evictions, 0u);
}

TEST(GatherPipeline, WarmupSeedsHotRowsAndSkipsCacheTierVertices) {
  Rig rig;
  RowCacheOptions cache_opts;
  cache_opts.capacity_rows = 64;
  rig.store.enable_row_cache(cache_opts);

  // Hotness order starts with GPU/CPU-tier vertices: warmup must skip them
  // (they never reach the SSD path) and seed only SSD-resident rows.
  std::vector<graph::VertexId> order;
  for (graph::VertexId v = 0; v < kVertices; ++v) order.push_back(v);
  const std::size_t seeded = rig.store.warm_row_cache(order);
  EXPECT_EQ(seeded, cache_opts.capacity_rows);
  EXPECT_EQ(rig.store.row_cache()->size(), cache_opts.capacity_rows);

  // The first gather of warmed vertices is pure cache hits: no SSD command.
  TieredFeatureClient client(rig.store, 256, {});
  rig.array.start_all();
  std::vector<graph::VertexId> vs;
  for (graph::VertexId v = kFirstSsdVertex; v < kFirstSsdVertex + 32; ++v) {
    vs.push_back(v);
  }
  gnn::Tensor out(vs.size(), kDim);
  client.gather(vs, out);
  rig.array.stop_all();
  expect_bytes_match(out, vs, rig.task.features, "warmed");
  EXPECT_EQ(client.stats().cache_hits, vs.size());
  EXPECT_EQ(client.stats().ssd_commands, 0u);
}

// ---------------------------------------------------------------------------
// Failover: invalidation preserves byte-identity
// ---------------------------------------------------------------------------

TEST(GatherPipeline, FailoverInvalidatesCacheAndStaysByteIdentical) {
  Rig rig;
  RowCacheOptions cache_opts;
  cache_opts.capacity_rows = 256;
  rig.store.enable_row_cache(cache_opts);
  rig.store.warm_row_cache(rig.hot_order());
  const std::size_t warmed = rig.store.row_cache()->size();
  ASSERT_GT(warmed, 0u);

  // Coalescing packs each device's slice of a full-range batch into a few
  // multi-row commands, so the failure threshold is in commands, not rows:
  // SSD 1 survives the first round's commands and dies mid-run after that.
  FaultProfile fp;
  fp.fail_after_reads = 2;
  rig.array.ssd(1).inject_faults(fp);

  IoEngineOptions io;
  io.max_retries = 1;
  TieredFeatureClient client(rig.store, 256, io);
  rig.array.start_all();

  std::vector<graph::VertexId> vs(kVertices);
  for (std::size_t v = 0; v < kVertices; ++v) {
    vs[v] = static_cast<graph::VertexId>(v);
  }
  for (int round = 0; round < 4; ++round) {
    gnn::Tensor out(vs.size(), kDim);
    client.gather(vs, out);
    expect_bytes_match(out, vs, rig.task.features, "failover round");
  }
  rig.array.stop_all();

  EXPECT_EQ(rig.array.health(1), DeviceHealth::kFailed);
  EXPECT_EQ(rig.store.device_remaps(), 1u);
  // The remap dropped the whole warmed cache...
  EXPECT_GE(rig.store.row_cache()->stats().invalidations, 1u);
  // ...and post-failover rounds refilled it from the surviving devices.
  EXPECT_GT(rig.store.row_cache()->stats().insertions, warmed);
  EXPECT_GT(client.stats().failovers, 0u);
}

// ---------------------------------------------------------------------------
// Concurrency: two clients share the store and the cache (TSan target)
// ---------------------------------------------------------------------------

TEST(GatherPipeline, TwoClientsGatherConcurrentlyThroughSharedCache) {
  Rig rig;
  RowCacheOptions cache_opts;
  cache_opts.capacity_rows = 128;
  cache_opts.shards = 8;
  rig.store.enable_row_cache(cache_opts);
  TieredFeatureClient client_a(rig.store, 256, {});
  TieredFeatureClient client_b(rig.store, 256, {});
  rig.array.start_all();

  auto worker = [&](TieredFeatureClient& client, std::uint64_t seed,
                    bool* ok) {
    util::Pcg32 rng(seed);
    *ok = true;
    for (int batch = 0; batch < 8; ++batch) {
      const auto vs = zipf_batch(192, rng);
      gnn::Tensor out(vs.size(), kDim);
      client.gather(vs, out);
      for (std::size_t i = 0; i < vs.size(); ++i) {
        const auto got = out.row(i);
        const auto want = rig.task.features.row(vs[i]);
        if (std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(float)) != 0) {
          *ok = false;
          return;
        }
      }
    }
  };

  bool ok_a = false, ok_b = false;
  std::thread ta(worker, std::ref(client_a), 101, &ok_a);
  std::thread tb(worker, std::ref(client_b), 202, &ok_b);
  ta.join();
  tb.join();
  rig.array.stop_all();

  EXPECT_TRUE(ok_a);
  EXPECT_TRUE(ok_b);
  const auto s = rig.store.row_cache()->stats();
  EXPECT_GT(s.hits + s.misses, 0u);
  EXPECT_GT(s.insertions, 0u);
}

// ---------------------------------------------------------------------------
// The IO thread: reads progress while the caller is away
// ---------------------------------------------------------------------------

/// One SSD paced at 8 MiB/s (~0.5 ms per 4 KiB row) holding every vertex in
/// slot order. Even vertices sit in non-adjacent slots, so a batch of them
/// costs one command per row.
struct PacedRig {
  static constexpr std::size_t kRows = 1024;
  static constexpr double kBytesPerS = 8.0 * 1024 * 1024;
  gnn::Tensor features;
  std::vector<BinBacking> bins{{BinBacking::Kind::kSsd, 0}};
  std::vector<std::int32_t> bov = std::vector<std::int32_t>(kRows, 0);
  SsdArray array;
  TieredFeatureStore store;

  PacedRig()
      : features(make_features()), array(1, make_ssd_options()),
        store(features, bov, bins, array) {}

  static gnn::Tensor make_features() {
    gnn::Tensor t(kRows, kDim);
    for (std::size_t i = 0; i < t.size(); ++i) {
      t.data()[i] = static_cast<float>(i);
    }
    return t;
  }
  static SsdOptions make_ssd_options() {
    SsdOptions opts;
    opts.capacity_bytes = kRows * kPageBytes;
    opts.max_bytes_per_s = kBytesPerS;
    return opts;
  }
  static std::vector<graph::VertexId> even_vertices(std::size_t n) {
    std::vector<graph::VertexId> vs(n);
    for (std::size_t i = 0; i < n; ++i) {
      vs[i] = static_cast<graph::VertexId>(2 * i);
    }
    return vs;
  }
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(GatherPipeline, IoProgressesWhileCallerIsBusy) {
  // A batch 32 times what the client's SQ + CQ hold (8 + 8 commands).
  // gather_begin must not wait for the device, and while the caller is away
  // (sampling, computing) the IO thread must keep the device busy, so the
  // wait after the batch's paced time finds the reads already done.
  constexpr std::size_t kBatch = 512;
  PacedRig rig;
  TieredFeatureClient client(rig.store, /*queue_depth=*/8);
  rig.array.start_all();
  const double paced_s =
      static_cast<double>(kBatch * kPageBytes) / PacedRig::kBytesPerS;

  const auto vs = PacedRig::even_vertices(kBatch);
  gnn::Tensor out(kBatch, kDim);
  const auto t0 = std::chrono::steady_clock::now();
  const auto ticket = client.gather_begin(vs, out);
  const double begin_s = seconds_since(t0);
  // Busy without calling the client: for 1.5x the paced time, and on a
  // slow host until the device has served the whole batch.
  while (seconds_since(t0) < 1.5 * paced_s ||
         (rig.array.ssd(0).stats().reads < kBatch && seconds_since(t0) < 10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::uint64_t served = rig.array.ssd(0).stats().reads;
  const auto t1 = std::chrono::steady_clock::now();
  client.gather_wait(ticket);
  const double wait_s = seconds_since(t1);
  rig.array.stop_all();

  EXPECT_EQ(client.stats().ssd_commands, kBatch);
  EXPECT_EQ(served, kBatch) << "IO stalled while the caller was away";
  EXPECT_LT(begin_s, paced_s / 4) << "gather_begin waited on the SQ";
  EXPECT_LT(wait_s, paced_s / 4) << "gather_wait still had IO to wait for";
  expect_bytes_match(out, vs, rig.features, "paced batch");
}

TEST(GatherPipeline, DestroyingClientWithGatherInFlightJoins) {
  // The client goes away with a paced gather in flight. Its IO thread must
  // join promptly, and only after the device is done with the client's
  // staging buffers (ASan reports a late write into freed memory).
  constexpr std::size_t kBatch = 64;
  PacedRig rig;
  auto client = std::make_unique<TieredFeatureClient>(rig.store, 8);
  rig.array.start_all();
  const auto vs = PacedRig::even_vertices(kBatch);
  gnn::Tensor out(kBatch, kDim);
  client->gather_begin(vs, out);

  const auto t0 = std::chrono::steady_clock::now();
  client.reset();
  EXPECT_LT(seconds_since(t0), 5.0);
  const std::uint64_t reads = rig.array.ssd(0).stats().reads;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(rig.array.ssd(0).stats().reads, reads)
      << "the device kept serving a destroyed client";
  rig.array.stop_all();
}

}  // namespace
}  // namespace moment::iostack
