// Tests for the gather pipeline: the static hot-row cache and its
// hotness-seeded warm-up, run coalescing, failover with a warm cache,
// concurrent multi-client gathers, and IO progressing on the client's IO
// thread. Every batch, duplicates included, must return the exact source
// bytes, and every gathered row is counted by exactly one source.
// Registered under the `cache` CTest label (also run under TSan).

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
  static std::vector<graph::VertexId> hot_order() {
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

/// `order` shuffled by a Fisher-Yates pass over Pcg32(seed).
std::vector<graph::VertexId> shuffled(std::vector<graph::VertexId> order,
                                      std::uint64_t seed) {
  util::Pcg32 rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[rng.next_below(static_cast<std::uint32_t>(i))]);
  }
  return order;
}

/// Rows served by any source; equals the rows requested when no read fails.
std::uint64_t rows_served(const gnn::FeatureProvider::IoResilience& s) {
  return s.gpu_hits + s.cpu_hits + s.peer_rows + s.remote_hbm_host_rows +
         s.cache_hits + s.ssd_rows;
}

// ---------------------------------------------------------------------------
// Store-level cache cases
// ---------------------------------------------------------------------------

TEST(RowCache, LookupInsertRoundTrip) {
  Rig rig;
  RowCacheOptions opts;
  opts.capacity_rows = 4;
  rig.store.enable_row_cache(opts);
  const graph::VertexId hot = kFirstSsdVertex + 7;
  const graph::VertexId cold = kFirstSsdVertex + 8;
  EXPECT_TRUE(rig.store.cached_row(hot).empty());  // enabled but not warmed

  const std::vector<graph::VertexId> order = {hot};
  ASSERT_EQ(rig.store.warm_row_cache(order), 1u);
  const auto row = rig.store.cached_row(hot);
  ASSERT_EQ(row.size(), kDim);
  EXPECT_EQ(0, std::memcmp(row.data(), rig.task.features.row(hot).data(),
                           kDim * sizeof(float)));
  EXPECT_TRUE(rig.store.cached_row(cold).empty());

  // Through a client: the warmed row hits, the other is read from its SSD.
  TieredFeatureClient client(rig.store, 256, {});
  rig.array.start_all();
  const std::vector<graph::VertexId> vs = {hot, cold};
  gnn::Tensor out(vs.size(), kDim);
  client.gather(vs, out);
  rig.array.stop_all();
  expect_bytes_match(out, vs, rig.task.features, "round trip");
  EXPECT_EQ(client.io_resilience().cache_hits, 1u);
  EXPECT_EQ(client.io_resilience().cache_misses, 1u);
  EXPECT_EQ(client.io_resilience().ssd_rows, 1u);
}

TEST(RowCache, ReinsertNeverChangesBytes) {
  Rig rig;
  RowCacheOptions opts;
  opts.capacity_rows = 4;
  rig.store.enable_row_cache(opts);
  const graph::VertexId v = kFirstSsdVertex + 3;
  const graph::VertexId w = kFirstSsdVertex + 5;
  auto expect_source_bytes = [&](graph::VertexId u) {
    const auto row = rig.store.cached_row(u);
    ASSERT_EQ(row.size(), kDim) << "vertex " << u;
    EXPECT_EQ(0, std::memcmp(row.data(), rig.task.features.row(u).data(),
                             kDim * sizeof(float)))
        << "vertex " << u;
  };

  // A vertex repeated in the hotness order is cached once, with its bytes.
  const std::vector<graph::VertexId> repeated = {v, v, w, v};
  EXPECT_EQ(rig.store.warm_row_cache(repeated), 2u);
  expect_source_bytes(v);
  expect_source_bytes(w);

  // Re-warming with the vertex again, now in another slot, keeps its bytes.
  const std::vector<graph::VertexId> again = {w, v};
  EXPECT_EQ(rig.store.warm_row_cache(again), 2u);
  expect_source_bytes(v);
  expect_source_bytes(w);
}

TEST(RowCache, ZeroCapacityIsInert) {
  Rig rig;
  RowCacheOptions opts;
  opts.capacity_rows = 0;
  rig.store.enable_row_cache(opts);
  EXPECT_EQ(rig.store.row_cache_capacity(), 0u);
  EXPECT_EQ(rig.store.warm_row_cache(rig.hot_order()), 0u);
  EXPECT_TRUE(rig.store.cached_row(kFirstSsdVertex).empty());

  TieredFeatureClient client(rig.store, 256, {});
  rig.array.start_all();
  const auto vs = rig.hot_order();
  gnn::Tensor out(vs.size(), kDim);
  client.gather(vs, out);
  rig.array.stop_all();
  expect_bytes_match(out, vs, rig.task.features, "no cache");
  EXPECT_EQ(client.io_resilience().cache_hits, 0u);
  EXPECT_EQ(client.io_resilience().cache_misses, 0u);
  EXPECT_EQ(client.io_resilience().ssd_rows, vs.size());
}

// ---------------------------------------------------------------------------
// Gather pipeline: byte-identity and row conservation
// ---------------------------------------------------------------------------

TEST(GatherPipeline, DuplicateHeavyBatchesAreByteIdenticalAndConserveRows) {
  Rig rig;
  RowCacheOptions cache_opts;
  cache_opts.capacity_rows = 128;
  rig.store.enable_row_cache(cache_opts);
  rig.store.warm_row_cache(rig.hot_order());
  TieredFeatureClient client(rig.store, 256, {});
  rig.array.start_all();

  util::Pcg32 rng(11);
  for (int batch = 0; batch < 6; ++batch) {
    // 192 uniform draws over 512 vertices on every tier repeat vertices;
    // each occurrence is routed on its own.
    const auto vs = uniform_batch(192, rng);
    const std::set<graph::VertexId> unique(vs.begin(), vs.end());
    ASSERT_LT(unique.size(), vs.size()) << "batch " << batch;
    const std::uint64_t before = rows_served(client.io_resilience());
    gnn::Tensor out(vs.size(), kDim);
    client.gather(vs, out);
    expect_bytes_match(out, vs, rig.task.features, "uniform batch");
    EXPECT_EQ(rows_served(client.io_resilience()) - before, vs.size())
        << "batch " << batch;
  }
  rig.array.stop_all();

  const auto s = client.io_resilience();
  EXPECT_GT(s.gpu_hits, 0u);
  EXPECT_GT(s.cpu_hits, 0u);
  EXPECT_GT(s.ssd_rows, 0u);
  EXPECT_LE(s.ssd_commands, s.ssd_rows);
  // Draws of the warmed rows are served from the cache.
  EXPECT_GT(s.cache_hits, 0u);
  EXPECT_EQ(s.failovers, 0u);
}

TEST(GatherPipeline, CoalescingMergesAdjacentRunsOnFullRangeBatch) {
  // A batch covering every vertex gives each SSD a fully contiguous slot
  // range (slots are assigned in vertex order within a device), so its
  // pages form one run and each command carries many rows.
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

  const auto s = client.io_resilience();
  EXPECT_EQ(s.ssd_rows, kVertices - kFirstSsdVertex);
  EXPECT_GT(s.coalesced_commands, 0u);
  EXPECT_LT(s.ssd_commands, s.ssd_rows / 4)
      << "contiguous slots should coalesce aggressively";
  EXPECT_GT(s.coalesce_rows_per_cmd(), 4.0);
  // Each command is whole pages within the transfer bound: on average no
  // more pages than that, and at least one.
  std::uint64_t reads = 0, bytes = 0;
  for (std::size_t d = 0; d < 3; ++d) {
    reads += rig.array.ssd(d).stats().reads;
    bytes += rig.array.ssd(d).stats().bytes_read;
  }
  EXPECT_EQ(reads, s.ssd_commands);
  EXPECT_EQ(bytes % kPageBytes, 0u);
  const double pages_per_cmd =
      static_cast<double>(bytes / kPageBytes) / static_cast<double>(reads);
  EXPECT_GE(pages_per_cmd, 1.0);
  EXPECT_LE(pages_per_cmd,
            static_cast<double>(kMaxTransferBytes / kPageBytes));
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
  const auto s = client.io_resilience();
  const std::uint64_t naive = s.ssd_rows + s.cache_hits;
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
  cache_opts.capacity_rows = 64;
  rig.store.enable_row_cache(cache_opts);
  ASSERT_EQ(rig.store.warm_row_cache(rig.hot_order()),
            cache_opts.capacity_rows);
  const graph::VertexId first_cold = kFirstSsdVertex + 64;

  TieredFeatureClient client(rig.store, 256, {});
  rig.array.start_all();

  util::Pcg32 rng(33);
  std::uint64_t prev_hits = 0, prev_misses = 0;
  for (int round = 0; round < 6; ++round) {
    const auto vs = zipf_batch(256, rng);
    gnn::Tensor out(vs.size(), kDim);
    client.gather(vs, out);
    expect_bytes_match(out, vs, rig.task.features, "skewed trace");

    std::uint64_t hot = 0;
    for (graph::VertexId v : vs) hot += v < first_cold ? 1 : 0;
    const auto s = client.io_resilience();
    const std::uint64_t hit_delta = s.cache_hits - prev_hits;
    const std::uint64_t miss_delta = s.cache_misses - prev_misses;
    // Every occurrence of a warmed (hot) vertex hits and every other
    // SSD-resident occurrence misses, so the hit count grows each round and
    // the Zipf skew keeps hits ahead of misses.
    EXPECT_EQ(hit_delta, hot) << "round " << round;
    EXPECT_EQ(miss_delta, vs.size() - hot) << "round " << round;
    EXPECT_GT(s.cache_hits, prev_hits) << "round " << round;
    EXPECT_GT(hit_delta, miss_delta) << "round " << round;
    prev_hits = s.cache_hits;
    prev_misses = s.cache_misses;
  }
  rig.array.stop_all();
}

// ---------------------------------------------------------------------------
// Hotness-seeded warm-up
// ---------------------------------------------------------------------------

/// Rows warm_row_cache cached, and the stats of the gather that followed.
struct WarmedGather {
  std::size_t cached = 0;
  gnn::FeatureProvider::IoResilience stats;
};

/// Warms a fresh rig's 64-row cache from `order`, then gathers `vs` once.
WarmedGather warm_then_gather(std::span<const graph::VertexId> order,
                              std::span<const graph::VertexId> vs) {
  Rig rig;
  RowCacheOptions cache_opts;
  cache_opts.capacity_rows = 64;
  rig.store.enable_row_cache(cache_opts);
  WarmedGather result;
  result.cached = rig.store.warm_row_cache(order);

  TieredFeatureClient client(rig.store, 256, {});
  rig.array.start_all();
  gnn::Tensor out(vs.size(), kDim);
  client.gather(vs, out);
  rig.array.stop_all();
  expect_bytes_match(out, vs, rig.task.features, "warmed");
  result.stats = client.io_resilience();
  return result;
}

TEST(GatherPipeline, WarmupSeedsHotRowsAndSkipsCacheTierVertices) {
  // Hotness order starts with GPU/CPU-tier vertices: warmup must skip them
  // (they never reach the SSD path) and seed only SSD-resident rows. The
  // first gather of warmed vertices is pure cache hits: no SSD command.
  std::vector<graph::VertexId> order;
  for (graph::VertexId v = 0; v < kVertices; ++v) order.push_back(v);
  std::vector<graph::VertexId> vs;
  for (graph::VertexId v = kFirstSsdVertex; v < kFirstSsdVertex + 32; ++v) {
    vs.push_back(v);
  }
  WarmedGather w = warm_then_gather(order, vs);
  EXPECT_EQ(w.cached, 64u);
  EXPECT_EQ(w.stats.cache_hits, vs.size());
  EXPECT_EQ(w.stats.ssd_commands, 0u);

  // A shuffled set of exactly 64 SSD-resident rows fills the 64-row cache,
  // whatever vertices it holds: every one of them is served from DRAM.
  auto hot64 = shuffled(Rig::hot_order(), 5);
  hot64.resize(64);
  w = warm_then_gather(hot64, hot64);
  EXPECT_EQ(w.cached, 64u);
  EXPECT_EQ(w.stats.cache_hits, 64u);
  EXPECT_EQ(w.stats.ssd_commands, 0u);

  // A vertex repeated in the order counts once and takes one slot, so the
  // 64 distinct rows still all fit.
  std::vector<graph::VertexId> repeated = hot64;
  repeated.insert(repeated.begin() + 1, hot64[0]);
  w = warm_then_gather(repeated, hot64);
  EXPECT_EQ(w.cached, 64u);
  EXPECT_EQ(w.stats.cache_hits, 64u);
  EXPECT_EQ(w.stats.ssd_commands, 0u);
}

// ---------------------------------------------------------------------------
// Failover: the cache survives a remap and stays byte-identical
// ---------------------------------------------------------------------------

TEST(GatherPipeline, FailoverKeepsCacheAndStaysByteIdentical) {
  Rig rig;
  RowCacheOptions cache_opts;
  cache_opts.capacity_rows = 256;
  rig.store.enable_row_cache(cache_opts);
  const std::size_t warmed = rig.store.warm_row_cache(rig.hot_order());
  ASSERT_EQ(warmed, cache_opts.capacity_rows);

  // Coalescing packs each device's uncached slice of a full-range batch
  // into a few multi-row commands, so the failure threshold is in commands,
  // not rows: SSD 1 survives the first round's commands and dies mid-run
  // after that.
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
  std::uint64_t prev_hits = 0;
  for (int round = 0; round < 4; ++round) {
    gnn::Tensor out(vs.size(), kDim);
    client.gather(vs, out);
    expect_bytes_match(out, vs, rig.task.features, "failover round");
    // Every round, before and after the remap, serves each warmed row from
    // the cache: a remap moves rows between devices, not cached bytes.
    EXPECT_EQ(client.io_resilience().cache_hits - prev_hits, warmed)
        << "round " << round;
    prev_hits = client.io_resilience().cache_hits;
  }
  rig.array.stop_all();

  EXPECT_EQ(rig.array.health(1), DeviceHealth::kFailed);
  EXPECT_EQ(client.io_resilience().device_remaps, 1u);
  EXPECT_GT(client.io_resilience().failovers, 0u);
  EXPECT_EQ(client.io_resilience().cache_misses,
            4 * (kVertices - kFirstSsdVertex - warmed));
}

// ---------------------------------------------------------------------------
// Concurrency: two clients share the store and the cache (TSan target)
// ---------------------------------------------------------------------------

TEST(GatherPipeline, TwoClientsGatherConcurrentlyThroughSharedCache) {
  Rig rig;
  RowCacheOptions cache_opts;
  cache_opts.capacity_rows = 128;
  rig.store.enable_row_cache(cache_opts);
  rig.store.warm_row_cache(rig.hot_order());
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
  // Both threads read the shared table; Zipf draws favour the warmed rows.
  EXPECT_GT(client_a.io_resilience().cache_hits, 0u);
  EXPECT_GT(client_b.io_resilience().cache_hits, 0u);
}

// ---------------------------------------------------------------------------
// The IO thread: reads progress while the caller is away
// ---------------------------------------------------------------------------

/// One SSD paced at 8 MiB/s (~0.5 ms per 4 KiB row) holding every vertex in
/// slot order. Its rows fill a page each, so even vertices sit on
/// non-adjacent pages and a batch of them costs one command per row.
struct PacedRig {
  static constexpr std::size_t kRows = 1024;
  static constexpr std::size_t kDim = kPageBytes / sizeof(float);
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
  gnn::Tensor out(kBatch, PacedRig::kDim);
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

  EXPECT_EQ(client.io_resilience().ssd_commands, kBatch);
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
  gnn::Tensor out(kBatch, PacedRig::kDim);
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
