// Tests for the IO stack: SPSC rings, queue pairs, the SSD service loop,
// multi-client concurrency, pacing, and the tiered feature store.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "gnn/synthetic.hpp"
#include "graph/generators.hpp"
#include "iostack/feature_store.hpp"
#include "iostack/queue_pair.hpp"
#include "iostack/ssd.hpp"

namespace moment::iostack {
namespace {

TEST(SpscRing, FifoOrder) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.push(i));
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ring.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.pop(out));
}

TEST(SpscRing, FullAndEmpty) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.push(i));
  EXPECT_FALSE(ring.push(99));  // full
  int out;
  EXPECT_TRUE(ring.pop(out));
  EXPECT_TRUE(ring.push(99));  // space again
  EXPECT_EQ(ring.size(), 4u);
}

TEST(SpscRing, RoundsCapacityUpToPowerOfTwo) {
  // Depth 100 must not silently shrink to 64 — it rounds up to 128.
  SpscRing<int> ring(100);
  EXPECT_EQ(ring.capacity(), 128u);
  for (int i = 0; i < 128; ++i) EXPECT_TRUE(ring.push(i));
  EXPECT_FALSE(ring.push(999));  // full at the rounded capacity
  EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(64).capacity(), 64u);
  EXPECT_EQ(SpscRing<int>(65).capacity(), 128u);
  EXPECT_EQ(SpscRing<int>(0).capacity(), 64u);  // historical default
  // QueuePair::depth() reports the effective (rounded) capacity.
  EXPECT_EQ(QueuePair(100).depth(), 128u);
  EXPECT_EQ(QueuePair(256).depth(), 256u);
}

TEST(SpscRing, WraparoundAfterCapacityRounding) {
  // Capacity 6 -> 8; cycle far past the index wrap point with a ring that
  // is kept nearly full, exercising masked head/tail arithmetic.
  SpscRing<int> ring(6);
  ASSERT_EQ(ring.capacity(), 8u);
  int next_in = 0, next_out = 0;
  for (int round = 0; round < 1000; ++round) {
    while (ring.push(next_in)) ++next_in;
    EXPECT_EQ(ring.size(), 8u);
    int v;
    for (int k = 0; k < 5; ++k) {
      ASSERT_TRUE(ring.pop(v));
      EXPECT_EQ(v, next_out++);
    }
  }
}

TEST(SpscRing, ConcurrentNonPowerOfTwoCapacity) {
  // Producer/consumer stress through a rounded (100 -> 128) ring.
  SpscRing<std::uint64_t> ring(100);
  constexpr std::uint64_t kN = 100000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kN;) {
      if (ring.push(i)) ++i;
    }
  });
  std::uint64_t expected = 0;
  while (expected < kN) {
    std::uint64_t v;
    if (ring.pop(v)) {
      ASSERT_EQ(v, expected);
      ++expected;
    }
  }
  producer.join();
}

TEST(SpscRing, ConcurrentProducerConsumer) {
  SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kN = 100000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kN;) {
      if (ring.push(i)) ++i;
    }
  });
  std::uint64_t expected = 0;
  std::uint64_t sum = 0;
  while (expected < kN) {
    std::uint64_t v;
    if (ring.pop(v)) {
      ASSERT_EQ(v, expected);  // order preserved
      sum += v;
      ++expected;
    }
  }
  producer.join();
  EXPECT_EQ(sum, kN * (kN - 1) / 2);
}

TEST(SsdDevice, WriteThenReadThroughQueue) {
  SsdOptions opts;
  opts.capacity_bytes = 1 << 20;
  SsdDevice ssd(opts);
  QueuePair* qp = ssd.create_queue_pair();
  std::vector<std::byte> payload(kPageBytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i & 0xff);
  }
  ssd.write(3 * kPageBytes, payload.data(), payload.size());
  ssd.start();

  std::vector<std::byte> dest(kPageBytes);
  ASSERT_TRUE(qp->submit({3 * kPageBytes,
                          static_cast<std::uint32_t>(kPageBytes),
                          dest.data(), 42}));
  Cqe cqe;
  while (!qp->poll_completion(cqe)) std::this_thread::yield();
  EXPECT_EQ(cqe.tag, 42u);
  EXPECT_EQ(cqe.status, 0u);
  EXPECT_EQ(std::memcmp(dest.data(), payload.data(), kPageBytes), 0);
  ssd.stop();
  EXPECT_EQ(ssd.stats().reads, 1u);
  EXPECT_EQ(ssd.stats().bytes_read, kPageBytes);
}

TEST(SsdDevice, OutOfRangeReadFails) {
  SsdOptions opts;
  opts.capacity_bytes = 4 * kPageBytes;
  SsdDevice ssd(opts);
  QueuePair* qp = ssd.create_queue_pair();
  ssd.start();
  std::vector<std::byte> dest(kPageBytes);
  qp->submit({100 * kPageBytes, static_cast<std::uint32_t>(kPageBytes),
              dest.data(), 1});
  Cqe cqe;
  while (!qp->poll_completion(cqe)) std::this_thread::yield();
  EXPECT_NE(cqe.status, 0u);
  ssd.stop();
  EXPECT_EQ(ssd.stats().errors, 1u);
}

TEST(SsdDevice, WriteBeyondCapacityThrows) {
  SsdOptions opts;
  opts.capacity_bytes = kPageBytes;
  SsdDevice ssd(opts);
  std::vector<std::byte> page(kPageBytes);
  EXPECT_THROW(ssd.write(kPageBytes, page.data(), page.size()),
               std::out_of_range);
}

TEST(IoEngine, MultiGpuConcurrentReads) {
  // 2 "GPUs" hammer 4 SSDs concurrently; every byte must come back right.
  constexpr std::size_t kSsds = 4;
  constexpr std::size_t kPagesPerSsd = 64;
  SsdOptions opts;
  opts.capacity_bytes = kPagesPerSsd * kPageBytes;
  SsdArray array(kSsds, opts);
  for (std::size_t s = 0; s < kSsds; ++s) {
    for (std::size_t p = 0; p < kPagesPerSsd; ++p) {
      std::vector<std::byte> page(kPageBytes,
                                  static_cast<std::byte>(s * 100 + p));
      array.ssd(s).write(p * kPageBytes, page.data(), page.size());
    }
  }
  IoEngine e0(array), e1(array);
  array.start_all();

  auto worker = [&](IoEngine& engine, std::uint64_t seed) {
    util::Pcg32 rng(seed);
    std::vector<std::byte> buf(256 * kPageBytes);
    std::vector<std::pair<std::size_t, std::size_t>> reqs;
    for (int i = 0; i < 256; ++i) {
      const std::size_t s = rng.next_below(kSsds);
      const std::size_t p = rng.next_below(kPagesPerSsd);
      engine.submit_read(s, p * kPageBytes,
                         static_cast<std::uint32_t>(kPageBytes),
                         buf.data() + static_cast<std::size_t>(i) * kPageBytes);
      reqs.emplace_back(s, p);
    }
    EXPECT_EQ(engine.wait_all(), 0u);
    for (int i = 0; i < 256; ++i) {
      const auto [s, p] = reqs[static_cast<std::size_t>(i)];
      EXPECT_EQ(buf[static_cast<std::size_t>(i) * kPageBytes],
                static_cast<std::byte>(s * 100 + p))
          << "req " << i;
    }
  };
  std::thread t0(worker, std::ref(e0), 1);
  std::thread t1(worker, std::ref(e1), 2);
  t0.join();
  t1.join();
  array.stop_all();

  std::uint64_t total_reads = 0;
  for (std::size_t s = 0; s < kSsds; ++s) {
    total_reads += array.ssd(s).stats().reads;
  }
  EXPECT_EQ(total_reads, 512u);
}

TEST(IoEngine, BackpressureWhenQueueFull) {
  // Tiny queue depth forces the submit path to drain completions inline.
  SsdOptions opts;
  opts.capacity_bytes = 16 * kPageBytes;
  SsdArray array(1, opts);
  IoEngine engine(array, /*queue_depth=*/4);
  array.start_all();
  std::vector<std::byte> buf(64 * kPageBytes);
  for (int i = 0; i < 64; ++i) {
    engine.submit_read(0, (static_cast<std::uint64_t>(i) % 16) * kPageBytes,
                       static_cast<std::uint32_t>(kPageBytes),
                       buf.data() + static_cast<std::size_t>(i) * kPageBytes);
  }
  EXPECT_EQ(engine.wait_all(), 0u);
  EXPECT_EQ(engine.completed(), 64u);
  array.stop_all();
}

TEST(IoEngine, CompletionGroupsAwaitIndependently) {
  // Two read batches in flight at once; each group completes on its own.
  constexpr std::size_t kPages = 32;
  SsdOptions opts;
  opts.capacity_bytes = kPages * kPageBytes;
  SsdArray array(1, opts);
  for (std::size_t p = 0; p < kPages; ++p) {
    std::vector<std::byte> page(kPageBytes, static_cast<std::byte>(p));
    array.ssd(0).write(p * kPageBytes, page.data(), page.size());
  }
  IoEngine engine(array);
  array.start_all();

  std::vector<std::byte> buf_a(8 * kPageBytes), buf_b(8 * kPageBytes);
  const std::uint64_t ga = engine.group_begin();
  for (int i = 0; i < 8; ++i) {
    engine.submit_read(0, static_cast<std::uint64_t>(i) * kPageBytes,
                       static_cast<std::uint32_t>(kPageBytes),
                       buf_a.data() + static_cast<std::size_t>(i) * kPageBytes);
  }
  engine.group_end(ga);
  const std::uint64_t gb = engine.group_begin();
  for (int i = 0; i < 8; ++i) {
    engine.submit_read(0, static_cast<std::uint64_t>(8 + i) * kPageBytes,
                       static_cast<std::uint32_t>(kPageBytes),
                       buf_b.data() + static_cast<std::size_t>(i) * kPageBytes);
  }
  engine.group_end(gb);

  // Waiting out of submission order must work too.
  EXPECT_EQ(engine.wait_group(gb), 0u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(buf_b[static_cast<std::size_t>(i) * kPageBytes],
              static_cast<std::byte>(8 + i));
  }
  EXPECT_EQ(engine.wait_group(ga), 0u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(buf_a[static_cast<std::size_t>(i) * kPageBytes],
              static_cast<std::byte>(i));
  }
  array.stop_all();
}

TEST(IoEngine, GroupFailuresAreAttributed) {
  SsdOptions opts;
  opts.capacity_bytes = 4 * kPageBytes;
  SsdArray array(1, opts);
  IoEngine engine(array);
  array.start_all();
  std::vector<std::byte> buf(2 * kPageBytes);
  const std::uint64_t ok = engine.group_begin();
  engine.submit_read(0, 0, static_cast<std::uint32_t>(kPageBytes), buf.data());
  engine.group_end(ok);
  const std::uint64_t bad = engine.group_begin();
  engine.submit_read(0, 100 * kPageBytes, static_cast<std::uint32_t>(kPageBytes),
                     buf.data() + kPageBytes);
  engine.group_end(bad);
  EXPECT_EQ(engine.wait_group(ok), 0u);
  EXPECT_EQ(engine.wait_group(bad), 1u);
  array.stop_all();
}

TEST(SsdDevice, PacingLimitsThroughput) {
  SsdOptions opts;
  opts.capacity_bytes = 64 * kPageBytes;
  opts.max_bytes_per_s = 4.0 * 1024 * 1024;  // 4 MiB/s
  SsdArray array(1, opts);
  IoEngine engine(array);
  array.start_all();
  std::vector<std::byte> buf(256 * kPageBytes);  // 1 MiB total
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 256; ++i) {
    engine.submit_read(0, (static_cast<std::uint64_t>(i) % 64) * kPageBytes,
                       static_cast<std::uint32_t>(kPageBytes),
                       buf.data() + static_cast<std::size_t>(i) * kPageBytes);
  }
  engine.wait_all();
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  array.stop_all();
  // 1 MiB at 4 MiB/s should take ~0.25 s; allow generous slack either way.
  EXPECT_GT(dt, 0.1);
}

TEST(FeatureStore, RoundTripsThroughAllTiers) {
  graph::RmatParams gp;
  gp.num_vertices = 512;
  gp.num_edges = 3000;
  const auto g = graph::generate_rmat(gp);
  const auto task = gnn::make_synthetic_task(g, 4, 12, 0.2, 3);

  // Place vertices: 32 in GPU cache, 32 in CPU cache, rest striped on SSDs.
  std::vector<BinBacking> bins = {
      {BinBacking::Kind::kGpuCache, -1},
      {BinBacking::Kind::kCpuCache, -1},
      {BinBacking::Kind::kSsd, 0},
      {BinBacking::Kind::kSsd, 1},
  };
  std::vector<std::int32_t> bin_of_vertex(512);
  for (std::size_t v = 0; v < 512; ++v) {
    if (v < 32) bin_of_vertex[v] = 0;
    else if (v < 64) bin_of_vertex[v] = 1;
    else bin_of_vertex[v] = 2 + static_cast<std::int32_t>(v % 2);
  }

  SsdOptions opts;
  opts.capacity_bytes = 2ull << 20;
  SsdArray array(2, opts);
  TieredFeatureStore store(task.features, bin_of_vertex, bins, array);
  TieredFeatureClient client(store);
  array.start_all();

  // Gather a mix of vertices from all tiers and compare with ground truth.
  std::vector<graph::VertexId> vertices;
  for (graph::VertexId v = 0; v < 512; v += 7) vertices.push_back(v);
  gnn::Tensor out(vertices.size(), 12);
  client.gather(vertices, out);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    for (std::size_t c = 0; c < 12; ++c) {
      ASSERT_FLOAT_EQ(out.at(i, c), task.features.at(vertices[i], c))
          << "vertex " << vertices[i];
    }
  }
  array.stop_all();

  const auto& stats = client.stats();
  EXPECT_GT(stats.gpu_hits, 0u);
  EXPECT_GT(stats.cpu_hits, 0u);
  EXPECT_GT(stats.ssd_reads, 0u);
  EXPECT_EQ(stats.gpu_hits + stats.cpu_hits + stats.ssd_reads,
            vertices.size());
}

TEST(FeatureStore, AsyncGatherMatchesSyncAcrossTiers) {
  graph::RmatParams gp;
  gp.num_vertices = 256;
  gp.num_edges = 1500;
  const auto g = graph::generate_rmat(gp);
  const auto task = gnn::make_synthetic_task(g, 4, 12, 0.2, 17);
  std::vector<BinBacking> bins = {
      {BinBacking::Kind::kGpuCache, -1},
      {BinBacking::Kind::kCpuCache, -1},
      {BinBacking::Kind::kSsd, 0},
      {BinBacking::Kind::kSsd, 1},
  };
  std::vector<std::int32_t> bin_of_vertex(256);
  for (std::size_t v = 0; v < 256; ++v) {
    if (v < 16) bin_of_vertex[v] = 0;
    else if (v < 32) bin_of_vertex[v] = 1;
    else bin_of_vertex[v] = 2 + static_cast<std::int32_t>(v % 2);
  }
  SsdOptions opts;
  opts.capacity_bytes = 1ull << 20;
  SsdArray array(2, opts);
  TieredFeatureStore store(task.features, bin_of_vertex, bins, array);
  TieredFeatureClient client(store);
  array.start_all();

  std::vector<graph::VertexId> a, b;
  for (graph::VertexId v = 0; v < 256; v += 3) a.push_back(v);
  for (graph::VertexId v = 1; v < 256; v += 5) b.push_back(v);

  gnn::Tensor sync_a(a.size(), 12), sync_b(b.size(), 12);
  client.gather(a, sync_a);
  client.gather(b, sync_b);

  // Two async gathers in flight at once, completed out of order.
  gnn::Tensor async_a(a.size(), 12), async_b(b.size(), 12);
  const auto ta = client.gather_begin(a, async_a);
  const auto tb = client.gather_begin(b, async_b);
  EXPECT_NE(ta, gnn::FeatureProvider::kSyncTicket);
  EXPECT_NE(tb, gnn::FeatureProvider::kSyncTicket);
  client.gather_wait(tb);
  client.gather_wait(ta);
  array.stop_all();

  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t c = 0; c < 12; ++c) {
      ASSERT_FLOAT_EQ(async_a.at(i, c), sync_a.at(i, c)) << "vertex " << a[i];
      ASSERT_FLOAT_EQ(async_a.at(i, c), task.features.at(a[i], c));
    }
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    for (std::size_t c = 0; c < 12; ++c) {
      ASSERT_FLOAT_EQ(async_b.at(i, c), sync_b.at(i, c)) << "vertex " << b[i];
    }
  }
}

TEST(FeatureStore, CacheOnlyGatherCompletesInsideBegin) {
  graph::RmatParams gp;
  gp.num_vertices = 32;
  gp.num_edges = 64;
  const auto g = graph::generate_rmat(gp);
  const auto task = gnn::make_synthetic_task(g, 2, 8, 0.1, 1);
  std::vector<BinBacking> bins = {{BinBacking::Kind::kCpuCache, -1}};
  std::vector<std::int32_t> bov(32, 0);
  SsdOptions opts;
  SsdArray array(1, opts);
  TieredFeatureStore store(task.features, bov, bins, array);
  TieredFeatureClient client(store);
  // No SSD rows: the gather is served entirely from the cache tier and the
  // ticket reports synchronous completion (no SSD reads, array not started).
  std::vector<graph::VertexId> vs = {0, 5, 9, 31};
  gnn::Tensor out(vs.size(), 8);
  const auto ticket = client.gather_begin(vs, out);
  EXPECT_EQ(ticket, gnn::FeatureProvider::kSyncTicket);
  client.gather_wait(ticket);  // must be a no-op
  for (std::size_t i = 0; i < vs.size(); ++i) {
    for (std::size_t c = 0; c < 8; ++c) {
      ASSERT_FLOAT_EQ(out.at(i, c), task.features.at(vs[i], c));
    }
  }
}

TEST(FeatureStore, ThirdInFlightGatherRejected) {
  graph::RmatParams gp;
  gp.num_vertices = 64;
  gp.num_edges = 128;
  const auto g = graph::generate_rmat(gp);
  const auto task = gnn::make_synthetic_task(g, 2, 8, 0.1, 2);
  std::vector<BinBacking> bins = {{BinBacking::Kind::kSsd, 0}};
  std::vector<std::int32_t> bov(64, 0);
  SsdOptions opts;
  opts.capacity_bytes = 1ull << 20;
  SsdArray array(1, opts);
  TieredFeatureStore store(task.features, bov, bins, array);
  TieredFeatureClient client(store);
  array.start_all();
  std::vector<graph::VertexId> vs = {1, 2, 3};
  gnn::Tensor o1(3, 8), o2(3, 8), o3(3, 8);
  const auto t1 = client.gather_begin(vs, o1);
  const auto t2 = client.gather_begin(vs, o2);
  EXPECT_THROW(client.gather_begin(vs, o3), std::logic_error);
  client.gather_wait(t1);
  client.gather_wait(t2);
  array.stop_all();
}

TEST(FeatureStore, RowsArePageAligned) {
  graph::RmatParams gp;
  gp.num_vertices = 8;
  gp.num_edges = 16;
  const auto g = graph::generate_rmat(gp);
  const auto task = gnn::make_synthetic_task(g, 2, 100, 0.1, 1);  // 400 B rows
  std::vector<BinBacking> bins = {{BinBacking::Kind::kSsd, 0}};
  std::vector<std::int32_t> bov(8, 0);
  SsdOptions opts;
  SsdArray array(1, opts);
  TieredFeatureStore store(task.features, bov, bins, array);
  EXPECT_EQ(store.row_bytes() % kPageBytes, 0u);
  EXPECT_GE(store.row_bytes(), 100 * sizeof(float));
}

TEST(FeatureStore, RejectsOverflowingPlacement) {
  graph::RmatParams gp;
  gp.num_vertices = 64;
  gp.num_edges = 100;
  const auto g = graph::generate_rmat(gp);
  const auto task = gnn::make_synthetic_task(g, 2, 16, 0.1, 1);
  std::vector<BinBacking> bins = {{BinBacking::Kind::kSsd, 0}};
  std::vector<std::int32_t> bov(64, 0);
  SsdOptions opts;
  opts.capacity_bytes = 4 * kPageBytes;  // room for only 4 rows
  SsdArray array(1, opts);
  EXPECT_THROW(TieredFeatureStore(task.features, bov, bins, array),
               std::invalid_argument);
}

TEST(FeatureStore, RejectsSsdRowsWiderThanOneTransfer) {
  // One float past kMaxTransferBytes: the padded row no longer fits in a
  // single read command, so an SSD placement must be refused up front.
  graph::RmatParams gp;
  gp.num_vertices = 4;
  gp.num_edges = 8;
  const auto g = graph::generate_rmat(gp);
  const std::size_t dim = kMaxTransferBytes / sizeof(float) + 1;
  const auto task = gnn::make_synthetic_task(g, 2, dim, 0.1, 1);
  std::vector<std::int32_t> bov(4, 0);
  SsdOptions opts;
  opts.capacity_bytes = 16ull << 20;
  SsdArray array(1, opts);
  const std::vector<BinBacking> ssd_bins = {{BinBacking::Kind::kSsd, 0}};
  EXPECT_THROW(TieredFeatureStore(task.features, bov, ssd_bins, array),
               std::invalid_argument);
  // Cache tiers read rows in place, so the same width is fine there.
  const std::vector<BinBacking> cpu_bins = {{BinBacking::Kind::kCpuCache, -1}};
  TieredFeatureStore store(task.features, bov, cpu_bins, array);
  EXPECT_GT(store.row_bytes(), kMaxTransferBytes);
}

}  // namespace
}  // namespace moment::iostack
