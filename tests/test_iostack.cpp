// Tests for the IO stack: SPSC rings, queue pairs, the SSD service loop,
// multi-client concurrency, pacing, and the tiered feature store.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "comm/planner.hpp"
#include "gnn/synthetic.hpp"
#include "graph/generators.hpp"
#include "iostack/feature_store.hpp"
#include "iostack/queue_pair.hpp"
#include "iostack/ssd.hpp"
#include "runtime/parallel_trainer.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "topology/machine.hpp"

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
  // Past the end, and an offset at which offset + length wraps around.
  const std::uint64_t offsets[] = {100 * kPageBytes, UINT64_MAX - 100};
  for (const std::uint64_t offset : offsets) {
    qp->submit({offset, static_cast<std::uint32_t>(kPageBytes), dest.data(),
                offset});
    Cqe cqe;
    while (!qp->poll_completion(cqe)) std::this_thread::yield();
    EXPECT_EQ(cqe.tag, offset);
    EXPECT_NE(cqe.status, 0u);
  }
  ssd.stop();
  EXPECT_EQ(ssd.stats().errors, 2u);
}

TEST(SsdDevice, WriteBeyondCapacityThrows) {
  SsdOptions opts;
  opts.capacity_bytes = kPageBytes;
  SsdDevice ssd(opts);
  std::vector<std::byte> page(kPageBytes);
  EXPECT_THROW(ssd.write(kPageBytes, page.data(), page.size()),
               std::out_of_range);
  // offset + length wraps around.
  EXPECT_THROW(ssd.write(UINT64_MAX - 7, page.data(), 16), std::out_of_range);
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
    std::vector<ReadRequest> reqs;
    for (std::size_t i = 0; i < 256; ++i) {
      const std::size_t s = rng.next_below(kSsds);
      const std::size_t p = rng.next_below(kPagesPerSsd);
      reqs.push_back({s, p * kPageBytes, static_cast<std::uint32_t>(kPageBytes),
                      buf.data() + i * kPageBytes});
    }
    std::vector<FailedRead> failed;
    engine.wait(engine.submit(reqs), failed);
    EXPECT_TRUE(failed.empty());
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint64_t p = reqs[i].offset / kPageBytes;
      EXPECT_EQ(buf[i * kPageBytes],
                static_cast<std::byte>(reqs[i].ssd * 100 + p))
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

/// `count` one-page reads from device 0, page i % pages into dest page i.
std::vector<ReadRequest> page_reads(std::size_t count, std::size_t pages,
                                    std::vector<std::byte>& dest) {
  std::vector<ReadRequest> reqs;
  for (std::size_t i = 0; i < count; ++i) {
    reqs.push_back({0, (i % pages) * kPageBytes,
                    static_cast<std::uint32_t>(kPageBytes),
                    dest.data() + i * kPageBytes});
  }
  return reqs;
}

TEST(IoEngine, BackpressureWhenQueueFull) {
  // Tiny queue depth forces the IO thread to drain completions between
  // submissions.
  SsdOptions opts;
  opts.capacity_bytes = 16 * kPageBytes;
  SsdArray array(1, opts);
  IoEngine engine(array, /*queue_depth=*/4);
  array.start_all();
  std::vector<std::byte> buf(64 * kPageBytes);
  const std::vector<ReadRequest> reqs = page_reads(64, 16, buf);
  std::vector<FailedRead> failed;
  engine.wait(engine.submit(reqs), failed);
  EXPECT_TRUE(failed.empty());
  EXPECT_EQ(engine.latency().count, 64u);
  array.stop_all();
}

TEST(IoEngine, SubmitBatchFeedsEveryDeviceWhileOneSqIsFull) {
  // Two paced SSDs and a batch sorted SSD0-first, several SQs deep. SSD0 is
  // not started yet, so its SQ fills and stays full: SSD1 must still get
  // (and serve) its whole share before SSD0's share is submitted.
  constexpr std::size_t kPerDevice = 32;
  constexpr std::size_t kDepth = 4;
  SsdOptions opts;
  opts.capacity_bytes = kPerDevice * kPageBytes;
  opts.max_bytes_per_s = 2.0 * 1024 * 1024;  // ~2 ms per 4 KiB read
  SsdArray array(2, opts);
  IoEngine engine(array, kDepth);
  std::vector<std::byte> buf(2 * kPerDevice * kPageBytes);
  std::vector<ReadRequest> reqs;
  for (std::size_t ssd = 0; ssd < 2; ++ssd) {
    for (std::size_t i = 0; i < kPerDevice; ++i) {
      reqs.push_back({ssd, i * kPageBytes,
                      static_cast<std::uint32_t>(kPageBytes),
                      buf.data() + (ssd * kPerDevice + i) * kPageBytes});
    }
  }
  array.ssd(1).start();
  const std::uint64_t ticket = engine.submit(reqs);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (array.ssd(1).stats().reads < kPerDevice &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::uint64_t ssd1_reads = array.ssd(1).stats().reads;
  array.ssd(0).start();
  std::vector<FailedRead> failed;
  engine.wait(ticket, failed);
  array.stop_all();
  EXPECT_EQ(ssd1_reads, kPerDevice) << "SSD1 starved behind SSD0's full SQ";
  EXPECT_TRUE(failed.empty());
  EXPECT_EQ(array.ssd(0).stats().reads, kPerDevice);
}

TEST(IoEngine, SubmitRejectsBadBatchAndServesTheNext) {
  // submit() validates the whole batch on the caller's thread: a bad batch
  // throws, none of it reaches the device, and the next batch is served.
  SsdOptions opts;
  opts.capacity_bytes = 4 * kPageBytes;
  SsdArray array(1, opts);
  const std::vector<std::byte> page(kPageBytes, std::byte{0x3C});
  array.ssd(0).write(0, page.data(), page.size());
  IoEngine engine(array);
  array.start_all();

  std::vector<std::byte> buf(kPageBytes);
  const auto page_len = static_cast<std::uint32_t>(kPageBytes);
  const std::vector<ReadRequest> too_long = {
      {0, 0, page_len, buf.data()},
      {0, 0, static_cast<std::uint32_t>(kMaxTransferBytes) + page_len,
       buf.data()}};
  const std::vector<ReadRequest> bad_ssd = {{7, 0, page_len, buf.data()}};
  EXPECT_THROW(engine.submit(too_long), std::invalid_argument);
  EXPECT_THROW(engine.submit(bad_ssd), std::out_of_range);

  const std::vector<ReadRequest> good = {{0, 0, page_len, buf.data()}};
  std::vector<FailedRead> failed;
  engine.wait(engine.submit(good), failed);
  EXPECT_TRUE(failed.empty());
  EXPECT_EQ(buf[0], std::byte{0x3C});
  // Only the good batch's read reached the device.
  EXPECT_EQ(array.ssd(0).stats().reads, 1u);
  EXPECT_EQ(engine.latency().count, 1u);
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
  std::vector<ReadRequest> reqs_a, reqs_b;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto len = static_cast<std::uint32_t>(kPageBytes);
    reqs_a.push_back({0, i * kPageBytes, len, buf_a.data() + i * kPageBytes});
    reqs_b.push_back(
        {0, (8 + i) * kPageBytes, len, buf_b.data() + i * kPageBytes});
  }
  const std::uint64_t ta = engine.submit(reqs_a);
  const std::uint64_t tb = engine.submit(reqs_b);

  // Waiting out of submission order must work too.
  std::vector<FailedRead> failed;
  engine.wait(tb, failed);
  EXPECT_TRUE(failed.empty());
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(buf_b[i * kPageBytes], static_cast<std::byte>(8 + i));
  }
  engine.wait(ta, failed);
  EXPECT_TRUE(failed.empty());
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(buf_a[i * kPageBytes], static_cast<std::byte>(i));
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
  const auto len = static_cast<std::uint32_t>(kPageBytes);
  const std::vector<ReadRequest> good = {{0, 0, len, buf.data()}};
  const std::vector<ReadRequest> bad = {
      {0, 100 * kPageBytes, len, buf.data() + kPageBytes}};
  const std::uint64_t t_good = engine.submit(good);
  const std::uint64_t t_bad = engine.submit(bad);
  std::vector<FailedRead> good_failed, bad_failed;
  engine.wait(t_good, good_failed);
  engine.wait(t_bad, bad_failed);
  EXPECT_TRUE(good_failed.empty());
  ASSERT_EQ(bad_failed.size(), 1u);
  EXPECT_EQ(bad_failed[0].offset, 100 * kPageBytes);
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
  const std::vector<ReadRequest> reqs = page_reads(256, 64, buf);
  std::vector<FailedRead> failed;
  const auto t0 = std::chrono::steady_clock::now();
  engine.wait(engine.submit(reqs), failed);
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

  const auto stats = client.io_resilience();
  EXPECT_GT(stats.gpu_hits, 0u);
  EXPECT_GT(stats.cpu_hits, 0u);
  EXPECT_GT(stats.ssd_rows, 0u);
  EXPECT_EQ(stats.gpu_hits + stats.cpu_hits + stats.ssd_rows,
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

TEST(FeatureStore, EpochStatsConserveGatheredRows) {
  // Two trainer workers gather from a GPU bin owned by GPU 0, a CPU bin, a
  // warmed row cache and two SSDs. With no faults every gathered row counts
  // once, under the source that served it, so the epoch's row sources add
  // up to fetched_vertices. GPU 1 reaches GPU 0's rows over a peer route,
  // or over the host copy when it has no plan.
  graph::RmatParams gp;
  gp.num_vertices = 512;
  gp.num_edges = 4000;
  const auto g = graph::generate_rmat(gp);
  const auto task = gnn::make_synthetic_task(g, 4, 12, 0.3, 9);
  const std::vector<BinBacking> bins = {
      {BinBacking::Kind::kGpuCache, -1, 0},
      {BinBacking::Kind::kCpuCache, -1},
      {BinBacking::Kind::kSsd, 0},
      {BinBacking::Kind::kSsd, 1},
  };
  std::vector<std::int32_t> bov(gp.num_vertices);
  for (std::size_t v = 0; v < bov.size(); ++v) {
    if (v < 48) bov[v] = 0;
    else if (v < 96) bov[v] = 1;
    else bov[v] = 2 + static_cast<std::int32_t>(v % 2);
  }
  SsdOptions opts;
  opts.capacity_bytes = 2ull << 20;
  SsdArray array(2, opts);
  TieredFeatureStore store(task.features, bov, bins, array);
  store.enable_row_cache({64});
  std::vector<graph::VertexId> order(gp.num_vertices);
  std::iota(order.begin(), order.end(), graph::VertexId{0});
  ASSERT_EQ(store.warm_row_cache(order), 64u);

  const auto spec = topology::make_machine_a();
  const auto topo = topology::instantiate(
      spec, topology::classic_placement(spec, 'c', 2, 8));
  const comm::CommPlan plan =
      comm::CommPlanner(topo).plan(comm::AllReduceAlgo::kRing);
  gnn::ModelConfig mcfg;
  mcfg.kind = gnn::ModelKind::kGraphSage;
  mcfg.in_dim = 12;
  mcfg.hidden_dim = 8;
  mcfg.num_classes = 4;
  const auto train = sampling::select_train_vertices(g, 0.2, 3);
  // Clients open their queue pairs before the devices start.
  TieredFeatureClient peer0(store, 256, {}, {}, {0, &plan, nullptr});
  TieredFeatureClient peer1(store, 256, {}, {}, {1, &plan, nullptr});
  TieredFeatureClient host0(store, 256, {}, {}, {0, nullptr, nullptr});
  TieredFeatureClient host1(store, 256, {}, {}, {1, nullptr, nullptr});
  array.start_all();

  for (const bool routed : {true, false}) {
    for (const std::size_t depth : {1u, 2u}) {
      runtime::EngineOptions eo;
      eo.pipeline_depth = depth;
      runtime::DataParallelTrainer trainer(
          g,
          routed ? std::vector<gnn::FeatureProvider*>{&peer0, &peer1}
                 : std::vector<gnn::FeatureProvider*>{&host0, &host1},
          mcfg, {5, 5}, train, 0.01f, 7, eo);
      for (int epoch = 0; epoch < 2; ++epoch) {
        const auto stats = trainer.train_epoch(task.labels, 32);
        const auto& io = stats.io;
        const std::string where = std::string(routed ? "peer" : "host") +
                                  " depth " + std::to_string(depth) +
                                  " epoch " + std::to_string(epoch);
        EXPECT_EQ(stats.fetched_vertices,
                  io.gpu_hits + io.cpu_hits + io.peer_rows +
                      io.remote_hbm_host_rows + io.cache_hits + io.ssd_rows)
            << where;
        EXPECT_EQ(io.failovers, 0u) << where;
        EXPECT_GT(io.gpu_hits, 0u) << where;
        EXPECT_GT(io.cpu_hits, 0u) << where;
        EXPECT_GT(io.cache_hits, 0u) << where;
        EXPECT_GT(io.ssd_rows, 0u) << where;
        EXPECT_GT(routed ? io.peer_rows : io.remote_hbm_host_rows, 0u)
            << where;
        EXPECT_EQ(routed ? io.remote_hbm_host_rows : io.peer_rows, 0u)
            << where;
      }
    }
  }
  array.stop_all();
}

}  // namespace
}  // namespace moment::iostack
