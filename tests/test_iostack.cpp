// Tests for the IO stack: SPSC rings, queue pairs, the SSD service loop,
// multi-client concurrency, pacing, and the tiered feature store.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "comm/planner.hpp"
#include "gnn/synthetic.hpp"
#include "graph/generators.hpp"
#include "iostack/fault_injector.hpp"
#include "iostack/feature_store.hpp"
#include "iostack/queue_pair.hpp"
#include "iostack/ssd.hpp"
#include "runtime/parallel_trainer.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "topology/machine.hpp"
#include "util/rng.hpp"

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
    std::vector<std::size_t> failed;
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
  std::vector<std::size_t> failed;
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
  std::vector<std::size_t> failed;
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
  std::vector<std::size_t> failed;
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
  std::vector<std::size_t> failed;
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
  std::vector<std::size_t> good_failed, bad_failed;
  engine.wait(t_good, good_failed);
  engine.wait(t_bad, bad_failed);
  EXPECT_TRUE(good_failed.empty());
  ASSERT_EQ(bad_failed.size(), 1u);
  ASSERT_EQ(bad_failed[0], 0u);
  EXPECT_EQ(bad[bad_failed[0]].offset, 100 * kPageBytes);
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
  std::vector<std::size_t> failed;
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
  EXPECT_EQ(stats.gpu_hits + stats.cpu_hits + stats.dedup_saved_reads +
                stats.ssd_rows,
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
  // The sync reference gathers on a client of its own, so none of the
  // async gathers' pages sits in an idle slot and both must read.
  TieredFeatureClient reference(store);
  TieredFeatureClient client(store);
  array.start_all();

  std::vector<graph::VertexId> a, b;
  for (graph::VertexId v = 0; v < 256; v += 3) a.push_back(v);
  for (graph::VertexId v = 1; v < 256; v += 5) b.push_back(v);

  gnn::Tensor sync_a(a.size(), 12), sync_b(b.size(), 12);
  reference.gather(a, sync_a);
  reference.gather(b, sync_b);

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

/// Features whose every float is distinct, so a row read from the wrong
/// place never matches.
gnn::Tensor numbered_features(std::size_t rows, std::size_t dim) {
  gnn::Tensor t(rows, dim);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(i) + 0.25f;
  }
  return t;
}

TEST(FeatureStore, RowsArePageAligned) {
  // 400 B rows pack 10 to a 4 KiB page in vertex order, back to back from
  // the page's start, and none straddles a page: row 10 opens page 1.
  // Read the device's pages raw and find every row where the layout says.
  constexpr std::size_t kRows = 24;
  const gnn::Tensor features = numbered_features(kRows, 100);  // 400 B rows
  std::vector<BinBacking> bins = {{BinBacking::Kind::kSsd, 0}};
  std::vector<std::int32_t> bov(kRows, 0);
  SsdOptions opts;
  SsdArray array(1, opts);
  TieredFeatureStore store(features, bov, bins, array);
  EXPECT_EQ(store.row_bytes(), 400u);

  constexpr std::size_t kPages = 3;  // 10 + 10 + 4 rows
  std::vector<std::byte> pages(kPages * kPageBytes);
  {
    IoEngine engine(array);
    array.start_all();
    const std::vector<ReadRequest> reqs = {
        {0, 0, static_cast<std::uint32_t>(kPages * kPageBytes), pages.data()}};
    std::vector<std::size_t> failed;
    engine.wait(engine.submit(reqs), failed);
    EXPECT_TRUE(failed.empty());
  }
  array.stop_all();
  for (std::size_t v = 0; v < kRows; ++v) {
    EXPECT_EQ(store.location(static_cast<graph::VertexId>(v)).index, v);
    const std::size_t off = v / 10 * kPageBytes + v % 10 * 400;
    EXPECT_LE(v % 10 * 400 + 400, kPageBytes) << "row " << v << " straddles";
    EXPECT_EQ(0, std::memcmp(pages.data() + off, features.row(v).data(), 400))
        << "row " << v;
  }
}

TEST(FeatureStore, WarmPacksSsdSlotsInHotnessOrder) {
  // 512 B rows, 8 to a page. Every sixth vertex is in the CPU tier; the
  // rest sit on SSD v % 2. A warm rewrites each device's rows into slots
  // 0, 1, 2, ... in ranking order, then its unranked rows in id order;
  // repeated, out-of-range and CPU-tier ids in the ranking take no slot.
  // Read the devices' pages raw and find every row where that order says,
  // then gather every vertex, after a first and a second ranking.
  constexpr std::size_t kRows = 48, kDim = 128, kPages = 3;
  const gnn::Tensor features = numbered_features(kRows, kDim);
  const std::vector<BinBacking> bins = {{BinBacking::Kind::kCpuCache, -1},
                                        {BinBacking::Kind::kSsd, 0},
                                        {BinBacking::Kind::kSsd, 1}};
  std::vector<std::int32_t> bov(kRows);
  for (std::size_t v = 0; v < kRows; ++v) {
    bov[v] = v % 6 == 0 ? 0 : 1 + static_cast<std::int32_t>(v % 2);
  }
  std::vector<graph::VertexId> first = {47, 13, 13, 200, 6, 2, 47, 29, 8, 1};
  std::vector<graph::VertexId> second(kRows);
  std::iota(second.rbegin(), second.rend(), graph::VertexId{0});
  second.insert(second.begin() + 5, {kRows, 40, 3});
  std::vector<graph::VertexId> all(kRows);
  std::iota(all.begin(), all.end(), graph::VertexId{0});

  // The oracle: device `ssd`'s vertices in slot order under `ranking`.
  const auto packed_order = [&](const std::vector<graph::VertexId>& ranking,
                                int ssd) {
    std::vector<graph::VertexId> order;
    std::vector<bool> seen(kRows, false);
    const auto take = [&](graph::VertexId v) {
      if (bins[static_cast<std::size_t>(bov[v])].ssd == ssd) {
        order.push_back(v);
      }
    };
    for (const graph::VertexId v : ranking) {
      if (v < kRows && !seen[v]) {
        seen[v] = true;
        take(v);
      }
    }
    for (const graph::VertexId v : all) {
      if (!seen[v]) take(v);
    }
    return order;
  };

  for (const std::size_t capacity : {0u, 4u}) {
    SsdOptions opts;
    opts.capacity_bytes = 16 * kPageBytes;
    SsdArray array(2, opts);
    TieredFeatureStore store(features, bov, bins, array);
    store.enable_row_cache({capacity});
    IoEngine raw(array);
    TieredFeatureClient client(store);
    array.start_all();
    for (const auto* ranking : {&first, &second}) {
      ASSERT_EQ(store.warm_row_cache(*ranking), capacity);
      for (const int ssd : {0, 1}) {
        std::vector<std::byte> pages(kPages * kPageBytes);
        const std::vector<ReadRequest> reqs = {
            {static_cast<std::size_t>(ssd), 0,
             static_cast<std::uint32_t>(pages.size()), pages.data()}};
        std::vector<std::size_t> failed;
        raw.wait(raw.submit(reqs), failed);
        ASSERT_TRUE(failed.empty());
        const auto order = packed_order(*ranking, ssd);
        EXPECT_EQ(order.size(), ssd == 0 ? 16u : 24u);
        for (std::size_t i = 0; i < order.size(); ++i) {
          const auto loc = store.location(order[i]);
          EXPECT_EQ(loc.ssd, ssd);
          EXPECT_EQ(loc.index, i) << "vertex " << order[i];
          EXPECT_EQ(0, std::memcmp(pages.data() + i / 8 * kPageBytes +
                                       i % 8 * kDim * sizeof(float),
                                   features.row(order[i]).data(),
                                   kDim * sizeof(float)))
              << "capacity " << capacity << " ssd " << ssd << " slot " << i;
        }
      }
      gnn::Tensor out(kRows, kDim);
      client.gather(all, out);
      for (const graph::VertexId v : all) {
        EXPECT_EQ(0, std::memcmp(out.row(v).data(), features.row(v).data(),
                                 kDim * sizeof(float)))
            << "capacity " << capacity << " vertex " << v;
      }
    }
    array.stop_all();
  }
}

TEST(FeatureStore, RejectsOverflowingPlacement) {
  // 64 rows of 400 B need 7 pages (10 per page, the last holds 4): six
  // pages overflow even though 64 x 400 B would fit in them byte for byte,
  // and seven are enough.
  graph::RmatParams gp;
  gp.num_vertices = 64;
  gp.num_edges = 100;
  const auto g = graph::generate_rmat(gp);
  const auto task = gnn::make_synthetic_task(g, 2, 100, 0.1, 1);
  std::vector<BinBacking> bins = {{BinBacking::Kind::kSsd, 0}};
  std::vector<std::int32_t> bov(64, 0);
  SsdOptions opts;
  opts.capacity_bytes = 6 * kPageBytes;  // room for only 60 rows
  SsdArray array(1, opts);
  EXPECT_THROW(TieredFeatureStore(task.features, bov, bins, array),
               std::invalid_argument);
  opts.capacity_bytes = 7 * kPageBytes;
  SsdArray roomy(1, opts);
  EXPECT_NO_THROW(TieredFeatureStore(task.features, bov, bins, roomy));
}

/// Pages per SSD, the form the page oracles below compare in.
using PageSets = std::array<std::set<std::uint64_t>, 2>;

/// A packed store over two SSDs: vertex v on SSD v % 3 == 0 ? 1 : 0, so
/// each device holds runs of neighbouring slots and gaps between them.
struct PackedRig {
  static constexpr std::size_t kRows = 600;
  gnn::Tensor features;
  std::vector<BinBacking> bins{{BinBacking::Kind::kSsd, 0},
                               {BinBacking::Kind::kSsd, 1}};
  std::vector<std::int32_t> bov;
  SsdArray array;
  TieredFeatureStore store;

  explicit PackedRig(std::size_t dim)
      : features(numbered_features(kRows, dim)), bov(make_bov()),
        array(2, make_options(dim)), store(features, bov, bins, array) {}

  static std::vector<std::int32_t> make_bov() {
    std::vector<std::int32_t> bov(kRows);
    for (std::size_t v = 0; v < kRows; ++v) bov[v] = v % 3 == 0 ? 1 : 0;
    return bov;
  }
  static SsdOptions make_options(std::size_t dim) {
    SsdOptions opts;
    opts.capacity_bytes = kRows * ((dim * sizeof(float) + kPageBytes - 1) /
                                   kPageBytes * kPageBytes);
    return opts;
  }
  /// Adds the pages `v`'s row lies on in the current layout to `pages`.
  void add_pages(graph::VertexId v, PageSets& pages) const {
    const std::size_t row_bytes = store.row_bytes();
    const std::size_t row_pages = (row_bytes + kPageBytes - 1) / kPageBytes;
    const std::size_t per_page = row_pages > 1 ? 1 : kPageBytes / row_bytes;
    const auto loc = store.location(v);
    const std::uint64_t first = loc.index / per_page * row_pages;
    for (std::size_t p = 0; p < row_pages; ++p) {
      pages[static_cast<std::size_t>(loc.ssd)].insert(first + p);
    }
  }
  PageSets pages_of(std::span<const graph::VertexId> vs) const {
    PageSets pages;
    for (const graph::VertexId v : vs) add_pages(v, pages);
    return pages;
  }
  /// Reads, bytes and errors summed over both devices.
  SsdStats device_stats() {
    SsdStats sum;
    for (std::size_t s = 0; s < 2; ++s) {
      const SsdStats d = array.ssd(s).stats();
      sum.reads += d.reads;
      sum.bytes_read += d.bytes_read;
      sum.errors += d.errors;
    }
    return sum;
  }
};

/// The commands that read `pages`: per SSD, each maximal run of
/// consecutive pages cut into pieces of at most kMaxTransferBytes.
std::uint64_t run_commands(const PageSets& pages) {
  constexpr std::size_t kMaxPages = kMaxTransferBytes / kPageBytes;
  std::uint64_t cmds = 0;
  for (const auto& set : pages) {
    std::uint64_t run = 0, prev = 0;
    for (const std::uint64_t p : set) {
      if (run > 0 && p != prev + 1) {
        cmds += (run + kMaxPages - 1) / kMaxPages;
        run = 0;
      }
      ++run;
      prev = p;
    }
    if (run > 0) cmds += (run + kMaxPages - 1) / kMaxPages;
  }
  return cmds;
}

std::uint64_t page_count(const PageSets& pages) {
  return pages[0].size() + pages[1].size();
}

/// Rows per page and pages per row of a `dim`-float row: 8, 10, 1 and
/// under 1 rows per page.
constexpr std::size_t kPackedDims[] = {128, 100, 1024, 1500};

/// Batches that cover the store: every vertex, every third one, a
/// duplicate-heavy random draw, and single rows at page edges.
std::vector<std::vector<graph::VertexId>> packed_batches() {
  std::vector<std::vector<graph::VertexId>> batches(4);
  for (graph::VertexId v = 0; v < PackedRig::kRows; ++v) {
    batches[0].push_back(v);
    if (v % 3 == 1) batches[1].push_back(v);
  }
  util::Pcg32 rng(17);
  for (int i = 0; i < 300; ++i) {
    batches[2].push_back(static_cast<graph::VertexId>(
        rng.next_below(static_cast<std::uint32_t>(PackedRig::kRows))));
  }
  batches[3] = {9, 10, 11, 79, 80, 599};
  return batches;
}

TEST(FeatureStore, PackedGathersAreByteIdenticalAtEveryRowsPerPage) {
  for (const std::size_t dim : kPackedDims) {
    PackedRig rig(dim);
    TieredFeatureClient client(rig.store);
    rig.array.start_all();
    for (const auto& vs : packed_batches()) {
      gnn::Tensor out(vs.size(), dim);
      client.gather(vs, out);
      for (std::size_t i = 0; i < vs.size(); ++i) {
        ASSERT_EQ(0, std::memcmp(out.row(i).data(),
                                 rig.features.row(vs[i]).data(),
                                 dim * sizeof(float)))
            << "dim " << dim << " vertex " << vs[i];
      }
    }
    rig.array.stop_all();
    EXPECT_EQ(client.io_resilience().failovers, 0u) << "dim " << dim;
    // The devices reject any read that is not whole, aligned pages.
    EXPECT_EQ(rig.device_stats().errors, 0u) << "dim " << dim;
  }
}

TEST(FeatureStore, CommandsAreMaximalRunsOfTouchedPages) {
  // The oracle: per SSD, the set of pages the batch's rows lie on, split
  // into maximal runs of consecutive pages, each run cut into commands of
  // at most kMaxTransferBytes. The client must issue exactly those
  // commands: one per run piece, each page read once, none partial or
  // unaligned (the device would fail it) and none over the transfer bound
  // (IoEngine::submit would throw).
  for (const std::size_t dim : kPackedDims) {
    PackedRig rig(dim);
    // Each batch gathers on a client of its own, so no idle staging slot
    // holds any of its pages and every touched page must be read.
    const auto batches = packed_batches();
    std::vector<std::unique_ptr<TieredFeatureClient>> clients;
    for (std::size_t i = 0; i < batches.size(); ++i) {
      clients.push_back(std::make_unique<TieredFeatureClient>(rig.store));
    }
    rig.array.start_all();
    for (std::size_t b = 0; b < batches.size(); ++b) {
      const auto& vs = batches[b];
      TieredFeatureClient& client = *clients[b];
      const PageSets pages = rig.pages_of(vs);
      const std::uint64_t want_cmds = run_commands(pages);
      const std::uint64_t want_pages = page_count(pages);

      const auto cmds = client.io_resilience().ssd_commands;
      const SsdStats before = rig.device_stats();
      gnn::Tensor out(vs.size(), dim);
      client.gather(vs, out);
      const SsdStats after = rig.device_stats();
      EXPECT_EQ(client.io_resilience().ssd_commands - cmds, want_cmds)
          << "dim " << dim << " batch of " << vs.size();
      EXPECT_EQ(after.reads - before.reads, want_cmds) << "dim " << dim;
      EXPECT_EQ(after.bytes_read - before.bytes_read, want_pages * kPageBytes)
          << "dim " << dim;
    }
    rig.array.stop_all();
    EXPECT_EQ(rig.device_stats().errors, 0u) << "dim " << dim;
  }
}

// --- Idle-slot page reuse ----------------------------------------------------
// A client keeps the pages each staging slot last read. A gather copies
// every SSD row whose pages an idle slot holds from that slot and reads the
// rest; a slot with a batch in flight, a failed command, a quarantined
// buffer and a page read before the layout changed lend nothing.

/// Sources that served rows; equals the rows gathered when no read fails.
std::uint64_t rows_served(const gnn::FeatureProvider::IoResilience& s) {
  return s.gpu_hits + s.cpu_hits + s.peer_rows + s.remote_hbm_host_rows +
         s.cache_hits + s.dedup_saved_reads + s.ssd_rows;
}

void expect_rows_exact(const gnn::Tensor& out,
                       std::span<const graph::VertexId> vs,
                       const gnn::Tensor& truth, const std::string& what) {
  const std::size_t bytes = truth.cols() * sizeof(float);
  for (std::size_t i = 0; i < vs.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(out.row(i).data(), truth.row(vs[i]).data(),
                             bytes))
        << what << ": vertex " << vs[i] << " at row " << i;
  }
}

TEST(FeatureStore, OverlappingGatherReadsOnlyPagesNoIdleSlotHolds) {
  // The second batch overlaps the first: its rows on pages the first read
  // are copied from the idle slot, and exactly its other pages are read, in
  // maximal runs.
  std::vector<graph::VertexId> first, second;
  for (graph::VertexId v = 0; v < 300; v += 2) first.push_back(v);
  for (graph::VertexId v = 150; v < 450; ++v) second.push_back(v);
  second.push_back(151);  // a repeat
  for (const std::size_t dim : kPackedDims) {
    PackedRig rig(dim);
    TieredFeatureClient client(rig.store);
    rig.array.start_all();
    gnn::Tensor out1(first.size(), dim), out2(second.size(), dim);
    client.gather(first, out1);
    expect_rows_exact(out1, first, rig.features, "first");
    const auto r1 = client.io_resilience();
    EXPECT_EQ(r1.dedup_saved_reads, 0u);
    EXPECT_EQ(r1.ssd_rows, first.size());

    const PageSets held = rig.pages_of(first);
    PageSets fresh;
    std::uint64_t reused = 0;
    for (const graph::VertexId v : second) {
      PageSets mine;
      rig.add_pages(v, mine);
      const std::size_t ssd = mine[0].empty() ? 1 : 0;
      if (held[ssd].contains(*mine[ssd].begin())) {
        ++reused;
      } else {
        rig.add_pages(v, fresh);
      }
    }
    ASSERT_GT(reused, 0u) << "dim " << dim;
    ASSERT_LT(reused, second.size()) << "dim " << dim;

    const SsdStats before = rig.device_stats();
    client.gather(second, out2);
    const SsdStats after = rig.device_stats();
    rig.array.stop_all();
    expect_rows_exact(out2, second, rig.features, "second");
    const auto r2 = client.io_resilience();
    EXPECT_EQ(r2.dedup_saved_reads - r1.dedup_saved_reads, reused)
        << "dim " << dim;
    EXPECT_EQ(r2.ssd_rows - r1.ssd_rows, second.size() - reused)
        << "dim " << dim;
    EXPECT_EQ(r2.ssd_commands - r1.ssd_commands, run_commands(fresh))
        << "dim " << dim;
    EXPECT_EQ(after.reads - before.reads, run_commands(fresh))
        << "dim " << dim;
    EXPECT_EQ(after.bytes_read - before.bytes_read,
              page_count(fresh) * kPageBytes)
        << "dim " << dim;
    EXPECT_EQ(rows_served(r2), first.size() + second.size());
  }
}

TEST(FeatureStore, RewarmedLayoutLendsNoPages) {
  // A warm rewrites every page, so pages read before it hold other rows:
  // the gather after a second warm reads all its pages again and returns
  // the new layout's bytes. With no warm in between, the same batch is
  // served entirely from the idle slot.
  PackedRig rig(128);
  rig.store.enable_row_cache({0});
  std::vector<graph::VertexId> all(PackedRig::kRows);
  std::iota(all.begin(), all.end(), graph::VertexId{0});
  const std::vector<graph::VertexId> reversed(all.rbegin(), all.rend());
  TieredFeatureClient client(rig.store);
  rig.array.start_all();
  gnn::Tensor out(all.size(), 128);

  rig.store.warm_row_cache(all);
  client.gather(all, out);
  rig.store.warm_row_cache(reversed);
  const std::uint64_t pages = page_count(rig.pages_of(all));
  const SsdStats before = rig.device_stats();
  client.gather(all, out);
  const SsdStats after = rig.device_stats();
  expect_rows_exact(out, all, rig.features, "after the second warm");
  EXPECT_EQ(client.io_resilience().dedup_saved_reads, 0u);
  EXPECT_EQ(after.bytes_read - before.bytes_read, pages * kPageBytes);

  EXPECT_EQ(client.gather_begin(all, out), gnn::FeatureProvider::kSyncTicket);
  rig.array.stop_all();
  expect_rows_exact(out, all, rig.features, "from the idle slot");
  EXPECT_EQ(client.io_resilience().dedup_saved_reads, all.size());
  EXPECT_EQ(rig.device_stats().reads, after.reads);
}

TEST(FeatureStore, FailedCommandPagesAreReadAgain) {
  // 512 B rows, 8 to a page. The batch touches pages 0 and 2; page 0's
  // command fails for good (one error burst, no retry) and its rows come
  // from the host copy. The same batch again reads page 0 and copies only
  // page 2's rows from the idle slot.
  const gnn::Tensor features = numbered_features(24, 128);
  const std::vector<BinBacking> bins = {{BinBacking::Kind::kSsd, 0}};
  const std::vector<std::int32_t> bov(24, 0);
  SsdOptions opts;
  opts.capacity_bytes = 16 * kPageBytes;
  SsdArray array(1, opts);
  TieredFeatureStore store(features, bov, bins, array);
  FaultProfile fp;
  fp.error_burst_reads = 1;
  array.ssd(0).inject_faults(fp);
  IoEngineOptions io;
  io.max_retries = 0;
  TieredFeatureClient client(store, 256, io);
  array.start_all();

  const std::vector<graph::VertexId> vs = {0, 3, 17, 7, 3, 20};
  gnn::Tensor out(vs.size(), 128);
  client.gather(vs, out);
  expect_rows_exact(out, vs, features, "failed page");
  ASSERT_EQ(client.io_resilience().failovers, 4u);
  ASSERT_EQ(array.ssd(0).stats().reads, 1u);  // page 2's command

  client.gather(vs, out);
  array.stop_all();
  expect_rows_exact(out, vs, features, "again");
  const auto r = client.io_resilience();
  EXPECT_EQ(r.dedup_saved_reads, 2u);  // vertices 17 and 20
  EXPECT_EQ(r.ssd_rows, 6u + 4u);
  EXPECT_EQ(r.failovers, 4u);
  EXPECT_EQ(array.ssd(0).stats().reads, 2u);
  EXPECT_EQ(array.ssd(0).stats().bytes_read, 2 * kPageBytes);
}

TEST(FeatureStore, QuarantinedBufferLendsNoPages) {
  // Rows a page each, even vertices on SSD 0 and odd ones on SSD 1. SSD 0
  // stalls every read 1 s, past the 100 ms deadline, and the client does
  // not retry: gathering {0, 1} gives up on SSD 0's command while the
  // device still holds it, so the batch's buffer goes to quarantine even
  // though SSD 1's page in it was read. Gathering {1} again reads it again.
  constexpr std::size_t kRows = 4;
  const gnn::Tensor features =
      numbered_features(kRows, kPageBytes / sizeof(float));
  const std::vector<BinBacking> bins = {{BinBacking::Kind::kSsd, 0},
                                        {BinBacking::Kind::kSsd, 1}};
  const std::vector<std::int32_t> bov = {0, 1, 0, 1};
  SsdOptions opts;
  opts.capacity_bytes = kRows * kPageBytes;
  SsdArray array(2, opts);
  TieredFeatureStore store(features, bov, bins, array);
  FaultProfile fp;
  fp.stall_prob = 1.0;
  fp.stall_us = 1'000'000;
  array.ssd(0).inject_faults(fp);
  IoEngineOptions io;
  io.request_deadline = std::chrono::milliseconds(100);
  io.max_retries = 0;
  TieredFeatureClient client(store, 256, io);
  array.start_all();

  const std::vector<graph::VertexId> both = {0, 1}, odd = {1};
  gnn::Tensor out2(2, features.cols()), out1(1, features.cols());
  client.gather(both, out2);
  expect_rows_exact(out2, both, features, "timed-out gather");
  ASSERT_EQ(client.io_resilience().failovers, 1u);
  // SSD 0 has not served the command yet, so it was still pending when
  // the batch completed: the buffer is in quarantine.
  ASSERT_EQ(array.ssd(0).stats().reads, 0u);
  ASSERT_EQ(array.ssd(1).stats().reads, 1u);

  client.gather(odd, out1);
  expect_rows_exact(out1, odd, features, "after quarantine");
  EXPECT_EQ(client.io_resilience().dedup_saved_reads, 0u);
  EXPECT_EQ(array.ssd(1).stats().reads, 2u);
  array.stop_all();
}

TEST(FeatureStore, InFlightBatchLendsNoPages) {
  // Two gathers of the same batch in flight at once: the second may not
  // copy from the first's slot, so both read every page. Once both are
  // waited, the batch again is served from an idle slot without IO.
  PackedRig rig(128);
  std::vector<graph::VertexId> all(PackedRig::kRows);
  std::iota(all.begin(), all.end(), graph::VertexId{0});
  const std::uint64_t pages = page_count(rig.pages_of(all));
  TieredFeatureClient client(rig.store);
  rig.array.start_all();
  gnn::Tensor a(all.size(), 128), b(all.size(), 128), c(all.size(), 128);
  const auto ta = client.gather_begin(all, a);
  const auto tb = client.gather_begin(all, b);
  EXPECT_NE(ta, gnn::FeatureProvider::kSyncTicket);
  EXPECT_NE(tb, gnn::FeatureProvider::kSyncTicket);
  client.gather_wait(tb);
  client.gather_wait(ta);
  EXPECT_EQ(client.io_resilience().dedup_saved_reads, 0u);
  EXPECT_EQ(client.io_resilience().ssd_rows, 2 * all.size());
  EXPECT_EQ(rig.device_stats().bytes_read, 2 * pages * kPageBytes);

  EXPECT_EQ(client.gather_begin(all, c), gnn::FeatureProvider::kSyncTicket);
  rig.array.stop_all();
  for (const gnn::Tensor* out : {&a, &b, &c}) {
    expect_rows_exact(*out, all, rig.features, "in flight");
  }
  EXPECT_EQ(client.io_resilience().dedup_saved_reads, all.size());
  EXPECT_EQ(rig.device_stats().bytes_read, 2 * pages * kPageBytes);
}

/// Counters and device totals of one seeded run of random batches.
struct SequenceRun {
  gnn::FeatureProvider::IoResilience io;
  SsdStats devices;
};

/// Gathers 16 random batches (windows of 150 ids, so neighbours overlap,
/// repeats included) with up to `depth` in flight, on a fresh store with a
/// `cache_rows`-row cache warmed in a shuffled order. Checks every row's
/// bytes and per-batch row conservation (a fault-free batch is counted in
/// full by gather_begin); at depth 1 also checks each
/// batch's device bytes against the oracle: a batch reads the pages it
/// touches outside the cache that the last batch to read did not read.
SequenceRun run_sequence(std::size_t cache_rows, std::size_t depth,
                         std::uint64_t seed) {
  constexpr std::size_t kBatches = 16, kDim = 100;
  const std::string where = "cache " + std::to_string(cache_rows) +
                            " depth " + std::to_string(depth) + " seed " +
                            std::to_string(seed);
  util::Pcg32 rng(seed);
  std::vector<std::vector<graph::VertexId>> batches(kBatches);
  for (auto& vs : batches) {
    const std::uint32_t base =
        rng.next_below(static_cast<std::uint32_t>(PackedRig::kRows - 150));
    vs.resize(1 + rng.next_below(200));
    for (auto& v : vs) v = base + rng.next_below(150);
  }
  PackedRig rig(kDim);
  if (cache_rows > 0) {
    std::vector<graph::VertexId> order(PackedRig::kRows);
    std::iota(order.begin(), order.end(), graph::VertexId{0});
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[rng.next_below(static_cast<std::uint32_t>(i))]);
    }
    rig.store.enable_row_cache({cache_rows});
    rig.store.warm_row_cache(order);
  }
  TieredFeatureClient client(rig.store);
  rig.array.start_all();

  std::vector<gnn::Tensor> outs;
  for (const auto& vs : batches) outs.emplace_back(vs.size(), kDim);
  std::vector<gnn::FeatureProvider::GatherTicket> tickets(kBatches);
  PageSets held;
  SsdStats before = rig.device_stats();
  const auto finish = [&](std::size_t i) {
    client.gather_wait(tickets[i]);
    expect_rows_exact(outs[i], batches[i], rig.features,
                      where + " batch " + std::to_string(i));
    if (depth != 1) return;
    PageSets read;
    for (const graph::VertexId v : batches[i]) {
      if (!rig.store.cached_row(v).empty()) continue;
      PageSets mine;
      rig.add_pages(v, mine);
      for (std::size_t s = 0; s < 2; ++s) {
        for (const std::uint64_t p : mine[s]) {
          if (!held[s].contains(p)) read[s].insert(p);
        }
      }
    }
    if (page_count(read) > 0) held = read;
    const SsdStats after = rig.device_stats();
    EXPECT_EQ(after.bytes_read - before.bytes_read,
              page_count(read) * kPageBytes)
        << where << " batch " << i;
    before = after;
  };
  for (std::size_t i = 0; i < kBatches; ++i) {
    const std::uint64_t served = rows_served(client.io_resilience());
    tickets[i] = client.gather_begin(batches[i], outs[i]);
    EXPECT_EQ(rows_served(client.io_resilience()) - served, batches[i].size())
        << where << " batch " << i;
    if (i + 1 >= depth) finish(i + 1 - depth);
  }
  for (std::size_t i = kBatches + 1 - depth; i < kBatches; ++i) finish(i);
  rig.array.stop_all();
  return {client.io_resilience(), rig.device_stats()};
}

TEST(FeatureStore, RandomBatchSequencesReuseIdlePagesExactly) {
  for (const std::size_t cache_rows : {0u, 64u}) {
    for (const std::size_t depth : {1u, 2u}) {
      for (const std::uint64_t seed : {3u, 8u}) {
        const SequenceRun a = run_sequence(cache_rows, depth, seed);
        const SequenceRun b = run_sequence(cache_rows, depth, seed);
        const std::string where = "cache " + std::to_string(cache_rows) +
                                  " depth " + std::to_string(depth) +
                                  " seed " + std::to_string(seed);
        EXPECT_GT(a.io.dedup_saved_reads, 0u) << where;
        EXPECT_EQ(a.io.failovers, 0u) << where;
        // The same batch sequence gives the same counts, whatever the IO
        // timing.
        auto io = a.io;
        for_each_field(io, b.io, [&](auto x, auto y, bool) {
          EXPECT_EQ(x, y) << where;
        });
        EXPECT_EQ(a.devices.reads, b.devices.reads) << where;
        EXPECT_EQ(a.devices.bytes_read, b.devices.bytes_read) << where;
        EXPECT_EQ(a.io.ssd_commands, a.devices.reads) << where;
      }
    }
  }
}

TEST(SsdDevice, ReadsAreWholeAlignedPages) {
  SsdOptions opts;
  opts.capacity_bytes = 4 * kPageBytes;
  SsdDevice ssd(opts);
  QueuePair* qp = ssd.create_queue_pair();
  ssd.start();
  std::vector<std::byte> dest(2 * kPageBytes);
  const auto page = static_cast<std::uint32_t>(kPageBytes);
  // Unaligned offset, partial page, page and a half; then two whole pages.
  const Sqe sqes[] = {{512, page, dest.data(), 1},
                      {0, 512, dest.data(), 2},
                      {kPageBytes, page + page / 2, dest.data(), 3},
                      {kPageBytes, 2 * page, dest.data(), 4}};
  for (const Sqe& sqe : sqes) {
    ASSERT_TRUE(qp->submit(sqe));
    Cqe cqe;
    while (!qp->poll_completion(cqe)) std::this_thread::yield();
    EXPECT_EQ(cqe.tag, sqe.tag);
    EXPECT_EQ(cqe.status, sqe.tag < 4 ? kStatusReadError : kStatusOk);
  }
  ssd.stop();
  EXPECT_EQ(ssd.stats().errors, 3u);
  EXPECT_EQ(ssd.stats().bytes_read, 2 * kPageBytes);
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
  // or over the host copy when it has no plan. Rows fill a page each, so
  // the SSD rows span 416 pages: every epoch reads some of them and copies
  // others from the pages an idle staging slot holds.
  constexpr std::size_t kDim = kPageBytes / sizeof(float);
  graph::RmatParams gp;
  gp.num_vertices = 512;
  gp.num_edges = 4000;
  const auto g = graph::generate_rmat(gp);
  const auto task = gnn::make_synthetic_task(g, 4, kDim, 0.3, 9);
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
  mcfg.in_dim = kDim;
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
                      io.remote_hbm_host_rows + io.cache_hits +
                      io.dedup_saved_reads + io.ssd_rows)
            << where;
        EXPECT_EQ(io.failovers, 0u) << where;
        EXPECT_GT(io.gpu_hits, 0u) << where;
        EXPECT_GT(io.cpu_hits, 0u) << where;
        EXPECT_GT(io.cache_hits, 0u) << where;
        EXPECT_GT(io.dedup_saved_reads, 0u) << where;
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
