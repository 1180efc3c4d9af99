// Tests for the fault-injection + resilience layer: deterministic injectors,
// retry/timeout/backoff in IoEngine, bounded waits, the device health
// registry, and feature-store failover with DDAK re-placement. Registered
// under the `faults` CTest label.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>

#include "core/auto_module.hpp"
#include "ddak/ddak.hpp"
#include "gnn/synthetic.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "iostack/fault_injector.hpp"
#include "iostack/feature_store.hpp"
#include "runtime/parallel_trainer.hpp"
#include "runtime/systems.hpp"
#include "sampling/neighbor_sampler.hpp"

namespace moment::iostack {
namespace {

TEST(FaultInjector, DeterministicUnderSameSeed) {
  FaultProfile p;
  p.read_error_prob = 0.3;
  p.stall_prob = 0.2;
  p.stall_us = 5;
  p.seed = 77;
  FaultInjector a(p), b(p);
  for (int i = 0; i < 1000; ++i) {
    const auto da = a.on_read();
    const auto db = b.on_read();
    ASSERT_EQ(da.status, db.status) << "read " << i;
    ASSERT_EQ(da.stall_us, db.stall_us) << "read " << i;
  }
  EXPECT_EQ(a.stats().injected_errors, b.stats().injected_errors);
  EXPECT_GT(a.stats().injected_errors, 0u);
  EXPECT_GT(a.stats().injected_stalls, 0u);
}

TEST(FaultInjector, ScheduledHardFailureIsSticky) {
  FaultProfile p;
  p.fail_after_reads = 5;
  FaultInjector inj(p);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(inj.on_read().status, kStatusOk) << "read " << i;
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(inj.on_read().status, kStatusDeviceFailed);
  }
  EXPECT_TRUE(inj.failed());
  EXPECT_TRUE(inj.stats().device_failed);
}

TEST(FaultInjector, FailNowTakesEffectImmediately) {
  FaultInjector inj(FaultProfile{});
  EXPECT_EQ(inj.on_read().status, kStatusOk);
  inj.fail_now();
  EXPECT_EQ(inj.on_read().status, kStatusDeviceFailed);
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

/// Submits `reqs` as one batch, waits for it and returns its failures.
std::vector<std::size_t> read_batch(IoEngine& engine,
                                    const std::vector<ReadRequest>& reqs) {
  std::vector<std::size_t> failed;
  engine.wait(engine.submit(reqs), failed);
  return failed;
}

TEST(IoEngine, RetryThenSucceedRecoversData) {
  // The first served read fails deterministically; the retry succeeds and
  // the caller sees correct bytes with zero reported failures.
  SsdOptions opts;
  opts.capacity_bytes = 16 * kPageBytes;
  SsdArray array(1, opts);
  std::vector<std::byte> page(kPageBytes, std::byte{0xAB});
  array.ssd(0).write(0, page.data(), page.size());
  FaultProfile fp;
  fp.error_burst_reads = 1;
  array.ssd(0).inject_faults(fp);

  IoEngine engine(array);
  array.start_all();
  std::vector<std::byte> dest(kPageBytes);
  EXPECT_TRUE(read_batch(engine, page_reads(1, 1, dest)).empty());
  array.stop_all();
  EXPECT_EQ(dest[0], std::byte{0xAB});
  EXPECT_EQ(engine.retry_stats().retries, 1u);
  EXPECT_EQ(engine.retry_stats().permanent_failures, 0u);
  EXPECT_EQ(array.health(0), DeviceHealth::kHealthy);  // success reset streak
}

TEST(IoEngine, RetryExhaustedPropagatesThroughGroup) {
  // Every served read fails: the request exhausts its retries and its batch
  // reports its index in the submitted span.
  SsdOptions opts;
  opts.capacity_bytes = 16 * kPageBytes;
  SsdArray array(1, opts);
  FaultProfile fp;
  fp.read_error_prob = 1.0;
  array.ssd(0).inject_faults(fp);

  IoEngineOptions io;
  io.max_retries = 2;
  IoEngine engine(array, 256, io);
  array.start_all();
  std::vector<std::byte> dest(kPageBytes);
  const std::vector<ReadRequest> reqs = page_reads(1, 1, dest);
  const std::vector<std::size_t> failed = read_batch(engine, reqs);
  array.stop_all();
  ASSERT_EQ(failed.size(), 1u);
  ASSERT_EQ(failed[0], 0u);
  EXPECT_EQ(reqs[failed[0]].ssd, 0u);
  EXPECT_EQ(reqs[failed[0]].dest, dest.data());
  EXPECT_EQ(engine.retry_stats().retries, 2u);  // == max_retries
  EXPECT_EQ(engine.retry_stats().permanent_failures, 1u);
}

TEST(IoEngine, FailedIndicesNameTheSubmittedRequests) {
  // Reads 1 and 3 of a 4-read batch address pages beyond the device; with
  // no retries they fail, and wait() names exactly them, by index.
  SsdOptions opts;
  opts.capacity_bytes = 16 * kPageBytes;
  SsdArray array(1, opts);
  for (std::size_t p = 0; p < 16; ++p) {
    const std::vector<std::byte> page(kPageBytes, static_cast<std::byte>(p));
    array.ssd(0).write(p * kPageBytes, page.data(), page.size());
  }
  IoEngineOptions io;
  io.max_retries = 0;
  IoEngine engine(array, 256, io);
  array.start_all();
  std::vector<std::byte> dest(4 * kPageBytes);
  const auto len = static_cast<std::uint32_t>(kPageBytes);
  const std::vector<ReadRequest> reqs = {
      {0, 2 * kPageBytes, len, dest.data()},
      {0, 100 * kPageBytes, len, dest.data() + kPageBytes},
      {0, 5 * kPageBytes, len, dest.data() + 2 * kPageBytes},
      {0, 200 * kPageBytes, len, dest.data() + 3 * kPageBytes},
  };
  std::vector<std::size_t> failed = read_batch(engine, reqs);
  array.stop_all();
  std::sort(failed.begin(), failed.end());
  EXPECT_EQ(failed, (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(engine.retry_stats().permanent_failures, 2u);
  const std::vector<std::byte> page2(kPageBytes, std::byte{2});
  const std::vector<std::byte> page5(kPageBytes, std::byte{5});
  EXPECT_TRUE(std::equal(page2.begin(), page2.end(), dest.begin()));
  EXPECT_TRUE(std::equal(page5.begin(), page5.end(),
                         dest.begin() + 2 * kPageBytes));
}

TEST(IoEngine, BackingOffRetryHoldsOnlyItsDevice) {
  // SSD 0's first read fails and its retry backs off for 300 ms on SSD 0's
  // queue. A batch on SSD 1 submitted meanwhile is not held back by it.
  using clock = std::chrono::steady_clock;
  SsdOptions opts;
  opts.capacity_bytes = 16 * kPageBytes;
  SsdArray array(2, opts);
  const std::vector<std::byte> page(kPageBytes, std::byte{0x5A});
  array.ssd(0).write(0, page.data(), page.size());
  array.ssd(1).write(0, page.data(), page.size());
  FaultProfile fp;
  fp.error_burst_reads = 1;
  array.ssd(0).inject_faults(fp);
  IoEngineOptions io;
  io.retry_backoff = std::chrono::milliseconds(300);
  IoEngine engine(array, 256, io);
  array.start_all();

  std::vector<std::byte> dest(2 * kPageBytes);
  const auto len = static_cast<std::uint32_t>(kPageBytes);
  const std::vector<ReadRequest> on_ssd0 = {{0, 0, len, dest.data()}};
  const std::vector<ReadRequest> on_ssd1 = {
      {1, 0, len, dest.data() + kPageBytes}};
  const auto t_ssd0 = clock::now();
  const std::uint64_t ticket0 = engine.submit(on_ssd0);
  // The first attempt failed once the retry is counted: it is backing off.
  while (engine.retry_stats().retries == 0 &&
         clock::now() - t_ssd0 < std::chrono::milliseconds(200)) {
    std::this_thread::yield();
  }
  ASSERT_EQ(engine.retry_stats().retries, 1u);

  const auto t_ssd1 = clock::now();
  EXPECT_TRUE(read_batch(engine, on_ssd1).empty());
  EXPECT_LT(clock::now() - t_ssd1, std::chrono::milliseconds(150));

  std::vector<std::size_t> failed;
  engine.wait(ticket0, failed);
  EXPECT_GE(clock::now() - t_ssd0, std::chrono::milliseconds(300));
  array.stop_all();
  EXPECT_TRUE(failed.empty());
  EXPECT_EQ(engine.retry_stats().retries, 1u);
  EXPECT_EQ(dest[0], std::byte{0x5A});
  EXPECT_EQ(dest[kPageBytes], std::byte{0x5A});
}

TEST(IoEngine, DeadDeviceNeverHangsWaits) {
  // The device is never started: no completion will ever arrive. Every wait
  // must still terminate within its deadline and report the failure.
  SsdOptions opts;
  opts.capacity_bytes = 16 * kPageBytes;
  SsdArray array(1, opts);
  IoEngineOptions io;
  io.max_retries = 1;
  io.request_deadline = std::chrono::milliseconds(20);
  io.retry_backoff = std::chrono::microseconds(100);
  io.wait_deadline = std::chrono::milliseconds(500);
  IoEngine engine(array, 256, io);
  std::vector<std::byte> dest(kPageBytes);

  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t failures =
      read_batch(engine, page_reads(1, 1, dest)).size();
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(failures, 1u);
  EXPECT_LT(dt, 5.0);  // bounded, nowhere near an unbounded spin
  EXPECT_GT(engine.retry_stats().timeouts, 0u);
  EXPECT_EQ(engine.retry_stats().permanent_failures, 1u);
}

TEST(IoEngine, StallInjectionDelaysButCompletes) {
  SsdOptions opts;
  opts.capacity_bytes = 16 * kPageBytes;
  SsdArray array(1, opts);
  std::vector<std::byte> page(kPageBytes, std::byte{0x5A});
  array.ssd(0).write(0, page.data(), page.size());
  FaultProfile fp;
  fp.stall_prob = 1.0;
  fp.stall_us = 1000;
  array.ssd(0).inject_faults(fp);
  IoEngine engine(array);
  array.start_all();
  std::vector<std::byte> dest(4 * kPageBytes);
  EXPECT_TRUE(read_batch(engine, page_reads(4, 1, dest)).empty());
  array.stop_all();
  EXPECT_EQ(array.ssd(0).fault_injector()->stats().injected_stalls, 4u);
  EXPECT_EQ(dest[0], std::byte{0x5A});
}

TEST(IoEngine, HardDeviceFailureFailsFastAfterDetection) {
  SsdOptions opts;
  opts.capacity_bytes = 16 * kPageBytes;
  SsdArray array(1, opts);
  FaultProfile fp;
  fp.fail_after_reads = 0;  // dead from the first served read
  array.ssd(0).inject_faults(fp);
  IoEngine engine(array);
  array.start_all();
  std::vector<std::byte> dest(kPageBytes);
  const std::vector<ReadRequest> reqs = page_reads(1, 1, dest);
  EXPECT_EQ(read_batch(engine, reqs).size(), 1u);
  EXPECT_EQ(array.health(0), DeviceHealth::kFailed);
  // Subsequent reads fail instantly without touching the device.
  const std::uint64_t served = array.ssd(0).fault_injector()->stats().reads_seen;
  EXPECT_EQ(read_batch(engine, reqs).size(), 1u);
  EXPECT_EQ(array.ssd(0).fault_injector()->stats().reads_seen, served);
  array.stop_all();
}

TEST(IoEngine, SqFullBackpressureUnderPacedDevice) {
  // Tiny queue depth against a paced (slow) device: the submit path must
  // apply backpressure without spurious retries, timeouts, or failures.
  SsdOptions opts;
  opts.capacity_bytes = 16 * kPageBytes;
  opts.max_bytes_per_s = 4.0 * 1024 * 1024;
  SsdArray array(1, opts);
  IoEngine engine(array, /*queue_depth=*/4);
  array.start_all();
  std::vector<std::byte> buf(16 * kPageBytes);
  EXPECT_TRUE(read_batch(engine, page_reads(16, 16, buf)).empty());
  array.stop_all();
  EXPECT_EQ(engine.latency().count, 16u);
  EXPECT_EQ(engine.retry_stats().retries, 0u);
  EXPECT_EQ(engine.retry_stats().timeouts, 0u);
  EXPECT_EQ(engine.retry_stats().permanent_failures, 0u);
}

TEST(SsdDevice, StopWithRequestsInFlightDrains) {
  // stop() is requested while requests sit in the SQ of a paced device; the
  // service loop's shutdown drain must complete them all. A raw queue pair
  // puts every request in the SQ before stop() is called.
  SsdOptions opts;
  opts.capacity_bytes = 16 * kPageBytes;
  opts.max_bytes_per_s = 2.0 * 1024 * 1024;
  SsdDevice ssd(opts);
  QueuePair* qp = ssd.create_queue_pair(/*depth=*/32);
  ssd.start();
  std::vector<std::byte> buf(32 * kPageBytes);
  for (std::uint64_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(qp->submit({(i % 16) * kPageBytes,
                            static_cast<std::uint32_t>(kPageBytes),
                            buf.data() + i * kPageBytes, i}));
  }
  ssd.stop();  // requests still in flight
  Cqe cqe;
  std::size_t ok = 0;
  while (qp->poll_completion(cqe)) ok += cqe.status == kStatusOk ? 1 : 0;
  EXPECT_EQ(ok, 32u);
  EXPECT_EQ(ssd.stats().reads, 32u);
}

TEST(SsdDevice, StopNeverWedgesOnFullCompletionQueue) {
  // A client that stops polling its CQ must not wedge the service thread.
  // Fill the CQ, enqueue more work, and stop: stop() must return promptly.
  SsdOptions opts;
  opts.capacity_bytes = 16 * kPageBytes;
  SsdDevice ssd(opts);
  QueuePair* qp = ssd.create_queue_pair(/*depth=*/4);
  ssd.start();
  std::vector<std::byte> dest(kPageBytes);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(qp->submit({0, static_cast<std::uint32_t>(kPageBytes),
                            dest.data(), i}));
  }
  // Wait until all four completions are posted (CQ now full).
  while (ssd.stats().reads < 4) std::this_thread::yield();
  // More work the device cannot complete while the CQ is full.
  for (std::uint64_t i = 4; i < 8; ++i) {
    ASSERT_TRUE(qp->submit({0, static_cast<std::uint32_t>(kPageBytes),
                            dest.data(), i}));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto t0 = std::chrono::steady_clock::now();
  ssd.stop();  // must not hang
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(dt, 10.0);
  // Every request is accounted: the device fetches a command only when its
  // completion can be posted, so the rest stay queued and none is dropped.
  Cqe cqe;
  std::size_t polled = 0;
  while (qp->poll_completion(cqe)) ++polled;
  EXPECT_EQ(polled + qp->sq_backlog(), 8u);
  EXPECT_EQ(ssd.stats().dropped_completions, 0u);
}

TEST(SsdDevice, StalledClientDoesNotBlockOtherClients) {
  // Two clients share one device. Client A (a raw queue pair) fills its CQ
  // and stops polling with more reads queued; client B's read must still be
  // served promptly, and no completion may be dropped.
  constexpr std::uint32_t kPage = kPageBytes;
  SsdOptions opts;
  opts.capacity_bytes = 64 * kPage;
  SsdArray array(1, opts);
  QueuePair* a = array.ssd(0).create_queue_pair(/*depth=*/8);
  IoEngine b(array, /*queue_depth=*/8);
  array.start_all();

  std::vector<std::byte> a_buf(15 * kPage);
  std::vector<std::byte> b_buf(kPage);
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(a->submit({i * kPage, kPage, a_buf.data() + i * kPage, i}));
  }
  // A's CQ (depth 8) is full once all eight reads are served.
  while (array.ssd(0).stats().reads < 8) std::this_thread::yield();
  for (std::uint64_t i = 8; i < 15; ++i) {
    ASSERT_TRUE(a->submit({i * kPage, kPage, a_buf.data() + i * kPage, i}));
  }

  // A now stalls (does not poll) for ~100 ms while B reads.
  const auto stall_start = std::chrono::steady_clock::now();
  const std::vector<ReadRequest> b_reqs = {
      {0, 20 * kPage, kPage, b_buf.data()}};
  EXPECT_TRUE(read_batch(b, b_reqs).empty());
  const double b_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - stall_start)
                          .count();
  EXPECT_LT(b_ms, 50.0);
  std::this_thread::sleep_until(stall_start + std::chrono::milliseconds(100));

  // A resumes polling: every queued read completes.
  std::size_t a_ok = 0;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (a_ok < 15 && std::chrono::steady_clock::now() < give_up) {
    Cqe cqe;
    if (a->poll_completion(cqe)) {
      a_ok += cqe.status == kStatusOk ? 1 : 0;
    } else {
      std::this_thread::yield();
    }
  }
  EXPECT_EQ(a_ok, 15u);
  EXPECT_EQ(array.ssd(0).stats().dropped_completions, 0u);
  array.stop_all();
}

TEST(SsdArray, HealthStateMachineTransitions) {
  SsdOptions opts;
  SsdArray array(2, opts);
  EXPECT_EQ(array.health(0), DeviceHealth::kHealthy);

  for (std::uint32_t streak = 1; streak < kDegradedAfter; ++streak) {
    array.report_io_result(0, false);
    EXPECT_EQ(array.health(0), DeviceHealth::kHealthy) << "streak " << streak;
  }
  array.report_io_result(0, false);
  EXPECT_EQ(array.health(0), DeviceHealth::kDegraded);  // kDegradedAfter
  EXPECT_EQ(array.num_degraded(), 1u);

  array.report_io_result(0, true);  // success resets and restores
  EXPECT_EQ(array.health(0), DeviceHealth::kHealthy);

  for (std::uint32_t i = 1; i < kFailedAfter; ++i) {
    array.report_io_result(0, false);
  }
  EXPECT_EQ(array.health(0), DeviceHealth::kDegraded);  // one short
  array.report_io_result(0, false);
  EXPECT_EQ(array.health(0), DeviceHealth::kFailed);
  EXPECT_EQ(array.num_failed(), 1u);
  array.report_io_result(0, true);  // failed is sticky
  EXPECT_EQ(array.health(0), DeviceHealth::kFailed);
  EXPECT_EQ(array.health(1), DeviceHealth::kHealthy);
}

TEST(FeatureStore, FailoverServesIdenticalBytesAndRemaps) {
  // Device 1 hard-fails on its first served read. Gathers must still return
  // exactly the original features (host authoritative copy), the store must
  // remap device 1's bins onto device 0, and later gathers must hit SSDs.
  graph::RmatParams gp;
  gp.num_vertices = 128;
  gp.num_edges = 600;
  const auto g = graph::generate_rmat(gp);
  const auto task = gnn::make_synthetic_task(g, 2, 8, 0.1, 4);
  std::vector<BinBacking> bins = {
      {BinBacking::Kind::kSsd, 0},
      {BinBacking::Kind::kSsd, 1},
  };
  std::vector<std::int32_t> bov(128);
  for (std::size_t v = 0; v < 128; ++v) {
    bov[v] = static_cast<std::int32_t>(v % 2);
  }
  SsdOptions opts;
  opts.capacity_bytes = 1ull << 20;  // 256 pages: room for both halves
  SsdArray array(2, opts);
  TieredFeatureStore store(task.features, bov, bins, array);
  FaultProfile fp;
  fp.fail_after_reads = 0;
  array.ssd(1).inject_faults(fp);

  IoEngineOptions io;
  io.max_retries = 1;
  TieredFeatureClient client(store, 256, io);
  array.start_all();

  std::vector<graph::VertexId> vs;
  for (graph::VertexId v = 0; v < 128; ++v) vs.push_back(v);
  gnn::Tensor out(vs.size(), 8);
  client.gather(vs, out);
  for (std::size_t i = 0; i < vs.size(); ++i) {
    for (std::size_t c = 0; c < 8; ++c) {
      ASSERT_FLOAT_EQ(out.at(i, c), task.features.at(vs[i], c))
          << "vertex " << vs[i] << " after device failure";
    }
  }
  EXPECT_EQ(array.health(1), DeviceHealth::kFailed);
  EXPECT_GT(client.io_resilience().failovers, 0u);
  EXPECT_EQ(client.io_resilience().device_remaps, 1u);

  // After the remap every vertex resolves to device 0 (or a cache tier);
  // a fresh gather reads SSD 0 only and still returns the right bytes.
  const auto reads_before = array.ssd(0).stats().reads;
  gnn::Tensor out2(vs.size(), 8);
  client.gather(vs, out2);
  for (std::size_t i = 0; i < vs.size(); ++i) {
    const auto loc = store.location(vs[i]);
    EXPECT_EQ(loc.ssd, 0) << "vertex " << vs[i] << " not remapped";
    for (std::size_t c = 0; c < 8; ++c) {
      ASSERT_FLOAT_EQ(out2.at(i, c), task.features.at(vs[i], c));
    }
  }
  EXPECT_GT(array.ssd(0).stats().reads, reads_before);
  array.stop_all();

  const auto r = client.io_resilience();
  EXPECT_GT(r.failovers, 0u);
  EXPECT_EQ(r.device_remaps, 1u);
  EXPECT_EQ(r.devices_failed, 1u);
}

TEST(FeatureStore, GatherWaitFailurePathLeavesSlotReusable) {
  // All devices fail permanently and capacity blocks any remap: gather_wait
  // must still serve every row (host copy) and leave the slot reusable.
  graph::RmatParams gp;
  gp.num_vertices = 64;
  gp.num_edges = 200;
  const auto g = graph::generate_rmat(gp);
  const auto task = gnn::make_synthetic_task(g, 2, 8, 0.1, 6);
  std::vector<BinBacking> bins = {{BinBacking::Kind::kSsd, 0}};
  std::vector<std::int32_t> bov(64, 0);
  SsdOptions opts;
  opts.capacity_bytes = 64 * kPageBytes;  // one device: no survivor
  SsdArray array(1, opts);
  TieredFeatureStore store(task.features, bov, bins, array);
  FaultProfile fp;
  fp.fail_after_reads = 0;
  array.ssd(0).inject_faults(fp);
  IoEngineOptions io;
  io.max_retries = 1;
  TieredFeatureClient client(store, 256, io);
  array.start_all();

  std::vector<graph::VertexId> vs = {1, 5, 9, 33};
  for (int round = 0; round < 3; ++round) {  // slot must be reusable
    gnn::Tensor out(vs.size(), 8);
    client.gather(vs, out);
    for (std::size_t i = 0; i < vs.size(); ++i) {
      for (std::size_t c = 0; c < 8; ++c) {
        ASSERT_FLOAT_EQ(out.at(i, c), task.features.at(vs[i], c))
            << "round " << round;
      }
    }
  }
  array.stop_all();
  EXPECT_GT(client.io_resilience().failovers, 0u);
}

/// `rows` x `dim` features whose every float is distinct.
gnn::Tensor numbered_features(std::size_t rows, std::size_t dim) {
  gnn::Tensor t(rows, dim);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(i) + 0.5f;
  }
  return t;
}

/// Gathers `vs` through `client` and expects every row's exact bytes.
void gather_and_match(TieredFeatureClient& client, const gnn::Tensor& truth,
                      const std::vector<graph::VertexId>& vs,
                      const char* what) {
  gnn::Tensor out(vs.size(), truth.cols());
  client.gather(vs, out);
  for (std::size_t i = 0; i < vs.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(out.row(i).data(), truth.row(vs[i]).data(),
                             truth.cols() * sizeof(float)))
        << what << ": vertex " << vs[i] << " at row " << i;
  }
}

TEST(FeatureStore, FailedPageCommandServesEachOfItsRowsFromHostCopy) {
  // 512 B rows, 8 to a page, on one SSD. The batch touches pages 0 and 2,
  // so it costs two commands. The first read the device serves (page 0's)
  // fails and the client does not retry: that command fails as a unit and
  // each of the batch's rows on page 0, the repeat included, is served
  // from the host copy; the rows on page 2 come from the device.
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

  gather_and_match(client, features, {0, 3, 17, 7, 3, 20}, "failed page");
  array.stop_all();
  const auto r = client.io_resilience();
  EXPECT_EQ(r.ssd_rows, 6u);
  EXPECT_EQ(r.ssd_commands, 2u);
  EXPECT_EQ(r.permanent_failures, 1u);
  EXPECT_EQ(r.failovers, 4u);  // vertices 0, 3, 7 and 3 again
  EXPECT_EQ(array.ssd(0).stats().reads, 1u);
  EXPECT_EQ(array.ssd(0).stats().bytes_read, kPageBytes);
}

TEST(FeatureStore, FailedCommandPageIsNeverCarried) {
  // 512 B rows, 8 to a page, on one SSD. {0, 17} touches pages 0 and 2;
  // page 0's command fails for good and vertex 0 comes from the host copy.
  // {17, 8} copies page 2 from that slot and reads page 1; {40} then
  // overwrites the first slot with page 5. So the second slot holds pages 1
  // and 2 (page 2 carried) and no slot holds page 0: {0, 17, 8} copies two
  // rows and reads page 0, now from the device.
  const gnn::Tensor features = numbered_features(48, 128);
  const std::vector<BinBacking> bins = {{BinBacking::Kind::kSsd, 0}};
  const std::vector<std::int32_t> bov(48, 0);
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

  gather_and_match(client, features, {0, 17}, "failed page");
  ASSERT_EQ(client.io_resilience().failovers, 1u);
  gather_and_match(client, features, {17, 8}, "carry page 2");
  gather_and_match(client, features, {40}, "overwrite");
  ASSERT_EQ(client.io_resilience().dedup_saved_reads, 1u);
  ASSERT_EQ(array.ssd(0).stats().reads, 3u);

  gather_and_match(client, features, {0, 17, 8}, "again");
  array.stop_all();
  const auto r = client.io_resilience();
  EXPECT_EQ(r.dedup_saved_reads, 3u);  // 17 once carried, then 17 and 8
  EXPECT_EQ(r.failovers, 1u);
  EXPECT_EQ(array.ssd(0).stats().reads, 4u);
  EXPECT_EQ(array.ssd(0).stats().bytes_read, 4 * kPageBytes);
}

TEST(FeatureStore, CarriedPageIsNotLentAfterARemap) {
  // 512 B rows, 8 to a page: even vertices on SSD 0, odd ones on SSD 1,
  // which fails on its first read. {0} reads vertex 0's page; {0, 32}
  // carries it into the other slot; {48} overwrites the first slot, so the
  // carried copy is the only one. A second client's gather of {1} remaps
  // SSD 1's rows onto SSD 0 from a fresh page on: vertex 0's page keeps its
  // bytes, but the layout version moved, so {0} reads it again.
  constexpr std::size_t kRows = 64;
  const gnn::Tensor features = numbered_features(kRows, 128);
  const std::vector<BinBacking> bins = {{BinBacking::Kind::kSsd, 0},
                                        {BinBacking::Kind::kSsd, 1}};
  std::vector<std::int32_t> bov(kRows);
  for (std::size_t v = 0; v < kRows; ++v) {
    bov[v] = static_cast<std::int32_t>(v % 2);
  }
  SsdOptions opts;
  opts.capacity_bytes = 16 * kPageBytes;
  SsdArray array(2, opts);
  TieredFeatureStore store(features, bov, bins, array);
  FaultProfile fp;
  fp.fail_after_reads = 0;
  array.ssd(1).inject_faults(fp);
  TieredFeatureClient client(store);
  TieredFeatureClient other(store);
  array.start_all();

  gather_and_match(client, features, {0}, "read");
  gather_and_match(client, features, {0, 32}, "carry");
  gather_and_match(client, features, {48}, "overwrite");
  gnn::Tensor out(1, features.cols());
  const std::vector<graph::VertexId> zero = {0};
  // Before the remap, the carried page serves {0} without a read.
  EXPECT_EQ(client.gather_begin(zero, out),
            gnn::FeatureProvider::kSyncTicket);
  ASSERT_EQ(client.io_resilience().dedup_saved_reads, 2u);

  gather_and_match(other, features, {1}, "failing device");
  ASSERT_EQ(other.io_resilience().device_remaps, 1u);
  const auto reads = array.ssd(0).stats().reads;
  const auto bytes = array.ssd(0).stats().bytes_read;
  gather_and_match(client, features, {0}, "after the remap");
  array.stop_all();
  EXPECT_EQ(client.io_resilience().dedup_saved_reads, 2u);
  EXPECT_EQ(array.ssd(0).stats().reads - reads, 1u);
  EXPECT_EQ(array.ssd(0).stats().bytes_read - bytes, kPageBytes);
}

TEST(FeatureStore, RemappedRowsLandInPackedSlots) {
  // 512 B rows, 8 to a page: even vertices on SSD 0 (slots 0..19, pages
  // 0..2), odd ones on SSD 1. SSD 1 fails on its first read and its 20
  // rows move to SSD 0, packed from the next fresh page on: slots 24..43,
  // pages 3..5. Gathering them again is then one command of three pages.
  constexpr std::size_t kRows = 40;
  const gnn::Tensor features = numbered_features(kRows, 128);
  const std::vector<BinBacking> bins = {{BinBacking::Kind::kSsd, 0},
                                        {BinBacking::Kind::kSsd, 1}};
  std::vector<std::int32_t> bov(kRows);
  std::vector<graph::VertexId> odd;
  for (std::size_t v = 0; v < kRows; ++v) {
    bov[v] = static_cast<std::int32_t>(v % 2);
    if (v % 2 == 1) odd.push_back(static_cast<graph::VertexId>(v));
  }
  SsdOptions opts;
  opts.capacity_bytes = 16 * kPageBytes;
  SsdArray array(2, opts);
  TieredFeatureStore store(features, bov, bins, array);
  FaultProfile fp;
  fp.fail_after_reads = 0;
  array.ssd(1).inject_faults(fp);
  TieredFeatureClient client(store);
  array.start_all();

  gather_and_match(client, features, odd, "failing device");
  ASSERT_EQ(client.io_resilience().device_remaps, 1u);
  std::vector<std::uint32_t> slots;
  for (const graph::VertexId v : odd) {
    const auto loc = store.location(v);
    EXPECT_EQ(loc.kind, BinBacking::Kind::kSsd);
    EXPECT_EQ(loc.ssd, 0) << "vertex " << v;
    slots.push_back(loc.index);
  }
  std::sort(slots.begin(), slots.end());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], 24 + i);
  }

  // The first gather's reads failed and its remap changed the layout, so
  // no idle slot lends a page: the moved rows' three pages are read.
  const auto reads = array.ssd(0).stats().reads;
  const auto bytes = array.ssd(0).stats().bytes_read;
  const auto cmds = client.io_resilience().ssd_commands;
  gather_and_match(client, features, odd, "remapped");
  array.stop_all();
  EXPECT_EQ(client.io_resilience().dedup_saved_reads, 0u);
  EXPECT_EQ(client.io_resilience().ssd_commands - cmds, 1u);
  EXPECT_EQ(array.ssd(0).stats().reads - reads, 1u);
  EXPECT_EQ(array.ssd(0).stats().bytes_read - bytes, 3 * kPageBytes);
  EXPECT_EQ(array.ssd(0).stats().errors, 0u);
}

TEST(FeatureStore, RemapAfterHotnessPackingKeepsBytes) {
  // 512 B rows, 8 to a page: even vertices on SSD 0, odd ones on SSD 1.
  // A warm packs each device in a ranking that runs from the highest id
  // down, so SSD 0 holds 38, 36, ..., 0 in slots 0..19. SSD 1 then fails on
  // its first read and its 20 rows move to SSD 0 from the first fresh page
  // after the packed count: slots 24..43. SSD 0's own rows keep their
  // packed slots, and every row keeps its bytes.
  constexpr std::size_t kRows = 40;
  const gnn::Tensor features = numbered_features(kRows, 128);
  const std::vector<BinBacking> bins = {{BinBacking::Kind::kSsd, 0},
                                        {BinBacking::Kind::kSsd, 1}};
  std::vector<std::int32_t> bov(kRows);
  for (std::size_t v = 0; v < kRows; ++v) {
    bov[v] = static_cast<std::int32_t>(v % 2);
  }
  std::vector<graph::VertexId> all(kRows);
  std::iota(all.begin(), all.end(), graph::VertexId{0});
  std::vector<graph::VertexId> ranking(all.rbegin(), all.rend());
  SsdOptions opts;
  opts.capacity_bytes = 16 * kPageBytes;
  SsdArray array(2, opts);
  TieredFeatureStore store(features, bov, bins, array);
  store.enable_row_cache({4});
  ASSERT_EQ(store.warm_row_cache(ranking), 4u);
  FaultProfile fp;
  fp.fail_after_reads = 0;
  array.ssd(1).inject_faults(fp);
  TieredFeatureClient client(store);
  array.start_all();

  gather_and_match(client, features, all, "failing device");
  ASSERT_EQ(client.io_resilience().device_remaps, 1u);
  gather_and_match(client, features, all, "remapped");
  array.stop_all();
  EXPECT_EQ(client.io_resilience().device_remaps, 1u);

  std::vector<std::uint32_t> moved;
  for (const graph::VertexId v : all) {
    const auto loc = store.location(v);
    EXPECT_EQ(loc.kind, BinBacking::Kind::kSsd);
    EXPECT_EQ(loc.ssd, 0) << "vertex " << v;
    if (v % 2 == 0) {
      EXPECT_EQ(loc.index, (kRows - 2 - v) / 2) << "vertex " << v;
    } else {
      moved.push_back(loc.index);
    }
  }
  std::sort(moved.begin(), moved.end());
  for (std::size_t i = 0; i < moved.size(); ++i) {
    EXPECT_EQ(moved[i], 24 + i);
  }
  EXPECT_EQ(array.ssd(0).stats().errors, 0u);
}

/// A device write that outlives its batch: two SSDs paced to ~70 ms per
/// 4 KiB page, rows a page each, even vertices on SSD 0 and odd ones on
/// SSD 1. SSD 0 stalls every read 150 ms, past the 100 ms request
/// deadline, and the client does not retry. Gathering {0, 2, 4, 6} (one
/// four-page command) gives up on SSD 0 at the deadline and serves the
/// host copy while SSD 0 still holds the command; the next gather, of
/// `second` (odd vertices), is in flight when SSD 0 finally writes the
/// first gather's pages into the bounce buffer it handed out. That write
/// must land in a buffer no later gather uses.
void expect_late_write_isolated(const std::vector<graph::VertexId>& second) {
  constexpr std::size_t kRows = 12;
  const gnn::Tensor features =
      numbered_features(kRows, kPageBytes / sizeof(float));
  const std::vector<BinBacking> bins = {{BinBacking::Kind::kSsd, 0},
                                        {BinBacking::Kind::kSsd, 1}};
  std::vector<std::int32_t> bov(kRows);
  for (std::size_t v = 0; v < kRows; ++v) {
    bov[v] = static_cast<std::int32_t>(v % 2);
  }
  SsdOptions opts;
  opts.capacity_bytes = kRows * kPageBytes;
  opts.max_bytes_per_s = static_cast<double>(kPageBytes) / 0.070;
  SsdArray array(2, opts);
  TieredFeatureStore store(features, bov, bins, array);
  FaultProfile fp;
  fp.stall_prob = 1.0;
  fp.stall_us = 150'000;
  array.ssd(0).inject_faults(fp);
  IoEngineOptions io;
  io.request_deadline = std::chrono::milliseconds(100);
  io.max_retries = 0;
  TieredFeatureClient client(store, 256, io);
  array.start_all();

  gather_and_match(client, features, {0, 2, 4, 6}, "timed-out gather");
  EXPECT_EQ(client.io_resilience().failovers, 4u)
      << "the first gather did not time out";
  gather_and_match(client, features, second, "next gather");
  EXPECT_EQ(client.io_resilience().failovers, 4u)
      << "the next gather was not read from SSD 1";
  // Once SSD 0 has served the late read, the engine settles it and a later
  // gather is still exact.
  while (array.ssd(0).stats().reads == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  gather_and_match(client, features, second, "after the late write");
  array.stop_all();
}

TEST(FeatureStore, LateDeviceWriteNeverReachesTheNextGather) {
  // Two one-page commands on SSD 1: the second lands after SSD 0's write.
  expect_late_write_isolated({1, 5});
}

TEST(FeatureStore, LateDeviceWriteNeverReachesAGrownBuffer) {
  // Five pages, more than the first gather's four: the bounce buffer
  // grows, and SSD 0's late write must not land in the freed one (ASan).
  expect_late_write_isolated({1, 5, 7, 9, 11});
}

TEST(FeatureStore, PlanBuiltStoreReplacesAnyOneFailedDevice) {
  // core::build_store's failover policy: whichever of four SSDs hard-fails,
  // the spare pages on the other three take all its rows. The gather that
  // sees the failure returns exact bytes and remaps once; the next full
  // gather reads every row from a live device, with no failover.
  const auto spec = topology::make_machine_a();
  core::AutoModuleConfig cfg;
  cfg.machine = &spec;
  cfg.dataset = graph::DatasetId::kPA;
  cfg.dataset_scale_shift = 4;
  cfg.num_gpus = 2;
  cfg.num_ssds = 4;
  const runtime::Workbench bench =
      runtime::Workbench::make(cfg.dataset, cfg.dataset_scale_shift, cfg.seed);
  const core::Plan plan = core::AutoModule::plan(cfg, bench);
  const auto& g = bench.dataset.csr;
  const auto task = gnn::make_synthetic_task(g, 4, 32, 0.3, 5);
  std::vector<graph::VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), graph::VertexId{0});

  for (std::size_t failed = 0; failed < 4; ++failed) {
    SCOPED_TRACE("failed SSD " + std::to_string(failed));
    const core::BuiltStore built =
        core::build_store(plan, task.features, bench.profile.by_hotness_desc(),
                          g.num_vertices() / 16);
    ASSERT_EQ(built.array->size(), 4u);
    FaultProfile fp;
    fp.fail_after_reads = 0;
    built.array->ssd(failed).inject_faults(fp);
    IoEngineOptions io;
    io.max_retries = 1;
    TieredFeatureClient client(*built.store, 256, io);
    built.array->start_all();

    gather_and_match(client, task.features, all, "failing device");
    EXPECT_EQ(client.io_resilience().device_remaps, 1u);
    const std::uint64_t failovers = client.io_resilience().failovers;
    EXPECT_GT(failovers, 0u);
    gather_and_match(client, task.features, all, "remapped");
    built.array->stop_all();
    EXPECT_EQ(client.io_resilience().failovers, failovers);
    EXPECT_EQ(client.io_resilience().device_remaps, 1u);
    for (const graph::VertexId v : all) {
      const auto loc = built.store->location(v);
      if (loc.kind == BinBacking::Kind::kSsd) {
        ASSERT_NE(static_cast<std::size_t>(loc.ssd), failed) << "vertex " << v;
      }
    }
  }
}

TEST(FeatureStore, HardFailureOnSsd64IsRemappedByTheBatchThatSawIt) {
  // Ordinals past 63 must not be dropped when the completing batch records
  // which devices failed: SSD 64 dies on its first read, and the same gather
  // must remap it, not a later one.
  constexpr std::size_t kSsds = 65;
  constexpr std::size_t kRows = 64;
  gnn::Tensor features(kRows, 8);
  for (std::size_t i = 0; i < features.size(); ++i) {
    features.data()[i] = static_cast<float>(i) * 0.5f;
  }
  const std::vector<BinBacking> bins = {{BinBacking::Kind::kSsd, 0},
                                        {BinBacking::Kind::kSsd, 64}};
  std::vector<std::int32_t> bov(kRows);
  for (std::size_t v = 0; v < kRows; ++v) {
    bov[v] = static_cast<std::int32_t>(v % 2);
  }
  SsdOptions opts;
  opts.capacity_bytes = kRows * kPageBytes;  // SSD 0 can absorb SSD 64
  SsdArray array(kSsds, opts);
  TieredFeatureStore store(features, bov, bins, array);
  FaultProfile fp;
  fp.fail_after_reads = 0;
  array.ssd(64).inject_faults(fp);
  IoEngineOptions io;
  io.max_retries = 1;
  TieredFeatureClient client(store, 16, io);
  array.ssd(0).start();  // the only devices that hold rows
  array.ssd(64).start();

  std::vector<graph::VertexId> vs(kRows);
  for (std::size_t v = 0; v < kRows; ++v) {
    vs[v] = static_cast<graph::VertexId>(v);
  }
  gnn::Tensor out(kRows, 8);
  client.gather(vs, out);
  EXPECT_EQ(0, std::memcmp(out.data(), features.data(),
                           features.size() * sizeof(float)));
  EXPECT_EQ(array.health(64), DeviceHealth::kFailed);
  EXPECT_GT(client.io_resilience().failovers, 0u);
  EXPECT_EQ(client.io_resilience().device_remaps, 1u);
  EXPECT_FALSE(store.remap_failed_device(64));  // done once, by that batch
  EXPECT_EQ(store.location(1).ssd, 0);
  array.stop_all();
}

TEST(FeatureStore, TwoClientsCountOneRemapBetweenThem) {
  // Two clients gather concurrently while device 1 hard-fails on its first
  // read. Either or both may see the failure, but the store remaps the
  // device once, and only the client call that did it counts it: the
  // clients' device_remaps sum to exactly 1.
  graph::RmatParams gp;
  gp.num_vertices = 128;
  gp.num_edges = 600;
  const auto g = graph::generate_rmat(gp);
  const auto task = gnn::make_synthetic_task(g, 2, 8, 0.1, 4);
  const std::vector<BinBacking> bins = {{BinBacking::Kind::kSsd, 0},
                                        {BinBacking::Kind::kSsd, 1}};
  std::vector<std::int32_t> bov(128);
  for (std::size_t v = 0; v < 128; ++v) {
    bov[v] = static_cast<std::int32_t>(v % 2);
  }
  SsdOptions opts;
  opts.capacity_bytes = 1ull << 20;  // room for both halves on device 0
  SsdArray array(2, opts);
  TieredFeatureStore store(task.features, bov, bins, array);
  FaultProfile fp;
  fp.fail_after_reads = 0;
  array.ssd(1).inject_faults(fp);
  IoEngineOptions io;
  io.max_retries = 1;
  TieredFeatureClient c0(store, 256, io), c1(store, 256, io);
  array.start_all();

  std::vector<graph::VertexId> vs(128);
  for (std::size_t v = 0; v < vs.size(); ++v) {
    vs[v] = static_cast<graph::VertexId>(v);
  }
  auto worker = [&](TieredFeatureClient& client) {
    for (int round = 0; round < 4; ++round) {
      gnn::Tensor out(vs.size(), 8);
      client.gather(vs, out);
      EXPECT_EQ(0, std::memcmp(out.data(), task.features.data(),
                               task.features.size() * sizeof(float)))
          << "round " << round;
    }
  };
  std::thread t0(worker, std::ref(c0));
  std::thread t1(worker, std::ref(c1));
  t0.join();
  t1.join();
  array.stop_all();

  EXPECT_EQ(array.health(1), DeviceHealth::kFailed);
  EXPECT_EQ(c0.io_resilience().device_remaps + c1.io_resilience().device_remaps,
            1u);
  EXPECT_EQ(store.location(1).ssd, 0);
}

TEST(FeatureStore, TwoClientsUnderFaultsReportIoResilienceBetweenEpochs) {
  // Two trainer workers gather through their own clients (and IO threads)
  // from SSDs that fail 5% of reads. The main thread reads every client's
  // io_resilience() between epochs while the IO threads stay alive; the
  // counters must never decrease and must add up to the epoch's deltas.
  // Rows fill a page each, so the 512 pages outnumber what a client's
  // staging slots hold and every epoch reads.
  constexpr std::size_t kDim = kPageBytes / sizeof(float);
  graph::RmatParams gp;
  gp.num_vertices = 512;
  gp.num_edges = 4000;
  const auto g = graph::generate_rmat(gp);
  const auto task = gnn::make_synthetic_task(g, 4, kDim, 0.3, 11);
  const std::vector<BinBacking> bins = {{BinBacking::Kind::kSsd, 0},
                                        {BinBacking::Kind::kSsd, 1}};
  std::vector<std::int32_t> bov(gp.num_vertices);
  for (std::size_t v = 0; v < bov.size(); ++v) {
    bov[v] = static_cast<std::int32_t>(v % 2);
  }
  SsdOptions opts;
  opts.capacity_bytes = gp.num_vertices * kPageBytes;
  SsdArray array(2, opts);
  TieredFeatureStore store(task.features, bov, bins, array);
  for (std::size_t s = 0; s < 2; ++s) {
    FaultProfile fp;
    fp.read_error_prob = 0.05;
    fp.seed = 31 + s;
    array.ssd(s).inject_faults(fp);
  }
  TieredFeatureClient c0(store), c1(store);
  array.start_all();

  gnn::ModelConfig mcfg;
  mcfg.kind = gnn::ModelKind::kGraphSage;
  mcfg.in_dim = kDim;
  mcfg.hidden_dim = 8;
  mcfg.num_classes = 4;
  runtime::DataParallelTrainer trainer(
      g, {&c0, &c1}, mcfg, {5, 5}, sampling::select_train_vertices(g, 0.2, 3),
      0.01f, 7);
  gnn::FeatureProvider::IoResilience prev[2];
  for (int epoch = 0; epoch < 3; ++epoch) {
    const auto stats = trainer.train_epoch(task.labels, 32);
    const gnn::FeatureProvider::IoResilience now[2] = {c0.io_resilience(),
                                                       c1.io_resilience()};
    std::uint64_t retries = 0, rows = 0;
    for (int c = 0; c < 2; ++c) {
      EXPECT_GE(now[c].retries, prev[c].retries);
      EXPECT_GE(now[c].ssd_rows, prev[c].ssd_rows);
      retries += now[c].retries - prev[c].retries;
      rows += now[c].ssd_rows - prev[c].ssd_rows;
      prev[c] = now[c];
    }
    EXPECT_EQ(stats.io.retries, retries) << "epoch " << epoch;
    EXPECT_EQ(stats.io.ssd_rows, rows) << "epoch " << epoch;
    EXPECT_GT(stats.io.ssd_rows, 0u);
  }
  array.stop_all();
  EXPECT_GT(prev[0].retries + prev[1].retries, 0u);
  EXPECT_EQ(prev[0].permanent_failures + prev[1].permanent_failures, 0u);
}

}  // namespace
}  // namespace moment::iostack

namespace moment::ddak {
namespace {

DataPlacementResult make_placement(std::span<const Bin> bins,
                                   std::span<const std::int32_t> bov) {
  DataPlacementResult p;
  p.bin_of_vertex.assign(bov.begin(), bov.end());
  p.bin_access.assign(bins.size(), 0.0);
  p.bin_count.assign(bins.size(), 0);
  p.bin_traffic_share.assign(bins.size(), 0.0);
  for (std::int32_t b : bov) {
    ++p.bin_count[static_cast<std::size_t>(b)];
    p.bin_access[static_cast<std::size_t>(b)] += 1.0;
  }
  const double total = static_cast<double>(bov.size());
  for (std::size_t b = 0; b < bins.size(); ++b) {
    p.bin_traffic_share[b] = p.bin_access[b] / total;
  }
  return p;
}

std::vector<Bin> three_ssd_bins(double capacity) {
  std::vector<Bin> bins(3);
  for (std::size_t b = 0; b < 3; ++b) {
    bins[b].name = "SSD" + std::to_string(b);
    bins[b].tier = topology::StorageTier::kSsd;
    bins[b].capacity_vertices = capacity;
    bins[b].traffic_target = 1.0;
  }
  return bins;
}

TEST(Failover, PlanCoversAllResidentsWhenCapacityAllows) {
  const auto bins = three_ssd_bins(100.0);
  std::vector<std::int32_t> bov(90);
  for (std::size_t v = 0; v < 90; ++v) {
    bov[v] = static_cast<std::int32_t>(v % 3);
  }
  auto placement = make_placement(bins, bov);
  const std::size_t failed[] = {1};
  const auto moves = plan_bin_failover(bins, placement, failed);
  ASSERT_EQ(moves.size(), 30u);  // every resident of bin 1 is re-placed
  for (const auto& m : moves) {
    EXPECT_EQ(placement.bin_of_vertex[m.vertex], 1);
    EXPECT_TRUE(m.to_bin == 0 || m.to_bin == 2);
  }
  // Survivors stay balanced (greedy min-fill): 30 + 15 each, 45/45.
  std::size_t moved_to[3] = {0, 0, 0};
  for (const auto& m : moves) ++moved_to[m.to_bin];
  EXPECT_EQ(placement.bin_count[0] + moved_to[0], 45u);
  EXPECT_EQ(placement.bin_count[2] + moved_to[2], 45u);
}

TEST(Failover, CapacityBoundLeavesUnplaceableVerticesBehind) {
  const auto bins = three_ssd_bins(32.0);  // 30 resident + 2 spare each
  std::vector<std::int32_t> bov(90);
  for (std::size_t v = 0; v < 90; ++v) {
    bov[v] = static_cast<std::int32_t>(v % 3);
  }
  const auto placement = make_placement(bins, bov);
  const std::size_t failed[] = {1};
  const auto moves = plan_bin_failover(bins, placement, failed);
  EXPECT_EQ(moves.size(), 4u);  // only 2+2 spare slots exist
}

}  // namespace
}  // namespace moment::ddak
