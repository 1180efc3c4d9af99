// Unit tests for the util module: deterministic RNG, distributions,
// statistics helpers, parallel_for on the compute pool and the table printer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace moment::util {
namespace {

TEST(SplitMix64, DeterministicAndDistinct) {
  SplitMix64 a(42), b(42), c(43);
  const auto x = a.next();
  EXPECT_EQ(x, b.next());
  EXPECT_NE(x, c.next());
}

TEST(SplitMix64, HashCombineOrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_EQ(hash_combine(7, 9), hash_combine(7, 9));
}

TEST(Pcg32, Deterministic) {
  Pcg32 a(123, 5), b(123, 5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32, StreamsDiffer) {
  Pcg32 a(123, 1), b(123, 2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Pcg32, NextBelowRespectsBound) {
  Pcg32 rng(7);
  for (std::uint32_t bound : {1u, 2u, 3u, 10u, 1000u}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
  EXPECT_EQ(rng.next_below(1), 0u);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Pcg32, NextBelowCoversRange) {
  Pcg32 rng(11);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Pcg32, NextDoubleUniform) {
  Pcg32 rng(99);
  double sum = 0.0;
  double mn = 1.0, mx = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
    mn = std::min(mn, d);
    mx = std::max(mx, d);
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
  EXPECT_LT(mn, 0.01);  // the old broken generator never exceeded 0.016
  EXPECT_GT(mx, 0.99);
}

TEST(Pcg32, NextDoubleRange) {
  Pcg32 rng(5);
  for (int i = 0; i < 100; ++i) {
    const double d = rng.next_double(3.0, 7.0);
    EXPECT_GE(d, 3.0);
    EXPECT_LT(d, 7.0);
  }
}

TEST(ZipfSampler, PmfSumsToOne) {
  ZipfSampler zipf(100, 1.0);
  double total = 0.0;
  for (std::size_t k = 0; k < 100; ++k) total += zipf.pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(zipf.pmf(100), 0.0);
}

TEST(ZipfSampler, RankZeroMostLikely) {
  ZipfSampler zipf(1000, 1.2);
  EXPECT_GT(zipf.pmf(0), zipf.pmf(1));
  EXPECT_GT(zipf.pmf(1), zipf.pmf(10));
}

TEST(ZipfSampler, EmpiricalMatchesPmf) {
  ZipfSampler zipf(50, 1.0);
  Pcg32 rng(3);
  std::vector<int> counts(50, 0);
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t k : {0u, 1u, 5u}) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / kN, zipf.pmf(k), 0.01)
        << "rank " << k;
  }
}

TEST(Stats, SummaryBasics) {
  const double vals[] = {1.0, 2.0, 3.0, 4.0, 5.0};
  const Summary s = summarize(vals);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, EmptySummaryIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const double vals[] = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(vals, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(vals, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(vals, 1.0), 10.0);
}

TEST(Stats, GiniUniformIsZero) {
  const double vals[] = {2.0, 2.0, 2.0, 2.0};
  EXPECT_NEAR(gini(vals), 0.0, 1e-9);
}

TEST(Stats, GiniSkewedIsLarge) {
  std::vector<double> vals(100, 0.0);
  vals[0] = 100.0;
  EXPECT_GT(gini(vals), 0.95);
}

TEST(Stats, CoefficientOfVariation) {
  const double uniform[] = {5.0, 5.0, 5.0};
  EXPECT_NEAR(coefficient_of_variation(uniform), 0.0, 1e-12);
  const double spread[] = {1.0, 9.0};
  EXPECT_GT(coefficient_of_variation(spread), 0.5);
}

TEST(Stats, RunningStatMatchesBatch) {
  RunningStat rs;
  const double vals[] = {1.5, -2.0, 7.25, 0.0, 3.5};
  for (double v : vals) rs.add(v);
  const Summary s = summarize(vals);
  EXPECT_NEAR(rs.mean(), s.mean, 1e-12);
  EXPECT_NEAR(rs.stddev(), s.stddev, 1e-12);
  EXPECT_EQ(rs.min(), -2.0);
  EXPECT_EQ(rs.max(), 7.25);
}

TEST(Stats, HistogramBinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);   // clamps low
  h.add(0.5);
  h.add(9.9);
  h.add(25.0);   // clamps high
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bins()[0], 2u);
  EXPECT_EQ(h.bins()[4], 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
}

// Pins the compute pool to `n` threads for one test, then back to auto.
struct PoolThreads {
  explicit PoolThreads(std::size_t n) { set_compute_pool_threads(n); }
  ~PoolThreads() { set_compute_pool_threads(0); }
};

// Spins until `count` is nonzero, for at most 10 s.
void wait_until_nonzero(const std::atomic<int>& count) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (count.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

// Number of chunks parallel_for splits [0, n) into at the current pool size.
std::size_t chunk_count(std::size_t n, std::size_t grain) {
  std::atomic<std::size_t> chunks{0};
  parallel_for(0, n, grain, [&](std::size_t, std::size_t) { ++chunks; });
  return chunks.load();
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  // Workers' chunks are slow and the caller's wait until a worker has
  // started one, so the caller runs out of chunks to claim while a worker
  // is still inside one: the call must wait for it before it returns.
  PoolThreads pool(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> worker_chunks{0};
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(3, 997, 16, [&](std::size_t b, std::size_t e) {
    if (std::this_thread::get_id() != caller) {
      ++worker_chunks;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    } else {
      wait_until_nonzero(worker_chunks);
    }
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), i >= 3 && i < 997 ? 1 : 0) << i;
  }
}

TEST(ParallelFor, NullPoolRunsInlineAsOneChunk) {
  // A pool of 1 thread has no workers: the caller runs the range as one chunk.
  PoolThreads pool(1);
  const auto caller = std::this_thread::get_id();
  int calls = 0;
  parallel_for(0, 100, 8, [&](std::size_t b, std::size_t e) {
    ++calls;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 100u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, EmptyAndSmallRanges) {
  PoolThreads pool(2);
  int calls = 0;
  parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // Range within one grain: single inline chunk.
  parallel_for(0, 4, 8, [&](std::size_t b, std::size_t e) {
    ++calls;
    EXPECT_EQ(e - b, 4u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, NestedCallFromWorkerRunsInline) {
  // A parallel_for issued from a chunk that a pool worker runs covers its
  // whole range inline on that worker. The caller's chunks wait until a
  // worker has run one, so the nested case is always exercised.
  PoolThreads pool(2);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> worker_chunks{0};
  parallel_for(0, 8, 1, [&](std::size_t, std::size_t) {
    const bool on_worker = std::this_thread::get_id() != caller;
    int inner_chunks = 0;
    std::size_t covered = 0;
    parallel_for(0, 64, 1, [&](std::size_t b, std::size_t e) {
      if (!on_worker) return;
      ++inner_chunks;
      covered += e - b;
    });
    if (on_worker) {
      EXPECT_EQ(inner_chunks, 1);
      EXPECT_EQ(covered, 64u);
      ++worker_chunks;
      return;
    }
    wait_until_nonzero(worker_chunks);
  });
  EXPECT_GT(worker_chunks.load(), 0);
}

TEST(ParallelFor, PropagatesExceptions) {
  // Every chunk runs; the lowest-indexed failing chunk's error comes back,
  // even though it throws last. 100 indices over 16 chunks at 4 threads:
  // step 7, 15 chunks, and the chunks from 56 on throw.
  PoolThreads pool(4);
  std::atomic<int> ran{0};
  std::atomic<int> later_throws{0};
  try {
    parallel_for(0, 100, 1, [&](std::size_t b, std::size_t) {
      ++ran;
      if (b < 50) return;
      if (b == 56) {
        wait_until_nonzero(later_throws);
      } else {
        ++later_throws;
      }
      throw std::runtime_error(std::to_string(b));
    });
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "56");
  }
  EXPECT_EQ(ran.load(), 15);
}

TEST(ParallelFor, ConcurrentCallersShareThePool) {
  // Two threads fan out on the one pool at once, as the trainer's workers
  // do; each call covers its own range exactly once.
  PoolThreads pool(4);
  constexpr std::size_t kRange = 5000;
  constexpr int kCalls = 50;
  std::vector<std::atomic<int>> hits(2 * kRange);
  auto caller = [&](std::size_t offset) {
    for (int c = 0; c < kCalls; ++c) {
      parallel_for(offset, offset + kRange, 16,
                   [&](std::size_t b, std::size_t e) {
                     for (std::size_t i = b; i < e; ++i) ++hits[i];
                   });
    }
  };
  std::thread a(caller, 0);
  std::thread b(caller, kRange);
  a.join();
  b.join();
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), kCalls) << i;
  }
}

TEST(ComputePool, ConfigurableAndInlineAtOneThread) {
  set_compute_pool_threads(1);
  EXPECT_EQ(compute_pool_threads(), 1u);
  EXPECT_EQ(chunk_count(1000, 1), 1u);  // 1 thread = run inline
  set_compute_pool_threads(3);
  EXPECT_EQ(compute_pool_threads(), 3u);
  EXPECT_EQ(chunk_count(1000, 1), 12u);   // four chunks per pool thread
  EXPECT_EQ(chunk_count(1000, 200), 5u);  // none smaller than a grain
  set_compute_pool_threads(0);  // back to auto for the rest of the suite
  EXPECT_GE(compute_pool_threads(), 1u);
}

TEST(Table, FormatsAligned) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 22222 |"), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::speedup(1.5), "1.50x");
  EXPECT_EQ(Table::percent(0.306), "30.6%");
  EXPECT_EQ(Table::bytes(2048), "2.00 KiB");
  EXPECT_EQ(Table::bytes(3.5 * 1024 * 1024 * 1024), "3.50 GiB");
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(gib_per_s(1.0), 1024.0 * 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(to_gib_per_s(gib_per_s(17.5)), 17.5);
}

}  // namespace
}  // namespace moment::util
