// A steady-state training step allocates no large block, and the compute
// pool adds no allocation to it. This binary replaces the global operator
// new/delete with counting versions (every thread, the compute pool's
// included) and checks that
//  - parallel_for over a pool of 4 threads allocates nothing;
//  - once two warm-up steps have sized the layers' and the model's
//    workspaces, gnn::train_step on the same blocks makes no allocation of
//    64 KiB or more, and a SAGE or GCN step makes as many allocations at a
//    pool of 4 threads as at a pool of 1.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "gnn/block.hpp"
#include "gnn/model.hpp"
#include "graph/generators.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "util/thread_pool.hpp"

namespace {

constexpr std::size_t kLargeBytes = 64 * 1024;

std::atomic<bool> counting{false};
std::atomic<std::size_t> allocs{0};
std::atomic<std::size_t> large_allocs{0};
std::atomic<std::size_t> largest_bytes{0};

void note(std::size_t n) {
  if (!counting.load(std::memory_order_relaxed)) return;
  allocs.fetch_add(1, std::memory_order_relaxed);
  if (n < kLargeBytes) return;
  large_allocs.fetch_add(1, std::memory_order_relaxed);
  std::size_t seen = largest_bytes.load(std::memory_order_relaxed);
  while (n > seen && !largest_bytes.compare_exchange_weak(seen, n)) {
  }
}

void* allocate(std::size_t n) {
  note(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t n, std::align_val_t al) {
  note(n);
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return allocate_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return allocate_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace moment::gnn {
namespace {

// Runs `f` with the counters reset and counting on; returns the number of
// allocations it made on every thread.
template <typename F>
std::size_t count_allocs(F&& f) {
  allocs = 0;
  large_allocs = 0;
  largest_bytes = 0;
  counting = true;
  f();
  counting = false;
  return allocs.load();
}

// One sampled batch (fan-outs 10/5) over a 4096-vertex RMAT graph.
struct Batch {
  std::vector<Block> blocks;
  std::vector<std::int32_t> labels;
};

const Batch& batch() {
  static const Batch b = [] {
    graph::RmatParams gp;
    gp.num_vertices = 4096;
    gp.num_edges = 40000;
    const auto g = graph::generate_rmat(gp);
    sampling::NeighborSampler sampler(g, {10, 5});
    util::Pcg32 rng(3);
    std::vector<graph::VertexId> seeds;
    for (graph::VertexId v = 0; v < 4096; v += 32) seeds.push_back(v);
    Batch out{build_blocks(sampler.sample(seeds, rng)),
              std::vector<std::int32_t>(4096)};
    for (std::size_t v = 0; v < out.labels.size(); ++v) {
      out.labels[v] = static_cast<std::int32_t>(v % 8);
    }
    return out;
  }();
  return b;
}

struct Case {
  const char* name;
  ModelKind kind;
  std::size_t hidden, heads;
};
constexpr Case kSage{"sage", ModelKind::kGraphSage, 128, 1};
constexpr Case kGcn{"gcn", ModelKind::kGcn, 128, 1};
constexpr Case kGat{"gat", ModelKind::kGat, 16, 8};

// Allocations of one train_step after two warm-up steps on the same batch.
std::size_t steady_step_allocs(const Case& c) {
  ModelConfig cfg;
  cfg.kind = c.kind;
  cfg.in_dim = 64;
  cfg.hidden_dim = c.hidden;
  cfg.gat_heads = c.heads;
  cfg.num_classes = 8;
  GnnModel model(cfg);
  util::Pcg32 rng(7);
  const Batch& b = batch();
  const Tensor x0 = Tensor::glorot(b.blocks[0].num_src(), cfg.in_dim, rng);
  for (int warm = 0; warm < 2; ++warm) {
    train_step(model, b.blocks, x0, b.labels);
  }
  float loss = 0.0f;
  const std::size_t n = count_allocs(
      [&] { loss = train_step(model, b.blocks, x0, b.labels).loss; });
  EXPECT_TRUE(loss > 0.0f);
  return n;
}

TEST(TrainStepAllocations, SteadyStateMakesNoLargeAllocation) {
  for (const Case& c : {kSage, kGcn, kGat}) {
    SCOPED_TRACE(c.name);
    // Layer 0's output alone must be a large block, or the check is empty.
    const std::size_t layer0_rows = batch().blocks[0].num_dst();
    ASSERT_GE(layer0_rows * c.hidden * c.heads * sizeof(float), kLargeBytes);
    steady_step_allocs(c);
    EXPECT_EQ(large_allocs.load(), 0u)
        << "largest allocation: " << largest_bytes.load() << " bytes";
  }
}

TEST(TrainStepAllocations, PoolOfFourAddsNoAllocation) {
  // GAT is left out: its attention kernels keep a scratch vector per task,
  // so its count follows the chunk count.
  for (const Case& c : {kSage, kGcn}) {
    SCOPED_TRACE(c.name);
    util::set_compute_pool_threads(1);
    const std::size_t inline_allocs = steady_step_allocs(c);
    util::set_compute_pool_threads(4);
    EXPECT_EQ(steady_step_allocs(c), inline_allocs);
  }
  util::set_compute_pool_threads(0);
}

TEST(ParallelForAllocations, PoolOfFourMakesNone) {
  util::set_compute_pool_threads(4);
  std::vector<std::atomic<int>> hits(4096);
  const auto cover = [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  };
  EXPECT_EQ(count_allocs([&] {
              for (int call = 0; call < 100; ++call) {
                util::parallel_for(0, hits.size(), 16, cover);
              }
            }),
            0u);
  EXPECT_EQ(hits[0].load(), 100);
  util::set_compute_pool_threads(0);
}

}  // namespace
}  // namespace moment::gnn
