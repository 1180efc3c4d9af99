// A steady-state training step allocates no large block. This binary
// replaces the global operator new/delete with counting versions (every
// thread, the compute pool's included) and checks that, once two warm-up
// steps have sized the layers' and the model's workspaces, gnn::train_step
// on the same blocks makes no allocation of 64 KiB or more.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "gnn/block.hpp"
#include "gnn/model.hpp"
#include "graph/generators.hpp"
#include "sampling/neighbor_sampler.hpp"

namespace {

constexpr std::size_t kLargeBytes = 64 * 1024;

std::atomic<bool> counting{false};
std::atomic<std::size_t> large_allocs{0};
std::atomic<std::size_t> largest_bytes{0};

void note(std::size_t n) {
  if (!counting.load(std::memory_order_relaxed) || n < kLargeBytes) return;
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

TEST(TrainStepAllocations, SteadyStateMakesNoLargeAllocation) {
  graph::RmatParams gp;
  gp.num_vertices = 4096;
  gp.num_edges = 40000;
  const auto g = graph::generate_rmat(gp);
  sampling::NeighborSampler sampler(g, {10, 5});
  util::Pcg32 rng(3);
  std::vector<graph::VertexId> seeds;
  for (graph::VertexId v = 0; v < 4096; v += 32) seeds.push_back(v);
  const std::vector<Block> blocks = build_blocks(sampler.sample(seeds, rng));
  std::vector<std::int32_t> labels(4096);
  for (std::size_t v = 0; v < labels.size(); ++v) {
    labels[v] = static_cast<std::int32_t>(v % 8);
  }

  struct Case {
    const char* name;
    ModelKind kind;
    std::size_t hidden, heads;
  };
  for (const Case& c : {Case{"sage", ModelKind::kGraphSage, 128, 1},
                        Case{"gcn", ModelKind::kGcn, 128, 1},
                        Case{"gat", ModelKind::kGat, 16, 8}}) {
    SCOPED_TRACE(c.name);
    ModelConfig cfg;
    cfg.kind = c.kind;
    cfg.in_dim = 64;
    cfg.hidden_dim = c.hidden;
    cfg.gat_heads = c.heads;
    cfg.num_classes = 8;
    GnnModel model(cfg);
    const Tensor x0 = Tensor::glorot(blocks[0].num_src(), cfg.in_dim, rng);
    // Layer 0's output alone must be a large block, or the check is empty.
    ASSERT_GE(blocks[0].num_dst() * c.hidden * c.heads * sizeof(float),
              kLargeBytes);

    for (int warm = 0; warm < 2; ++warm) train_step(model, blocks, x0, labels);
    large_allocs = 0;
    largest_bytes = 0;
    counting = true;
    const float loss = train_step(model, blocks, x0, labels).loss;
    counting = false;
    EXPECT_EQ(large_allocs.load(), 0u)
        << "largest allocation: " << largest_bytes.load() << " bytes";
    EXPECT_TRUE(loss > 0.0f);
  }
}

}  // namespace
}  // namespace moment::gnn
