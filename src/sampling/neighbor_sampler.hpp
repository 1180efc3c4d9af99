#pragma once
// Mini-batch k-hop uniform neighbor sampling (GraphSAGE-style), matching the
// paper's workload: 2-hop random sampling with fan-outs [25, 10], batch 8000.
//
// sample() returns the layered subgraph (per-hop edges) plus the unique
// feature-fetch set — the vertices whose embeddings must be gathered from the
// storage hierarchy. The fetch set drives both the hotness profiler and the
// simulator's traffic model.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "util/rng.hpp"

namespace moment::sampling {

using graph::CsrGraph;
using graph::VertexId;

/// One message-passing layer of a sampled subgraph. Edges are (dst, src):
/// dst aggregates from src. Vertex ids are global graph ids.
struct SampledLayer {
  std::vector<VertexId> dst_vertices;           // unique targets of this hop
  std::vector<std::pair<VertexId, VertexId>> edges;
};

struct SampledSubgraph {
  std::vector<VertexId> seeds;
  /// layers[0] is the outermost hop (seeds aggregate in layers.back()).
  std::vector<SampledLayer> layers;
  /// Unique vertices whose features must be fetched (all sampled vertices).
  std::vector<VertexId> fetch_set;
};

class NeighborSampler {
 public:
  /// `fanouts` ordered from the seed layer outward, e.g. {25, 10} samples 25
  /// first-hop then 10 second-hop neighbors per vertex (paper Section 4.1).
  NeighborSampler(const CsrGraph& graph, std::vector<int> fanouts);

  /// Samples the layered subgraph for `seeds`. Draws exactly two words from
  /// `rng` to derive a batch base, then every (hop, dst) pair samples from
  /// its own counter-based stream — fanned over util::compute_pool(), with
  /// results independent of the thread count (samples are a pure function of
  /// (base, hop, dst)). Reuses per-sampler scratch buffers, so concurrent
  /// sample() calls on the SAME instance race; give each worker thread its
  /// own sampler (the engine already does).
  SampledSubgraph sample(std::span<const VertexId> seeds,
                         util::Pcg32& rng) const;

  const std::vector<int>& fanouts() const noexcept { return fanouts_; }

  /// Expected number of vertex-feature fetches per seed, ignoring dedup:
  /// 1 + f0 + f0*f1 + ... Used for paper-scale traffic arithmetic.
  double expansion_factor() const noexcept;

 private:
  const CsrGraph& graph_;
  std::vector<int> fanouts_;
  /// Per-call scratch, hoisted so steady-state sampling allocates only the
  /// returned subgraph (see sample() for the reuse/thread-safety contract).
  mutable std::vector<VertexId> scratch_frontier_;
  mutable std::vector<VertexId> scratch_next_;
  mutable std::vector<VertexId> scratch_srcs_;
  mutable std::vector<std::uint32_t> scratch_counts_;
};

/// Shuffled mini-batch iterator over training vertices.
class BatchIterator {
 public:
  BatchIterator(std::vector<VertexId> train_vertices, std::size_t batch_size,
                std::uint64_t seed);

  /// Next batch, or empty when the epoch is exhausted.
  std::span<const VertexId> next();
  void reset_epoch();  // reshuffles

  std::size_t num_batches() const noexcept;
  std::size_t batch_size() const noexcept { return batch_size_; }

 private:
  std::vector<VertexId> vertices_;
  std::size_t batch_size_;
  std::size_t cursor_ = 0;
  util::Pcg32 rng_;
};

/// Selects `fraction` of all vertices as training vertices (uniformly,
/// matching the paper's "randomly select 1% of the vertices").
std::vector<VertexId> select_train_vertices(const CsrGraph& graph,
                                            double fraction,
                                            std::uint64_t seed);

}  // namespace moment::sampling
