#pragma once
// Mini-batch k-hop uniform neighbor sampling (GraphSAGE-style), matching the
// paper's workload: 2-hop random sampling with fan-outs [25, 10], batch 8000.
//
// sample() returns the layered subgraph (each hop's frontier and, per
// frontier vertex, its sampled sources) plus the unique feature-fetch set —
// the vertices whose embeddings must be gathered from the storage hierarchy.
// The fetch set drives both the hotness profiler and the simulator's traffic
// model; gnn::build_blocks turns the layers into message-passing blocks.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "util/rng.hpp"

namespace moment::sampling {

using graph::CsrGraph;
using graph::VertexId;

/// One sampled hop as a per-dst CSR over global vertex ids: dst_vertices[i]
/// aggregates from nbr[nbr_off[i] .. nbr_off[i+1]), its sampled sources in
/// draw order (with repeats). An isolated vertex has an empty list.
struct SampledLayer {
  std::vector<VertexId> dst_vertices;  // this hop's frontier
  std::vector<std::size_t> nbr_off;    // dst_vertices.size() + 1
  std::vector<VertexId> nbr;
};

struct SampledSubgraph {
  /// layers[0] is the seed hop: its dst_vertices are the seeds in batch
  /// order. layers[h + 1].dst_vertices is layers[h]'s frontier plus its
  /// sources, ascending and unique.
  std::vector<SampledLayer> layers;
  /// Unique vertices whose features must be fetched (all sampled vertices),
  /// ascending: the last hop's frontier plus its sources.
  std::vector<VertexId> fetch_set;
};

class NeighborSampler {
 public:
  /// `fanouts` ordered from the seed layer outward, e.g. {25, 10} samples 25
  /// first-hop then 10 second-hop neighbors per vertex (paper Section 4.1).
  NeighborSampler(const CsrGraph& graph, std::vector<int> fanouts);

  /// Samples the layered subgraph for `seeds`. Draws exactly two words from
  /// `rng` to derive a batch base, then every (hop, dst) pair samples from
  /// its own counter-based stream — fanned over the compute pool, with
  /// results independent of the thread count (samples are a pure function of
  /// (base, hop, dst)). Seeds may repeat; each copy gets the same sources.
  /// The sampler keeps no state between calls.
  SampledSubgraph sample(std::span<const VertexId> seeds,
                         util::Pcg32& rng) const;

  const std::vector<int>& fanouts() const noexcept { return fanouts_; }

  /// Expected number of vertex-feature fetches per seed, ignoring dedup:
  /// 1 + f0 + f0*f1 + ... Used for paper-scale traffic arithmetic.
  double expansion_factor() const noexcept;

 private:
  const CsrGraph& graph_;
  std::vector<int> fanouts_;
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
