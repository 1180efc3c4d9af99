#pragma once
// Pre-sampling hotness profiler (paper Section 3.3: "We first collect vertex
// hotness information through pre-sampling"). Runs the real sampler over
// warm-up batches and counts how often each vertex appears in the
// feature-fetch set. The normalised counts are the hotness distribution DDAK
// sorts by, and the per-epoch access volume estimate the simulator scales to
// paper-size traffic.
//
// The profile is sized to the graph, not to a batch count: it keeps drawing
// batches until it has recorded at least two fetches per vertex, then stops
// at that batch boundary. A fixed number of small batches records well under
// one fetch per vertex on a large graph, so most vertices tie at zero and
// the ranking degrades to vertex-id order.

#include <cstdint>
#include <vector>

#include "sampling/neighbor_sampler.hpp"

namespace moment::sampling {

struct HotnessProfile {
  /// Per-vertex expected fetches per batch (access frequency).
  std::vector<double> hotness;
  /// Expected unique-vertex fetches per batch (after in-batch dedup).
  double fetches_per_batch = 0.0;
  /// Fraction of all fetches that hit the hottest `k`% of vertices, for
  /// k = 1, 5, 10 — the skew fingerprint used in tests and docs.
  double top1pct_traffic = 0.0;
  double top5pct_traffic = 0.0;
  double top10pct_traffic = 0.0;
  std::size_t profiled_batches = 0;
  std::size_t batch_size = 0;  // seeds per profiled batch
  /// by_hotness_desc() as profile_hotness sorted it once. Empty on a profile
  /// whose `hotness` is filled by hand.
  std::vector<VertexId> ranked;

  /// Vertices sorted by descending hotness, ties by ascending id (DDAK's
  /// allocation order and the hot-row cache's warm order). Returns `ranked`
  /// when it covers every vertex, else sorts `hotness`.
  std::vector<VertexId> by_hotness_desc() const;
};

struct HotnessOptions {
  std::size_t batch_size = 1024;
  std::uint64_t seed = 7;
};

/// Profiles until at least 2 x num_vertices fetches are recorded (whole
/// batches; the training set is reshuffled when an epoch runs out). Throws
/// std::invalid_argument on an empty training set.
HotnessProfile profile_hotness(const CsrGraph& graph,
                               const NeighborSampler& sampler,
                               const std::vector<VertexId>& train_vertices,
                               const HotnessOptions& options = {});

}  // namespace moment::sampling
