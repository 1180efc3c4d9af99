#pragma once
// Data-distribution-aware knapsack (DDAK) — paper Section 3.3.
//
// Storage devices become bins with (a) a vertex capacity (cache size or SSD
// size) and (b) a traffic target, the bytes the max-flow solution expects the
// bin to serve. Vertices are allocated in descending hotness order, pooled n
// at a time (default n = 100); each pool goes to the bin minimising
//
//   priority = (bin_access / bin_traffic) * (bin_current / bin_capacity)
//
// i.e. the bin furthest below its traffic budget and emptiest, with the
// GPU > CPU > SSD hierarchy as tie-break. A hash-partitioning baseline
// (uniform SSD striping) reproduces the paper's comparison point.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sampling/hotness.hpp"
#include "topology/flow_graph.hpp"

namespace moment::ddak {

struct Bin {
  std::string name;           // "GPU0.HBM", "DRAM1", "SSD3"
  int storage_index = -1;     // index into FlowGraph::storage
  topology::StorageTier tier = topology::StorageTier::kSsd;
  double capacity_vertices = 0.0;
  double traffic_target = 0.0;  // bytes from the max-flow plan (>= 0)
  /// Replicated bin: the same content lives on several storage nodes and a
  /// consumer reads from the nearest replica (e.g. the CPU cache mirrored on
  /// both sockets so hits never cross QPI). Empty = single-copy bin.
  std::vector<int> replica_storage_indices;
};

struct DdakOptions {
  std::size_t pool_size = 100;  // vertices allocated per priority evaluation
};

/// Pool size scaled to the graph: the paper's n = 100 on 10^8..10^9-vertex
/// graphs is ~1e-6 of the vertices; on scaled-down graphs the same absolute
/// pool would be far too coarse at the hot end of the Zipf curve.
std::size_t default_pool_size(std::size_t num_vertices) noexcept;

struct DataPlacementResult {
  /// Per scaled-graph vertex: index into the bin vector.
  std::vector<std::int32_t> bin_of_vertex;
  std::vector<double> bin_access;        // cumulative hotness per bin
  std::vector<std::size_t> bin_count;    // vertices per bin
  /// Realised traffic share per bin (bin_access / total hotness).
  std::vector<double> bin_traffic_share;
  /// L1 distance between realised and targeted traffic shares (0 = perfect
  /// match with the flow plan). Only over bins with positive targets.
  double traffic_share_error = 0.0;
};

/// DDAK allocation. `bins` must cover at least the total vertex count.
DataPlacementResult ddak_place(std::span<const Bin> bins,
                               const sampling::HotnessProfile& profile,
                               const DdakOptions& options = {});

/// Hash baseline: caches still hold the hottest vertices (GIDS-style static
/// degree cache) but the SSD-resident remainder is striped uniformly across
/// SSD bins, ignoring traffic targets.
DataPlacementResult hash_place(std::span<const Bin> bins,
                               const sampling::HotnessProfile& profile,
                               std::uint64_t seed = 17);

/// Builds the bin vector for a compiled flow graph: one bin per storage node,
/// capacities from the cache configuration, traffic targets from a
/// prediction's per-storage bytes.
///
/// Targets are first smoothed within (tier, parent-device) equivalence
/// groups: devices on the same switch/root complex are interchangeable, so
/// any redistribution among them preserves optimality of the flow plan while
/// removing the arbitrary per-device split a particular max-flow solution
/// happens to pick.
std::vector<Bin> make_bins(const topology::Topology& topo,
                           const topology::FlowGraph& fg,
                           std::span<const double> per_storage_traffic,
                           std::size_t num_vertices,
                           double gpu_cache_fraction,
                           double cpu_cache_fraction);

/// The smoothing step, exposed for testing: averages traffic over storage
/// nodes sharing (tier, parent device). GPU HBM entries are left untouched.
std::vector<double> smooth_storage_traffic(
    const topology::Topology& topo, const topology::FlowGraph& fg,
    std::span<const double> per_storage_traffic);

/// One vertex displaced by a bin failure (device loss): it moves from its
/// failed bin to `to_bin` on a surviving device of the same tier.
struct FailoverMove {
  graph::VertexId vertex = 0;
  std::int32_t to_bin = -1;
};

/// Plans the re-placement of every vertex resident in `failed_bins` onto
/// surviving bins of the same tier, greedily filling the bin with the lowest
/// capacity-normalised fill first and never exceeding capacity. Vertices that
/// fit nowhere are omitted from the plan (the caller keeps serving them from
/// the host-side authoritative copy).
std::vector<FailoverMove> plan_bin_failover(
    std::span<const Bin> bins, const DataPlacementResult& placement,
    std::span<const std::size_t> failed_bins);

}  // namespace moment::ddak
