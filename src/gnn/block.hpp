#pragma once
// Message-passing blocks: the bipartite (src -> dst) compute structures of a
// sampled mini-batch, mirroring DGL's `to_block`. blocks[0] is applied first
// (widest frontier, raw features); blocks.back() produces seed outputs.

#include <cstddef>
#include <span>
#include <vector>

#include "sampling/neighbor_sampler.hpp"

namespace moment::gnn {

using graph::VertexId;

/// One block as a per-destination CSR over local rows, read by every layer
/// invocation on it (SAGE/GCN aggregation, GAT attention, and all their
/// backward passes). Both directions are materialised so forward passes can
/// parallelise race-free over dst rows and backward passes over src rows.
/// Built by make_block or build_blocks; the arrays do not change after.
struct Block {
  std::vector<VertexId> src_ids;  // ascending global vertex ids
  /// Global ids of the dst rows, distinct, each also a src. Ascending, except
  /// in the seed block (blocks.back()), which keeps the batch order.
  std::vector<VertexId> dst_ids;

  /// Forward CSR: neighbors of dst i are src_of[dst_off[i] .. dst_off[i+1]),
  /// sorted ascending. Positions in src_of define the "CSR edge id" that
  /// layers use to index per-edge saved state (GAT alpha, GCN coeffs).
  std::vector<int> dst_off;   // num_dst + 1
  std::vector<int> src_of;    // num_edges
  std::vector<float> inv_deg; // num_dst; 1/degree, 0 for isolated dsts
  /// Reverse CSR: CSR edge ids entering src v are
  /// rev_edge[src_off[v] .. src_off[v+1]); dst_of maps a CSR edge id back to
  /// its destination row.
  std::vector<int> src_off;   // num_src + 1
  std::vector<int> rev_edge;  // num_edges
  std::vector<int> dst_of;    // num_edges
  /// src_to_dst[v] = dst index of src v when the vertex is also a dst
  /// (self-feature row), else -1. Injective over valid entries.
  std::vector<int> src_to_dst;  // num_src
  /// self_src[i] = src row holding dst i's own features.
  std::vector<int> self_src;  // num_dst

  std::size_t num_src() const noexcept { return src_ids.size(); }
  std::size_t num_dst() const noexcept { return dst_ids.size(); }
  std::size_t num_edges() const noexcept { return src_of.size(); }
  int degree(std::size_t dst) const noexcept {
    return dst_off[dst + 1] - dst_off[dst];
  }
};

/// Builds a block from per-dst src lists: dst i aggregates from the src rows
/// nbr[nbr_off[i] .. nbr_off[i+1]), given in any order. src_ids must be
/// strictly ascending and hold every dst id. Throws std::out_of_range for a
/// src row outside src_ids or a dst id missing from it, and
/// std::invalid_argument for a repeated dst id, unsorted src_ids or offsets
/// that do not partition nbr.
Block make_block(std::vector<VertexId> src_ids, std::vector<VertexId> dst_ids,
                 std::span<const std::size_t> nbr_off, std::vector<int> nbr);

/// Builds application-ordered blocks. blocks[k] applies sampled hop
/// h = L-1-k: its dsts are that hop's frontier, its srcs the next wider one
/// (layers[h+1].dst_vertices, or the fetch set for the outermost hop). So
/// blocks[k].dst_ids == blocks[k+1].src_ids, and the final block's dsts are
/// the seeds in batch order. Throws std::invalid_argument on a repeated seed.
std::vector<Block> build_blocks(const sampling::SampledSubgraph& sg);

}  // namespace moment::gnn
