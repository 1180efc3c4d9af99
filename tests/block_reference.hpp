#pragma once
// Edge-list oracle for build_blocks: the CSR arrays of one block computed
// from a sampled hop's global (dst, src) pairs, the long way round. The src
// set is the sorted, de-duplicated union of the dsts and the edge sources;
// global ids map to local rows through hash maps; the pairs are then grouped
// by dst in edge order, each dst's neighbours sorted ascending, the reverse
// CSR built over the forward CSR edge ids, and the self maps filled from the
// dst rows. Every array must equal build_blocks' byte for byte. Also
// builders of hand-made and random blocks from local pairs, for the tests
// and bench_kernels.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gnn/block.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "util/rng.hpp"

namespace moment::gnn::reference {

using graph::VertexId;

/// A block from local (dst row, src row) pairs in any order: the pairs are
/// grouped by dst in edge order and handed to make_block.
inline Block block_from_edges(std::vector<VertexId> src_ids,
                              std::vector<VertexId> dst_ids,
                              const std::vector<std::pair<int, int>>& edges) {
  std::vector<std::size_t> off(dst_ids.size() + 1, 0);
  for (const auto& [dst, src] : edges) {
    ++off.at(static_cast<std::size_t>(dst) + 1);
  }
  for (std::size_t i = 0; i + 1 < off.size(); ++i) off[i + 1] += off[i];
  std::vector<std::size_t> cursor(off.begin(), off.end() - 1);
  std::vector<int> nbr(edges.size());
  for (const auto& [dst, src] : edges) {
    nbr[cursor[static_cast<std::size_t>(dst)]++] = src;
  }
  return make_block(std::move(src_ids), std::move(dst_ids), off,
                    std::move(nbr));
}

/// ne random (dst row, src row) pairs over nd dsts and ns srcs.
inline std::vector<std::pair<int, int>> random_edges(std::size_t nd,
                                                     std::size_t ns,
                                                     std::size_t ne,
                                                     util::Pcg32& rng) {
  std::vector<std::pair<int, int>> edges;
  edges.reserve(ne);
  for (std::size_t e = 0; e < ne; ++e) {
    edges.emplace_back(
        static_cast<int>(rng.next_below(static_cast<std::uint32_t>(nd))),
        static_cast<int>(rng.next_below(static_cast<std::uint32_t>(ns))));
  }
  return edges;
}

/// A block over `edges` whose src ids are 0..ns-1 and whose dst i is src i.
inline Block identity_block(std::size_t nd, std::size_t ns,
                            const std::vector<std::pair<int, int>>& edges) {
  std::vector<VertexId> dst_ids(nd), src_ids(ns);
  for (std::size_t i = 0; i < nd; ++i) dst_ids[i] = static_cast<VertexId>(i);
  for (std::size_t i = 0; i < ns; ++i) src_ids[i] = static_cast<VertexId>(i);
  return block_from_edges(std::move(src_ids), std::move(dst_ids), edges);
}

struct BlockCsr {
  std::vector<VertexId> src_ids;
  std::vector<VertexId> dst_ids;
  std::vector<int> dst_off;
  std::vector<int> src_of;
  std::vector<float> inv_deg;
  std::vector<int> src_off;
  std::vector<int> rev_edge;
  std::vector<int> dst_of;
  std::vector<int> src_to_dst;
  std::vector<int> self_src;
};

/// The global (dst, src) pairs of one sampled hop, dsts in frontier order
/// and each dst's sources in draw order.
inline std::vector<std::pair<VertexId, VertexId>> layer_edges(
    const sampling::SampledLayer& layer) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (std::size_t i = 0; i < layer.dst_vertices.size(); ++i) {
    for (std::size_t t = layer.nbr_off[i]; t < layer.nbr_off[i + 1]; ++t) {
      edges.emplace_back(layer.dst_vertices[i], layer.nbr[t]);
    }
  }
  return edges;
}

inline BlockCsr block_csr(
    const std::vector<VertexId>& dst_ids,
    const std::vector<std::pair<VertexId, VertexId>>& edges) {
  BlockCsr r;
  r.dst_ids = dst_ids;
  r.src_ids = dst_ids;
  for (const auto& [dst, src] : edges) r.src_ids.push_back(src);
  std::sort(r.src_ids.begin(), r.src_ids.end());
  r.src_ids.erase(std::unique(r.src_ids.begin(), r.src_ids.end()),
                  r.src_ids.end());

  std::unordered_map<VertexId, int> src_row, dst_row;
  for (std::size_t v = 0; v < r.src_ids.size(); ++v) {
    src_row.emplace(r.src_ids[v], static_cast<int>(v));
  }
  for (std::size_t i = 0; i < dst_ids.size(); ++i) {
    if (!dst_row.emplace(dst_ids[i], static_cast<int>(i)).second) {
      throw std::invalid_argument("block_csr: repeated dst");
    }
  }

  const std::size_t nd = dst_ids.size(), ns = r.src_ids.size();
  const std::size_t ne = edges.size();
  r.dst_off.assign(nd + 1, 0);
  r.src_of.resize(ne);
  r.inv_deg.assign(nd, 0.0f);
  r.src_off.assign(ns + 1, 0);
  r.rev_edge.resize(ne);
  r.dst_of.resize(ne);
  r.src_to_dst.assign(ns, -1);
  r.self_src.assign(nd, 0);

  for (const auto& [dst, src] : edges) {
    ++r.dst_off[static_cast<std::size_t>(dst_row.at(dst)) + 1];
  }
  for (std::size_t i = 0; i < nd; ++i) r.dst_off[i + 1] += r.dst_off[i];
  std::vector<int> cursor(r.dst_off.begin(), r.dst_off.end() - 1);
  for (const auto& [dst, src] : edges) {
    const auto d = static_cast<std::size_t>(dst_row.at(dst));
    r.src_of[static_cast<std::size_t>(cursor[d]++)] = src_row.at(src);
  }
  for (std::size_t i = 0; i < nd; ++i) {
    const int b = r.dst_off[i], e = r.dst_off[i + 1];
    std::sort(r.src_of.begin() + b, r.src_of.begin() + e);
    if (e > b) r.inv_deg[i] = 1.0f / static_cast<float>(e - b);
    for (int t = b; t < e; ++t) {
      r.dst_of[static_cast<std::size_t>(t)] = static_cast<int>(i);
    }
  }

  for (int src : r.src_of) ++r.src_off[static_cast<std::size_t>(src) + 1];
  for (std::size_t v = 0; v < ns; ++v) r.src_off[v + 1] += r.src_off[v];
  cursor.assign(r.src_off.begin(), r.src_off.end() - 1);
  for (std::size_t t = 0; t < ne; ++t) {
    const auto v = static_cast<std::size_t>(r.src_of[t]);
    r.rev_edge[static_cast<std::size_t>(cursor[v]++)] = static_cast<int>(t);
  }

  for (std::size_t i = 0; i < nd; ++i) {
    const int v = src_row.at(dst_ids[i]);
    r.src_to_dst[static_cast<std::size_t>(v)] = static_cast<int>(i);
    r.self_src[i] = v;
  }
  return r;
}

}  // namespace moment::gnn::reference
