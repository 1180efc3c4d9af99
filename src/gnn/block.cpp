#include "gnn/block.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace moment::gnn {

namespace {

/// Row of global id v in ascending `ids`; throws std::out_of_range if absent.
int row_of(const std::vector<VertexId>& ids, VertexId v, const char* what) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), v);
  if (it == ids.end() || *it != v) throw std::out_of_range(what);
  return static_cast<int>(it - ids.begin());
}

}  // namespace

Block make_block(std::vector<VertexId> src_ids, std::vector<VertexId> dst_ids,
                 std::span<const std::size_t> nbr_off, std::vector<int> nbr) {
  const std::size_t nd = dst_ids.size();
  const std::size_t ns = src_ids.size();
  const std::size_t ne = nbr.size();
  if (nbr_off.size() != nd + 1 || nbr_off.front() != 0 ||
      nbr_off.back() != ne) {
    throw std::invalid_argument("make_block: offsets do not partition nbr");
  }
  if (std::adjacent_find(src_ids.begin(), src_ids.end(),
                         std::greater_equal<>()) != src_ids.end()) {
    throw std::invalid_argument("make_block: src_ids not strictly ascending");
  }

  Block b;
  b.src_ids = std::move(src_ids);
  b.dst_ids = std::move(dst_ids);
  b.dst_off.resize(nd + 1);
  b.inv_deg.assign(nd, 0.0f);
  b.dst_of.resize(ne);
  for (std::size_t i = 0; i < nd; ++i) {
    const std::size_t lo = nbr_off[i], hi = nbr_off[i + 1];
    if (hi < lo || hi > ne) {
      throw std::invalid_argument("make_block: offsets do not partition nbr");
    }
    b.dst_off[i] = static_cast<int>(lo);
    if (hi == lo) continue;
    // Ascending neighbor order: deterministic regardless of the draw order,
    // and prefetch-friendly during aggregation.
    const auto first = nbr.begin() + static_cast<std::ptrdiff_t>(lo);
    const auto last = nbr.begin() + static_cast<std::ptrdiff_t>(hi);
    std::sort(first, last);
    if (*first < 0 || static_cast<std::size_t>(*(last - 1)) >= ns) {
      throw std::out_of_range("make_block: src row out of range");
    }
    b.inv_deg[i] = 1.0f / static_cast<float>(hi - lo);
    std::fill(b.dst_of.begin() + static_cast<std::ptrdiff_t>(lo),
              b.dst_of.begin() + static_cast<std::ptrdiff_t>(hi),
              static_cast<int>(i));
  }
  b.dst_off[nd] = static_cast<int>(ne);
  b.src_of = std::move(nbr);

  // Reverse CSR over the forward CSR edge ids (grouped by src, edge ids
  // ascending within each src, so per-src accumulation order is fixed).
  b.src_off.assign(ns + 1, 0);
  for (int src : b.src_of) ++b.src_off[static_cast<std::size_t>(src) + 1];
  for (std::size_t v = 0; v < ns; ++v) b.src_off[v + 1] += b.src_off[v];
  b.rev_edge.resize(ne);
  std::vector<int> cursor(b.src_off.begin(), b.src_off.end() - 1);
  for (std::size_t e = 0; e < ne; ++e) {
    const auto v = static_cast<std::size_t>(b.src_of[e]);
    b.rev_edge[static_cast<std::size_t>(cursor[v]++)] = static_cast<int>(e);
  }

  b.src_to_dst.assign(ns, -1);
  b.self_src.resize(nd);
  for (std::size_t i = 0; i < nd; ++i) {
    const int v =
        row_of(b.src_ids, b.dst_ids[i], "make_block: dst missing from srcs");
    int& dst = b.src_to_dst[static_cast<std::size_t>(v)];
    if (dst >= 0) throw std::invalid_argument("make_block: repeated dst");
    dst = static_cast<int>(i);
    b.self_src[i] = v;
  }
  return b;
}

std::vector<Block> build_blocks(const sampling::SampledSubgraph& sg) {
  const std::size_t hops = sg.layers.size();
  std::vector<Block> blocks;
  blocks.reserve(hops);
  for (std::size_t h = hops; h-- > 0;) {
    const sampling::SampledLayer& layer = sg.layers[h];
    const std::vector<VertexId>& srcs =
        h + 1 < hops ? sg.layers[h + 1].dst_vertices : sg.fetch_set;
    std::vector<int> nbr(layer.nbr.size());
    for (std::size_t t = 0; t < nbr.size(); ++t) {
      nbr[t] = row_of(srcs, layer.nbr[t], "build_blocks: src missing");
    }
    blocks.push_back(
        make_block(srcs, layer.dst_vertices, layer.nbr_off, std::move(nbr)));
  }
  return blocks;
}

}  // namespace moment::gnn
