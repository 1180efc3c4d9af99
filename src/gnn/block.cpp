#include "gnn/block.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace moment::gnn {

CompiledBlock compile_block(const Block& block) {
  const std::size_t nd = block.num_dst();
  const std::size_t ns = block.num_src();
  const std::size_t ne = block.edges.size();

  CompiledBlock cb;
  cb.dst_off.assign(nd + 1, 0);
  cb.src_of.resize(ne);
  cb.inv_deg.assign(nd, 0.0f);
  cb.src_off.assign(ns + 1, 0);
  cb.rev_edge.resize(ne);
  cb.dst_of.resize(ne);
  cb.src_to_dst.assign(ns, -1);
  cb.self_src.assign(nd, 0);

  for (const auto& [dst, src] : block.edges) {
    if (dst < 0 || static_cast<std::size_t>(dst) >= nd || src < 0 ||
        static_cast<std::size_t>(src) >= ns) {
      throw std::out_of_range("compile_block: edge endpoint out of range");
    }
    ++cb.dst_off[static_cast<std::size_t>(dst) + 1];
  }
  for (std::size_t i = 0; i < nd; ++i) cb.dst_off[i + 1] += cb.dst_off[i];
  {
    std::vector<int> cursor(cb.dst_off.begin(), cb.dst_off.end() - 1);
    for (const auto& [dst, src] : block.edges) {
      cb.src_of[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(dst)]++)] = src;
    }
  }
  for (std::size_t i = 0; i < nd; ++i) {
    const int b = cb.dst_off[i], e = cb.dst_off[i + 1];
    // Ascending neighbor order: deterministic regardless of the original
    // edge-list order, and prefetch-friendly during aggregation.
    std::sort(cb.src_of.begin() + b, cb.src_of.begin() + e);
    if (e > b) cb.inv_deg[i] = 1.0f / static_cast<float>(e - b);
    for (int j = b; j < e; ++j) cb.dst_of[static_cast<std::size_t>(j)] = static_cast<int>(i);
  }

  // Reverse CSR over the forward CSR edge ids (grouped by src, edge ids
  // ascending within each src, so per-src accumulation order is fixed).
  for (int src : cb.src_of) ++cb.src_off[static_cast<std::size_t>(src) + 1];
  for (std::size_t v = 0; v < ns; ++v) cb.src_off[v + 1] += cb.src_off[v];
  {
    std::vector<int> cursor(cb.src_off.begin(), cb.src_off.end() - 1);
    for (std::size_t e = 0; e < ne; ++e) {
      cb.rev_edge[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(cb.src_of[e])]++)] =
          static_cast<int>(e);
    }
  }

  for (std::size_t i = 0; i < block.dst_in_src.size(); ++i) {
    const int v = block.dst_in_src[i];
    if (v < 0 || static_cast<std::size_t>(v) >= ns) {
      throw std::out_of_range("compile_block: dst_in_src out of range");
    }
    cb.src_to_dst[static_cast<std::size_t>(v)] = static_cast<int>(i);
    cb.self_src[i] = v;
  }
  return cb;
}

const CompiledBlock& Block::compiled() const {
  if (!compiled_) {
    compiled_ = std::make_shared<const CompiledBlock>(compile_block(*this));
  }
  return *compiled_;
}

std::vector<Block> build_blocks(const sampling::SampledSubgraph& sg) {
  const std::size_t hops = sg.layers.size();
  std::vector<Block> blocks(hops);

  for (std::size_t k = 0; k < hops; ++k) {
    const auto& layer = sg.layers[hops - 1 - k];
    Block& block = blocks[k];
    block.dst_ids = layer.dst_vertices;  // already sorted by the sampler

    // src set = dst set plus every edge source.
    std::vector<VertexId> srcs = block.dst_ids;
    for (const auto& [dst, src] : layer.edges) {
      (void)dst;
      srcs.push_back(src);
    }
    std::sort(srcs.begin(), srcs.end());
    srcs.erase(std::unique(srcs.begin(), srcs.end()), srcs.end());
    block.src_ids = std::move(srcs);

    std::unordered_map<VertexId, int> src_index;
    src_index.reserve(block.src_ids.size() * 2);
    for (std::size_t i = 0; i < block.src_ids.size(); ++i) {
      src_index.emplace(block.src_ids[i], static_cast<int>(i));
    }
    std::unordered_map<VertexId, int> dst_index;
    dst_index.reserve(block.dst_ids.size() * 2);
    block.dst_in_src.resize(block.dst_ids.size());
    for (std::size_t i = 0; i < block.dst_ids.size(); ++i) {
      dst_index.emplace(block.dst_ids[i], static_cast<int>(i));
      block.dst_in_src[i] = src_index.at(block.dst_ids[i]);
    }

    block.edges.reserve(layer.edges.size());
    for (const auto& [dst, src] : layer.edges) {
      block.edges.emplace_back(dst_index.at(dst), src_index.at(src));
    }
  }

  // Sanity: consecutive blocks chain exactly (the next block's srcs are this
  // block's dsts: a hop's frontier is the previous frontier plus its
  // sampled sources), so a layer reads the previous layer's output in place.
  for (std::size_t k = 0; k + 1 < blocks.size(); ++k) {
    if (blocks[k].dst_ids != blocks[k + 1].src_ids) {
      throw std::logic_error("build_blocks: block chaining violated");
    }
  }
  return blocks;
}

}  // namespace moment::gnn
