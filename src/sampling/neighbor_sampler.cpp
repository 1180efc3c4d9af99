#include "sampling/neighbor_sampler.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace moment::sampling {

NeighborSampler::NeighborSampler(const CsrGraph& graph,
                                 std::vector<int> fanouts)
    : graph_(graph), fanouts_(std::move(fanouts)) {
  if (fanouts_.empty()) {
    throw std::invalid_argument("NeighborSampler: fanouts must be non-empty");
  }
  for (int f : fanouts_) {
    if (f <= 0) throw std::invalid_argument("NeighborSampler: fanout <= 0");
  }
}

double NeighborSampler::expansion_factor() const noexcept {
  // DGL block semantics: each hop's frontier is (previous frontier U sampled
  // neighbors), so the vertex count multiplies by (1 + fanout) per hop.
  double factor = 1.0;
  for (int f : fanouts_) factor *= 1.0 + static_cast<double>(f);
  return factor;
}

SampledSubgraph NeighborSampler::sample(std::span<const VertexId> seeds,
                                        util::Pcg32& rng) const {
  SampledSubgraph sg;
  sg.layers.resize(fanouts_.size());
  sg.layers[0].dst_vertices.assign(seeds.begin(), seeds.end());

  // Exactly two draws from the caller's generator — independent of the batch
  // content — derive the batch base. Every (hop, dst) then samples from its
  // own counter-based stream, so the subgraph is a pure function of
  // (base, hop, dst): identical for any thread count, and sibling batches
  // never perturb each other through a shared generator.
  const auto hi = static_cast<std::uint64_t>(rng.next());
  const auto lo = static_cast<std::uint64_t>(rng.next());
  const std::uint64_t base = (hi << 32) ^ lo;

  for (std::size_t hop = 0; hop < fanouts_.size(); ++hop) {
    SampledLayer& layer = sg.layers[hop];
    const std::vector<VertexId>& frontier = layer.dst_vertices;
    const auto fanout = static_cast<std::size_t>(fanouts_[hop]);

    // Fan the per-dst sampling out over the compute pool: dst i draws into
    // nbr[i * fanout ..) and records its count in nbr_off[i + 1], so chunk
    // shapes are irrelevant to the result.
    layer.nbr_off.assign(frontier.size() + 1, 0);
    layer.nbr.resize(frontier.size() * fanout);
    util::parallel_for(
        0, frontier.size(), 64, [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) {
            const VertexId dst = frontier[i];
            const auto nbrs = graph_.neighbors(dst);
            if (nbrs.empty()) continue;
            util::Pcg32 r(
                util::hash_combine(base + hop,
                                   static_cast<std::uint64_t>(dst)),
                0x4e534d50);  // "NSMP"
            VertexId* out = layer.nbr.data() + i * fanout;
            // Sampling WITH replacement (DGL's default for uniform neighbor
            // sampling when fanout can exceed degree).
            for (std::size_t k = 0; k < fanout; ++k) {
              out[k] = nbrs[r.next_below(
                  static_cast<std::uint32_t>(nbrs.size()))];
            }
            layer.nbr_off[i + 1] = fanout;
          }
        });

    // Counts become offsets; the lists move down over the isolated dsts'
    // empty slots (a list never moves up, so none is overwritten unread).
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const std::size_t count = layer.nbr_off[i + 1];
      layer.nbr_off[i + 1] = layer.nbr_off[i] + count;
      if (count > 0 && layer.nbr_off[i] != i * fanout) {
        const VertexId* list = layer.nbr.data() + i * fanout;
        std::copy(list, list + count, layer.nbr.data() + layer.nbr_off[i]);
      }
    }
    layer.nbr.resize(layer.nbr_off.back());

    // DGL block semantics: the next hop's frontier is this frontier PLUS its
    // sampled sources (every block's dst set is a subset of its src set, so
    // self features are available to UPDATE). The frontier grows
    // monotonically, so after the last hop it IS the unique feature-fetch
    // set.
    std::vector<VertexId>& next = hop + 1 < fanouts_.size()
                                      ? sg.layers[hop + 1].dst_vertices
                                      : sg.fetch_set;
    next.reserve(frontier.size() + layer.nbr.size());
    next.assign(frontier.begin(), frontier.end());
    next.insert(next.end(), layer.nbr.begin(), layer.nbr.end());
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
  }
  return sg;
}

BatchIterator::BatchIterator(std::vector<VertexId> train_vertices,
                             std::size_t batch_size, std::uint64_t seed)
    : vertices_(std::move(train_vertices)), batch_size_(batch_size),
      rng_(seed, 0x42415443) {  // "BATC"
  if (batch_size_ == 0) {
    throw std::invalid_argument("BatchIterator: batch_size must be > 0");
  }
  reset_epoch();
}

std::span<const VertexId> BatchIterator::next() {
  if (cursor_ >= vertices_.size()) return {};
  const std::size_t take = std::min(batch_size_, vertices_.size() - cursor_);
  std::span<const VertexId> batch{vertices_.data() + cursor_, take};
  cursor_ += take;
  return batch;
}

void BatchIterator::reset_epoch() {
  cursor_ = 0;
  // Fisher-Yates with our deterministic generator.
  for (std::size_t i = vertices_.size(); i > 1; --i) {
    const std::size_t j = rng_.next_below(static_cast<std::uint32_t>(i));
    std::swap(vertices_[i - 1], vertices_[j]);
  }
}

std::size_t BatchIterator::num_batches() const noexcept {
  return (vertices_.size() + batch_size_ - 1) / batch_size_;
}

std::vector<VertexId> select_train_vertices(const CsrGraph& graph,
                                            double fraction,
                                            std::uint64_t seed) {
  const auto n = graph.num_vertices();
  auto want = static_cast<std::size_t>(fraction * static_cast<double>(n));
  want = std::max<std::size_t>(1, std::min<std::size_t>(want, n));
  // Partial Fisher-Yates over implicit [0, n): pick `want` distinct vertices.
  std::vector<VertexId> ids(n);
  for (VertexId v = 0; v < n; ++v) ids[v] = v;
  util::Pcg32 rng(seed, 0x5452414e);  // "TRAN"
  for (std::size_t i = 0; i < want; ++i) {
    const std::size_t j =
        i + rng.next_below(static_cast<std::uint32_t>(n - i));
    std::swap(ids[i], ids[j]);
  }
  ids.resize(want);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace moment::sampling
