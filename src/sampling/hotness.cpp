#include "sampling/hotness.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace moment::sampling {

namespace {

/// Fetches the profile records per vertex before it stops: enough that the
/// hot set stands out from the vertices it never reached.
constexpr std::size_t kFetchesPerVertex = 2;

std::vector<VertexId> sort_by_hotness(const std::vector<double>& hotness) {
  std::vector<VertexId> order(hotness.size());
  std::iota(order.begin(), order.end(), VertexId{0});
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return hotness[a] > hotness[b];
  });
  return order;
}

}  // namespace

std::vector<VertexId> HotnessProfile::by_hotness_desc() const {
  return ranked.size() == hotness.size() ? ranked : sort_by_hotness(hotness);
}

HotnessProfile profile_hotness(const CsrGraph& graph,
                               const NeighborSampler& sampler,
                               const std::vector<VertexId>& train_vertices,
                               const HotnessOptions& options) {
  if (train_vertices.empty()) {
    throw std::invalid_argument("profile_hotness: empty training set");
  }
  HotnessProfile profile;
  profile.hotness.assign(graph.num_vertices(), 0.0);
  profile.batch_size = options.batch_size;

  BatchIterator batches(train_vertices, options.batch_size, options.seed);
  util::Pcg32 rng(options.seed, 0x484f544e);  // "HOTN"

  // Every batch fetches at least its seeds, so the loop ends.
  const std::size_t target = kFetchesPerVertex * graph.num_vertices();
  std::size_t total_fetches = 0;
  while (total_fetches < target) {
    auto batch = batches.next();
    if (batch.empty()) {
      batches.reset_epoch();
      batch = batches.next();
    }
    const SampledSubgraph sg = sampler.sample(batch, rng);
    for (VertexId v : sg.fetch_set) {
      profile.hotness[v] += 1.0;
    }
    total_fetches += sg.fetch_set.size();
    ++profile.profiled_batches;
  }

  const auto nb = static_cast<double>(profile.profiled_batches);
  for (double& h : profile.hotness) h /= nb;
  profile.fetches_per_batch = static_cast<double>(total_fetches) / nb;
  profile.ranked = sort_by_hotness(profile.hotness);

  // Skew fingerprint.
  const double total =
      std::accumulate(profile.hotness.begin(), profile.hotness.end(), 0.0);
  if (total > 0.0) {
    auto share = [&](double pct) {
      const auto k = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 pct * static_cast<double>(profile.ranked.size())));
      double top = 0.0;
      for (std::size_t i = 0; i < k; ++i) {
        top += profile.hotness[profile.ranked[i]];
      }
      return top / total;
    };
    profile.top1pct_traffic = share(0.01);
    profile.top5pct_traffic = share(0.05);
    profile.top10pct_traffic = share(0.10);
  }
  return profile;
}

}  // namespace moment::sampling
