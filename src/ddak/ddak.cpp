#include "ddak/ddak.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"

namespace moment::ddak {

namespace {

double total_capacity(std::span<const Bin> bins) {
  double cap = 0.0;
  for (const auto& b : bins) cap += b.capacity_vertices;
  return cap;
}

DataPlacementResult init_result(std::span<const Bin> bins,
                                std::size_t num_vertices) {
  DataPlacementResult r;
  r.bin_of_vertex.assign(num_vertices, -1);
  r.bin_access.assign(bins.size(), 0.0);
  r.bin_count.assign(bins.size(), 0);
  r.bin_traffic_share.assign(bins.size(), 0.0);
  return r;
}

void finalize(std::span<const Bin> bins,
              const sampling::HotnessProfile& profile,
              DataPlacementResult& r) {
  const double total_hotness = std::accumulate(
      profile.hotness.begin(), profile.hotness.end(), 0.0);
  double total_target = 0.0;
  for (const auto& b : bins) total_target += std::max(0.0, b.traffic_target);
  r.traffic_share_error = 0.0;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    r.bin_traffic_share[i] =
        total_hotness > 0.0 ? r.bin_access[i] / total_hotness : 0.0;
    if (bins[i].traffic_target > 0.0 && total_target > 0.0) {
      r.traffic_share_error += std::abs(
          r.bin_traffic_share[i] - bins[i].traffic_target / total_target);
    }
  }
}

}  // namespace

DataPlacementResult ddak_place(std::span<const Bin> bins,
                               const sampling::HotnessProfile& profile,
                               const DdakOptions& options) {
  const std::size_t n = profile.hotness.size();
  if (total_capacity(bins) + 0.5 < static_cast<double>(n)) {
    throw std::invalid_argument("ddak_place: bins cannot hold all vertices");
  }
  if (options.pool_size == 0) {
    throw std::invalid_argument("ddak_place: pool_size must be > 0");
  }
  DataPlacementResult r = init_result(bins, n);

  double total_target = 0.0;
  for (const auto& b : bins) total_target += std::max(0.0, b.traffic_target);

  const std::vector<graph::VertexId> order = profile.by_hotness_desc();

  // Priority per Eq. (2): lower = more room in both traffic budget and
  // capacity. Bins at capacity are excluded; zero-target bins are used only
  // when nothing else fits (priority +inf but still capacity-checked).
  // The small regularisers keep the product well-defined for empty bins
  // (0 * 0 would make every empty bin indistinguishable); ties fall through
  // to the GPU > CPU > SSD hierarchy, then to the larger traffic target,
  // then to the lower fill ratio. The last rule is what spreads park-only
  // bins, which all tie, evenly by capacity.
  constexpr double kReg = 1e-3;
  auto fill_ratio = [&](std::size_t i) {
    return static_cast<double>(r.bin_count[i]) / bins[i].capacity_vertices;
  };
  auto priority = [&](std::size_t i) {
    const Bin& b = bins[i];
    if (static_cast<double>(r.bin_count[i]) >= b.capacity_vertices) {
      return std::numeric_limits<double>::infinity();
    }
    const double target_share =
        total_target > 0.0 ? b.traffic_target / total_target : 0.0;
    if (target_share <= 0.0) {
      return std::numeric_limits<double>::max();  // park-only bin
    }
    const double access_ratio = r.bin_traffic_share[i] / target_share;
    return (access_ratio + kReg) * (fill_ratio(i) + kReg);
  };

  const double total_hotness = std::accumulate(
      profile.hotness.begin(), profile.hotness.end(), 0.0);

  // Selection rule (paper Section 3.3): while a bin sits below its traffic
  // budget, the GPU > CPU > SSD hierarchy decides who receives the next hot
  // pool — this is the "performance hierarchy" enforcement that keeps hot
  // vertices in the fast tiers until their planned share is met. Among
  // unsatisfied bins of the same tier (and once every budget is met), the
  // Eq.-(2) priority picks the bin furthest below target and emptiest.
  auto target_share_of = [&](std::size_t i) {
    return total_target > 0.0 ? bins[i].traffic_target / total_target : 0.0;
  };
  std::size_t cursor = 0;
  while (cursor < order.size()) {
    std::size_t best = bins.size();
    double best_priority = std::numeric_limits<double>::infinity();
    bool best_unsatisfied = false;
    int best_tier = 99;
    for (std::size_t i = 0; i < bins.size(); ++i) {
      const double p = priority(i);
      if (std::isinf(p)) continue;  // at capacity
      // Cache capacity is never wasted: a GPU/CPU bin with free room keeps
      // absorbing hot vertices even past its flow budget (serving them from
      // a cache tier strictly replaces slower SSD traffic).
      const bool unsatisfied =
          r.bin_traffic_share[i] < target_share_of(i) - 1e-12 ||
          bins[i].tier != topology::StorageTier::kSsd;
      const int tier = static_cast<int>(bins[i].tier);
      bool better;
      if (best == bins.size()) {
        better = true;
      } else if (unsatisfied != best_unsatisfied) {
        better = unsatisfied;  // below-budget bins come first
      } else if (unsatisfied && tier != best_tier) {
        better = tier < best_tier;  // hierarchy among below-budget bins
      } else {
        const double ti = bins[i].traffic_target;
        const double tb = bins[best].traffic_target;
        better = p < best_priority - 1e-12 ||
                 (std::abs(p - best_priority) <= 1e-12 &&
                  (ti > tb || (ti == tb && fill_ratio(i) < fill_ratio(best))));
      }
      if (better) {
        best = i;
        best_priority = p;
        best_unsatisfied = unsatisfied;
        best_tier = tier;
      }
    }
    if (best == bins.size()) {
      throw std::logic_error("ddak_place: no bin has free capacity");
    }

    const double free_cap = bins[best].capacity_vertices -
                            static_cast<double>(r.bin_count[best]);
    const std::size_t take = std::min<std::size_t>(
        {options.pool_size, order.size() - cursor,
         static_cast<std::size_t>(std::max(1.0, free_cap))});
    for (std::size_t k = 0; k < take; ++k) {
      const graph::VertexId v = order[cursor + k];
      r.bin_of_vertex[v] = static_cast<std::int32_t>(best);
      r.bin_access[best] += profile.hotness[v];
      ++r.bin_count[best];
    }
    if (total_hotness > 0.0) {
      r.bin_traffic_share[best] = r.bin_access[best] / total_hotness;
    }
    cursor += take;
  }

  finalize(bins, profile, r);
  return r;
}

DataPlacementResult hash_place(std::span<const Bin> bins,
                               const sampling::HotnessProfile& profile,
                               std::uint64_t seed) {
  const std::size_t n = profile.hotness.size();
  if (total_capacity(bins) + 0.5 < static_cast<double>(n)) {
    throw std::invalid_argument("hash_place: bins cannot hold all vertices");
  }
  DataPlacementResult r = init_result(bins, n);

  // Cache tiers (GPU, CPU) take the hottest vertices in hierarchy order —
  // this mirrors GIDS-style static degree caching.
  const std::vector<graph::VertexId> order = profile.by_hotness_desc();
  std::vector<std::size_t> cache_bins;
  std::vector<std::size_t> ssd_bins;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    (bins[i].tier == topology::StorageTier::kSsd ? ssd_bins : cache_bins)
        .push_back(i);
  }
  std::sort(cache_bins.begin(), cache_bins.end(), [&](std::size_t a,
                                                      std::size_t b) {
    return static_cast<int>(bins[a].tier) < static_cast<int>(bins[b].tier);
  });
  if (ssd_bins.empty()) {
    throw std::invalid_argument("hash_place: need at least one SSD bin");
  }

  std::size_t cursor = 0;
  for (std::size_t bi : cache_bins) {
    const auto cap = static_cast<std::size_t>(bins[bi].capacity_vertices);
    for (std::size_t k = 0; k < cap && cursor < order.size(); ++k, ++cursor) {
      const graph::VertexId v = order[cursor];
      r.bin_of_vertex[v] = static_cast<std::int32_t>(bi);
      r.bin_access[bi] += profile.hotness[v];
      ++r.bin_count[bi];
    }
  }

  // Remainder: uniform hash striping across SSDs, hotness-oblivious.
  for (; cursor < order.size(); ++cursor) {
    const graph::VertexId v = order[cursor];
    const std::uint64_t h = util::hash_combine(seed, v);
    const std::size_t bi = ssd_bins[h % ssd_bins.size()];
    r.bin_of_vertex[v] = static_cast<std::int32_t>(bi);
    r.bin_access[bi] += profile.hotness[v];
    ++r.bin_count[bi];
  }

  finalize(bins, profile, r);
  return r;
}

std::size_t default_pool_size(std::size_t num_vertices) noexcept {
  return std::clamp<std::size_t>(num_vertices / 2048, 1, 100);
}

std::vector<double> smooth_storage_traffic(
    const topology::Topology& topo, const topology::FlowGraph& fg,
    std::span<const double> per_storage_traffic) {
  std::vector<double> out(per_storage_traffic.begin(),
                          per_storage_traffic.end());
  if (out.size() != fg.storage.size()) {
    throw std::invalid_argument("smooth_storage_traffic: size mismatch");
  }
  // Group by (tier, parent device). A storage device's parent is the other
  // end of its single fabric link.
  std::vector<std::pair<int, topology::DeviceId>> key(out.size());
  for (std::size_t i = 0; i < fg.storage.size(); ++i) {
    const auto& s = fg.storage[i];
    topology::DeviceId parent = -1;
    if (s.tier != topology::StorageTier::kGpuHbm) {
      for (topology::LinkId lid : topo.incident(s.device)) {
        const auto& l = topo.link(lid);
        parent = l.a == s.device ? l.b : l.a;
        break;
      }
    }
    key[i] = {static_cast<int>(s.tier), parent};
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (fg.storage[i].tier == topology::StorageTier::kGpuHbm) continue;
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t j = 0; j < out.size(); ++j) {
      if (key[j] == key[i]) {
        sum += per_storage_traffic[j];
        ++count;
      }
    }
    out[i] = sum / static_cast<double>(count);
  }
  return out;
}

std::vector<Bin> make_bins(const topology::Topology& topo,
                           const topology::FlowGraph& fg,
                           std::span<const double> per_storage_traffic,
                           std::size_t num_vertices,
                           double gpu_cache_fraction,
                           double cpu_cache_fraction) {
  if (!per_storage_traffic.empty() &&
      per_storage_traffic.size() != fg.storage.size()) {
    throw std::invalid_argument("make_bins: traffic size mismatch");
  }
  std::size_t num_cpu = 0;
  for (const auto& s : fg.storage) {
    if (s.tier == topology::StorageTier::kCpuDram) ++num_cpu;
  }
  const std::vector<double> traffic =
      per_storage_traffic.empty()
          ? std::vector<double>(fg.storage.size(), 0.0)
          : smooth_storage_traffic(topo, fg, per_storage_traffic);
  std::vector<Bin> bins;
  bins.reserve(fg.storage.size());
  const auto nv = static_cast<double>(num_vertices);
  for (std::size_t i = 0; i < fg.storage.size(); ++i) {
    const auto& s = fg.storage[i];
    Bin b;
    b.name = topo.device(s.device).name;
    if (s.tier == topology::StorageTier::kGpuHbm) b.name += ".HBM";
    b.storage_index = static_cast<int>(i);
    b.tier = s.tier;
    switch (s.tier) {
      case topology::StorageTier::kGpuHbm:
        b.capacity_vertices = gpu_cache_fraction * nv;
        break;
      case topology::StorageTier::kCpuDram:
        // The paper's "CPU memory caches 1% of the vertices" is a total
        // budget; split it evenly across sockets.
        b.capacity_vertices = cpu_cache_fraction * nv /
                              static_cast<double>(std::max<std::size_t>(
                                  1, num_cpu));
        break;
      case topology::StorageTier::kSsd:
        b.capacity_vertices = nv;  // SSDs can hold the full dataset
        break;
    }
    b.traffic_target = traffic[i];
    bins.push_back(std::move(b));
  }
  return bins;
}

std::vector<FailoverMove> plan_bin_failover(
    std::span<const Bin> bins, const DataPlacementResult& placement,
    std::span<const std::size_t> failed_bins) {
  std::vector<bool> failed(bins.size(), false);
  for (std::size_t b : failed_bins) {
    if (b >= bins.size()) {
      throw std::out_of_range("plan_bin_failover: bin index");
    }
    failed[b] = true;
  }

  // Mutable fill state for the surviving bins.
  std::vector<double> fill(bins.size(), 0.0);
  for (std::size_t b = 0; b < bins.size(); ++b) {
    fill[b] = static_cast<double>(placement.bin_count[b]);
  }

  std::vector<FailoverMove> moves;
  for (std::size_t v = 0; v < placement.bin_of_vertex.size(); ++v) {
    const auto from = static_cast<std::size_t>(placement.bin_of_vertex[v]);
    if (from >= bins.size() || !failed[from]) continue;
    // Surviving same-tier bin with the lowest capacity-normalised fill.
    std::int32_t best = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (failed[b] || b == from) continue;
      if (bins[b].tier != bins[from].tier) continue;
      if (bins[b].capacity_vertices <= 0.0) continue;
      if (fill[b] + 1.0 > bins[b].capacity_vertices) continue;
      const double ratio = fill[b] / bins[b].capacity_vertices;
      if (ratio < best_ratio) {
        best_ratio = ratio;
        best = static_cast<std::int32_t>(b);
      }
    }
    if (best < 0) continue;  // nowhere to go: host copy keeps serving it
    fill[static_cast<std::size_t>(best)] += 1.0;
    moves.push_back({static_cast<graph::VertexId>(v), best});
  }
  return moves;
}

}  // namespace moment::ddak
