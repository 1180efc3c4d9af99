#include "ddak/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace moment::ddak {

AdaptivePlacer::AdaptivePlacer(std::vector<Bin> bins,
                               DataPlacementResult initial,
                               const AdaptiveOptions& options)
    : bins_(std::move(bins)), placement_(std::move(initial)),
      options_(options), ema_(placement_.bin_of_vertex.size(), 0.0),
      batch_counts_(placement_.bin_of_vertex.size(), 0.0) {
  if (placement_.bin_access.size() != bins_.size()) {
    throw std::invalid_argument("AdaptivePlacer: placement/bins mismatch");
  }
  if (options_.ema_alpha <= 0.0 || options_.ema_alpha > 1.0) {
    throw std::invalid_argument("AdaptivePlacer: ema_alpha in (0,1]");
  }
}

void AdaptivePlacer::observe(std::span<const graph::VertexId> accesses) {
  std::fill(batch_counts_.begin(), batch_counts_.end(), 0.0);
  for (graph::VertexId v : accesses) {
    if (v >= batch_counts_.size()) {
      throw std::out_of_range("AdaptivePlacer::observe: vertex id");
    }
    batch_counts_[v] += 1.0;
  }
  const double a = options_.ema_alpha;
  ema_total_ = 0.0;
  for (std::size_t v = 0; v < ema_.size(); ++v) {
    ema_[v] = (1.0 - a) * ema_[v] + a * batch_counts_[v];
    ema_total_ += ema_[v];
  }
}

double AdaptivePlacer::target_share(std::size_t bin) const {
  double total = 0.0;
  for (const auto& b : bins_) total += std::max(0.0, b.traffic_target);
  return total > 0.0 ? std::max(0.0, bins_[bin].traffic_target) / total : 0.0;
}

double AdaptivePlacer::ema_share(std::size_t bin) const {
  if (ema_total_ <= 0.0) return 0.0;
  double acc = 0.0;
  for (std::size_t v = 0; v < ema_.size(); ++v) {
    if (placement_.bin_of_vertex[v] == static_cast<std::int32_t>(bin)) {
      acc += ema_[v];
    }
  }
  return acc / ema_total_;
}

double AdaptivePlacer::current_error() const {
  double err = 0.0;
  for (std::size_t b = 0; b < bins_.size(); ++b) {
    if (bins_[b].traffic_target > 0.0) {
      err += std::abs(ema_share(b) - target_share(b));
    }
  }
  return err;
}

void AdaptivePlacer::move_vertex(graph::VertexId v, std::size_t to_bin) {
  const auto from = static_cast<std::size_t>(placement_.bin_of_vertex[v]);
  placement_.bin_of_vertex[v] = static_cast<std::int32_t>(to_bin);
  --placement_.bin_count[from];
  ++placement_.bin_count[to_bin];
  // bin_access / shares are hotness-profile based; refresh them from EMA.
}

MigrationStats AdaptivePlacer::rebalance() {
  MigrationStats stats;
  stats.error_before = current_error();
  if (ema_total_ <= 0.0) {
    stats.error_after = stats.error_before;
    return stats;
  }

  // Tier ordering: lower enum = faster tier. For each fast bin (GPU, CPU),
  // promote the hottest non-resident vertices over its coldest residents.
  std::vector<std::size_t> order(ema_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ema_[a] > ema_[b]; });

  std::size_t budget = options_.migration_budget;
  for (std::size_t bin = 0; bin < bins_.size() && budget > 0; ++bin) {
    if (bins_[bin].tier == topology::StorageTier::kSsd) continue;
    // Coldest current residents of this bin, hottest outsiders above them.
    std::vector<graph::VertexId> residents;
    for (std::size_t v = 0; v < ema_.size(); ++v) {
      if (placement_.bin_of_vertex[v] == static_cast<std::int32_t>(bin)) {
        residents.push_back(static_cast<graph::VertexId>(v));
      }
    }
    std::sort(residents.begin(), residents.end(),
              [&](graph::VertexId a, graph::VertexId b) {
                return ema_[a] < ema_[b];
              });
    std::size_t cold_idx = 0;
    for (std::size_t o = 0; o < order.size() && budget > 0; ++o) {
      const auto v = static_cast<graph::VertexId>(order[o]);
      const auto cur = static_cast<std::size_t>(placement_.bin_of_vertex[v]);
      if (cur == bin) continue;
      // Only promote from slower tiers into this faster bin.
      if (static_cast<int>(bins_[cur].tier) <=
          static_cast<int>(bins_[bin].tier)) {
        continue;
      }
      const bool has_free_capacity =
          static_cast<double>(placement_.bin_count[bin]) + 1.0 <=
          bins_[bin].capacity_vertices;
      if (has_free_capacity) {
        if (ema_[v] <= 0.0) break;  // nothing observed-hot remains
        move_vertex(v, bin);
        ++stats.promotions;
        ++stats.migrated;
        --budget;
        continue;
      }
      if (cold_idx >= residents.size()) break;
      const graph::VertexId victim = residents[cold_idx];
      if (ema_[v] < kPromotionHysteresis * (ema_[victim] + 1e-12)) {
        break;  // order[] is sorted desc: nothing hotter follows
      }
      // Swap: victim demotes to the promoted vertex's old bin.
      move_vertex(victim, cur);
      move_vertex(v, bin);
      ++cold_idx;
      ++stats.promotions;
      stats.migrated += 2;
      budget = budget >= 2 ? budget - 2 : 0;
    }
  }

  // Refresh hotness bookkeeping from the EMA.
  std::fill(placement_.bin_access.begin(), placement_.bin_access.end(), 0.0);
  for (std::size_t v = 0; v < ema_.size(); ++v) {
    placement_.bin_access[static_cast<std::size_t>(
        placement_.bin_of_vertex[v])] += ema_[v];
  }
  for (std::size_t b = 0; b < bins_.size(); ++b) {
    placement_.bin_traffic_share[b] =
        ema_total_ > 0.0 ? placement_.bin_access[b] / ema_total_ : 0.0;
  }
  placement_.traffic_share_error = current_error();
  stats.error_after = placement_.traffic_share_error;
  return stats;
}

}  // namespace moment::ddak
