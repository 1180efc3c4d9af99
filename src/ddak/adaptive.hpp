#pragma once
// Online adaptive data placement — the extension the paper's Limitations
// section plans ("lightweight online profiling and adaptive placement" for
// dynamic workloads): maintain an exponential moving average of per-vertex
// access frequency from the live request stream, and periodically migrate a
// bounded number of vertices so the realised bin traffic tracks the flow
// targets even as the workload drifts.
//
// Migration is deliberately conservative: a budget caps bytes moved per
// rebalance (SSD writes wear flash; cache copies evict), and hysteresis
// prevents ping-ponging vertices whose hotness sits near a bin boundary.
//
// Device loss is not handled here: the feature store's failover
// (iostack::TieredFeatureStore::remap_failed_device over
// ddak::plan_bin_failover) re-places a failed SSD's rows.

#include <cstdint>
#include <span>
#include <vector>

#include "ddak/ddak.hpp"

namespace moment::ddak {

struct AdaptiveOptions {
  /// EMA smoothing: ema = (1-alpha)*ema + alpha*observed (per observe()).
  double ema_alpha = 0.2;
  /// Max vertices migrated per rebalance() call.
  std::size_t migration_budget = 256;
};

/// A candidate must be at least this factor hotter than the vertex it would
/// displace from a full bin (hysteresis against ping-ponging).
inline constexpr double kPromotionHysteresis = 1.25;

struct MigrationStats {
  std::size_t migrated = 0;
  std::size_t promotions = 0;   // into a faster tier
  double error_before = 0.0;    // traffic-share L1 error vs targets
  double error_after = 0.0;
};

class AdaptivePlacer {
 public:
  /// Takes ownership of an initial placement over `bins`.
  AdaptivePlacer(std::vector<Bin> bins, DataPlacementResult initial,
                 const AdaptiveOptions& options = {});

  /// Feeds one observed batch of vertex accesses (e.g. a sampled fetch set).
  void observe(std::span<const graph::VertexId> accesses);

  /// Migrates up to the budget: promotes vertices whose EMA hotness exceeds
  /// the coldest resident of a faster tier (hysteresis-adjusted), then
  /// refreshes every bin's access mass and traffic share from the EMA.
  MigrationStats rebalance();

  const DataPlacementResult& placement() const noexcept { return placement_; }

  /// Traffic-share L1 error of the current placement under the current EMA.
  double current_error() const;

 private:
  void move_vertex(graph::VertexId v, std::size_t to_bin);
  double target_share(std::size_t bin) const;
  double ema_share(std::size_t bin) const;

  std::vector<Bin> bins_;
  DataPlacementResult placement_;
  AdaptiveOptions options_;
  std::vector<double> ema_;
  std::vector<double> batch_counts_;  // scratch, zeroed per observe
  double ema_total_ = 0.0;
};

}  // namespace moment::ddak
