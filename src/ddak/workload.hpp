#pragma once
// Epoch workload model: converts a dataset + hotness profile + cache
// configuration into paper-scale traffic arithmetic — how many bytes each
// GPU pulls per epoch and how those bytes split across the storage tiers.
//
// Scale-free quantities (dedup ratio, hotness shares) are measured on the
// scaled graph with a proportionally scaled batch size, then applied to the
// paper-scale volumes (batch 8000, feature dim 1024 floats).

#include <cstddef>

#include "graph/datasets.hpp"
#include "sampling/hotness.hpp"
#include "topology/flow_graph.hpp"
#include "topology/predictor.hpp"

namespace moment::ddak {

enum class GpuCacheMode {
  /// Every GPU caches the same hottest vertices; hits are HBM-local.
  kReplicated,
  /// GPUs cache disjoint hot slices; (G-1)/G of cache hits are peer reads
  /// over NVLink or PCIe P2P (Section 4.7's NVLink study).
  kPartitioned,
};

struct CacheConfig {
  double gpu_cache_fraction = 0.005;  // of all vertices, per GPU
  double cpu_cache_fraction = 0.01;   // of all vertices, total (paper: 1%)
  GpuCacheMode gpu_cache_mode = GpuCacheMode::kReplicated;
};

struct EpochWorkload {
  int num_gpus = 0;
  std::size_t batch_size = 8000;          // paper-scale
  std::size_t batches_per_epoch = 0;      // over all GPUs
  double feature_bytes = 4096.0;          // 1024 floats
  double fetches_per_batch = 0.0;         // paper-scale unique fetches
  double total_bytes = 0.0;               // per epoch, all GPUs
  double per_gpu_bytes = 0.0;
  double gpu_hit_fraction = 0.0;          // per-GPU cache traffic share
  double cpu_hit_fraction = 0.0;
  double ssd_fraction = 0.0;
  GpuCacheMode gpu_cache_mode = GpuCacheMode::kReplicated;
};

EpochWorkload make_epoch_workload(const graph::Dataset& dataset,
                                  const sampling::HotnessProfile& profile,
                                  const CacheConfig& cache, int num_gpus,
                                  std::size_t batch_size = 8000);

/// How the epoch's bytes may be drawn from individual storage devices.
enum class SupplyModel {
  /// Per-tier budgets only: the flow freely chooses each device's share and
  /// DDAK realises that split afterwards. This is Moment's model.
  kFlexibleTier,
  /// Per-device byte supplies fixed to the uniform hash split (every SSD
  /// serves 1/S of the SSD bytes, every socket DRAM 1/2 of the CPU bytes).
  /// This models topology-oblivious systems (M-GIDS/M-Hyperion with hash
  /// partitioning), whose data cannot move to where the bandwidth is.
  kUniformHash,
};

/// Builds the demand-mode inputs for the max-flow predictor: equal per-GPU
/// demands, per-GPU-HBM byte supplies from the cache-hit share, and byte
/// budgets per the chosen supply model.
topology::WorkloadDemand to_flow_demand(
    const EpochWorkload& workload, const topology::FlowGraph& fg,
    SupplyModel supply_model = SupplyModel::kFlexibleTier);

/// Traffic share of the hottest `fraction` of vertices (scale-free skew
/// lookup used by the cache-hit estimates).
double hot_traffic_share(const sampling::HotnessProfile& profile,
                         double fraction);
/// Traffic share of vertices ranked in (`lo_fraction`, `hi_fraction`].
double hot_traffic_share_range(const sampling::HotnessProfile& profile,
                               double lo_fraction, double hi_fraction);

}  // namespace moment::ddak
