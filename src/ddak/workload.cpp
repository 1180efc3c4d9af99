#include "ddak/workload.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace moment::ddak {

double hot_traffic_share(const sampling::HotnessProfile& profile,
                         double fraction) {
  return hot_traffic_share_range(profile, 0.0, fraction);
}

double hot_traffic_share_range(const sampling::HotnessProfile& profile,
                               double lo_fraction, double hi_fraction) {
  if (profile.hotness.empty() || hi_fraction <= lo_fraction) return 0.0;
  std::vector<double> sorted = profile.hotness;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const double total = std::accumulate(sorted.begin(), sorted.end(), 0.0);
  if (total <= 0.0) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const auto lo =
      static_cast<std::size_t>(std::clamp(lo_fraction, 0.0, 1.0) * n);
  const auto hi = static_cast<std::size_t>(
      std::min(std::clamp(hi_fraction, 0.0, 1.0) * n, n));
  double acc = 0.0;
  for (std::size_t i = lo; i < hi; ++i) acc += sorted[i];
  return acc / total;
}

EpochWorkload make_epoch_workload(const graph::Dataset& dataset,
                                  const sampling::HotnessProfile& profile,
                                  const CacheConfig& cache, int num_gpus,
                                  std::size_t batch_size) {
  if (num_gpus <= 0) {
    throw std::invalid_argument("make_epoch_workload: num_gpus must be > 0");
  }
  if (profile.batch_size == 0 || profile.fetches_per_batch <= 0.0) {
    throw std::invalid_argument(
        "make_epoch_workload: hotness profile is empty");
  }
  EpochWorkload w;
  w.num_gpus = num_gpus;
  w.batch_size = batch_size;
  w.gpu_cache_mode = cache.gpu_cache_mode;
  w.feature_bytes =
      static_cast<double>(dataset.paper.feature_dim) * sizeof(float);

  // Unique fetches per seed vertex, measured on the scaled graph. The
  // profiler's batch size is chosen proportional to the scaled graph so the
  // in-batch dedup ratio transfers to the paper-scale batch of 8000.
  const double unique_per_seed =
      profile.fetches_per_batch / static_cast<double>(profile.batch_size);
  w.fetches_per_batch = unique_per_seed * static_cast<double>(batch_size);

  const double train_vertices_paper =
      dataset.train_fraction * static_cast<double>(dataset.paper.vertices);
  w.batches_per_epoch = static_cast<std::size_t>(
      std::ceil(train_vertices_paper / static_cast<double>(batch_size)));

  w.total_bytes = static_cast<double>(w.batches_per_epoch) *
                  w.fetches_per_batch * w.feature_bytes;
  w.per_gpu_bytes = w.total_bytes / static_cast<double>(num_gpus);

  // Cache hit shares follow the hotness distribution: caches hold the
  // hottest vertices (GPU tier first, then CPU — the paper's GPU > CPU > SSD
  // hierarchy), so their traffic share is the hot-prefix share.
  double gpu_cached_fraction = cache.gpu_cache_fraction;
  if (cache.gpu_cache_mode == GpuCacheMode::kPartitioned) {
    gpu_cached_fraction *= static_cast<double>(num_gpus);  // disjoint slices
  }
  gpu_cached_fraction = std::min(gpu_cached_fraction, 1.0);
  w.gpu_hit_fraction = hot_traffic_share(profile, gpu_cached_fraction);
  w.cpu_hit_fraction = hot_traffic_share_range(
      profile, gpu_cached_fraction,
      std::min(gpu_cached_fraction + cache.cpu_cache_fraction, 1.0));
  w.ssd_fraction =
      std::max(0.0, 1.0 - w.gpu_hit_fraction - w.cpu_hit_fraction);
  return w;
}

topology::WorkloadDemand to_flow_demand(const EpochWorkload& workload,
                                        const topology::FlowGraph& fg,
                                        SupplyModel supply_model) {
  topology::WorkloadDemand demand;
  demand.per_gpu_bytes.assign(fg.gpus.size(), workload.per_gpu_bytes);

  const auto num_gpus = static_cast<double>(
      std::max<std::size_t>(1, fg.gpus.size()));
  std::size_t num_ssd = 0, num_dram = 0;
  for (const auto& s : fg.storage) {
    if (s.tier == topology::StorageTier::kSsd) ++num_ssd;
    if (s.tier == topology::StorageTier::kCpuDram) ++num_dram;
  }

  demand.per_storage_bytes.assign(fg.storage.size(), -1.0);
  for (std::size_t i = 0; i < fg.storage.size(); ++i) {
    switch (fg.storage[i].tier) {
      case topology::StorageTier::kGpuHbm:
        if (workload.gpu_cache_mode == GpuCacheMode::kReplicated) {
          // Each GPU's cache replica serves that GPU's own hits.
          demand.per_storage_bytes[i] =
              workload.per_gpu_bytes * workload.gpu_hit_fraction;
        } else {
          // Disjoint slice: serves 1/G of the fleet-wide GPU-tier hits,
          // routed to peers over NVLink/PCIe P2P by the flow itself.
          demand.per_storage_bytes[i] =
              workload.total_bytes * workload.gpu_hit_fraction / num_gpus;
        }
        break;
      case topology::StorageTier::kCpuDram:
        if (supply_model == SupplyModel::kUniformHash && num_dram > 0) {
          demand.per_storage_bytes[i] = workload.total_bytes *
                                        workload.cpu_hit_fraction /
                                        static_cast<double>(num_dram);
        }
        break;
      case topology::StorageTier::kSsd:
        if (supply_model == SupplyModel::kUniformHash && num_ssd > 0) {
          demand.per_storage_bytes[i] = workload.total_bytes *
                                        workload.ssd_fraction /
                                        static_cast<double>(num_ssd);
        }
        break;
    }
  }

  demand.per_tier_bytes.assign(3, -1.0);
  demand.per_tier_bytes[static_cast<int>(topology::StorageTier::kGpuHbm)] =
      workload.total_bytes * workload.gpu_hit_fraction;
  demand.per_tier_bytes[static_cast<int>(topology::StorageTier::kCpuDram)] =
      workload.total_bytes * workload.cpu_hit_fraction;
  demand.per_tier_bytes[static_cast<int>(topology::StorageTier::kSsd)] =
      workload.total_bytes * workload.ssd_fraction;
  return demand;
}

}  // namespace moment::ddak
