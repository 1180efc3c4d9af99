#pragma once
// AutoModule — Moment's offline co-optimizer facade (paper Fig. 8):
//
//   inputs:  communication topology (MachineSpec), GNN model + sampling
//            config, dataset
//   stage 1: pre-sampling hotness profile (Workbench)
//   stage 2: hardware placement search — enumerate, symmetry-reduce,
//            max-flow time-bisection per candidate, then simulate the
//            leaders (runtime::choose_moment_placement); the winner's DDAK
//            data placement, from its storage-node flows, is kept
//
// The resulting Plan is everything the runtime needs; it is reusable across
// GNN models and epochs for a fixed hardware set, so its cost amortises
// exactly as the paper's Section 3.3 argues.

#include <memory>
#include <span>
#include <string>

#include "ddak/ddak.hpp"
#include "ddak/workload.hpp"
#include "iostack/feature_store.hpp"
#include "placement/search.hpp"
#include "runtime/systems.hpp"
#include "topology/machine.hpp"
#include "topology/predictor.hpp"

namespace moment::core {

struct AutoModuleConfig {
  const topology::MachineSpec* machine = nullptr;
  graph::DatasetId dataset = graph::DatasetId::kIG;
  int dataset_scale_shift = 2;
  gnn::ModelKind model = gnn::ModelKind::kGraphSage;
  int num_gpus = 4;
  int num_ssds = 8;
  bool nvlink = false;
  ddak::CacheConfig cache;
  std::uint64_t seed = 42;
};

struct Plan {
  topology::Placement hardware_placement;
  topology::Prediction prediction;      // under the chosen placement
  ddak::EpochWorkload workload;
  std::vector<ddak::Bin> bins;          // replicated-GPU-merged when apt
  ddak::DataPlacementResult data_placement;

  // Search telemetry (paper's search-space reduction claims).
  std::size_t candidates_total = 0;
  std::size_t candidates_evaluated = 0;

  // Offline cost breakdown (paper Section 3.3 "Pre-processing Cost").
  double profile_time_s = 0.0;
  double search_time_s = 0.0;
  double ddak_time_s = 0.0;
  double total_time_s() const noexcept {
    return profile_time_s + search_time_s + ddak_time_s;
  }

  std::string to_string(const topology::MachineSpec& spec) const;
};

class AutoModule {
 public:
  /// Full pipeline: profiles the dataset, then searches placements.
  static Plan plan(const AutoModuleConfig& config);
  /// Same but with a pre-built workbench (shared across sweeps).
  static Plan plan(const AutoModuleConfig& config,
                   const runtime::Workbench& bench);
};

struct BuiltStore {
  /// Not started: clients register their queue pairs, then start_all().
  std::unique_ptr<iostack::SsdArray> array;
  std::unique_ptr<iostack::TieredFeatureStore> store;
  std::size_t cached_rows = 0;  // rows warm_row_cache put in the cache
};

/// The one path from a Plan to the feature store. An HBM bin becomes a GPU
/// cache replicated on every GPU, a DRAM bin the CPU cache, and each SSD bin
/// the next SSD ordinal. Every SSD is unpaced and sized in pages by the
/// failover policy stated in iostack/feature_store.hpp. The store gets a row
/// cache of `cache_rows` rows filled by warm_row_cache(by_hotness_desc),
/// which also packs each SSD's pages in that order.
BuiltStore build_store(const Plan& plan, const gnn::Tensor& features,
                       std::span<const graph::VertexId> by_hotness_desc,
                       std::size_t cache_rows);

}  // namespace moment::core
