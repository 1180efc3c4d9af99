#pragma once
// Throughput prediction over a compiled flow graph. Two modes:
//
//  * rate mode — plain max flow with infinite demands: the aggregate
//    bandwidth upper bound of a placement (used to rank candidates cheaply);
//  * demand mode — the paper's time-bisection procedure: per-GPU byte demands
//    (and optionally per-storage byte supplies from the data placement) give
//    the minimum epoch IO time, capturing load imbalance that the aggregate
//    bound hides.

#include <utility>
#include <vector>

#include "topology/flow_graph.hpp"

namespace moment::topology {

struct WorkloadDemand {
  /// Bytes each GPU must receive per epoch (same order as FlowGraph::gpus).
  std::vector<double> per_gpu_bytes;
  /// Bytes resident-and-demanded per storage node (same order as
  /// FlowGraph::storage). Empty means rate-limited only (hardware search
  /// mode, before data placement is known).
  std::vector<double> per_storage_bytes;
  /// Byte budget per storage tier (indexed by StorageTier); NaN/negative
  /// entries (or an empty vector) leave that tier rate-limited. Lets the
  /// search cap "all SSDs together serve at most the non-cached bytes"
  /// without pinning the split across devices.
  std::vector<double> per_tier_bytes;
};

struct LinkTraffic {
  LinkId link = -1;
  double bytes_ab = 0.0;
  double bytes_ba = 0.0;
};

struct Prediction {
  bool feasible = false;
  double epoch_io_time_s = 0.0; // min time to satisfy all demands
  double throughput = 0.0;      // total demand / epoch_io_time_s
  std::vector<double> per_gpu_bytes;      // bytes delivered per GPU at T*
  std::vector<double> per_storage_bytes;  // bytes served per storage node
  std::vector<LinkTraffic> link_traffic;  // bytes per physical link at T*
};

/// Runs both modes. `fg` is not mutated (copies are solved).
Prediction predict(const FlowGraph& fg, const WorkloadDemand& demand);

/// Rate mode only: aggregate max-flow bound in bytes/s.
double predict_rate_bound(const FlowGraph& fg);

}  // namespace moment::topology
