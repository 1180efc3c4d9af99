#pragma once
// Compiles CommPlans from a concrete machine topology.
//
// The planner is the bridge from placement-time modelling to runtime
// execution. It compiles the machine's Fig. 9 flow graph once and reads it
// twice per ordered GPU pair: Dinic bounds the pair's bandwidth (src HBM ->
// dst compute), and the flow-graph router (topology/routes.hpp, kSinglePath:
// fewest hops, then widest) gives its concrete route, each flow edge mapped
// back to the physical link and direction it realises (a direct NVLink
// bridge wins by hop count). From these it emits bandwidth-aware all-reduce
// schedules:
//   - ring: cycle order chosen by brute-force bottleneck maximisation over
//     the pairwise max-flow matrix (GPU0 anchored; (N-1)! <= 5040 for N<=8),
//     chunk shares sized from hop bandwidths (see DESIGN.md §5f),
//   - tree: recursive halving/doubling over the ring order (power-of-two N),
//   - flat: the historical hub-and-spoke baseline, expressed as a plan so
//     its link traffic is accountable through the same machinery,
//   - auto: lowest predicted contention-costed time among the candidates.
//
// Compilation is deterministic: identical topologies yield identical plans.

#include <vector>

#include "comm/plan.hpp"
#include "topology/device.hpp"

namespace moment::comm {

class CommPlanner {
 public:
  /// Payload used to rank candidate algorithms under kAuto; comm-phase
  /// ratios are payload-invariant for fixed N, so any realistic gradient
  /// size ranks identically.
  static constexpr double kDefaultReferencePayload = 64.0 * 1024.0 * 1024.0;

  /// Compiles the pairwise bandwidth matrix and peer routes from `topo`. The
  /// topology must outlive the planner.
  explicit CommPlanner(const topology::Topology& topo);

  int num_gpus() const noexcept { return num_gpus_; }

  /// Max-flow bandwidth bound (bytes/s) from `src`'s HBM to `dst`'s compute
  /// node; 0 on the diagonal.
  double pair_bandwidth(int src, int dst) const {
    return pair_bw_[static_cast<std::size_t>(src * num_gpus_ + dst)];
  }

  CommPlan plan(AllReduceAlgo algo = AllReduceAlgo::kAuto) const;

 private:
  void fill_routes(CommPlan& plan) const;
  std::vector<int> best_ring_order() const;
  CommPlan flat_plan() const;
  CommPlan ring_plan() const;
  CommPlan tree_plan() const;

  const topology::Topology* topo_;
  int num_gpus_ = 0;
  std::vector<double> pair_bw_;    // row-major num_gpus x num_gpus
  std::vector<PeerRoute> routes_;  // row-major; invalid on the diagonal
};

}  // namespace moment::comm
