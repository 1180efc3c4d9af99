#pragma once
// The paper's "time-bisection Ford-Fulkerson" (Section 3.2, Problem Solving):
// given per-GPU byte demands and per-storage byte supplies over a network
// whose physical edges carry *rates* (bytes/s), find the minimum time T such
// that all demands are satisfiable. At time T, a physical edge can move
// rate*T bytes; demand edges are fixed at their byte totals; supply edges at
// min(rate*T, resident bytes). Feasible(T) is monotone in T, so bisection
// applies.
//
// The reciprocal total_demand/T* is the predicted aggregate throughput; the
// per-edge flows at T* are the traffic plan DDAK turns into data placement.

#include <functional>
#include <span>
#include <vector>

#include "maxflow/flow_network.hpp"

namespace moment::maxflow {

/// Fixes the capacity of `edge` to `bytes` (demand) or to
/// min(rate*T, bytes) (supply), where rate is the edge's base capacity.
struct ByteConstraint {
  EdgeId edge = -1;
  double bytes = 0.0;
};

struct TimeBisectionResult {
  bool feasible = false;
  double min_time_s = 0.0;         // smallest feasible T
  double throughput = 0.0;         // total demand / min_time_s (bytes/s)
  double total_demand = 0.0;       // bytes
  std::vector<double> edge_flow;   // bytes moved per forward EdgeId at T*
  int iterations = 0;
};

/// `base` must carry rates on all physical edges. `demands` are the GPU->sink
/// edges (capacity ignored in base); `supplies` are the source->storage edges
/// whose byte availability caps them in addition to their rate. T is found
/// by doubling from 1 s (at most 60 times), then by bisection against a lower
/// bound of 1e-6 s until the bracket is within 1e-4 of T (at most 80 steps).
TimeBisectionResult solve_time_bisection(
    const FlowNetwork& base, NodeId s, NodeId t,
    std::span<const ByteConstraint> demands,
    std::span<const ByteConstraint> supplies);

}  // namespace moment::maxflow
