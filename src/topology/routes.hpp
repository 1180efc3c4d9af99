#pragma once
// Routes over the compiled flow graph (paper Fig. 9), the one router for
// every consumer: a simulator stream (storage node -> GPU compute node) and
// a peer-GPU transfer (source HBM node -> destination compute node,
// comm::CommPlanner) both follow concrete paths over its physical edges.
//
// Routing policies mirror the systems being modelled:
//   kSinglePath — what a topology-oblivious runtime does: every request for a
//     given (source, GPU) pair takes the one obvious route.
//   kMultiPath  — Moment's flow-guided IO stack: traffic splits across up to
//     kMaxPaths distinct routes weighted by bottleneck capacity, the
//     realisation of the max-flow traffic plan.

#include <vector>

#include "maxflow/flow_network.hpp"
#include "topology/flow_graph.hpp"

namespace moment::topology {

enum class RoutingPolicy { kSinglePath, kMultiPath };

/// Most paths a kMultiPath set holds.
inline constexpr int kMaxPaths = 3;

struct PathSet {
  /// Each path is a sequence of forward flow-edge ids from `from` to `to`.
  std::vector<std::vector<maxflow::EdgeId>> paths;
  /// Traffic split weights, normalised to sum 1.
  std::vector<double> weights;
};

/// Finds one (kSinglePath) or up to kMaxPaths (kMultiPath) hop-shortest,
/// capacity-widest among equals, paths from `from` to `to` over forward
/// edges, avoiding the virtual source/sink. Later paths are discouraged from
/// reusing earlier paths' edges. Returns an empty set if the nodes are
/// disconnected.
PathSet find_paths(const FlowGraph& fg, maxflow::NodeId from,
                   maxflow::NodeId to, RoutingPolicy policy);

}  // namespace moment::topology
