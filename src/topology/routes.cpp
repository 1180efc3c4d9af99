#include "topology/routes.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>

namespace moment::topology {

using maxflow::EdgeId;
using maxflow::NodeId;

namespace {

/// Dijkstra with lexicographic cost (penalised hops, then prefer wider
/// bottleneck). Only forward, non-virtual edges participate.
std::vector<EdgeId> best_path(const FlowGraph& fg, NodeId from,
                              NodeId to,
                              const std::map<EdgeId, int>& edge_penalty) {
  const auto& net = fg.net;
  const auto n = static_cast<std::size_t>(net.num_nodes());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(n, kInf);
  std::vector<double> width(n, 0.0);
  std::vector<EdgeId> via(n, -1);

  using Entry = std::tuple<double, double, NodeId>;  // (cost, -width, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  dist[static_cast<std::size_t>(from)] = 0.0;
  width[static_cast<std::size_t>(from)] = kInf;
  pq.emplace(0.0, -kInf, from);

  while (!pq.empty()) {
    const auto [cost, neg_w, u] = pq.top();
    pq.pop();
    if (cost > dist[static_cast<std::size_t>(u)] + 1e-12) continue;
    if (u == to) break;
    for (EdgeId eid : net.incident(u)) {
      const auto& e = net.edge(eid);
      if (e.is_residual) continue;
      if (e.to == fg.source || e.to == fg.sink) continue;
      if (net.edge_source(eid) != u) continue;
      const double cap = net.original_capacity(eid);
      if (cap <= 0.0) continue;
      int penalty = 0;
      if (auto it = edge_penalty.find(eid); it != edge_penalty.end()) {
        penalty = it->second;
      }
      const double ncost = cost + 1.0 + 4.0 * penalty;
      const double nwidth = std::min(width[static_cast<std::size_t>(u)], cap);
      auto& d = dist[static_cast<std::size_t>(e.to)];
      auto& w = width[static_cast<std::size_t>(e.to)];
      if (ncost < d - 1e-12 || (std::abs(ncost - d) <= 1e-12 && nwidth > w)) {
        d = ncost;
        w = nwidth;
        via[static_cast<std::size_t>(e.to)] = eid;
        pq.emplace(ncost, -nwidth, e.to);
      }
    }
  }

  if (via[static_cast<std::size_t>(to)] < 0 && from != to) return {};
  std::vector<EdgeId> path;
  for (NodeId v = to; v != from;) {
    const EdgeId eid = via[static_cast<std::size_t>(v)];
    if (eid < 0) return {};
    path.push_back(eid);
    v = fg.net.edge_source(eid);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

double bottleneck(const FlowGraph& fg,
                  const std::vector<EdgeId>& path) {
  double b = std::numeric_limits<double>::infinity();
  for (EdgeId e : path) b = std::min(b, fg.net.original_capacity(e));
  return b;
}

}  // namespace

PathSet find_paths(const FlowGraph& fg, NodeId from, NodeId to,
                   RoutingPolicy policy) {
  PathSet set;
  const int want = policy == RoutingPolicy::kSinglePath ? 1 : kMaxPaths;
  std::map<EdgeId, int> penalty;
  for (int k = 0; k < want; ++k) {
    std::vector<EdgeId> path = best_path(fg, from, to, penalty);
    if (path.empty()) break;
    // Stop once penalisation just re-finds an existing path.
    if (std::find(set.paths.begin(), set.paths.end(), path) !=
        set.paths.end()) {
      break;
    }
    for (EdgeId e : path) ++penalty[e];
    set.paths.push_back(std::move(path));
  }
  if (set.paths.empty()) return set;

  double total = 0.0;
  for (const auto& p : set.paths) {
    double b = bottleneck(fg, p);
    if (std::isinf(b)) b = 1e12;  // HBM-local path
    set.weights.push_back(b);
    total += b;
  }
  for (double& w : set.weights) w /= total;
  return set;
}

}  // namespace moment::topology
