#include "topology/predictor.hpp"

#include <numeric>
#include <stdexcept>

#include "maxflow/dinic.hpp"
#include "maxflow/time_bisection.hpp"

namespace moment::topology {

double predict_rate_bound(const FlowGraph& fg) {
  maxflow::FlowNetwork net = fg.net;  // copy; solve mutates residuals
  const auto result = maxflow::Dinic::solve(net, fg.source, fg.sink);
  return result.total_flow;
}

Prediction predict(const FlowGraph& fg, const WorkloadDemand& demand) {
  Prediction out;
  if (demand.per_gpu_bytes.size() != fg.gpus.size()) {
    throw std::invalid_argument("predict: per_gpu_bytes size mismatch");
  }
  if (!demand.per_storage_bytes.empty() &&
      demand.per_storage_bytes.size() != fg.storage.size()) {
    throw std::invalid_argument("predict: per_storage_bytes size mismatch");
  }

  std::vector<maxflow::ByteConstraint> demands;
  demands.reserve(fg.gpus.size());
  for (std::size_t i = 0; i < fg.gpus.size(); ++i) {
    demands.push_back({fg.gpus[i].demand_edge, demand.per_gpu_bytes[i]});
  }
  std::vector<maxflow::ByteConstraint> supplies;
  if (!demand.per_storage_bytes.empty()) {
    supplies.reserve(fg.storage.size());
    for (std::size_t i = 0; i < fg.storage.size(); ++i) {
      // Negative entries mean "rate-limited only" for that storage node.
      if (demand.per_storage_bytes[i] < 0.0) continue;
      supplies.push_back({fg.storage[i].supply_edge,
                          demand.per_storage_bytes[i]});
    }
  }
  for (std::size_t t = 0; t < demand.per_tier_bytes.size() && t < 3; ++t) {
    const double bytes = demand.per_tier_bytes[t];
    if (bytes >= 0.0 && fg.tier_edge[t] >= 0) {
      supplies.push_back({fg.tier_edge[t], bytes});
    }
  }

  const auto tb = maxflow::solve_time_bisection(fg.net, fg.source, fg.sink,
                                                demands, supplies);
  out.feasible = tb.feasible;
  if (!tb.feasible) return out;

  out.epoch_io_time_s = tb.min_time_s;
  out.throughput = tb.throughput;

  auto flow_of = [&](maxflow::EdgeId e) -> double {
    if (e < 0) return 0.0;
    const auto idx = static_cast<std::size_t>(e);
    return idx < tb.edge_flow.size() ? tb.edge_flow[idx] : 0.0;
  };

  out.per_gpu_bytes.reserve(fg.gpus.size());
  for (const auto& g : fg.gpus) {
    out.per_gpu_bytes.push_back(flow_of(g.demand_edge));
  }
  out.per_storage_bytes.reserve(fg.storage.size());
  for (const auto& s : fg.storage) {
    out.per_storage_bytes.push_back(flow_of(s.supply_edge));
  }
  out.link_traffic.reserve(fg.link_edges.size());
  for (const auto& le : fg.link_edges) {
    out.link_traffic.push_back({le.link, flow_of(le.ab), flow_of(le.ba)});
  }
  return out;
}

}  // namespace moment::topology
