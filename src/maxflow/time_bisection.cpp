#include "maxflow/time_bisection.hpp"

#include <algorithm>
#include <cmath>

#include "maxflow/dinic.hpp"

namespace moment::maxflow {

namespace {

constexpr double kTimeLo = 1e-6;        // s, the smallest T tried
constexpr double kTimeHiInitial = 1.0;  // s, doubled until feasible
constexpr int kMaxDoublings = 60;
constexpr double kRelTol = 1e-4;        // bisection stops at (hi-lo) <= tol*hi
constexpr int kMaxIterations = 80;

/// Builds the byte-capacity network for trial time T and solves it.
double solve_at_time(const FlowNetwork& base, NodeId s, NodeId t, double time_s,
                     std::span<const ByteConstraint> demands,
                     std::span<const ByteConstraint> supplies,
                     FlowNetwork* out_net) {
  FlowNetwork net = base;
  net.scale_capacities(time_s);
  for (const auto& d : demands) {
    net.set_capacity(d.edge, d.bytes);
  }
  for (const auto& sup : supplies) {
    const double rate = base.original_capacity(sup.edge);
    const double cap = std::isinf(rate) ? sup.bytes
                                        : std::min(rate * time_s, sup.bytes);
    net.set_capacity(sup.edge, cap);
  }
  const MaxFlowResult r = Dinic::solve(net, s, t);
  if (out_net) *out_net = std::move(net);
  return r.total_flow;
}

}  // namespace

TimeBisectionResult solve_time_bisection(
    const FlowNetwork& base, NodeId s, NodeId t,
    std::span<const ByteConstraint> demands,
    std::span<const ByteConstraint> supplies) {
  TimeBisectionResult result;
  for (const auto& d : demands) result.total_demand += d.bytes;
  if (result.total_demand <= 0.0) {
    result.feasible = true;
    result.min_time_s = 0.0;
    return result;
  }
  const double target = result.total_demand * (1.0 - 1e-9);

  // Phase 1: exponential search for a feasible upper bound.
  double hi = kTimeHiInitial;
  bool hi_feasible = false;
  for (int i = 0; i <= kMaxDoublings; ++i) {
    ++result.iterations;
    if (solve_at_time(base, s, t, hi, demands, supplies, nullptr) >= target) {
      hi_feasible = true;
      break;
    }
    hi *= 2.0;
  }
  if (!hi_feasible) {
    result.feasible = false;  // demand cannot be met (e.g. supply < demand)
    return result;
  }

  // Phase 2: bisection between lo (infeasible) and hi (feasible).
  double lo = kTimeLo;
  if (solve_at_time(base, s, t, lo, demands, supplies, nullptr) >= target) {
    hi = lo;  // already feasible at the lower bound
  } else {
    for (int i = 0; i < kMaxIterations && (hi - lo) > kRelTol * hi; ++i) {
      ++result.iterations;
      const double mid = 0.5 * (lo + hi);
      if (solve_at_time(base, s, t, mid, demands, supplies, nullptr) >= target) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
  }

  FlowNetwork final_net;
  solve_at_time(base, s, t, hi, demands, supplies, &final_net);
  result.feasible = true;
  result.min_time_s = hi;
  result.throughput = result.total_demand / hi;
  result.edge_flow.resize(final_net.num_edges() * 2, 0.0);
  for (EdgeId e = 0; e < static_cast<EdgeId>(final_net.num_edges() * 2); e += 2) {
    result.edge_flow[static_cast<std::size_t>(e)] = final_net.flow(e);
  }
  return result;
}

}  // namespace moment::maxflow
