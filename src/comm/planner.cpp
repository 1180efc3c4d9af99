#include "comm/planner.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "maxflow/dinic.hpp"
#include "topology/flow_graph.hpp"
#include "topology/routes.hpp"

namespace moment::comm {

namespace {

constexpr double kEps = 1e-9;

}  // namespace

CommPlanner::CommPlanner(const topology::Topology& topo) : topo_(&topo) {
  const std::size_t n =
      topo.devices_of_kind(topology::DeviceKind::kGpu).size();
  num_gpus_ = static_cast<int>(n);
  pair_bw_.assign(n * n, 0.0);
  routes_.resize(n * n);
  if (n < 2) return;
  // One flow graph serves both: Dinic re-solves it per ordered pair with
  // flows reset in between, and the router reads its capacities. The virtual
  // source has no in-edges and every compute node only feeds the sink, so
  // HBM_i -> comp_j isolates exactly the inter-GPU fabric (slot links,
  // switches, QPI, NVLink bridges).
  topology::FlowGraph fg = topology::compile_flow_graph(topo);
  // The physical link traversal each flow edge realises.
  std::vector<RouteLink> hop_of(2 * fg.net.num_edges());
  for (const topology::LinkFlowEdges& le : fg.link_edges) {
    const topology::Link& l = topo.link(le.link);
    if (le.ab >= 0) {
      hop_of[static_cast<std::size_t>(le.ab)] = {le.link, true, l.bw_ab};
    }
    if (le.ba >= 0) {
      hop_of[static_cast<std::size_t>(le.ba)] = {le.link, false, l.bw_ba};
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      fg.net.reset_flows();
      const auto result = maxflow::Dinic::solve(fg.net, fg.gpus[i].mem_node,
                                                fg.gpus[j].comp_node);
      pair_bw_[i * n + j] = result.total_flow;
      PeerRoute& route = routes_[i * n + j];
      route.src_gpu = static_cast<int>(i);
      route.dst_gpu = static_cast<int>(j);
      route.max_flow_bw = result.total_flow;
      const topology::PathSet ps =
          topology::find_paths(fg, fg.gpus[i].mem_node, fg.gpus[j].comp_node,
                               topology::RoutingPolicy::kSinglePath);
      if (ps.paths.empty()) continue;  // unroutable
      for (const maxflow::EdgeId e : ps.paths.front()) {
        route.links.push_back(hop_of[static_cast<std::size_t>(e)]);
      }
    }
  }
}

void CommPlanner::fill_routes(CommPlan& plan) const {
  const int n = num_gpus();
  plan.num_gpus = n;
  plan.num_links = topo_->num_links();
  plan.route_of.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                       -1);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const std::size_t ij = static_cast<std::size_t>(i) *
                                 static_cast<std::size_t>(n) +
                             static_cast<std::size_t>(j);
      if (!routes_[ij].valid()) continue;
      plan.route_of[ij] = static_cast<int>(plan.routes.size());
      plan.routes.push_back(routes_[ij]);
    }
  }
  // Link metadata for every link any route touches, ordered by link id.
  std::vector<char> used(plan.num_links, 0);
  for (const PeerRoute& r : plan.routes) {
    for (const RouteLink& rl : r.links) {
      used[static_cast<std::size_t>(rl.link)] = 1;
    }
  }
  for (std::size_t lid = 0; lid < plan.num_links; ++lid) {
    if (!used[lid]) continue;
    const topology::Link& l = topo_->link(static_cast<topology::LinkId>(lid));
    plan.links.push_back({static_cast<topology::LinkId>(lid), l.label, l.kind,
                          l.bw_ab, l.bw_ba});
  }
}

std::vector<int> CommPlanner::best_ring_order() const {
  const int n = num_gpus();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  if (n <= 2) return order;

  const auto score = [&](const std::vector<int>& o, double* sum_out) {
    double bottleneck = std::numeric_limits<double>::infinity();
    double sum = 0.0;
    for (int p = 0; p < n; ++p) {
      const double bw =
          pair_bandwidth(o[static_cast<std::size_t>(p)],
                         o[static_cast<std::size_t>((p + 1) % n)]);
      bottleneck = std::min(bottleneck, bw);
      sum += bw;
    }
    *sum_out = sum;
    return bottleneck;
  };

  // GPU0 anchored; permutations enumerated in lexicographic order so the
  // first permutation achieving the best (bottleneck, sum) wins — plans are
  // a deterministic function of the bandwidth matrix.
  std::vector<int> tail(static_cast<std::size_t>(n - 1));
  std::iota(tail.begin(), tail.end(), 1);
  std::vector<int> best = order;
  double best_sum = 0.0;
  double best_bottleneck = score(best, &best_sum);
  std::vector<int> cand(static_cast<std::size_t>(n));
  cand[0] = 0;
  while (std::next_permutation(tail.begin(), tail.end())) {
    std::copy(tail.begin(), tail.end(), cand.begin() + 1);
    double sum = 0.0;
    const double bottleneck = score(cand, &sum);
    if (bottleneck > best_bottleneck + kEps ||
        (bottleneck > best_bottleneck - kEps && sum > best_sum + kEps)) {
      best = cand;
      best_bottleneck = bottleneck;
      best_sum = sum;
    }
  }
  return best;
}

CommPlan CommPlanner::flat_plan() const {
  CommPlan plan;
  plan.algo = AllReduceAlgo::kFlat;
  fill_routes(plan);
  const int n = plan.num_gpus;
  plan.ring_order.resize(static_cast<std::size_t>(std::max(n, 0)));
  std::iota(plan.ring_order.begin(), plan.ring_order.end(), 0);
  plan.chunk_share.assign(static_cast<std::size_t>(std::max(n, 0)),
                          n > 0 ? 1.0 / n : 0.0);
  if (n < 2) return plan;
  Step gather, scatter;
  for (int w = 1; w < n; ++w) {
    const int r_in = plan.route_of[static_cast<std::size_t>(w) *
                                   static_cast<std::size_t>(n)];
    const int r_out = plan.route_of[static_cast<std::size_t>(w)];
    if (r_in < 0 || r_out < 0) {
      throw std::runtime_error("comm: GPU pair unroutable in flat plan");
    }
    gather.transfers.push_back({w, 0, 1.0, r_in});
    scatter.transfers.push_back({0, w, 1.0, r_out});
  }
  plan.steps.push_back(std::move(gather));
  plan.steps.push_back(std::move(scatter));
  return plan;
}

CommPlan CommPlanner::ring_plan() const {
  CommPlan plan;
  plan.algo = AllReduceAlgo::kRing;
  fill_routes(plan);
  const int n = plan.num_gpus;
  plan.ring_order = best_ring_order();
  plan.chunk_share.assign(static_cast<std::size_t>(std::max(n, 1)), 1.0);
  if (n < 2) {
    return plan;
  }

  // Chunk shares: chunk q (owned at ring position q) traverses every hop
  // except hop (q-1+n)%n, so its cost weight is the aggregate inverse
  // bandwidth of the hops it crosses. Sizing shares inversely to that weight
  // equalises per-chunk transit cost: chunks that dodge slow hops grow,
  // chunks that must cross them shrink. Uniform bandwidths reduce to 1/n.
  std::vector<double> hop_bw(static_cast<std::size_t>(n));
  double inv_sum = 0.0;
  for (int p = 0; p < n; ++p) {
    const int src = plan.ring_order[static_cast<std::size_t>(p)];
    const int dst = plan.ring_order[static_cast<std::size_t>((p + 1) % n)];
    hop_bw[static_cast<std::size_t>(p)] = pair_bandwidth(src, dst);
    if (hop_bw[static_cast<std::size_t>(p)] <= 0.0) {
      throw std::runtime_error("comm: GPU pair unroutable in ring plan");
    }
    inv_sum += 1.0 / hop_bw[static_cast<std::size_t>(p)];
  }
  double share_sum = 0.0;
  for (int q = 0; q < n; ++q) {
    const double skipped = 1.0 / hop_bw[static_cast<std::size_t>((q - 1 + n) % n)];
    const double weight = inv_sum - skipped;
    plan.chunk_share[static_cast<std::size_t>(q)] =
        weight > 0.0 ? 1.0 / weight : 1.0;
    share_sum += plan.chunk_share[static_cast<std::size_t>(q)];
  }
  for (double& s : plan.chunk_share) s /= share_sum;

  // Reduce-scatter then all-gather: 2*(n-1) steps of n concurrent hop
  // transfers. In step s, hop p (ring position p -> p+1) carries chunk
  // (p - s) mod n; over n-1 steps each hop carries every chunk except the
  // one owned at its destination.
  for (int phase = 0; phase < 2; ++phase) {
    for (int s = 0; s < n - 1; ++s) {
      Step step;
      for (int p = 0; p < n; ++p) {
        const int src = plan.ring_order[static_cast<std::size_t>(p)];
        const int dst = plan.ring_order[static_cast<std::size_t>((p + 1) % n)];
        const int r = plan.route_of[static_cast<std::size_t>(src) *
                                        static_cast<std::size_t>(n) +
                                    static_cast<std::size_t>(dst)];
        if (r < 0) throw std::runtime_error("comm: ring hop unroutable");
        const int chunk = ((p - s) % n + n) % n;
        step.transfers.push_back(
            {src, dst, plan.chunk_share[static_cast<std::size_t>(chunk)], r});
      }
      plan.steps.push_back(std::move(step));
    }
  }
  return plan;
}

CommPlan CommPlanner::tree_plan() const {
  const int n = num_gpus();
  if (n < 2 || (n & (n - 1)) != 0) {
    // Recursive halving/doubling needs a power-of-two group; fall back.
    return ring_plan();
  }
  CommPlan plan;
  plan.algo = AllReduceAlgo::kTree;
  fill_routes(plan);
  plan.ring_order = best_ring_order();
  plan.chunk_share.assign(static_cast<std::size_t>(n), 1.0 / n);

  int rounds = 0;
  for (int m = n; m > 1; m >>= 1) ++rounds;
  // Reduce-scatter: round k pairs positions (i, i^2^k) exchanging half of
  // the data still unreduced between them; all-gather mirrors the rounds in
  // reverse with the same volumes (Rabenseifner).
  const auto make_round = [&](int k) {
    Step step;
    for (int i = 0; i < n; ++i) {
      const int j = i ^ (1 << k);
      const int src = plan.ring_order[static_cast<std::size_t>(i)];
      const int dst = plan.ring_order[static_cast<std::size_t>(j)];
      const int r = plan.route_of[static_cast<std::size_t>(src) *
                                      static_cast<std::size_t>(n) +
                                  static_cast<std::size_t>(dst)];
      if (r < 0) throw std::runtime_error("comm: tree pair unroutable");
      step.transfers.push_back(
          {src, dst, 1.0 / static_cast<double>(1 << (k + 1)), r});
    }
    return step;
  };
  for (int k = 0; k < rounds; ++k) plan.steps.push_back(make_round(k));
  for (int k = rounds - 1; k >= 0; --k) plan.steps.push_back(make_round(k));
  return plan;
}

CommPlan CommPlanner::plan(AllReduceAlgo algo) const {
  const int n = num_gpus();
  if (n < 2) {
    CommPlan degenerate;
    degenerate.algo = AllReduceAlgo::kFlat;
    fill_routes(degenerate);
    degenerate.ring_order.assign(n > 0 ? 1 : 0, 0);
    degenerate.chunk_share.assign(n > 0 ? 1 : 0, 1.0);
    return degenerate;
  }
  switch (algo) {
    case AllReduceAlgo::kFlat: return flat_plan();
    case AllReduceAlgo::kRing: return ring_plan();
    case AllReduceAlgo::kTree: return tree_plan();
    case AllReduceAlgo::kAuto: break;
  }
  // Auto: lowest predicted contention-costed time wins; ties keep the
  // earlier candidate (ring, then tree, then flat) for determinism.
  CommPlan best = ring_plan();
  double best_s = best.predicted_seconds(kDefaultReferencePayload);
  if ((n & (n - 1)) == 0) {
    CommPlan tree = tree_plan();
    const double tree_s = tree.predicted_seconds(kDefaultReferencePayload);
    if (tree_s < best_s - 1e-12) {
      best = std::move(tree);
      best_s = tree_s;
    }
  }
  CommPlan flat = flat_plan();
  if (flat.predicted_seconds(kDefaultReferencePayload) < best_s - 1e-12) {
    best = std::move(flat);
  }
  return best;
}

}  // namespace moment::comm
