// Unit + property tests for the max-flow module: Dinic vs the Edmonds-Karp
// oracle on random networks, flow conservation, min-cut duality, and the
// paper's time-bisection procedure.

#include <gtest/gtest.h>

#include <cmath>

#include "maxflow/dinic.hpp"
#include "maxflow/edmonds_karp.hpp"
#include "maxflow/flow_network.hpp"
#include "maxflow/min_cut.hpp"
#include "maxflow/time_bisection.hpp"
#include "util/rng.hpp"

namespace moment::maxflow {
namespace {

/// Classic CLRS-style example with known max flow 23.
FlowNetwork clrs_network(NodeId& s, NodeId& t) {
  FlowNetwork net(6);
  s = 0;
  t = 5;
  net.add_edge(0, 1, 16);
  net.add_edge(0, 2, 13);
  net.add_edge(1, 2, 10);
  net.add_edge(2, 1, 4);
  net.add_edge(1, 3, 12);
  net.add_edge(3, 2, 9);
  net.add_edge(2, 4, 14);
  net.add_edge(4, 3, 7);
  net.add_edge(3, 5, 20);
  net.add_edge(4, 5, 4);
  return net;
}

TEST(Dinic, ClrsExample) {
  NodeId s, t;
  FlowNetwork net = clrs_network(s, t);
  EXPECT_NEAR(Dinic::solve(net, s, t).total_flow, 23.0, 1e-9);
}

TEST(EdmondsKarp, ClrsExample) {
  NodeId s, t;
  FlowNetwork net = clrs_network(s, t);
  EXPECT_NEAR(EdmondsKarp::solve(net, s, t).total_flow, 23.0, 1e-9);
}

TEST(Dinic, DisconnectedIsZero) {
  FlowNetwork net(4);
  net.add_edge(0, 1, 5);
  net.add_edge(2, 3, 5);
  EXPECT_EQ(Dinic::solve(net, 0, 3).total_flow, 0.0);
}

TEST(Dinic, ParallelEdgesAccumulate) {
  FlowNetwork net(2);
  net.add_edge(0, 1, 3);
  net.add_edge(0, 1, 4);
  EXPECT_NEAR(Dinic::solve(net, 0, 1).total_flow, 7.0, 1e-9);
}

TEST(Dinic, InfiniteEdgeBoundedElsewhere) {
  FlowNetwork net(3);
  net.add_edge(0, 1, kInfiniteCapacity);
  net.add_edge(1, 2, 9.5);
  EXPECT_NEAR(Dinic::solve(net, 0, 2).total_flow, 9.5, 1e-9);
}

TEST(FlowNetwork, FlowReadback) {
  FlowNetwork net(3);
  const EdgeId e01 = net.add_edge(0, 1, 4);
  const EdgeId e12 = net.add_edge(1, 2, 10);
  Dinic::solve(net, 0, 2);
  EXPECT_NEAR(net.flow(e01), 4.0, 1e-9);
  EXPECT_NEAR(net.flow(e12), 4.0, 1e-9);
}

TEST(FlowNetwork, ResetFlowsRestoresCapacity) {
  FlowNetwork net(2);
  const EdgeId e = net.add_edge(0, 1, 5);
  Dinic::solve(net, 0, 1);
  EXPECT_NEAR(net.flow(e), 5.0, 1e-9);
  net.reset_flows();
  EXPECT_NEAR(net.flow(e), 0.0, 1e-9);
  EXPECT_NEAR(Dinic::solve(net, 0, 1).total_flow, 5.0, 1e-9);
}

TEST(FlowNetwork, ScaleCapacities) {
  FlowNetwork net(2);
  net.add_edge(0, 1, 5);
  net.scale_capacities(3.0);
  EXPECT_NEAR(Dinic::solve(net, 0, 1).total_flow, 15.0, 1e-9);
  EXPECT_THROW(net.scale_capacities(-1.0), std::invalid_argument);
}

TEST(FlowNetwork, SetCapacity) {
  FlowNetwork net(2);
  const EdgeId e = net.add_edge(0, 1, 5);
  net.set_capacity(e, 2.5);
  EXPECT_NEAR(Dinic::solve(net, 0, 1).total_flow, 2.5, 1e-9);
  EXPECT_THROW(net.set_capacity(e, -1.0), std::invalid_argument);
}

TEST(FlowNetwork, RejectsNegativeCapacity) {
  FlowNetwork net(2);
  EXPECT_THROW(net.add_edge(0, 1, -1.0), std::invalid_argument);
}

/// Random layered networks shaped like compiled topologies.
FlowNetwork random_network(util::Pcg32& rng, NodeId& s, NodeId& t) {
  const int layers = 3 + static_cast<int>(rng.next_below(3));
  const int width = 2 + static_cast<int>(rng.next_below(4));
  FlowNetwork net(2 + layers * width);
  s = 0;
  t = 1;
  auto node = [&](int layer, int i) { return 2 + layer * width + i; };
  for (int i = 0; i < width; ++i) {
    net.add_edge(s, node(0, i), rng.next_double(1.0, 20.0));
    net.add_edge(node(layers - 1, i), t, rng.next_double(1.0, 20.0));
  }
  for (int l = 0; l + 1 < layers; ++l) {
    for (int i = 0; i < width; ++i) {
      for (int j = 0; j < width; ++j) {
        if (rng.next_double() < 0.6) {
          net.add_edge(node(l, i), node(l + 1, j), rng.next_double(0.5, 15.0));
        }
      }
    }
  }
  return net;
}

class MaxFlowProperty : public ::testing::TestWithParam<int> {};

TEST_P(MaxFlowProperty, DinicMatchesEdmondsKarp) {
  util::Pcg32 rng(static_cast<std::uint64_t>(GetParam()), 0xF10);
  NodeId s, t;
  FlowNetwork net = random_network(rng, s, t);
  FlowNetwork net2 = net;
  const double dinic = Dinic::solve(net, s, t).total_flow;
  const double ek = EdmondsKarp::solve(net2, s, t).total_flow;
  EXPECT_NEAR(dinic, ek, 1e-6 * std::max(1.0, dinic));
}

TEST_P(MaxFlowProperty, FlowConservation) {
  util::Pcg32 rng(static_cast<std::uint64_t>(GetParam()), 0xF11);
  NodeId s, t;
  FlowNetwork net = random_network(rng, s, t);
  Dinic::solve(net, s, t);
  // Net flow at each interior node must be zero.
  std::vector<double> balance(static_cast<std::size_t>(net.num_nodes()), 0.0);
  for (NodeId u = 0; u < net.num_nodes(); ++u) {
    for (EdgeId eid : net.incident(u)) {
      const auto& e = net.edge(eid);
      if (e.is_residual || net.edge_source(eid) != u) continue;
      const double f = net.flow(eid);
      balance[static_cast<std::size_t>(u)] -= f;
      balance[static_cast<std::size_t>(e.to)] += f;
    }
  }
  for (NodeId u = 0; u < net.num_nodes(); ++u) {
    if (u == s || u == t) continue;
    EXPECT_NEAR(balance[static_cast<std::size_t>(u)], 0.0, 1e-6);
  }
}

TEST_P(MaxFlowProperty, MinCutEqualsMaxFlow) {
  util::Pcg32 rng(static_cast<std::uint64_t>(GetParam()), 0xF12);
  NodeId s, t;
  FlowNetwork net = random_network(rng, s, t);
  const double flow = Dinic::solve(net, s, t).total_flow;
  const MinCut cut = extract_min_cut(net, s);
  EXPECT_TRUE(cut.source_side[static_cast<std::size_t>(s)]);
  EXPECT_FALSE(cut.source_side[static_cast<std::size_t>(t)]);
  EXPECT_NEAR(cut.capacity, flow, 1e-6 * std::max(1.0, flow));
}

INSTANTIATE_TEST_SUITE_P(RandomNetworks, MaxFlowProperty,
                         ::testing::Range(0, 25));

// The 20 layered networks of stream 0xF21 once cross-checked the push-relabel
// solver against Dinic. Push-relabel is gone; the suite keeps its name and
// now checks the Edmonds-Karp oracle against Dinic on the same networks.
class PushRelabelProperty : public ::testing::TestWithParam<int> {};

TEST_P(PushRelabelProperty, MatchesDinicOnRandomNetworks) {
  util::Pcg32 rng(static_cast<std::uint64_t>(GetParam()), 0xF21);
  NodeId s, t;
  FlowNetwork net = random_network(rng, s, t);
  FlowNetwork copy = net;
  const double dinic = Dinic::solve(copy, s, t).total_flow;
  const double ek = EdmondsKarp::solve(net, s, t).total_flow;
  EXPECT_NEAR(ek, dinic, 1e-6 * std::max(1.0, dinic));
}

INSTANTIATE_TEST_SUITE_P(RandomNetworks, PushRelabelProperty,
                         ::testing::Range(0, 20));

TEST(TimeBisection, SimplePipe) {
  // One storage at 10 B/s, one GPU demanding 100 bytes -> T* = 10 s.
  FlowNetwork net(4);
  const EdgeId supply = net.add_edge(0, 1, 10.0);
  net.add_edge(1, 2, 10.0);
  const EdgeId demand = net.add_edge(2, 3, kInfiniteCapacity);
  const ByteConstraint demands[] = {{demand, 100.0}};
  const ByteConstraint supplies[] = {{supply, 1e9}};
  const auto r = solve_time_bisection(net, 0, 3, demands, supplies);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.min_time_s, 10.0, 0.01);
  EXPECT_NEAR(r.throughput, 10.0, 0.1);
}

TEST(TimeBisection, ImbalanceDominates) {
  // Two GPUs: one fed at 10 B/s, the other at 1 B/s; both demand 50 bytes.
  // Aggregate bound says 100/11 ~ 9.1 s, but the starved GPU forces 50 s.
  FlowNetwork net(6);
  net.add_edge(0, 1, 10.0);
  net.add_edge(0, 2, 1.0);
  net.add_edge(1, 3, 10.0);
  net.add_edge(2, 4, 1.0);
  const EdgeId d0 = net.add_edge(3, 5, kInfiniteCapacity);
  const EdgeId d1 = net.add_edge(4, 5, kInfiniteCapacity);
  const ByteConstraint demands[] = {{d0, 50.0}, {d1, 50.0}};
  const auto r = solve_time_bisection(net, 0, 5, demands, {});
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.min_time_s, 50.0, 0.1);
}

TEST(TimeBisection, SupplyBytesLimitFeasibility) {
  // Demand 100 bytes but only 40 bytes of data exist at the storage node.
  FlowNetwork net(3);
  const EdgeId supply = net.add_edge(0, 1, 100.0);
  const EdgeId demand = net.add_edge(1, 2, kInfiniteCapacity);
  const ByteConstraint demands[] = {{demand, 100.0}};
  const ByteConstraint supplies[] = {{supply, 40.0}};
  const auto r = solve_time_bisection(net, 0, 2, demands, supplies);
  EXPECT_FALSE(r.feasible);
}

TEST(TimeBisection, ZeroDemandIsInstant) {
  FlowNetwork net(2);
  net.add_edge(0, 1, 5.0);
  const auto r = solve_time_bisection(net, 0, 1, {}, {});
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.min_time_s, 0.0);
}

TEST(TimeBisection, ThroughputScalesWithCapacity) {
  // Doubling every link should halve the epoch time.
  FlowNetwork net(4);
  net.add_edge(0, 1, 8.0);
  net.add_edge(1, 2, 8.0);
  const EdgeId demand = net.add_edge(2, 3, kInfiniteCapacity);
  const ByteConstraint demands[] = {{demand, 64.0}};
  const auto slow = solve_time_bisection(net, 0, 3, demands, {});
  FlowNetwork fast = net;
  fast.scale_capacities(2.0);
  const auto quick = solve_time_bisection(fast, 0, 3, demands, {});
  ASSERT_TRUE(slow.feasible && quick.feasible);
  EXPECT_NEAR(slow.min_time_s / quick.min_time_s, 2.0, 0.02);
}

TEST(TimeBisection, EdgeFlowsSatisfyDemand) {
  FlowNetwork net(4);
  net.add_edge(0, 1, 10.0);
  net.add_edge(1, 2, 10.0);
  const EdgeId demand = net.add_edge(2, 3, kInfiniteCapacity);
  const ByteConstraint demands[] = {{demand, 30.0}};
  const auto r = solve_time_bisection(net, 0, 3, demands, {});
  ASSERT_TRUE(r.feasible);
  ASSERT_GT(r.edge_flow.size(), static_cast<std::size_t>(demand));
  EXPECT_NEAR(r.edge_flow[static_cast<std::size_t>(demand)], 30.0, 0.1);
}

}  // namespace
}  // namespace moment::maxflow
