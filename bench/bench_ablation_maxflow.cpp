// Ablation — max-flow solver choice: Dinic vs Edmonds-Karp on compiled
// machine/cluster flow graphs of increasing size, plus an agreement check.
// Justifies using Dinic inside the time-bisection inner loop.

#include <chrono>

#include "common.hpp"
#include "maxflow/dinic.hpp"
#include "maxflow/edmonds_karp.hpp"
#include "topology/cluster.hpp"
#include "topology/flow_graph.hpp"

using namespace moment;

namespace {

double time_solver(const topology::FlowGraph& fg, int reps,
                   double (*solve)(maxflow::FlowNetwork&, maxflow::NodeId,
                                   maxflow::NodeId),
                   double* flow_out) {
  const auto t0 = std::chrono::steady_clock::now();
  double flow = 0.0;
  for (int i = 0; i < reps; ++i) {
    maxflow::FlowNetwork net = fg.net;
    flow = solve(net, fg.source, fg.sink);
  }
  *flow_out = flow;
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
             .count() /
         reps;
}

double run_dinic(maxflow::FlowNetwork& n, maxflow::NodeId s,
                 maxflow::NodeId t) {
  return maxflow::Dinic::solve(n, s, t).total_flow;
}
double run_ek(maxflow::FlowNetwork& n, maxflow::NodeId s, maxflow::NodeId t) {
  return maxflow::EdmondsKarp::solve(n, s, t).total_flow;
}

}  // namespace

int main() {
  bench::header("Ablation: max-flow solver choice",
                "engineering ablation for the Section-3.2 solver");

  struct Case {
    std::string name;
    topology::FlowGraph fg;
  };
  std::vector<Case> cases;
  {
    const auto a = topology::make_machine_a();
    cases.push_back({"MachineA placement c",
                     topology::compile_flow_graph(topology::instantiate(
                         a, topology::classic_placement(a, 'c', 4, 8)))});
    const auto b = topology::make_machine_b();
    cases.push_back({"MachineB placement d",
                     topology::compile_flow_graph(topology::instantiate(
                         b, topology::classic_placement(b, 'd', 4, 8)))});
    for (int machines : {4, 16, 64}) {
      topology::ClusterOptions co;
      co.num_machines = machines;
      const auto spec = topology::make_cluster(co);
      topology::Placement p;
      p.gpus_per_group.assign(spec.slot_groups.size(), 1);
      p.ssds_per_group.assign(spec.slot_groups.size(), 2);
      cases.push_back({"Cluster " + std::to_string(machines) + "x",
                       topology::compile_flow_graph(
                           topology::instantiate(spec, p))});
    }
  }

  util::Table t({"network", "nodes", "edges", "Dinic (us)", "EK (us)",
                 "agree"});
  for (const auto& c : cases) {
    double fd, fe;
    const int reps = 50;
    const double td = time_solver(c.fg, reps, run_dinic, &fd);
    const double te = time_solver(c.fg, reps, run_ek, &fe);
    const bool agree = std::abs(fd - fe) < 1e-6 * std::max(1.0, fd);
    t.add_row({c.name, std::to_string(c.fg.net.num_nodes()),
               std::to_string(c.fg.net.num_edges()),
               util::Table::num(td, 1), util::Table::num(te, 1),
               agree ? "yes" : "NO"});
  }
  t.print(std::cout);
  bench::note("both solvers must agree; Dinic wins on these shallow layered "
              "graphs, which is why the time-bisection loop uses it.");
  return 0;
}
