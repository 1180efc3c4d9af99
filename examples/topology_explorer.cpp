// Topology explorer: inspect a machine's communication topology, enumerate
// hardware placements, watch the symmetry reduction work, and name the
// bottleneck links of any layout via the min cut — the diagnosis the paper
// does by hand in Section 2.3 ("Bus 9 saturates", "Bus 16 is contended").
//
// Usage: topology_explorer [a|b] [num_gpus] [num_ssds]

#include <cstdio>
#include <cstring>
#include <iostream>
#include <stdexcept>

#include "cli.hpp"
#include "maxflow/dinic.hpp"
#include "maxflow/min_cut.hpp"
#include "placement/search.hpp"
#include "topology/flow_graph.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace moment;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: topology_explorer [a|b] [num_gpus] [num_ssds]\n"
               "  num_gpus >= 1 and num_ssds >= 0 (default b 4 8)\n");
  return 2;
}

void diagnose_bottlenecks(const topology::MachineSpec& spec,
                          const topology::Placement& p) {
  const auto topo = topology::instantiate(spec, p);
  topology::FlowGraphOptions opts;
  opts.gpu_cache = false;  // fabric-only view for bottleneck naming
  auto fg = topology::compile_flow_graph(topo, opts);
  maxflow::FlowNetwork net = fg.net;
  const auto result = maxflow::Dinic::solve(net, fg.source, fg.sink);
  const auto cut = maxflow::extract_min_cut(net, fg.source);

  std::printf("  fabric max flow: %.1f GiB/s; bottleneck links:\n",
              util::to_gib_per_s(result.total_flow));
  for (maxflow::EdgeId e : cut.cut_edges) {
    // Map the cut edge back to a physical link label where possible.
    for (const auto& le : fg.link_edges) {
      if (le.ab == e || le.ba == e) {
        const auto& l = topo.link(le.link);
        std::printf("    %-8s %s <-> %s  (%.1f GiB/s)\n",
                    l.label.empty() ? "-" : l.label.c_str(),
                    topo.device(l.a).name.c_str(),
                    topo.device(l.b).name.c_str(),
                    util::to_gib_per_s(net.original_capacity(e)));
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* which = argc > 1 ? argv[1] : "b";
  int gpus = 4;
  int ssds = 8;
  if (argc > 4 ||
      (std::strcmp(which, "a") != 0 && std::strcmp(which, "b") != 0) ||
      (argc > 2 && !examples::parse_int(argv[2], 1, gpus)) ||
      (argc > 3 && !examples::parse_int(argv[3], 0, ssds))) {
    return usage();
  }

  const topology::MachineSpec spec =
      which[0] == 'a' ? topology::make_machine_a() : topology::make_machine_b();
  std::printf("%s\n%s\n\nSkeleton:\n%s\n", spec.name.c_str(),
              spec.description.c_str(), spec.skeleton.to_string().c_str());

  // Enumerate and rank placements.
  placement::SearchOptions opts;
  opts.num_gpus = gpus;
  opts.num_ssds = ssds;
  // An IGB-like byte mix so the ranking is meaningful.
  const double total = 400.0 * util::kGiB;
  opts.per_gpu_demand_bytes = total / gpus;
  opts.per_tier_bytes = {0.11 * total, 0.15 * total, 0.74 * total};
  opts.gpu_hbm_bytes = 0.11 * total / gpus;
  opts.keep_top = 5;
  const auto result = placement::search_placements(spec, opts);
  std::printf("placements: %zu feasible, %zu after isomorphic reduction\n\n",
              result.total_combinations, result.evaluated);
  if (result.top.empty()) {
    std::fprintf(stderr, "no placement of %d GPUs and %d SSDs fits %s\n",
                 gpus, ssds, spec.name.c_str());
    return 1;
  }

  util::Table t({"#", "placement", "predicted epoch IO (s)",
                 "throughput (GiB/s)"});
  for (std::size_t i = 0; i < result.top.size(); ++i) {
    const auto& c = result.top[i];
    t.add_row({std::to_string(i + 1),
               placement::describe(spec, c.placement),
               util::Table::num(c.prediction.epoch_io_time_s, 2),
               util::Table::num(util::to_gib_per_s(c.score), 1)});
  }
  t.print(std::cout);

  std::printf("\nBottleneck diagnosis (min cut):\n");
  for (char classic : {'b', 'c'}) {
    try {
      const auto p = topology::classic_placement(spec, classic, gpus, ssds);
      std::printf("placement (%c): %s\n", classic,
                  placement::describe(spec, p).c_str());
      diagnose_bottlenecks(spec, p);
    } catch (const std::invalid_argument&) {
      std::printf("placement (%c): does not fit %d GPUs and %d SSDs\n",
                  classic, gpus, ssds);
    }
  }
  std::printf("best searched placement:\n");
  diagnose_bottlenecks(spec, result.best().placement);
  return 0;
}
