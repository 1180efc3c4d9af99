// DDAK planner: run the data-distribution-aware knapsack standalone for a
// fixed hardware placement — the paper's "DDAK module executed independently
// of max-flow to generalize to more datasets and models with specific
// hardware placement" (Artifact Description B.1).
//
// Usage: ddak_planner [machine a|b] [placement a|b|c|d] [dataset PA|IG|UK|CL]

#include <cstdio>
#include <cstring>
#include <iostream>

#include "ddak/ddak.hpp"
#include "ddak/workload.hpp"
#include "runtime/systems.hpp"
#include "sim/machine_sim.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace moment;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ddak_planner [a|b] [a|b|c|d] [PA|IG|UK|CL]\n"
               "  machine, placement and dataset (default a b IG)\n");
  return 2;
}

/// True if `text` is a single character in `allowed`; stores it in `out`.
bool parse_choice(const char* text, const char* allowed, char& out) {
  if (text[0] == '\0' || text[1] != '\0' ||
      std::strchr(allowed, text[0]) == nullptr) {
    return false;
  }
  out = text[0];
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  char machine = 'a';
  char layout = 'b';
  graph::DatasetId dataset = graph::DatasetId::kIG;
  bool dataset_ok = argc <= 3;
  if (argc > 3) {
    for (auto id : graph::kAllDatasets) {
      if (std::strcmp(argv[3], graph::dataset_name(id)) == 0) {
        dataset = id;
        dataset_ok = true;
      }
    }
  }
  if (argc > 4 || !dataset_ok ||
      (argc > 1 && !parse_choice(argv[1], "ab", machine)) ||
      (argc > 2 && !parse_choice(argv[2], "abcd", layout))) {
    return usage();
  }

  const auto spec = machine == 'a' ? topology::make_machine_a()
                                   : topology::make_machine_b();
  const auto placement = topology::classic_placement(spec, layout, 4, 8);
  std::printf("machine %s, placement (%c), dataset %s\n", spec.name.c_str(),
              layout, graph::dataset_name(dataset));

  const runtime::Workbench bench = runtime::Workbench::make(dataset, 3, 42);
  const auto workload = ddak::make_epoch_workload(
      bench.dataset, bench.profile, ddak::CacheConfig{}, 4);
  std::printf("epoch workload: %.1f GiB total, tiers GPU %.1f%% / CPU %.1f%% "
              "/ SSD %.1f%%\n",
              workload.total_bytes / util::kGiB,
              100 * workload.gpu_hit_fraction, 100 * workload.cpu_hit_fraction,
              100 * workload.ssd_fraction);

  const auto topo = topology::instantiate(spec, placement);
  const auto fg = topology::compile_flow_graph(topo);
  const auto pred = topology::predict(
      fg, ddak::to_flow_demand(workload, fg, ddak::SupplyModel::kFlexibleTier));
  std::printf("max-flow plan: epoch IO %.2f s (%.1f GiB/s)\n",
              pred.epoch_io_time_s, util::to_gib_per_s(pred.throughput));

  auto bins = ddak::make_bins(topo, fg, pred.per_storage_bytes,
                              bench.dataset.scaled.vertices, 0.005, 0.01);
  const auto merged = sim::merge_replicated_gpu_bins(bins);
  ddak::DdakOptions opt;
  opt.pool_size = ddak::default_pool_size(bench.dataset.scaled.vertices);
  const auto ddak_placement = ddak::ddak_place(merged, bench.profile, opt);
  const auto hash_placement = ddak::hash_place(merged, bench.profile);

  double total_target = 0.0;
  for (const auto& b : merged) total_target += b.traffic_target;
  util::Table t({"bin", "tier", "flow target", "DDAK share", "hash share",
                 "DDAK vertices"});
  const char* tiers[] = {"GPU", "CPU", "SSD"};
  for (std::size_t i = 0; i < merged.size(); ++i) {
    t.add_row({merged[i].name, tiers[static_cast<int>(merged[i].tier)],
               util::Table::percent(total_target > 0
                                        ? merged[i].traffic_target /
                                              total_target
                                        : 0),
               util::Table::percent(ddak_placement.bin_traffic_share[i]),
               util::Table::percent(hash_placement.bin_traffic_share[i]),
               std::to_string(ddak_placement.bin_count[i])});
  }
  t.print(std::cout);
  std::printf("traffic-target tracking error: DDAK %.4f vs hash %.4f\n",
              ddak_placement.traffic_share_error,
              hash_placement.traffic_share_error);

  for (const auto& [name, place] :
       {std::pair{"DDAK", &ddak_placement}, {"hash", &hash_placement}}) {
    const auto rep = sim::simulate_epoch(topo, fg, workload, merged, *place);
    std::printf("%s: simulated epoch %.2f s, QPI traffic %.1f GiB, "
                "imbalance CV %.3f\n",
                name, rep.epoch_time_s, rep.qpi_bytes / util::kGiB,
                rep.imbalance_cv);
  }
  return 0;
}
