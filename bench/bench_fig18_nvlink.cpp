// Figure 18 — NVLink support: placement (c) with and without NVLink bridges
// between GPU pairs, using partitioned GPU caches so peer reads exercise the
// extra links. Paper: +11.7% on Machine A, +6.8% on Machine B.

#include "common.hpp"

using namespace moment;

int main() {
  bench::header("Figure 18: NVLink vs no-NVLink (placement c, IG)",
                "paper Fig. 18 (+11.7% Machine A, +6.8% Machine B)");

  const runtime::Workbench wb =
      runtime::Workbench::make(graph::DatasetId::kIG, bench::kScaleShift, 42);

  for (const auto& spec :
       {topology::make_machine_a(), topology::make_machine_b()}) {
    util::Table t({"config", "throughput (kseeds/s)", "epoch (s)"});
    double base = 0.0, nv = 0.0;
    for (bool nvlink : {false, true}) {
      runtime::ExperimentConfig c = bench::machine_config(
          &spec, graph::DatasetId::kIG, gnn::ModelKind::kGraphSage, 4);
      c.placement = topology::classic_placement(spec, 'c', 4, 8);
      c.placement->nvlink = nvlink;
      c.nvlink = nvlink;
      c.cache.gpu_cache_mode = ddak::GpuCacheMode::kPartitioned;
      // Partitioned caches hold G distinct hot slices; peers fetch over
      // NVLink when present, else over PCIe P2P.
      c.cache.gpu_cache_fraction = 0.01;
      const auto r = runtime::run_system(runtime::SystemKind::kMoment, c, wb);
      (nvlink ? nv : base) = r.throughput_seeds_per_s;
      t.add_row({nvlink ? "NVLink" : "no NVLink",
                 bench::kseeds(r.throughput_seeds_per_s),
                 util::Table::num(r.epoch_time_s, 2)});
    }
    std::printf("\n%s\n", spec.name.c_str());
    t.print(std::cout);
    std::printf("NVLink gain: %s (paper: %s)\n",
                util::Table::percent(nv / base - 1.0).c_str(),
                spec.name == "MachineA" ? "11.7%" : "6.8%");
  }
  return 0;
}
