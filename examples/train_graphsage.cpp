// End-to-end functional training: GraphSAGE node classification on a scaled
// IGB-like graph, with features placed across GPU/CPU caches and the
// simulated NVMe array by DDAK, gathered through the multi-GPU IO stack, and
// trained data-parallel with gradient averaging — the full Moment runtime
// path at laptop scale.
//
// Usage: train_graphsage [epochs] [workers] [--comm-plan=flat|ring|tree|auto]
//
// --comm-plan compiles a topology-aware CommPlan for the chosen placement:
// the gradient all-reduce stays bit-identical, but its modeled transport
// (per-link bytes, predicted comm seconds) follows the plan, and remote
// GPU-HBM rows are served over planned peer routes instead of the host copy.

#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli.hpp"
#include "comm/planner.hpp"
#include "core/auto_module.hpp"
#include "gnn/kernels.hpp"
#include "gnn/synthetic.hpp"
#include "iostack/feature_store.hpp"
#include "runtime/parallel_trainer.hpp"

using namespace moment;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: train_graphsage [epochs] [workers] "
               "[--comm-plan=flat|ring|tree|auto]\n"
               "  epochs and workers are positive integers (default 5 2)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  comm::AllReduceAlgo algo = comm::AllReduceAlgo::kAuto;
  bool use_comm_plan = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--comm-plan=", 12) == 0) {
      use_comm_plan = true;
      try {
        algo = comm::parse_algo(argv[i] + 12);
      } catch (const std::invalid_argument&) {
        return usage();
      }
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() > 2) return usage();
  int epochs = 5;
  int workers = 2;
  if ((positional.size() > 0 &&
       !examples::parse_int(positional[0], 1, epochs)) ||
      (positional.size() > 1 &&
       !examples::parse_int(positional[1], 1, workers))) {
    return usage();
  }

  // Plan: placement + DDAK layout for a Machine-A-like box.
  const auto machine = topology::make_machine_a();
  core::AutoModuleConfig cfg;
  cfg.machine = &machine;
  cfg.dataset = graph::DatasetId::kIG;
  cfg.dataset_scale_shift = 4;
  cfg.num_gpus = workers;
  cfg.num_ssds = 4;
  const runtime::Workbench bench = runtime::Workbench::make(
      cfg.dataset, cfg.dataset_scale_shift, cfg.seed);
  const core::Plan plan = core::AutoModule::plan(cfg, bench);
  std::printf("%s\n", plan.to_string(machine).c_str());

  // Materialise the layout in the functional tiered store.
  const auto& g = bench.dataset.csr;
  constexpr std::size_t kClasses = 8;
  constexpr std::size_t kDim = 32;
  const auto task = gnn::make_synthetic_task(g, kClasses, kDim, 0.4, 123);

  std::vector<iostack::BinBacking> backings;
  int ssd = 0;
  for (const auto& bin : plan.bins) {
    switch (bin.tier) {
      case topology::StorageTier::kGpuHbm:
        backings.push_back({iostack::BinBacking::Kind::kGpuCache, -1});
        break;
      case topology::StorageTier::kCpuDram:
        backings.push_back({iostack::BinBacking::Kind::kCpuCache, -1});
        break;
      case topology::StorageTier::kSsd:
        backings.push_back({iostack::BinBacking::Kind::kSsd, ssd++});
        break;
    }
  }
  iostack::SsdOptions sopts;
  sopts.capacity_bytes =
      static_cast<std::size_t>(g.num_vertices()) * iostack::kPageBytes;
  iostack::SsdArray array(static_cast<std::size_t>(ssd), sopts);
  iostack::TieredFeatureStore store(task.features,
                                    plan.data_placement.bin_of_vertex,
                                    backings, array);

  // Shared hot-row cache between the static tiers and the SSDs, seeded from
  // the pre-sampling hotness profile (the same one DDAK placed by).
  iostack::RowCacheOptions cache_opts;
  cache_opts.capacity_rows = g.num_vertices() / 16;
  store.enable_row_cache(cache_opts);
  const std::size_t warmed =
      store.warm_row_cache(bench.profile.by_hotness_desc());
  std::printf("hot-row cache: %zu rows capacity, %zu seeded from hotness\n",
              cache_opts.capacity_rows, warmed);

  // Optional topology-aware comm plan, compiled for the placement the
  // auto-module chose (same topology the flow predictor ranked).
  const auto topo = topology::instantiate(machine, plan.hardware_placement);
  std::unique_ptr<comm::CommPlan> comm_plan;
  std::unique_ptr<comm::LinkCounters> link_counters;
  if (use_comm_plan) {
    const comm::CommPlanner planner(topo);
    comm_plan = std::make_unique<comm::CommPlan>(planner.plan(algo));
    link_counters = std::make_unique<comm::LinkCounters>(comm_plan->num_links);
    std::printf("comm plan: requested %s, compiled %s over %d GPUs\n",
                comm::to_string(algo), comm::to_string(comm_plan->algo),
                comm_plan->num_gpus);
  }

  std::vector<std::unique_ptr<iostack::TieredFeatureClient>> clients;
  std::vector<gnn::FeatureProvider*> providers;
  for (int w = 0; w < workers; ++w) {
    iostack::PeerConfig peer;
    peer.gpu = w;
    peer.plan = comm_plan.get();
    peer.counters = link_counters.get();
    clients.push_back(std::make_unique<iostack::TieredFeatureClient>(
        store, 256, iostack::IoEngineOptions{}, iostack::GatherOptions{},
        peer));
    providers.push_back(clients.back().get());
  }
  array.start_all();

  // Data-parallel training through the IO stack.
  gnn::ModelConfig mcfg;
  mcfg.kind = gnn::ModelKind::kGraphSage;
  mcfg.in_dim = kDim;
  mcfg.hidden_dim = 64;
  mcfg.num_classes = kClasses;
  auto train = sampling::select_train_vertices(g, 0.05, 7);
  runtime::EngineOptions engine_opts;
  engine_opts.comm_plan = comm_plan.get();
  engine_opts.link_counters = link_counters.get();
  runtime::DataParallelTrainer trainer(g, providers, mcfg, {10, 5}, train,
                                       0.01f, 99, engine_opts);
  std::printf("training %zu vertices, %d workers, %zu-vertex graph, "
              "GEMM isa %s\n",
              train.size(), workers, static_cast<std::size_t>(g.num_vertices()),
              gnn::kernels::isa());

  // Bytes each SSD served so far, for the per-epoch throughput line.
  const auto ssd_bytes = [&array] {
    std::vector<std::uint64_t> b(array.size());
    for (std::size_t s = 0; s < b.size(); ++s) {
      b[s] = array.ssd(s).stats().bytes_read;
    }
    return b;
  };
  for (int e = 0; e < epochs; ++e) {
    const std::vector<std::uint64_t> bytes_before = ssd_bytes();
    const auto stats = trainer.train_epoch(task.labels, 64);
    const std::vector<std::uint64_t> bytes_after = ssd_bytes();
    std::printf("epoch %d: loss %.9g  acc %.3f  batches %zu  "
                "fetched %zu vertices  (%.2f s, replicas in sync: %s)\n",
                e, stats.mean_loss, stats.mean_accuracy, stats.batches,
                stats.fetched_vertices, stats.wall_time_s,
                trainer.replicas_in_sync() ? "yes" : "NO");
    std::printf("  stages (slowest worker): sample %.3fs  gather %.3fs  "
                "compute %.3fs  step %.3fs  allreduce %.3fs  | "
                "IO hidden by pipeline: %.3fs (overlap %.0f%%)\n",
                stats.stage_max.sample_s, stats.stage_max.gather_s(),
                stats.stage_max.compute_s, stats.stage_max.optimizer_s,
                stats.allreduce_s, stats.stage_max.hidden_io_s,
                100.0 * stats.overlap_ratio);
    std::printf("  %s\n", runtime::io_report(stats).c_str());
    // Per-SSD throughput over the epoch wall time; a paced array also shows
    // how busy each device was (bytes / (wall x pace)).
    std::printf("  ssd MB/s:");
    for (std::size_t s = 0; s < bytes_after.size(); ++s) {
      const double bytes =
          static_cast<double>(bytes_after[s] - bytes_before[s]);
      std::printf("  %zu: %.1f", s, bytes / stats.wall_time_s / 1e6);
      if (sopts.max_bytes_per_s > 0.0) {
        std::printf(" (%.0f%% busy)", 100.0 * bytes / (stats.wall_time_s *
                                                       sopts.max_bytes_per_s));
      }
    }
    std::printf("\n");
    const std::string comm_line = runtime::comm_report(stats);
    if (!comm_line.empty()) std::printf("  %s\n", comm_line.c_str());
  }
  array.stop_all();
  return 0;
}
