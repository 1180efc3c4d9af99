// A small end-to-end library run whose output is pinned byte for byte by
// tests/golden/golden_library_run.txt (see tools/golden.py).
//
// It plans Machine A with 2 GPUs and 2 SSDs, builds the tiered store from
// the Plan with core::build_store, wires a kAuto CommPlan into both feature
// clients and the trainer, then trains GraphSAGE and then GAT for 3 epochs
// each on 2 workers at pipeline depth 2. Each epoch prints its loss and
// accuracy as hex floats (%a), so any change to a bit of the model, the
// kernels, the all-reduce or the optimizer step shows, followed by the
// epoch's `io:` and `comm:` lines. Nothing it prints depends on wall time
// or on the compute pool's size.
//
// Usage: golden_library_run

#include <cstdio>
#include <memory>
#include <vector>

#include "comm/planner.hpp"
#include "core/auto_module.hpp"
#include "gnn/synthetic.hpp"
#include "iostack/feature_store.hpp"
#include "runtime/parallel_trainer.hpp"

using namespace moment;

int main() {
  constexpr int kWorkers = 2;
  constexpr int kEpochs = 3;
  constexpr std::size_t kClasses = 8;
  constexpr std::size_t kDim = 32;

  const auto machine = topology::make_machine_a();
  core::AutoModuleConfig cfg;
  cfg.machine = &machine;
  cfg.dataset = graph::DatasetId::kIG;
  cfg.dataset_scale_shift = 4;
  cfg.num_gpus = kWorkers;
  cfg.num_ssds = 2;
  const runtime::Workbench bench = runtime::Workbench::make(
      cfg.dataset, cfg.dataset_scale_shift, cfg.seed);
  const core::Plan plan = core::AutoModule::plan(cfg, bench);

  const auto& g = bench.dataset.csr;
  const auto task = gnn::make_synthetic_task(g, kClasses, kDim, 0.4, 123);
  const core::BuiltStore built =
      core::build_store(plan, task.features, bench.profile.by_hotness_desc(),
                        g.num_vertices() / 16);
  std::printf("ssds %zu  cached rows %zu\n", built.array->size(),
              built.cached_rows);

  // build_store replicates every HBM bin on each GPU, so no row is remote
  // HBM and the peer route is wired but serves none: the `io:` lines' peer
  // share reads 0. The plan still models the all-reduce's link bytes.
  const auto topo = topology::instantiate(machine, plan.hardware_placement);
  const comm::CommPlan comm_plan =
      comm::CommPlanner(topo).plan(comm::AllReduceAlgo::kAuto);
  comm::LinkCounters link_counters(comm_plan.num_links);
  std::printf("comm plan: compiled %s over %d GPUs\n",
              comm::to_string(comm_plan.algo), comm_plan.num_gpus);

  std::vector<std::unique_ptr<iostack::TieredFeatureClient>> clients;
  std::vector<gnn::FeatureProvider*> providers;
  for (int w = 0; w < kWorkers; ++w) {
    iostack::PeerConfig peer;
    peer.gpu = w;
    peer.plan = &comm_plan;
    peer.counters = &link_counters;
    clients.push_back(std::make_unique<iostack::TieredFeatureClient>(
        *built.store, 256, iostack::IoEngineOptions{},
        iostack::GatherOptions{}, peer));
    providers.push_back(clients.back().get());
  }
  built.array->start_all();

  const auto train = sampling::select_train_vertices(g, 0.05, 7);
  runtime::EngineOptions engine;
  engine.pipeline_depth = 2;
  engine.comm_plan = &comm_plan;
  engine.link_counters = &link_counters;
  const struct {
    const char* name;
    gnn::ModelKind kind;
    std::size_t hidden_dim;
  } models[] = {{"sage", gnn::ModelKind::kGraphSage, 64},
                {"gat", gnn::ModelKind::kGat, 16}};
  for (const auto& m : models) {
    gnn::ModelConfig mcfg;
    mcfg.kind = m.kind;
    mcfg.in_dim = kDim;
    mcfg.hidden_dim = m.hidden_dim;
    mcfg.num_classes = kClasses;
    mcfg.gat_heads = 4;
    runtime::DataParallelTrainer trainer(g, providers, mcfg, {10, 5}, train,
                                         0.01f, 99, engine);
    for (int e = 0; e < kEpochs; ++e) {
      const auto stats = trainer.train_epoch(task.labels, 64);
      std::printf("%s epoch %d: loss %a  acc %a  batches %zu  fetched %zu  "
                  "replicas in sync: %s\n",
                  m.name, e, static_cast<double>(stats.mean_loss),
                  static_cast<double>(stats.mean_accuracy), stats.batches,
                  stats.fetched_vertices,
                  trainer.replicas_in_sync() ? "yes" : "NO");
      std::printf("  %s\n", runtime::io_report(stats).c_str());
      std::printf("  %s\n", runtime::comm_report(stats).c_str());
    }
  }
  built.array->stop_all();
  return 0;
}
