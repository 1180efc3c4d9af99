// Cross-module integration tests: the full Moment pipeline from AutoModule
// plan through the NVMe IO stack into data-parallel GNN training, plus the
// prediction-vs-simulation consistency the paper's Fig. 13 relies on.

#include <gtest/gtest.h>

#include <memory>

#include "core/auto_module.hpp"
#include "gnn/synthetic.hpp"
#include "iostack/feature_store.hpp"
#include "runtime/parallel_trainer.hpp"
#include "runtime/systems.hpp"

namespace moment {
namespace {

TEST(Integration, PlanDrivesIoStackAndTraining) {
  // 1. Build a dataset and an AutoModule plan (placement + DDAK layout).
  const auto spec = topology::make_machine_a();
  core::AutoModuleConfig cfg;
  cfg.machine = &spec;
  cfg.dataset = graph::DatasetId::kPA;
  cfg.dataset_scale_shift = 4;  // small, fast
  cfg.num_gpus = 2;
  cfg.num_ssds = 4;
  const runtime::Workbench bench =
      runtime::Workbench::make(cfg.dataset, cfg.dataset_scale_shift, cfg.seed);
  const core::Plan plan = core::AutoModule::plan(cfg, bench);
  ASSERT_TRUE(plan.prediction.feasible);

  // 2. Materialise the DDAK layout in the functional tiered feature store.
  const auto& g = bench.dataset.csr;
  const auto task = gnn::make_synthetic_task(g, 4, 16, 0.3, 5);

  // Map plan bins to physical backings (SSD ordinals in bin order).
  std::vector<iostack::BinBacking> backings;
  int ssd_ordinal = 0;
  for (const auto& bin : plan.bins) {
    iostack::BinBacking b;
    switch (bin.tier) {
      case topology::StorageTier::kGpuHbm:
        b.kind = iostack::BinBacking::Kind::kGpuCache;
        break;
      case topology::StorageTier::kCpuDram:
        b.kind = iostack::BinBacking::Kind::kCpuCache;
        break;
      case topology::StorageTier::kSsd:
        b.kind = iostack::BinBacking::Kind::kSsd;
        b.ssd = ssd_ordinal++;
        break;
    }
    backings.push_back(b);
  }
  ASSERT_EQ(ssd_ordinal, 4);

  iostack::SsdOptions sopts;
  sopts.capacity_bytes =
      static_cast<std::size_t>(g.num_vertices()) * iostack::kPageBytes;
  iostack::SsdArray array(static_cast<std::size_t>(ssd_ordinal), sopts);
  iostack::TieredFeatureStore store(task.features,
                                    plan.data_placement.bin_of_vertex,
                                    backings, array);
  auto client0 = std::make_unique<iostack::TieredFeatureClient>(store);
  auto client1 = std::make_unique<iostack::TieredFeatureClient>(store);
  array.start_all();

  // 3. Data-parallel training THROUGH the IO stack.
  gnn::ModelConfig mcfg;
  mcfg.kind = gnn::ModelKind::kGraphSage;
  mcfg.in_dim = 16;
  mcfg.hidden_dim = 16;
  mcfg.num_classes = 4;
  auto train = sampling::select_train_vertices(g, 0.05, 3);
  runtime::DataParallelTrainer trainer(
      g, {client0.get(), client1.get()}, mcfg, {5, 5}, train, 0.01f, 7);
  runtime::EpochStats stats;
  for (int epoch = 0; epoch < 4; ++epoch) {
    stats = trainer.train_epoch(task.labels, 32);
  }
  array.stop_all();

  EXPECT_TRUE(trainer.replicas_in_sync());
  EXPECT_GT(stats.mean_accuracy, 0.5f);
  // The hot tiers and the SSD path must all have been exercised.
  EXPECT_GT(client0->io_resilience().gpu_hits, 0u);
  EXPECT_GT(client0->io_resilience().ssd_rows, 0u);
  EXPECT_GT(client1->io_resilience().ssd_rows, 0u);
}

TEST(Integration, HotTierAbsorbsMostTraffic) {
  // DDAK puts the hottest vertices in GPU/CPU caches, so the share of
  // gathers served without SSD reads must exceed the caches' capacity share.
  const auto spec = topology::make_machine_a();
  core::AutoModuleConfig cfg;
  cfg.machine = &spec;
  cfg.dataset = graph::DatasetId::kIG;
  cfg.dataset_scale_shift = 4;
  cfg.num_gpus = 2;
  cfg.num_ssds = 2;
  cfg.cache.gpu_cache_fraction = 0.01;
  cfg.cache.cpu_cache_fraction = 0.02;
  const runtime::Workbench bench =
      runtime::Workbench::make(cfg.dataset, cfg.dataset_scale_shift, cfg.seed);
  const core::Plan plan = core::AutoModule::plan(cfg, bench);

  const auto& g = bench.dataset.csr;
  const auto task = gnn::make_synthetic_task(g, 2, 8, 0.2, 9);
  std::vector<iostack::BinBacking> backings;
  int ssd = 0;
  for (const auto& bin : plan.bins) {
    if (bin.tier == topology::StorageTier::kSsd) {
      backings.push_back({iostack::BinBacking::Kind::kSsd, ssd++});
    } else if (bin.tier == topology::StorageTier::kCpuDram) {
      backings.push_back({iostack::BinBacking::Kind::kCpuCache, -1});
    } else {
      backings.push_back({iostack::BinBacking::Kind::kGpuCache, -1});
    }
  }
  iostack::SsdOptions sopts;
  sopts.capacity_bytes =
      static_cast<std::size_t>(g.num_vertices()) * iostack::kPageBytes;
  iostack::SsdArray array(static_cast<std::size_t>(ssd), sopts);
  iostack::TieredFeatureStore store(task.features,
                                    plan.data_placement.bin_of_vertex,
                                    backings, array);
  iostack::TieredFeatureClient client(store);
  array.start_all();

  sampling::NeighborSampler sampler(g, {10, 5});
  auto train = sampling::select_train_vertices(g, 0.02, 4);
  util::Pcg32 rng(5);
  for (int b = 0; b < 8; ++b) {
    const auto sg = sampler.sample(
        std::span<const graph::VertexId>(train.data() + b * 16, 16), rng);
    gnn::Tensor out(sg.fetch_set.size(), 8);
    client.gather(sg.fetch_set, out);
  }
  array.stop_all();

  const auto s = client.io_resilience();
  const double total = static_cast<double>(s.gpu_hits + s.cpu_hits +
                                           s.dedup_saved_reads + s.ssd_rows);
  const double cache_share =
      static_cast<double>(s.gpu_hits + s.cpu_hits) / total;
  // Caches hold 3% of vertices but must serve far more than 3% of gathers.
  EXPECT_GT(cache_share, 0.10);
}

TEST(Integration, PredictionTracksSimulationForMoment) {
  // Fig.-13 consistency: for Moment's own plans, the max-flow predicted
  // epoch time and the fluid-simulated epoch time agree within a modest
  // error across datasets and GPU counts.
  for (auto id : {graph::DatasetId::kPA, graph::DatasetId::kIG}) {
    const runtime::Workbench bench = runtime::Workbench::make(id, 4, 11);
    for (int gpus : {2, 4}) {
      for (const auto& spec :
           {topology::make_machine_a(), topology::make_machine_b()}) {
        runtime::ExperimentConfig c;
        c.machine = &spec;
        c.dataset = id;
        c.num_gpus = gpus;
        c.num_ssds = 8;
        const auto r =
            runtime::run_system(runtime::SystemKind::kMoment, c, bench);
        ASSERT_FALSE(r.oom);
        const double err =
            std::abs(r.predicted_epoch_time_s - r.epoch_time_s) /
            r.epoch_time_s;
        EXPECT_LT(err, 0.30)
            << spec.name << " " << graph::dataset_name(id) << " gpus=" << gpus
            << ": predicted " << r.predicted_epoch_time_s << " measured "
            << r.epoch_time_s;
      }
    }
  }
}

TEST(Integration, EndToEndShapesMatchPaper) {
  // The headline claims, at reduced scale: Moment >= best classic placement,
  // scaling 1->4 GPUs clearly better than placement (d).
  const auto spec = topology::make_machine_b();
  const runtime::Workbench bench =
      runtime::Workbench::make(graph::DatasetId::kIG, 3, 42);

  runtime::ExperimentConfig c;
  c.machine = &spec;
  c.num_ssds = 8;

  // Moment vs classic c at 4 GPUs.
  c.num_gpus = 4;
  const auto moment4 = runtime::run_system(runtime::SystemKind::kMoment, c,
                                           bench);
  c.default_classic = 'c';
  const auto classic4 =
      runtime::run_system(runtime::SystemKind::kMHyperion, c, bench);
  EXPECT_GE(moment4.throughput_seeds_per_s,
            classic4.throughput_seeds_per_s * 0.99);

  // Scaling: Moment 1 -> 4 GPUs.
  c.num_gpus = 1;
  const auto moment1 = runtime::run_system(runtime::SystemKind::kMoment, c,
                                           bench);
  const double scaling = moment4.throughput_seeds_per_s /
                         moment1.throughput_seeds_per_s;
  EXPECT_GT(scaling, 1.5);  // paper: 2.21x on machine B
  EXPECT_LT(scaling, 4.5);
}

}  // namespace
}  // namespace moment
