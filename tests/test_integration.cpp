// Cross-module integration tests: the full Moment pipeline from AutoModule
// plan through the NVMe IO stack into data-parallel GNN training, plus the
// prediction-vs-simulation consistency the paper's Fig. 13 relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/auto_module.hpp"
#include "gnn/synthetic.hpp"
#include "iostack/feature_store.hpp"
#include "runtime/parallel_trainer.hpp"
#include "runtime/systems.hpp"

namespace moment {
namespace {

/// An AutoModule plan for `dataset` (scale shift 4, Machine A, 2 GPUs) and
/// the workbench it was made from.
struct Planned {
  runtime::Workbench bench;
  core::Plan plan;
};
Planned make_plan(graph::DatasetId dataset, int num_ssds,
                  const ddak::CacheConfig& cache = {}) {
  const auto spec = topology::make_machine_a();
  core::AutoModuleConfig cfg;
  cfg.machine = &spec;
  cfg.dataset = dataset;
  cfg.dataset_scale_shift = 4;  // small, fast
  cfg.num_gpus = 2;
  cfg.num_ssds = num_ssds;
  cfg.cache = cache;
  Planned p{
      runtime::Workbench::make(dataset, cfg.dataset_scale_shift, cfg.seed),
      {}};
  p.plan = core::AutoModule::plan(cfg, p.bench);
  return p;
}

TEST(Integration, PlanDrivesIoStackAndTraining) {
  // 1. Build a dataset and an AutoModule plan (placement + DDAK layout).
  const Planned p = make_plan(graph::DatasetId::kPA, 4);
  ASSERT_TRUE(p.plan.prediction.feasible);

  // 2. Materialise the DDAK layout in the functional tiered feature store.
  const auto& g = p.bench.dataset.csr;
  const auto task = gnn::make_synthetic_task(g, 4, 16, 0.3, 5);
  core::BuiltStore built = core::build_store(
      p.plan, task.features, p.bench.profile.by_hotness_desc(), 0);
  ASSERT_EQ(built.array->size(), 4u);
  iostack::TieredFeatureClient client0(*built.store), client1(*built.store);
  built.array->start_all();

  // 3. Data-parallel training THROUGH the IO stack.
  gnn::ModelConfig mcfg;
  mcfg.kind = gnn::ModelKind::kGraphSage;
  mcfg.in_dim = 16;
  mcfg.hidden_dim = 16;
  mcfg.num_classes = 4;
  auto train = sampling::select_train_vertices(g, 0.05, 3);
  runtime::DataParallelTrainer trainer(
      g, {&client0, &client1}, mcfg, {5, 5}, train, 0.01f, 7);
  runtime::EpochStats stats;
  for (int epoch = 0; epoch < 4; ++epoch) {
    stats = trainer.train_epoch(task.labels, 32);
  }
  built.array->stop_all();

  EXPECT_TRUE(trainer.replicas_in_sync());
  EXPECT_GT(stats.mean_accuracy, 0.5f);
  // The hot tiers and the SSD path must all have been exercised.
  EXPECT_GT(client0.io_resilience().gpu_hits, 0u);
  EXPECT_GT(client0.io_resilience().ssd_rows, 0u);
  EXPECT_GT(client1.io_resilience().ssd_rows, 0u);
}

TEST(Integration, HotTierAbsorbsMostTraffic) {
  // DDAK puts the hottest vertices in GPU/CPU caches, so the share of
  // gathers served without SSD reads must exceed the caches' capacity share.
  ddak::CacheConfig cache;
  cache.gpu_cache_fraction = 0.01;
  cache.cpu_cache_fraction = 0.02;
  const Planned p = make_plan(graph::DatasetId::kIG, 2, cache);

  const auto& g = p.bench.dataset.csr;
  const auto task = gnn::make_synthetic_task(g, 2, 8, 0.2, 9);
  core::BuiltStore built = core::build_store(
      p.plan, task.features, p.bench.profile.by_hotness_desc(), 0);
  iostack::TieredFeatureClient client(*built.store);
  built.array->start_all();

  sampling::NeighborSampler sampler(g, {10, 5});
  auto train = sampling::select_train_vertices(g, 0.02, 4);
  util::Pcg32 rng(5);
  for (int b = 0; b < 8; ++b) {
    const auto sg = sampler.sample(
        std::span<const graph::VertexId>(train.data() + b * 16, 16), rng);
    gnn::Tensor out(sg.fetch_set.size(), 8);
    client.gather(sg.fetch_set, out);
  }
  built.array->stop_all();

  const auto s = client.io_resilience();
  const double total = static_cast<double>(s.gpu_hits + s.cpu_hits +
                                           s.dedup_saved_reads + s.ssd_rows);
  const double cache_share =
      static_cast<double>(s.gpu_hits + s.cpu_hits) / total;
  // Caches hold 3% of vertices but must serve far more than 3% of gathers.
  EXPECT_GT(cache_share, 0.10);
}

TEST(Integration, BuildStoreMatchesConstructThenWarm) {
  // build_store against the store built by hand from the same plan:
  // construct over id-ordered SSDs, enable the row cache, warm it from the
  // ranking. Over a run of sampled batches both return the same bytes and
  // every device serves the same reads and bytes per gather.
  const Planned p = make_plan(graph::DatasetId::kPA, 4);
  const auto& g = p.bench.dataset.csr;
  const auto task = gnn::make_synthetic_task(g, 4, 16, 0.3, 5);
  const auto ranking = p.bench.profile.by_hotness_desc();
  const std::size_t cache_rows = g.num_vertices() / 16;
  const core::BuiltStore built =
      core::build_store(p.plan, task.features, ranking, cache_rows);

  using Kind = iostack::BinBacking::Kind;
  std::vector<iostack::BinBacking> backings;
  int ssds = 0;
  for (const auto& bin : p.plan.bins) {
    if (bin.tier == topology::StorageTier::kSsd) {
      backings.push_back({Kind::kSsd, ssds++});
    } else if (bin.tier == topology::StorageTier::kCpuDram) {
      backings.push_back({Kind::kCpuCache, -1});
    } else {
      backings.push_back({Kind::kGpuCache, -1});
    }
  }
  iostack::SsdOptions sopts;
  sopts.capacity_bytes = g.num_vertices() * iostack::kPageBytes;
  iostack::SsdArray array(static_cast<std::size_t>(ssds), sopts);
  iostack::TieredFeatureStore store(
      task.features, p.plan.data_placement.bin_of_vertex, backings, array);
  store.enable_row_cache({cache_rows});
  ASSERT_EQ(store.warm_row_cache(ranking), built.cached_rows);
  ASSERT_GT(built.cached_rows, 0u);
  ASSERT_EQ(built.array->size(), array.size());

  iostack::TieredFeatureClient helper_client(*built.store);
  iostack::TieredFeatureClient hand_client(store);
  built.array->start_all();
  array.start_all();
  const auto device_stats = [](iostack::SsdArray& a) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> reads_bytes;
    for (std::size_t s = 0; s < a.size(); ++s) {
      reads_bytes.emplace_back(a.ssd(s).stats().reads,
                               a.ssd(s).stats().bytes_read);
    }
    return reads_bytes;
  };
  sampling::NeighborSampler sampler(g, {10, 5});
  const auto train = sampling::select_train_vertices(g, 0.05, 3);
  util::Pcg32 rng(5);
  std::uint64_t ssd_bytes = 0;  // over all devices, after the last batch
  for (std::size_t b = 0; b + 32 <= train.size(); b += 32) {
    const auto sg = sampler.sample(
        std::span<const graph::VertexId>(train.data() + b, 32), rng);
    const std::size_t n = sg.fetch_set.size();
    gnn::Tensor from_helper(n, 16), from_hand(n, 16);
    helper_client.gather(sg.fetch_set, from_helper);
    hand_client.gather(sg.fetch_set, from_hand);
    ASSERT_EQ(0, std::memcmp(from_helper.data(), from_hand.data(),
                             n * 16 * sizeof(float)))
        << "batch at " << b;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(0, std::memcmp(from_helper.row(i).data(),
                               task.features.row(sg.fetch_set[i]).data(),
                               16 * sizeof(float)));
    }
    const auto helper_reads = device_stats(*built.array);
    EXPECT_EQ(helper_reads, device_stats(array)) << "batch at " << b;
    ssd_bytes = 0;
    for (const auto& [reads, bytes] : helper_reads) ssd_bytes += bytes;
  }
  built.array->stop_all();
  array.stop_all();
  EXPECT_GT(ssd_bytes, 0u);  // the SSD path was exercised
  EXPECT_EQ(helper_client.io_resilience().dedup_saved_reads,
            hand_client.io_resilience().dedup_saved_reads);
}

TEST(Integration, BuildStoreSizesDevicesInPackedPages) {
  // 32 floats are 128 B, 32 rows to a page. Every device gets the pages of
  // the two fullest devices: its own and, after a failure, another
  // device's. One SSD has no survivor and gets no spare pages.
  for (const int num_ssds : {4, 1}) {
    const Planned p = make_plan(graph::DatasetId::kIG, num_ssds);
    const auto& g = p.bench.dataset.csr;
    const auto task = gnn::make_synthetic_task(g, 8, 32, 0.4, 123);
    const core::BuiltStore built = core::build_store(
        p.plan, task.features, p.bench.profile.by_hotness_desc(), 0);
    ASSERT_EQ(built.array->size(), static_cast<std::size_t>(num_ssds));
    std::vector<std::size_t> pages(built.array->size(), 0);
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto loc = built.store->location(v);
      if (loc.kind == iostack::BinBacking::Kind::kSsd) {
        ++pages[static_cast<std::size_t>(loc.ssd)];
      }
    }
    for (std::size_t& rows : pages) rows = (rows + 31) / 32;
    std::sort(pages.rbegin(), pages.rend());
    const std::size_t expected =
        num_ssds == 1 ? pages[0] : pages[0] + pages[1];
    for (std::size_t s = 0; s < built.array->size(); ++s) {
      EXPECT_EQ(built.array->ssd(s).capacity(), expected * iostack::kPageBytes)
          << num_ssds << " SSDs, device " << s;
    }
    EXPECT_LT(expected, g.num_vertices() / 8u) << num_ssds << " SSDs";
  }
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
