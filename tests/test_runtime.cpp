// Tests for the runtime systems (Moment vs baselines, OOM rules, cost
// model) and the functional data-parallel trainer (DDP invariants).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "gnn/synthetic.hpp"
#include "graph/generators.hpp"
#include "iostack/feature_store.hpp"
#include "runtime/parallel_trainer.hpp"
#include "runtime/systems.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "util/rng.hpp"

namespace moment::runtime {
namespace {

ExperimentConfig base_config(const topology::MachineSpec* spec) {
  ExperimentConfig c;
  c.machine = spec;
  c.dataset = graph::DatasetId::kIG;
  c.dataset_scale_shift = 3;
  c.num_gpus = 4;
  c.num_ssds = 8;
  return c;
}

TEST(Systems, NamesAndCosts) {
  EXPECT_STREQ(system_name(SystemKind::kMoment), "Moment");
  EXPECT_STREQ(system_name(SystemKind::kDistDgl), "DistDGL");
  // Paper Section 4.2: the single machine is about half the cluster's TCO.
  EXPECT_NEAR(machine_tco_usd() / cluster_tco_usd(), 0.5, 0.05);
}

TEST(Systems, MomentBeatsBaselinesOnMachineB) {
  const auto spec = topology::make_machine_b();
  const Workbench bench = Workbench::make(graph::DatasetId::kIG, 3, 42);
  ExperimentConfig c = base_config(&spec);
  const auto moment = run_system(SystemKind::kMoment, c, bench);
  const auto hyperion = run_system(SystemKind::kMHyperion, c, bench);
  const auto gids = run_system(SystemKind::kMGids, c, bench);
  ASSERT_FALSE(moment.oom);
  ASSERT_FALSE(hyperion.oom);
  ASSERT_FALSE(gids.oom);
  EXPECT_LT(moment.epoch_time_s, hyperion.epoch_time_s);
  EXPECT_LT(moment.epoch_time_s, gids.epoch_time_s);
  EXPECT_GT(moment.throughput_seeds_per_s, hyperion.throughput_seeds_per_s);
}

TEST(Systems, MomentOutperformsDistDglOnPA) {
  const auto spec = topology::make_machine_a();
  ExperimentConfig c = base_config(&spec);
  c.dataset = graph::DatasetId::kPA;
  const Workbench bench = Workbench::make(graph::DatasetId::kPA, 3, 42);
  const auto moment = run_system(SystemKind::kMoment, c, bench);
  const auto distdgl = run_system(SystemKind::kDistDgl, c, bench);
  ASSERT_FALSE(moment.oom);
  ASSERT_FALSE(distdgl.oom) << distdgl.oom_reason;
  // Paper: up to 3.02x on the datasets DistDGL can run, at ~half the cost.
  const double speedup =
      moment.throughput_seeds_per_s / distdgl.throughput_seeds_per_s;
  EXPECT_GT(speedup, 1.2);
  EXPECT_LT(speedup, 8.0);
  EXPECT_LT(moment.monetary_cost_usd, distdgl.monetary_cost_usd);
}

TEST(Systems, DistDglOomsOnLargeDatasets) {
  ExperimentConfig c;
  for (auto id : {graph::DatasetId::kIG, graph::DatasetId::kUK,
                  graph::DatasetId::kCL}) {
    c.dataset = id;
    const Workbench bench = Workbench::make(id, 4, 1);
    const auto r = run_system(SystemKind::kDistDgl, c, bench);
    EXPECT_TRUE(r.oom) << graph::dataset_name(id);
    EXPECT_FALSE(r.oom_reason.empty());
  }
}

TEST(Systems, MGidsOomsOnTerabyteFeatures) {
  const auto spec = topology::make_machine_a();
  ExperimentConfig c = base_config(&spec);
  for (auto id : {graph::DatasetId::kUK, graph::DatasetId::kCL}) {
    c.dataset = id;
    const Workbench bench = Workbench::make(id, 4, 1);
    EXPECT_TRUE(run_system(SystemKind::kMGids, c, bench).oom)
        << graph::dataset_name(id);
  }
  c.dataset = graph::DatasetId::kPA;
  const Workbench bench = Workbench::make(graph::DatasetId::kPA, 4, 1);
  EXPECT_FALSE(run_system(SystemKind::kMGids, c, bench).oom);
}

TEST(Systems, MomentRunsTerabyteDatasetsOutOfCore) {
  const auto spec = topology::make_machine_b();
  ExperimentConfig c = base_config(&spec);
  c.dataset = graph::DatasetId::kUK;
  c.dataset_scale_shift = 4;
  const Workbench bench = Workbench::make(graph::DatasetId::kUK, 4, 1);
  const auto r = run_system(SystemKind::kMoment, c, bench);
  EXPECT_FALSE(r.oom);
  EXPECT_GT(r.throughput_seeds_per_s, 0.0);
}

TEST(Systems, PlacementOverrideRespected) {
  const auto spec = topology::make_machine_b();
  ExperimentConfig c = base_config(&spec);
  c.placement = topology::moment_placement_machine_b();
  const Workbench bench = Workbench::make(graph::DatasetId::kIG, 4, 1);
  const auto r = run_system(SystemKind::kMoment, c, bench);
  EXPECT_EQ(r.placement.gpus_per_group,
            topology::moment_placement_machine_b().gpus_per_group);
}

TEST(Systems, GatSlowerThanGraphSage) {
  const auto spec = topology::make_machine_a();
  const Workbench bench = Workbench::make(graph::DatasetId::kPA, 4, 1);
  ExperimentConfig c = base_config(&spec);
  c.dataset = graph::DatasetId::kPA;
  c.model = gnn::ModelKind::kGraphSage;
  const auto sage = run_system(SystemKind::kMoment, c, bench);
  c.model = gnn::ModelKind::kGat;
  const auto gat = run_system(SystemKind::kMoment, c, bench);
  EXPECT_LE(sage.epoch_time_s, gat.epoch_time_s);
}

TEST(Systems, PredictionAccompaniesMeasurement) {
  // Fig. 13's inputs: both a predicted and a simulated epoch time, close for
  // Moment (the prediction is the plan the runtime executes).
  const auto spec = topology::make_machine_a();
  const Workbench bench = Workbench::make(graph::DatasetId::kIG, 3, 42);
  ExperimentConfig c = base_config(&spec);
  const auto r = run_system(SystemKind::kMoment, c, bench);
  ASSERT_TRUE(r.prediction.feasible);
  EXPECT_GT(r.predicted_epoch_time_s, 0.0);
  const double err = std::abs(r.predicted_epoch_time_s - r.epoch_time_s) /
                     r.epoch_time_s;
  EXPECT_LT(err, 0.25) << "predicted " << r.predicted_epoch_time_s
                       << " vs measured " << r.epoch_time_s;
}

TEST(Systems, DeterministicAcrossRuns) {
  const auto spec = topology::make_machine_b();
  const Workbench bench = Workbench::make(graph::DatasetId::kIG, 4, 7);
  ExperimentConfig c = base_config(&spec);
  const auto a = run_system(SystemKind::kMoment, c, bench);
  const auto b = run_system(SystemKind::kMoment, c, bench);
  EXPECT_DOUBLE_EQ(a.epoch_time_s, b.epoch_time_s);
  EXPECT_EQ(a.placement, b.placement);
}

int count_bins(const std::vector<ddak::Bin>& bins, topology::StorageTier t) {
  return static_cast<int>(std::count_if(
      bins.begin(), bins.end(), [t](const ddak::Bin& b) { return b.tier == t; }));
}

TEST(Systems, PartitionedCacheModeHonoured) {
  const auto spec = topology::make_machine_a();
  const Workbench bench = Workbench::make(graph::DatasetId::kIG, 4, 1);
  ExperimentConfig c = base_config(&spec);
  c.cache.gpu_cache_mode = ddak::GpuCacheMode::kPartitioned;
  const auto r = run_system(SystemKind::kMoment, c, bench);
  EXPECT_EQ(r.workload.gpu_cache_mode, ddak::GpuCacheMode::kPartitioned);
  // Partitioned caches keep one HBM bin per GPU (no merged replicated bin).
  EXPECT_EQ(count_bins(r.bins, topology::StorageTier::kGpuHbm), c.num_gpus);
  EXPECT_EQ(r.data_placement.bin_count.size(), r.bins.size());
}

TEST(Systems, HashPolicyKeepsCpuBinsUnmirrored) {
  const auto spec = topology::make_machine_b();
  const Workbench bench = Workbench::make(graph::DatasetId::kIG, 4, 1);
  ExperimentConfig c = base_config(&spec);
  c.placement = topology::classic_placement(spec, 'c', 4, 8);
  const auto ddak = run_system(SystemKind::kMoment, c, bench);
  c.data_policy = DataPolicy::kHash;
  const auto hash = run_system(SystemKind::kMoment, c, bench);

  // DDAK mirrors the hottest CPU-cached vertices on both sockets.
  const auto mirrored = [](const std::vector<ddak::Bin>& bins) {
    return std::count_if(bins.begin(), bins.end(), [](const ddak::Bin& b) {
      return b.tier == topology::StorageTier::kCpuDram &&
             !b.replica_storage_indices.empty();
    });
  };
  EXPECT_EQ(mirrored(ddak.bins), 1);
  EXPECT_EQ(mirrored(hash.bins), 0);
  EXPECT_EQ(count_bins(hash.bins, topology::StorageTier::kCpuDram), 2);
  // Replicated GPU caches merge under either policy.
  EXPECT_EQ(count_bins(hash.bins, topology::StorageTier::kGpuHbm), 1);
  EXPECT_EQ(hash.data_placement.bin_of_vertex.size(),
            bench.dataset.scaled.vertices);
}

// Share of a training run's fetches that land on the profile's hottest
// n/16 vertices (the hot-row cache's size in perfbench and train_graphsage).
// The run is three independent epochs at the runtime's scale: a 10% training
// set in batches of 256, fan-outs {25, 10}.
double hot_set_coverage(const Workbench& bench) {
  const graph::CsrGraph& g = bench.dataset.csr;
  const auto order = bench.profile.by_hotness_desc();
  std::vector<bool> hot(g.num_vertices(), false);
  for (std::size_t i = 0; i < order.size() / 16; ++i) hot[order[i]] = true;

  const sampling::NeighborSampler sampler(g, {25, 10});
  std::size_t fetches = 0;
  std::size_t covered = 0;
  for (std::uint64_t seed : {101, 202, 303}) {
    sampling::BatchIterator batches(
        sampling::select_train_vertices(g, 0.10, seed), 256, seed);
    util::Pcg32 rng(seed);
    for (auto batch = batches.next(); !batch.empty(); batch = batches.next()) {
      for (graph::VertexId v : sampler.sample(batch, rng).fetch_set) {
        ++fetches;
        covered += hot[v] ? 1 : 0;
      }
    }
  }
  return static_cast<double>(covered) / static_cast<double>(fetches);
}

TEST(Workbench, ProfileRanksTheGraph) {
  const Workbench bench = Workbench::make(graph::DatasetId::kIG, 0, 42);
  EXPECT_GE(hot_set_coverage(bench), 0.45);

  // The profile records at least two fetches per vertex at every scale.
  const auto covers_twice = [](const Workbench& b) {
    const double recorded = static_cast<double>(b.profile.profiled_batches) *
                            b.profile.fetches_per_batch;
    const auto n = static_cast<double>(b.dataset.csr.num_vertices());
    return recorded + 0.5 >= 2.0 * n;
  };
  EXPECT_TRUE(covers_twice(bench));
  EXPECT_TRUE(covers_twice(Workbench::make(graph::DatasetId::kIG, 3, 42)));
  EXPECT_TRUE(covers_twice(Workbench::make(graph::DatasetId::kIG, 4, 42)));

  const Workbench again = Workbench::make(graph::DatasetId::kIG, 0, 42);
  EXPECT_EQ(again.profile.profiled_batches, bench.profile.profiled_batches);
  EXPECT_EQ(again.profile.hotness, bench.profile.hotness);
  EXPECT_EQ(again.profile.ranked, bench.profile.ranked);
}

struct TrainerRig {
  graph::CsrGraph g;
  gnn::SyntheticTask task;
  std::vector<std::unique_ptr<gnn::InMemoryFeatures>> features;
  std::vector<gnn::FeatureProvider*> providers;

  static TrainerRig make(int workers) {
    TrainerRig r;
    graph::RmatParams gp;
    gp.num_vertices = 1024;
    gp.num_edges = 8000;
    r.g = graph::generate_rmat(gp);
    r.task = gnn::make_synthetic_task(r.g, 4, 12, 0.3, 9);
    for (int w = 0; w < workers; ++w) {
      r.features.push_back(
          std::make_unique<gnn::InMemoryFeatures>(r.task.features));
      r.providers.push_back(r.features.back().get());
    }
    return r;
  }

  gnn::ModelConfig model_config() const {
    gnn::ModelConfig cfg;
    cfg.kind = gnn::ModelKind::kGraphSage;
    cfg.in_dim = 12;
    cfg.hidden_dim = 16;
    cfg.num_classes = 4;
    return cfg;
  }
};

TEST(ParallelTrainer, ReplicasStayInSync) {
  TrainerRig rig = TrainerRig::make(3);
  auto train = sampling::select_train_vertices(rig.g, 0.2, 2);
  DataParallelTrainer trainer(rig.g, rig.providers, rig.model_config(),
                              {5, 5}, train, 0.01f, 11);
  EXPECT_TRUE(trainer.replicas_in_sync());
  trainer.train_epoch(rig.task.labels, 32, 4);
  EXPECT_TRUE(trainer.replicas_in_sync());
}

TEST(ParallelTrainer, LearnsSyntheticTask) {
  TrainerRig rig = TrainerRig::make(2);
  auto train = sampling::select_train_vertices(rig.g, 0.3, 3);
  DataParallelTrainer trainer(rig.g, rig.providers, rig.model_config(),
                              {5, 5}, train, 0.01f, 13);
  EpochStats last;
  for (int epoch = 0; epoch < 8; ++epoch) {
    last = trainer.train_epoch(rig.task.labels, 48);
  }
  EXPECT_GT(last.mean_accuracy, 0.6f);
  EXPECT_GT(last.batches, 0u);
  EXPECT_GT(last.fetched_vertices, 0u);
}

TEST(ParallelTrainer, BatchCountMatchesPartition) {
  TrainerRig rig = TrainerRig::make(4);
  auto train = sampling::select_train_vertices(rig.g, 0.25, 5);
  DataParallelTrainer trainer(rig.g, rig.providers, rig.model_config(),
                              {4, 4}, train, 0.01f, 17);
  const auto stats = trainer.train_epoch(rig.task.labels, 16);
  // Every training vertex visited once per epoch across workers.
  const std::size_t expected = (train.size() + 15) / 16;
  EXPECT_NEAR(static_cast<double>(stats.batches),
              static_cast<double>(expected), 4.0);
}

TEST(ParallelTrainer, RejectsEmptyWorkerList) {
  TrainerRig rig = TrainerRig::make(1);
  auto train = sampling::select_train_vertices(rig.g, 0.1, 5);
  EXPECT_THROW(DataParallelTrainer(rig.g, {}, rig.model_config(), {4, 4},
                                   train, 0.01f, 1),
               std::invalid_argument);
}

TEST(ParallelTrainer, ShortLabelTableThrowsOutOfRange) {
  // Labels index by global vertex id: a table that stops short of the
  // largest training vertex must fail the epoch, never read past its end.
  // The short table is a prefix view of the full one, so an unchecked read
  // would find a valid label there and pass silently.
  TrainerRig rig = TrainerRig::make(2);
  auto train = sampling::select_train_vertices(rig.g, 0.3, 3);
  const graph::VertexId max_id = *std::max_element(train.begin(), train.end());
  const std::span<const std::int32_t> short_labels(rig.task.labels.data(),
                                                   max_id);
  DataParallelTrainer trainer(rig.g, rig.providers, rig.model_config(),
                              {5, 5}, train, 0.01f, 13);
  EXPECT_THROW(trainer.train_epoch(short_labels, 48), std::out_of_range);
  // The failed epoch stepped no optimizer and left the workers reusable.
  EXPECT_TRUE(trainer.replicas_in_sync());
  const auto stats = trainer.train_epoch(rig.task.labels, 48);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_TRUE(trainer.replicas_in_sync());
}

TEST(PipelineEngine, MatchesSequentialLossTrajectory) {
  // The double-buffered pipeline must be a pure latency optimisation: the
  // per-epoch loss/accuracy trajectory matches a sequential (depth-1) run
  // with identical seeds, and replicas stay in sync after every epoch.
  for (int workers : {1, 3}) {
    TrainerRig rig_seq = TrainerRig::make(workers);
    TrainerRig rig_pipe = TrainerRig::make(workers);
    auto train = sampling::select_train_vertices(rig_seq.g, 0.25, 2);
    EngineOptions sequential;
    sequential.pipeline_depth = 1;
    EngineOptions pipelined;
    pipelined.pipeline_depth = 2;
    DataParallelTrainer seq(rig_seq.g, rig_seq.providers,
                            rig_seq.model_config(), {5, 5}, train, 0.01f, 11,
                            sequential);
    DataParallelTrainer pipe(rig_pipe.g, rig_pipe.providers,
                             rig_pipe.model_config(), {5, 5}, train, 0.01f,
                             11, pipelined);
    for (int epoch = 0; epoch < 4; ++epoch) {
      const auto a = seq.train_epoch(rig_seq.task.labels, 32);
      const auto b = pipe.train_epoch(rig_pipe.task.labels, 32);
      ASSERT_EQ(a.batches, b.batches) << "workers " << workers;
      ASSERT_EQ(a.fetched_vertices, b.fetched_vertices);
      ASSERT_EQ(a.rounds, b.rounds);
      EXPECT_NEAR(a.mean_loss, b.mean_loss, 1e-6f) << "epoch " << epoch;
      EXPECT_NEAR(a.mean_accuracy, b.mean_accuracy, 1e-6f);
      EXPECT_TRUE(pipe.replicas_in_sync()) << "epoch " << epoch;
    }
  }
}

TEST(PipelineEngine, TruncatedEpochDrainsPrefetch) {
  // max_rounds truncation leaves a prefetched batch in flight; the engine
  // must drain it so the next epoch (and teardown) proceed cleanly.
  TrainerRig rig = TrainerRig::make(2);
  auto train = sampling::select_train_vertices(rig.g, 0.3, 7);
  DataParallelTrainer trainer(rig.g, rig.providers, rig.model_config(),
                              {5, 5}, train, 0.01f, 23);
  for (int epoch = 0; epoch < 3; ++epoch) {
    const auto stats = trainer.train_epoch(rig.task.labels, 16, 2);
    EXPECT_EQ(stats.rounds, 2u);
    EXPECT_TRUE(trainer.replicas_in_sync());
  }
}

TEST(PipelineEngine, PerStageTelemetryAccountsEpoch) {
  TrainerRig rig = TrainerRig::make(2);
  auto train = sampling::select_train_vertices(rig.g, 0.3, 3);
  DataParallelTrainer trainer(rig.g, rig.providers, rig.model_config(),
                              {5, 5}, train, 0.01f, 13);
  const auto stats = trainer.train_epoch(rig.task.labels, 48);
  ASSERT_EQ(stats.per_worker.size(), 2u);
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_GT(stats.stage_max.sample_s, 0.0);
  EXPECT_GT(stats.stage_max.compute_s, 0.0);
  EXPECT_GT(stats.stage_max.optimizer_s, 0.0);
  for (const auto& t : stats.per_worker) {
    EXPECT_LE(t.sample_s + t.gather_s() + t.compute_s + t.optimizer_s,
              stats.wall_time_s * 1.5);
  }
  // In-memory providers complete inside gather_begin: nothing is async, so
  // the engine must not report fake overlap.
  EXPECT_EQ(stats.overlap_ratio, 0.0);
}

/// Serves rows from memory but hands out async tickets, and records every
/// gather_begin and gather_wait with the model's gradients at that moment:
/// gradients that differ between two events mean a train_step ran between
/// them.
class RecordingProvider final : public gnn::FeatureProvider {
 public:
  struct Event {
    bool begin = false;
    std::vector<graph::VertexId> vertices;  // empty for a wait
    std::vector<float> grads;
  };

  explicit RecordingProvider(const gnn::Tensor& features) : mem_(features) {}

  std::size_t dim() const override { return mem_.dim(); }
  void gather(std::span<const graph::VertexId> vertices,
              gnn::Tensor& out) override {
    mem_.gather(vertices, out);
  }
  GatherTicket gather_begin(std::span<const graph::VertexId> vertices,
                            gnn::Tensor& out) override {
    mem_.gather(vertices, out);
    max_in_flight = std::max(max_in_flight, ++in_flight_);
    record(true, vertices);
    return ++tickets_;
  }
  void gather_wait(GatherTicket ticket) override {
    EXPECT_NE(ticket, kSyncTicket);
    --in_flight_;
    record(false, {});
  }

  const gnn::GnnModel* model = nullptr;
  std::vector<Event> events;
  std::size_t max_in_flight = 0;

 private:
  void record(bool begin, std::span<const graph::VertexId> vertices) {
    Event e{begin, {vertices.begin(), vertices.end()}, {}};
    for (const gnn::Param* p : model->parameters()) {
      e.grads.insert(e.grads.end(), p->grad.data(),
                     p->grad.data() + p->grad.size());
    }
    events.push_back(std::move(e));
  }

  gnn::InMemoryFeatures mem_;
  std::size_t in_flight_ = 0;
  GatherTicket tickets_ = 0;
};

TEST(PipelineEngine, PrefetchedGatherIsIssuedAfterThePreviousWait) {
  // At depth 2 a worker's round r runs: sample r+1, wait r, begin r+1,
  // compute r. So begins and waits alternate (one gather in flight at a
  // time), no train_step runs between wait r and begin r+1, and one runs
  // between begin r+1 and wait r+1. Depth 1 computes between wait r and
  // begin r+1 instead. Sampling is invisible to a provider; both depths
  // gather the same batches, and the losses are bit-identical.
  TrainerRig rig = TrainerRig::make(1);
  const auto train = sampling::select_train_vertices(rig.g, 0.25, 2);
  std::vector<std::vector<RecordingProvider::Event>> epochs[2];
  std::vector<float> losses[2];
  for (const std::size_t depth : {1u, 2u}) {
    RecordingProvider provider(rig.task.features);
    EngineOptions options;
    options.pipeline_depth = depth;
    DataParallelTrainer trainer(rig.g, {&provider}, rig.model_config(),
                                {5, 5}, train, 0.01f, 11, options);
    provider.model = &trainer.replica(0);
    for (int epoch = 0; epoch < 3; ++epoch) {
      losses[depth - 1].push_back(
          trainer.train_epoch(rig.task.labels, 32).mean_loss);
      epochs[depth - 1].push_back(std::move(provider.events));
      provider.events.clear();
    }
    EXPECT_EQ(provider.max_in_flight, 1u) << "depth " << depth;
  }
  for (std::size_t epoch = 0; epoch < 3; ++epoch) {
    EXPECT_EQ(losses[0][epoch], losses[1][epoch]) << "epoch " << epoch;
    const auto& seq = epochs[0][epoch];
    const auto& pipe = epochs[1][epoch];
    ASSERT_EQ(seq.size(), pipe.size());
    ASSERT_GE(pipe.size(), 6u);  // at least three rounds
    ASSERT_EQ(pipe.size() % 2, 0u);
    for (std::size_t i = 0; i < pipe.size(); ++i) {
      const std::string where =
          "epoch " + std::to_string(epoch) + " event " + std::to_string(i);
      ASSERT_EQ(pipe[i].begin, i % 2 == 0) << where;
      ASSERT_EQ(seq[i].begin, i % 2 == 0) << where;
      EXPECT_EQ(pipe[i].vertices, seq[i].vertices) << where;
      if (i % 2 == 0 || i + 1 == pipe.size()) continue;
      // Event i is wait r and i + 1 is begin r+1; i + 2 is wait r+1.
      EXPECT_EQ(pipe[i].grads, pipe[i + 1].grads) << where;
      EXPECT_NE(pipe[i + 1].grads, pipe[i + 2].grads) << where;
      EXPECT_NE(seq[i].grads, seq[i + 1].grads) << where;
    }
  }
}

/// Tiered rig: features spread over GPU/CPU caches and two SSDs, one
/// TieredFeatureClient per worker, as in the paper's runtime.
/// Rows fill a 4 KiB page each, so the SSD rows span 448 pages, more than
/// a batch's staging slot holds: every batch reads some pages.
struct TieredRig {
  static constexpr std::size_t kDim = iostack::kPageBytes / sizeof(float);
  graph::CsrGraph g;
  gnn::SyntheticTask task;
  std::unique_ptr<iostack::SsdArray> array;
  std::unique_ptr<iostack::TieredFeatureStore> store;
  std::vector<std::unique_ptr<iostack::TieredFeatureClient>> clients;
  std::vector<gnn::FeatureProvider*> providers;

  static TieredRig make(int workers) {
    TieredRig r;
    graph::RmatParams gp;
    gp.num_vertices = 512;
    gp.num_edges = 4000;
    r.g = graph::generate_rmat(gp);
    r.task = gnn::make_synthetic_task(r.g, 4, kDim, 0.3, 9);
    std::vector<iostack::BinBacking> bins = {
        {iostack::BinBacking::Kind::kGpuCache, -1},
        {iostack::BinBacking::Kind::kCpuCache, -1},
        {iostack::BinBacking::Kind::kSsd, 0},
        {iostack::BinBacking::Kind::kSsd, 1},
    };
    std::vector<std::int32_t> bov(512);
    for (std::size_t v = 0; v < 512; ++v) {
      if (v < 32) bov[v] = 0;
      else if (v < 64) bov[v] = 1;
      else bov[v] = 2 + static_cast<std::int32_t>(v % 2);
    }
    iostack::SsdOptions opts;
    opts.capacity_bytes = 2ull << 20;
    r.array = std::make_unique<iostack::SsdArray>(2, opts);
    r.store = std::make_unique<iostack::TieredFeatureStore>(
        r.task.features, bov, bins, *r.array);
    for (int w = 0; w < workers; ++w) {
      r.clients.push_back(
          std::make_unique<iostack::TieredFeatureClient>(*r.store));
      r.providers.push_back(r.clients.back().get());
    }
    r.array->start_all();
    return r;
  }

  gnn::ModelConfig model_config() const {
    gnn::ModelConfig cfg;
    cfg.kind = gnn::ModelKind::kGraphSage;
    cfg.in_dim = kDim;
    cfg.hidden_dim = 16;
    cfg.num_classes = 4;
    return cfg;
  }
};

TEST(PipelineEngine, OverlapsGatherWithComputeThroughIoStack) {
  // Acceptance: with TieredFeatureClient providers the pipelined engine
  // genuinely overlaps the SSD gather with compute (overlap ratio > 0) and
  // preserves the DDP invariant over a multi-worker, multi-epoch run.
  TieredRig rig = TieredRig::make(2);
  auto train = sampling::select_train_vertices(rig.g, 0.3, 5);
  DataParallelTrainer trainer(rig.g, rig.providers, rig.model_config(),
                              {5, 5}, train, 0.01f, 31);
  EpochStats stats;
  for (int epoch = 0; epoch < 3; ++epoch) {
    stats = trainer.train_epoch(rig.task.labels, 32);
    EXPECT_TRUE(trainer.replicas_in_sync()) << "epoch " << epoch;
  }
  rig.array->stop_all();
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.overlap_ratio, 0.0);
  EXPECT_GT(stats.stage_max.hidden_io_s, 0.0);
  for (const auto& c : rig.clients) {
    EXPECT_GT(c->io_resilience().ssd_rows, 0u);
  }
}

TEST(PipelineEngine, PipelinedMatchesSequentialThroughIoStack) {
  // The async begin/wait path through the NVMe stack must be numerically
  // identical to the synchronous reference gather.
  TieredRig rig_seq = TieredRig::make(2);
  TieredRig rig_pipe = TieredRig::make(2);
  auto train = sampling::select_train_vertices(rig_seq.g, 0.25, 13);
  EngineOptions sequential;
  sequential.pipeline_depth = 1;
  DataParallelTrainer seq(rig_seq.g, rig_seq.providers,
                          rig_seq.model_config(), {5, 5}, train, 0.01f, 41,
                          sequential);
  DataParallelTrainer pipe(rig_pipe.g, rig_pipe.providers,
                           rig_pipe.model_config(), {5, 5}, train, 0.01f, 41,
                           EngineOptions{});
  for (int epoch = 0; epoch < 2; ++epoch) {
    const auto a = seq.train_epoch(rig_seq.task.labels, 32);
    const auto b = pipe.train_epoch(rig_pipe.task.labels, 32);
    ASSERT_EQ(a.batches, b.batches);
    EXPECT_NEAR(a.mean_loss, b.mean_loss, 1e-6f) << "epoch " << epoch;
    EXPECT_NEAR(a.mean_accuracy, b.mean_accuracy, 1e-6f);
  }
  EXPECT_TRUE(pipe.replicas_in_sync());
  rig_seq.array->stop_all();
  rig_pipe.array->stop_all();
}

}  // namespace
}  // namespace moment::runtime
