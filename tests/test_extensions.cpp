// Tests for the extension features: the GCN layer, the machine-description
// parser, multi-node cluster modelling (paper §5), the adaptive online placer
// (paper Limitations), SSD IOPS modelling, and IO-engine latency/batch APIs.

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "core/auto_module.hpp"
#include "core/plan_io.hpp"
#include "ddak/adaptive.hpp"
#include "ddak/workload.hpp"
#include "gnn/gcn_layer.hpp"
#include "gnn/model.hpp"
#include "graph/generators.hpp"
#include "iostack/ssd.hpp"
#include "placement/search.hpp"
#include "runtime/systems.hpp"
#include "sim/machine_sim.hpp"
#include "topology/cluster.hpp"
#include "topology/discovery.hpp"
#include "util/units.hpp"

namespace moment {
namespace {

// -------------------------------------------------------------------- gnn

gnn::Block tiny_block() {
  // dst 0 <- src {3, 4}, dst 1 <- {0}, dst 2 <- {2, 4}.
  const std::size_t off[] = {0, 2, 3, 5};
  return gnn::make_block({0, 1, 2, 3, 4}, {0, 1, 2}, off, {3, 4, 0, 2, 4});
}

TEST(GcnLayer, ForwardShape) {
  util::Pcg32 rng(1);
  gnn::GcnLayer layer(6, 4, true, rng);
  const auto b = tiny_block();
  gnn::Tensor x = gnn::Tensor::glorot(b.num_src(), 6, rng);
  const auto out = layer.forward(b, x);
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.cols(), 4u);
}

TEST(GcnLayer, GradientCheck) {
  util::Pcg32 rng(2);
  gnn::GcnLayer layer(4, 3, /*apply_relu=*/false, rng);
  const auto block = tiny_block();
  gnn::Tensor x = gnn::Tensor::glorot(block.num_src(), 4, rng);
  const auto out0 = layer.forward(block, x);
  gnn::Tensor w = gnn::Tensor::glorot(out0.rows(), out0.cols(), rng);
  auto loss_of = [&](const gnn::Tensor& in) {
    const auto o = layer.forward(block, in);
    double acc = 0.0;
    for (std::size_t i = 0; i < o.size(); ++i) {
      acc += static_cast<double>(o.data()[i]) * w.data()[i];
    }
    return acc;
  };
  layer.forward(block, x);
  for (auto* p : layer.parameters()) p->zero_grad();
  const auto gx = layer.backward(block, w);
  const float eps = 1e-3f;
  for (std::size_t idx : {std::size_t{0}, x.size() / 2, x.size() - 1}) {
    gnn::Tensor xp = x, xm = x;
    xp.data()[idx] += eps;
    xm.data()[idx] -= eps;
    EXPECT_NEAR(gx.data()[idx], (loss_of(xp) - loss_of(xm)) / (2 * eps),
                2e-2);
  }
}

TEST(GcnLayer, SelfLoopOnly) {
  // A dst with no sampled edges still gets its own (1/deg) contribution.
  util::Pcg32 rng(3);
  gnn::GcnLayer layer(2, 2, false, rng);
  const std::size_t off[] = {0, 0};
  const gnn::Block b = gnn::make_block({0}, {0}, off, {});
  gnn::Tensor x(1, 2);
  x.at(0, 0) = 1.0f;
  x.at(0, 1) = -1.0f;
  const auto out = layer.forward(b, x);
  // out = x * W + bias with coefficient 1/deg = 1.
  gnn::Tensor expect(1, 2);
  gnn::matmul(x, layer.parameters()[0]->value, expect);
  EXPECT_NEAR(out.at(0, 0), expect.at(0, 0), 1e-5);
}

TEST(GcnModel, BuildsAndClassifies) {
  graph::RmatParams gp;
  gp.num_vertices = 512;
  gp.num_edges = 4000;
  const auto g = graph::generate_rmat(gp);
  sampling::NeighborSampler sampler(g, {4, 4});
  util::Pcg32 rng(4);
  const std::vector<graph::VertexId> seeds = {5, 6, 7};
  const auto blocks = gnn::build_blocks(sampler.sample(seeds, rng));
  gnn::ModelConfig cfg;
  cfg.kind = gnn::ModelKind::kGcn;
  cfg.in_dim = 8;
  cfg.hidden_dim = 6;
  cfg.num_classes = 3;
  gnn::GnnModel model(cfg);
  gnn::Tensor x0 = gnn::Tensor::glorot(blocks[0].num_src(), 8, rng);
  const auto logits = model.forward(blocks, x0);
  EXPECT_EQ(logits.rows(), 3u);
  EXPECT_EQ(logits.cols(), 3u);
}

// -------------------------------------------------------------- discovery

const char* kToyMachine = R"(
# A one-socket toy server.
machine Toy
description one socket, one switch
ssd_read_bw_gib 5
device RC0 root_complex
device DRAM0 cpu_memory
device PLX0 pcie_switch
link DRAM0 RC0 dram 30 30 MC0
link RC0 PLX0 pcie 16 16 Bus1
slots RC0.nvme RC0 4 ssd gen4
slots PLX0.slots PLX0 8 gpu,ssd gen4
)";

TEST(Discovery, ParsesToyMachine) {
  const auto spec = topology::parse_machine_spec_string(kToyMachine);
  EXPECT_EQ(spec.name, "Toy");
  EXPECT_EQ(spec.description, "one socket, one switch");
  EXPECT_NEAR(util::to_gib_per_s(spec.ssd_read_bw), 5.0, 1e-9);
  EXPECT_EQ(spec.skeleton.num_devices(), 3u);
  EXPECT_EQ(spec.skeleton.num_links(), 2u);
  ASSERT_EQ(spec.slot_groups.size(), 2u);
  EXPECT_FALSE(spec.slot_groups[0].allows_gpu);
  EXPECT_TRUE(spec.slot_groups[1].allows_gpu);
}

TEST(Discovery, ParsedMachineIsUsable) {
  const auto spec = topology::parse_machine_spec_string(kToyMachine);
  topology::Placement p;
  p.gpus_per_group = {0, 2};
  p.ssds_per_group = {3, 1};
  EXPECT_EQ(topology::validate_placement(spec, p), "");
  const auto topo = topology::instantiate(spec, p);
  const auto fg = topology::compile_flow_graph(topo);
  EXPECT_EQ(fg.gpus.size(), 2u);
  EXPECT_GT(topology::predict_rate_bound(fg), 0.0);
}

TEST(Discovery, RoundTripsPresets) {
  for (const auto& spec :
       {topology::make_machine_a(), topology::make_machine_b()}) {
    const std::string text = topology::write_machine_spec(spec);
    const auto parsed = topology::parse_machine_spec_string(text);
    EXPECT_EQ(parsed.name, spec.name);
    EXPECT_EQ(parsed.skeleton.num_devices(), spec.skeleton.num_devices());
    EXPECT_EQ(parsed.skeleton.num_links(), spec.skeleton.num_links());
    ASSERT_EQ(parsed.slot_groups.size(), spec.slot_groups.size());
    for (std::size_t i = 0; i < spec.slot_groups.size(); ++i) {
      EXPECT_EQ(parsed.slot_groups[i].name, spec.slot_groups[i].name);
      EXPECT_EQ(parsed.slot_groups[i].units, spec.slot_groups[i].units);
    }
    EXPECT_EQ(parsed.automorphisms, spec.automorphisms);
    // Same placement, same prediction.
    const auto placement = topology::classic_placement(spec, 'c', 2, 4);
    const auto fg1 = topology::compile_flow_graph(
        topology::instantiate(spec, placement));
    const auto fg2 = topology::compile_flow_graph(
        topology::instantiate(parsed, placement));
    EXPECT_NEAR(topology::predict_rate_bound(fg1),
                topology::predict_rate_bound(fg2), 1.0);
  }
}

TEST(Discovery, RejectsMalformedInput) {
  using topology::ParseError;
  using topology::parse_machine_spec_string;
  EXPECT_THROW(parse_machine_spec_string("device X root_complex\n"),
               ParseError);  // no machine / no slots
  EXPECT_THROW(parse_machine_spec_string(
                   "machine M\nfrobnicate yes\nslots g RC0 2 ssd\n"),
               ParseError);  // unknown keyword
  EXPECT_THROW(parse_machine_spec_string(
                   "machine M\ndevice RC0 root_complex\n"
                   "link RC0 NOPE pcie 1 1\nslots g RC0 2 ssd\n"),
               ParseError);  // unknown device in link
  EXPECT_THROW(parse_machine_spec_string(
                   "machine M\ndevice RC0 root_complex\n"
                   "slots g RC0 2 ssd\nautomorphism 0 0\n"),
               ParseError);  // not a permutation
  EXPECT_THROW(parse_machine_spec_string(
                   "machine M\ndevice RC0 root_complex\n"
                   "slots g RC0 -3 ssd\n"),
               ParseError);  // bad units
}

// ---------------------------------------------------------------- cluster

TEST(Cluster, PresetShape) {
  const auto spec = topology::make_cluster_c();
  EXPECT_EQ(spec.slot_groups.size(), 4u);
  EXPECT_EQ(spec.skeleton.devices_of_kind(topology::DeviceKind::kNic).size(),
            4u);
  EXPECT_FALSE(spec.automorphisms.empty());
}

TEST(Cluster, FlowCrossesNetwork) {
  // One GPU on machine 0, SSDs on machine 1: all SSD traffic must cross the
  // network, capping throughput at the NIC rate.
  const auto spec = topology::make_cluster(
      {.num_machines = 2, .slot_units_per_machine = 8});
  topology::Placement p;
  p.gpus_per_group = {1, 0};
  p.ssds_per_group = {0, 4};
  const auto topo = topology::instantiate(spec, p);
  topology::FlowGraphOptions opts;
  opts.gpu_cache = false;
  const auto fg = topology::compile_flow_graph(topo, opts);
  const double bound = topology::predict_rate_bound(fg);
  // Remote SSDs (4 x 6 = 24 GiB/s) squeezed through one 10 GiB/s NIC link,
  // plus machine-0-local DRAM at its own rate.
  EXPECT_LT(bound, util::gib_per_s(45.0));
  EXPECT_GT(bound, util::gib_per_s(5.0));
}

TEST(Cluster, SearchPrefersLocality) {
  // The searched placement must co-locate the GPU with (most of) the SSDs
  // rather than spreading everything across the network.
  const auto spec = topology::make_cluster(
      {.num_machines = 2, .slot_units_per_machine = 12});
  placement::SearchOptions o;
  o.num_gpus = 1;
  o.num_ssds = 4;
  const double total = 100.0 * util::kGiB;
  o.per_gpu_demand_bytes = total;
  o.per_tier_bytes = {0.1 * total, 0.15 * total, 0.75 * total};
  o.gpu_hbm_bytes = 0.1 * total;
  const auto r = placement::search_placements(spec, o);
  ASSERT_FALSE(r.top.empty());
  const auto& best = r.best().placement;
  // GPU and the majority of SSDs on the same machine.
  int gpu_machine = -1;
  for (std::size_t g = 0; g < best.gpus_per_group.size(); ++g) {
    if (best.gpus_per_group[g] > 0) gpu_machine = static_cast<int>(g);
  }
  ASSERT_GE(gpu_machine, 0);
  EXPECT_GE(best.ssds_per_group[static_cast<std::size_t>(gpu_machine)], 3);
}

TEST(Cluster, RotationSymmetryCollapsesSearch) {
  const auto spec = topology::make_cluster({.num_machines = 3});
  placement::SearchOptions o;
  o.num_gpus = 1;
  o.num_ssds = 2;
  o.use_symmetry_reduction = true;
  const auto reduced = placement::search_placements(spec, o);
  o.use_symmetry_reduction = false;
  const auto full = placement::search_placements(spec, o);
  EXPECT_LT(reduced.evaluated, full.evaluated);
  EXPECT_NEAR(reduced.best().score, full.best().score,
              1e-6 * full.best().score);
}

// --------------------------------------------------------------- adaptive

ddak::DataPlacementResult initial_placement(const std::vector<ddak::Bin>& bins,
                                            std::size_t n) {
  ddak::DataPlacementResult r;
  r.bin_of_vertex.assign(n, 2);  // everything on the SSD bin
  r.bin_access.assign(bins.size(), 0.0);
  r.bin_count.assign(bins.size(), 0);
  r.bin_traffic_share.assign(bins.size(), 0.0);
  r.bin_count[2] = n;
  return r;
}

std::vector<ddak::Bin> adaptive_bins(std::size_t n) {
  std::vector<ddak::Bin> bins(3);
  bins[0] = {"GPU", 0, topology::StorageTier::kGpuHbm, 0.02 * n, 30.0, {}};
  bins[1] = {"CPU", 1, topology::StorageTier::kCpuDram, 0.05 * n, 20.0, {}};
  bins[2] = {"SSD", 2, topology::StorageTier::kSsd,
             static_cast<double>(n), 50.0, {}};
  return bins;
}

TEST(AdaptivePlacer, PromotesHotVerticesUnderDrift) {
  constexpr std::size_t kN = 1000;
  const auto bins = adaptive_bins(kN);
  ddak::AdaptiveOptions opts;
  opts.migration_budget = 2000;
  ddak::AdaptivePlacer placer(bins, initial_placement(bins, kN), opts);

  // Workload: vertices 100..119 are hot.
  util::Pcg32 rng(5);
  std::vector<graph::VertexId> batch;
  for (int round = 0; round < 10; ++round) {
    batch.clear();
    for (int i = 0; i < 400; ++i) {
      batch.push_back(rng.next_double() < 0.7
                          ? 100 + rng.next_below(20)
                          : rng.next_below(kN));
    }
    placer.observe(batch);
  }
  const auto stats = placer.rebalance();
  EXPECT_GT(stats.promotions, 0u);
  EXPECT_LE(stats.error_after, stats.error_before + 1e-9);
  // The hot set must now live in cache tiers.
  int cached = 0;
  for (graph::VertexId v = 100; v < 120; ++v) {
    if (placer.placement().bin_of_vertex[v] != 2) ++cached;
  }
  EXPECT_GE(cached, 15);
}

TEST(AdaptivePlacer, AdaptsWhenHotSetMoves) {
  constexpr std::size_t kN = 1000;
  const auto bins = adaptive_bins(kN);
  ddak::AdaptiveOptions opts;
  opts.migration_budget = 2000;
  opts.ema_alpha = 0.5;  // fast adaptation for the test
  ddak::AdaptivePlacer placer(bins, initial_placement(bins, kN), opts);

  util::Pcg32 rng(6);
  auto run_phase = [&](graph::VertexId hot_base) {
    std::vector<graph::VertexId> batch;
    for (int round = 0; round < 8; ++round) {
      batch.clear();
      for (int i = 0; i < 400; ++i) {
        batch.push_back(rng.next_double() < 0.7
                            ? hot_base + rng.next_below(20)
                            : rng.next_below(kN));
      }
      placer.observe(batch);
      placer.rebalance();
    }
  };
  run_phase(100);
  run_phase(700);  // the workload drifts

  int new_hot_cached = 0;
  for (graph::VertexId v = 700; v < 720; ++v) {
    if (placer.placement().bin_of_vertex[v] != 2) ++new_hot_cached;
  }
  EXPECT_GE(new_hot_cached, 15) << "placer failed to follow the drift";
}

TEST(AdaptivePlacer, RespectsMigrationBudget) {
  constexpr std::size_t kN = 500;
  const auto bins = adaptive_bins(kN);
  ddak::AdaptiveOptions opts;
  opts.migration_budget = 4;
  ddak::AdaptivePlacer placer(bins, initial_placement(bins, kN), opts);
  std::vector<graph::VertexId> batch;
  for (graph::VertexId v = 0; v < 50; ++v) batch.push_back(v);
  placer.observe(batch);
  const auto stats = placer.rebalance();
  EXPECT_LE(stats.migrated, 4u);
}

TEST(AdaptivePlacer, ValidatesInputs) {
  const auto bins = adaptive_bins(100);
  ddak::AdaptiveOptions bad;
  bad.ema_alpha = 0.0;
  EXPECT_THROW(ddak::AdaptivePlacer(bins, initial_placement(bins, 100), bad),
               std::invalid_argument);
  ddak::AdaptivePlacer placer(bins, initial_placement(bins, 100), {});
  const graph::VertexId out_of_range[] = {5000};
  EXPECT_THROW(placer.observe(out_of_range), std::out_of_range);
}

// ------------------------------------------------------------------- sim

TEST(SimIops, IopsCapSlowsSsdBoundEpoch) {
  const auto bench = runtime::Workbench::make(graph::DatasetId::kIG, 3, 42);
  const auto workload = ddak::make_epoch_workload(bench.dataset,
                                                  bench.profile,
                                                  ddak::CacheConfig{}, 4);
  const auto spec = topology::make_machine_a();
  const auto topo = topology::instantiate(
      spec, topology::classic_placement(spec, 'c', 4, 8));
  const auto fg = topology::compile_flow_graph(topo);
  const auto pred = topology::predict(
      fg, ddak::to_flow_demand(workload, fg, ddak::SupplyModel::kUniformHash));
  auto bins = ddak::make_bins(topo, fg, pred.per_storage_bytes,
                              bench.dataset.scaled.vertices, 0.005, 0.01);
  const auto merged = sim::merge_replicated_gpu_bins(bins);
  const auto place = ddak::hash_place(merged, bench.profile);

  sim::SimOptions plain;
  const auto fast = sim::simulate_epoch(topo, fg, workload, merged, place,
                                        plain);
  sim::SimOptions iops;
  iops.ssd_iops = 500'000;  // 500k * 4 KiB ~ 1.9 GiB/s per SSD
  const auto slow = sim::simulate_epoch(topo, fg, workload, merged, place,
                                        iops);
  EXPECT_GT(slow.epoch_time_s, fast.epoch_time_s * 1.5);
}

TEST(SimCpuMirror, ReducesQpiWithoutChangingCoverage) {
  const auto bench = runtime::Workbench::make(graph::DatasetId::kIG, 3, 42);
  const auto workload = ddak::make_epoch_workload(bench.dataset,
                                                  bench.profile,
                                                  ddak::CacheConfig{}, 4);
  const auto spec = topology::make_machine_a();
  const auto topo = topology::instantiate(
      spec, topology::classic_placement(spec, 'c', 4, 8));
  const auto fg = topology::compile_flow_graph(topo);
  const auto pred = topology::predict(
      fg, ddak::to_flow_demand(workload, fg, ddak::SupplyModel::kFlexibleTier));
  auto bins = ddak::make_bins(topo, fg, pred.per_storage_bytes,
                              bench.dataset.scaled.vertices, 0.005, 0.01);
  const auto merged = sim::merge_replicated_gpu_bins(bins);
  const auto mirrored = sim::merge_replicated_cpu_bins(merged);

  ddak::DdakOptions dopt;
  dopt.pool_size = ddak::default_pool_size(bench.dataset.scaled.vertices);
  const auto plain_place = ddak::ddak_place(merged, bench.profile, dopt);
  const auto mirror_place = ddak::ddak_place(mirrored, bench.profile, dopt);
  const auto plain = sim::simulate_epoch(topo, fg, workload, merged,
                                         plain_place);
  const auto mirror = sim::simulate_epoch(topo, fg, workload, mirrored,
                                          mirror_place);
  EXPECT_LT(mirror.qpi_bytes, plain.qpi_bytes);
  EXPECT_LE(mirror.epoch_time_s, plain.epoch_time_s * 1.05);
}

// ---------------------------------------------------------------- iostack

TEST(IoEngineExt, BatchSubmissionAndLatency) {
  iostack::SsdOptions opts;
  opts.capacity_bytes = 64 * iostack::kPageBytes;
  iostack::SsdArray array(2, opts);
  iostack::IoEngine engine(array);
  array.start_all();

  std::vector<std::byte> buf(32 * iostack::kPageBytes);
  std::vector<iostack::ReadRequest> reqs;
  for (int i = 0; i < 32; ++i) {
    reqs.push_back({static_cast<std::size_t>(i % 2),
                    static_cast<std::uint64_t>(i % 64) * iostack::kPageBytes,
                    static_cast<std::uint32_t>(iostack::kPageBytes),
                    buf.data() + static_cast<std::size_t>(i) *
                                     iostack::kPageBytes});
  }
  std::vector<std::size_t> failed;
  engine.wait(engine.submit(reqs), failed);
  EXPECT_TRUE(failed.empty());
  array.stop_all();

  const auto lat = engine.latency();
  EXPECT_EQ(lat.count, 32u);
  EXPECT_GT(lat.mean_ns, 0.0);
  EXPECT_GE(lat.max_ns, lat.mean_ns);
}

// -------------------------------------------------------------- trace sim

/// IG on a Machine A classic placement with 4 GPUs and 8 SSDs, DDAK-placed.
struct TraceRig {
  runtime::Workbench bench =
      runtime::Workbench::make(graph::DatasetId::kIG, 3, 42);
  ddak::EpochWorkload workload = ddak::make_epoch_workload(
      bench.dataset, bench.profile, ddak::CacheConfig{}, 4);
  topology::MachineSpec spec = topology::make_machine_a();
  topology::Topology topo;
  topology::FlowGraph fg;
  std::vector<ddak::Bin> bins;
  ddak::DataPlacementResult place;
  sampling::NeighborSampler sampler{bench.dataset.csr, {25, 10}};
  std::vector<graph::VertexId> train = sampling::select_train_vertices(
      bench.dataset.csr, bench.dataset.train_fraction, 42);

  explicit TraceRig(char which)
      : topo(topology::instantiate(
            spec, topology::classic_placement(spec, which, 4, 8))),
        fg(topology::compile_flow_graph(topo)) {
    const auto pred = topology::predict(
        fg, ddak::to_flow_demand(workload, fg,
                                 ddak::SupplyModel::kFlexibleTier));
    bins = sim::merge_replicated_gpu_bins(
        ddak::make_bins(topo, fg, pred.per_storage_bytes,
                        bench.dataset.scaled.vertices, 0.005, 0.01));
    ddak::DdakOptions dopt;
    dopt.pool_size = ddak::default_pool_size(bench.dataset.scaled.vertices);
    place = ddak::ddak_place(bins, bench.profile, dopt);
  }

  sim::SimReport expected(const sim::SimOptions& base) const {
    return sim::simulate_epoch(topo, fg, workload, bins, place, base);
  }
  sim::TraceSimReport traced(const sim::SimOptions& base,
                             std::size_t rounds) const {
    sim::TraceSimOptions topts;
    topts.base = base;
    topts.trace_rounds = rounds;
    return sim::simulate_epoch_traced(topo, fg, workload, bins, place,
                                      sampler, train, topts);
  }
};

TEST(TraceSim, AgreesWithExpectationMode) {
  const TraceRig rig('c');
  const auto traced = rig.traced({}, 8);
  ASSERT_EQ(traced.traced_rounds, 8u);
  EXPECT_GT(traced.epoch.epoch_time_s, 0.0);
  EXPECT_FALSE(traced.epoch.link_traffic.empty());
  EXPECT_GT(traced.round_io_time_s.stddev, 0.0) << "no sampling variance?";
  // Traced mean within 30% of expectation mode (same placement, same plan).
  const double expect = rig.expected({}).io_round_time_s;
  ASSERT_GT(expect, 0.0);
  EXPECT_LT(std::abs(traced.round_io_time_s.mean - expect) / expect, 0.30);
}

TEST(TraceSim, HonoursSsdModel) {
  // Each SSD setting moves the traced round IO time the way it moves
  // expectation mode's: same direction, both by at least 5%. Placement (b)
  // puts the SSDs front-first and all GPUs on PLX0, so partitioning the SSDs
  // per GPU leaves some GPUs reading only their slower subsets.
  const TraceRig rig('b');
  const sim::SimOptions healthy;
  const double expect0 = rig.expected(healthy).io_round_time_s;
  const double traced0 = rig.traced(healthy, 4).round_io_time_s.mean;
  ASSERT_GT(expect0, 0.0);
  ASSERT_GT(traced0, 0.0);

  sim::SimOptions iops;
  iops.ssd_iops = 200'000;
  sim::SimOptions partitioned;
  partitioned.partition_ssds_per_gpu = true;
  for (const auto& [name, opts] :
       {std::pair{"ssd_iops", iops},
        std::pair{"partition_ssds_per_gpu", partitioned}}) {
    const double expect_ratio = rig.expected(opts).io_round_time_s / expect0;
    const double traced_ratio =
        rig.traced(opts, 4).round_io_time_s.mean / traced0;
    ASSERT_GT(std::abs(expect_ratio - 1.0), 0.05) << name;
    EXPECT_GT(std::abs(traced_ratio - 1.0), 0.05) << name;
    EXPECT_EQ(expect_ratio > 1.0, traced_ratio > 1.0)
        << name << ": expectation x" << expect_ratio << ", traced x"
        << traced_ratio;
  }
}

TEST(TraceSim, DeterministicGivenSeed) {
  const auto bench = runtime::Workbench::make(graph::DatasetId::kPA, 4, 7);
  const auto workload = ddak::make_epoch_workload(
      bench.dataset, bench.profile, ddak::CacheConfig{}, 2);
  const auto spec = topology::make_machine_b();
  const auto topo = topology::instantiate(
      spec, topology::classic_placement(spec, 'c', 2, 4));
  const auto fg = topology::compile_flow_graph(topo);
  const auto pred = topology::predict(
      fg, ddak::to_flow_demand(workload, fg, ddak::SupplyModel::kUniformHash));
  auto bins = ddak::make_bins(topo, fg, pred.per_storage_bytes,
                              bench.dataset.scaled.vertices, 0.005, 0.01);
  const auto merged = sim::merge_replicated_gpu_bins(bins);
  const auto place = ddak::hash_place(merged, bench.profile);
  sampling::NeighborSampler sampler(bench.dataset.csr, {10, 5});
  const auto train = sampling::select_train_vertices(
      bench.dataset.csr, bench.dataset.train_fraction, 7);
  sim::TraceSimOptions topts;
  topts.trace_rounds = 4;
  const auto a = sim::simulate_epoch_traced(topo, fg, workload, merged,
                                            place, sampler, train, topts);
  const auto b = sim::simulate_epoch_traced(topo, fg, workload, merged,
                                            place, sampler, train, topts);
  EXPECT_DOUBLE_EQ(a.epoch.epoch_time_s, b.epoch.epoch_time_s);
  EXPECT_DOUBLE_EQ(a.epoch.qpi_bytes, b.epoch.qpi_bytes);
}

TEST(TraceSim, ValidatesInputs) {
  const auto bench = runtime::Workbench::make(graph::DatasetId::kPA, 4, 7);
  const auto workload = ddak::make_epoch_workload(
      bench.dataset, bench.profile, ddak::CacheConfig{}, 2);
  const auto spec = topology::make_machine_b();
  const auto topo = topology::instantiate(
      spec, topology::classic_placement(spec, 'c', 2, 4));
  const auto fg = topology::compile_flow_graph(topo);
  auto bins = ddak::make_bins(topo, fg, {}, bench.dataset.scaled.vertices,
                              0.005, 0.01);
  const auto merged = sim::merge_replicated_gpu_bins(bins);
  const auto place = ddak::hash_place(merged, bench.profile);
  sampling::NeighborSampler sampler(bench.dataset.csr, {4, 4});
  EXPECT_THROW(sim::simulate_epoch_traced(topo, fg, workload, merged, place,
                                          sampler, {}, {}),
               std::invalid_argument);
  const std::vector<graph::VertexId> train{0};
  sim::TraceSimOptions no_rounds;
  no_rounds.trace_rounds = 0;
  EXPECT_THROW(sim::simulate_epoch_traced(topo, fg, workload, merged, place,
                                          sampler, train, no_rounds),
               std::invalid_argument);
}

// ---------------------------------------------------------------- plan io

TEST(PlanIo, RoundTripsAutoModulePlan) {
  const auto spec = topology::make_machine_b();
  core::AutoModuleConfig cfg;
  cfg.machine = &spec;
  cfg.dataset = graph::DatasetId::kPA;
  cfg.dataset_scale_shift = 4;
  cfg.num_gpus = 2;
  cfg.num_ssds = 4;
  const core::Plan plan = core::AutoModule::plan(cfg);

  std::stringstream buffer;
  core::save_plan(plan, buffer);
  const core::Plan loaded = core::load_plan(buffer);

  EXPECT_EQ(loaded.hardware_placement.gpus_per_group,
            plan.hardware_placement.gpus_per_group);
  EXPECT_EQ(loaded.hardware_placement.ssds_per_group,
            plan.hardware_placement.ssds_per_group);
  ASSERT_EQ(loaded.bins.size(), plan.bins.size());
  for (std::size_t i = 0; i < plan.bins.size(); ++i) {
    EXPECT_EQ(loaded.bins[i].name, plan.bins[i].name);
    EXPECT_EQ(loaded.bins[i].tier, plan.bins[i].tier);
    EXPECT_NEAR(loaded.bins[i].traffic_target, plan.bins[i].traffic_target,
                std::abs(plan.bins[i].traffic_target) * 1e-4 + 1e-9);
    EXPECT_EQ(loaded.bins[i].replica_storage_indices,
              plan.bins[i].replica_storage_indices);
  }
  EXPECT_EQ(loaded.data_placement.bin_of_vertex,
            plan.data_placement.bin_of_vertex);
  EXPECT_EQ(loaded.data_placement.bin_count, plan.data_placement.bin_count);
}

TEST(PlanIo, RejectsCorruptInput) {
  std::stringstream bad1("not-a-plan\n");
  EXPECT_THROW(core::load_plan(bad1), std::runtime_error);
  std::stringstream bad2("moment-plan-v1\nvertices 10\nrun 0 99\nend\n");
  EXPECT_THROW(core::load_plan(bad2), std::runtime_error);
  std::stringstream bad3("moment-plan-v1\nbins 2\nend\n");
  EXPECT_THROW(core::load_plan(bad3), std::runtime_error);
  EXPECT_THROW(core::load_plan_file("/nonexistent/plan.txt"),
               std::runtime_error);
}

TEST(PlanIo, FileRoundTrip) {
  const auto spec = topology::make_machine_a();
  core::AutoModuleConfig cfg;
  cfg.machine = &spec;
  cfg.dataset = graph::DatasetId::kPA;
  cfg.dataset_scale_shift = 4;
  cfg.num_gpus = 2;
  cfg.num_ssds = 4;
  const core::Plan plan = core::AutoModule::plan(cfg);
  const std::string path = "/tmp/moment_plan_test.txt";
  core::save_plan_file(plan, path);
  const core::Plan loaded = core::load_plan_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.data_placement.bin_of_vertex,
            plan.data_placement.bin_of_vertex);
}

// ----------------------------------------------------------------- models

TEST(ModelPresets, GcnRegistered) {
  const auto preset = runtime::model_preset(gnn::ModelKind::kGcn);
  EXPECT_EQ(preset.name, "GCN");
  EXPECT_LT(preset.compute_time_per_batch,
            runtime::model_preset(gnn::ModelKind::kGat)
                .compute_time_per_batch);
}

}  // namespace
}  // namespace moment
