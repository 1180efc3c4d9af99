// Edge-case and failure-injection tests: boundary inputs, degenerate
// topologies, empty workloads, and misuse paths across the library.

#include <gtest/gtest.h>

#include "ddak/ddak.hpp"
#include "ddak/workload.hpp"
#include "gnn/model.hpp"
#include "gnn/synthetic.hpp"
#include "graph/generators.hpp"
#include "iostack/feature_store.hpp"
#include "maxflow/dinic.hpp"
#include "placement/search.hpp"
#include "runtime/systems.hpp"
#include "sim/machine_sim.hpp"
#include "topology/discovery.hpp"
#include "topology/machine.hpp"
#include "util/units.hpp"

namespace moment {
namespace {

// ------------------------------------------------------------------ graph

TEST(EdgeGraph, EmptyEdgeList) {
  graph::EdgeList el;
  el.num_vertices = 4;
  const auto g = graph::CsrGraph::from_edges(el, true);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (graph::VertexId v = 0; v < 4; ++v) {
    EXPECT_TRUE(g.neighbors(v).empty());
  }
  const auto stats = graph::degree_stats(g);
  EXPECT_EQ(stats.mean, 0.0);
}

TEST(EdgeGraph, SingleVertexSelfLoop) {
  graph::EdgeList el;
  el.num_vertices = 1;
  el.edges = {{0, 0}};
  const auto g = graph::CsrGraph::from_edges(el, false);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.neighbors(0)[0], 0u);
}

TEST(EdgeGraph, TinyRmat) {
  graph::RmatParams p;
  p.num_vertices = 1;
  p.num_edges = 4;
  const auto g = graph::generate_rmat(p);
  EXPECT_EQ(g.num_vertices(), 1u);  // rounds to the pow2 floor of 1
  EXPECT_EQ(g.num_edges(), 8u);     // all self loops, doubled
}

// ---------------------------------------------------------------- maxflow

TEST(EdgeMaxflow, SourceEqualsSinkNeighborhood) {
  // Direct s->t edge only.
  maxflow::FlowNetwork net(2);
  net.add_edge(0, 1, 3.5);
  EXPECT_NEAR(maxflow::Dinic::solve(net, 0, 1).total_flow, 3.5, 1e-12);
}

TEST(EdgeMaxflow, ZeroCapacityEdgeCarriesNothing) {
  maxflow::FlowNetwork net(3);
  net.add_edge(0, 1, 0.0);
  net.add_edge(1, 2, 5.0);
  EXPECT_EQ(maxflow::Dinic::solve(net, 0, 2).total_flow, 0.0);
}

TEST(EdgeMaxflow, AntiparallelEdges) {
  maxflow::FlowNetwork net(3);
  net.add_edge(0, 1, 4.0);
  net.add_edge(1, 0, 9.0);  // must not leak capacity back
  net.add_edge(1, 2, 3.0);
  EXPECT_NEAR(maxflow::Dinic::solve(net, 0, 2).total_flow, 3.0, 1e-12);
}

// --------------------------------------------------------------- topology

TEST(EdgeTopology, OneGpuZeroSsdPlacement) {
  const auto spec = topology::make_machine_a();
  topology::Placement p;
  p.gpus_per_group = {0, 0, 1, 0};
  p.ssds_per_group = {0, 0, 0, 0};
  ASSERT_EQ(topology::validate_placement(spec, p), "");
  const auto topo = topology::instantiate(spec, p);
  const auto fg = topology::compile_flow_graph(topo);
  EXPECT_EQ(fg.gpus.size(), 1u);
  // No SSD tier edge; DRAM + HBM still present.
  EXPECT_LT(fg.tier_edge[static_cast<int>(topology::StorageTier::kSsd)], 0);
  EXPECT_GE(fg.tier_edge[static_cast<int>(topology::StorageTier::kCpuDram)],
            0);
  // Prediction still works: everything comes from DRAM/HBM.
  topology::WorkloadDemand d;
  d.per_gpu_bytes = {1.0 * util::kGiB};
  const auto pred = topology::predict(fg, d);
  EXPECT_TRUE(pred.feasible);
}

TEST(EdgeTopology, MaxedOutSlots) {
  const auto spec = topology::make_machine_b();
  // Fill every unit: RC0 2 GPUs (4u), RC1 4 GPUs (8u), PLX0 6 GPUs (12u)...
  topology::Placement p;
  p.gpus_per_group = {2, 4, 6, 6};
  p.ssds_per_group = {0, 0, 0, 0};
  EXPECT_EQ(topology::validate_placement(spec, p), "");
  p.gpus_per_group = {2, 4, 6, 7};  // one over
  EXPECT_NE(topology::validate_placement(spec, p), "");
}

TEST(EdgeTopology, DiscoveryHandlesCommentsAndBlankLines) {
  const auto spec = topology::parse_machine_spec_string(
      "# header comment\n\nmachine M # trailing\n\n"
      "device RC0 root_complex\n"
      "slots g RC0 2 ssd\n# done\n");
  EXPECT_EQ(spec.name, "M");
  EXPECT_EQ(spec.slot_groups.size(), 1u);
}

// ------------------------------------------------------------------- ddak

TEST(EdgeDdak, SingleBinTakesEverything) {
  sampling::HotnessProfile p;
  p.hotness = {3.0, 1.0, 2.0};
  p.batch_size = 1;
  p.fetches_per_batch = 6;
  std::vector<ddak::Bin> bins(1);
  bins[0] = {"SSD0", 0, topology::StorageTier::kSsd, 3.0, 1.0, {}};
  const auto r = ddak::ddak_place(bins, p);
  EXPECT_EQ(r.bin_count[0], 3u);
  EXPECT_NEAR(r.bin_traffic_share[0], 1.0, 1e-12);
}

TEST(EdgeDdak, AllZeroHotness) {
  sampling::HotnessProfile p;
  p.hotness.assign(100, 0.0);
  p.batch_size = 1;
  p.fetches_per_batch = 1;
  std::vector<ddak::Bin> bins(2);
  bins[0] = {"GPU", 0, topology::StorageTier::kGpuHbm, 10.0, 1.0, {}};
  bins[1] = {"SSD", 1, topology::StorageTier::kSsd, 100.0, 1.0, {}};
  const auto r = ddak::ddak_place(bins, p);
  std::size_t placed = 0;
  for (auto b : r.bin_of_vertex) placed += b >= 0;
  EXPECT_EQ(placed, 100u);
}

TEST(EdgeDdak, SmoothingPreservesTierTotals) {
  const auto spec = topology::make_machine_a();
  const auto topo = topology::instantiate(
      spec, topology::classic_placement(spec, 'b', 4, 8));
  const auto fg = topology::compile_flow_graph(topo);
  std::vector<double> traffic(fg.storage.size());
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    traffic[i] = static_cast<double>(i * 7 % 13);
  }
  const auto smooth = ddak::smooth_storage_traffic(topo, fg, traffic);
  double before = 0.0, after = 0.0;
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    if (fg.storage[i].tier == topology::StorageTier::kGpuHbm) {
      EXPECT_EQ(smooth[i], traffic[i]);  // HBM untouched
    } else {
      before += traffic[i];
      after += smooth[i];
    }
  }
  EXPECT_NEAR(before, after, 1e-9);
}

TEST(EdgeDdak, WorkloadWithFullCoverageCaches) {
  // Caches big enough for the whole graph: SSD fraction goes to ~zero.
  const auto ds = graph::make_dataset(graph::DatasetId::kPA, 4);
  sampling::HotnessProfile p;
  p.hotness.assign(ds.scaled.vertices, 1.0);
  p.batch_size = 8;
  p.fetches_per_batch = 64;
  ddak::CacheConfig cache;
  cache.gpu_cache_fraction = 0.6;
  cache.cpu_cache_fraction = 0.5;
  const auto w = ddak::make_epoch_workload(ds, p, cache, 2);
  EXPECT_NEAR(w.ssd_fraction, 0.0, 1e-9);
  EXPECT_NEAR(w.gpu_hit_fraction + w.cpu_hit_fraction, 1.0, 1e-9);
}

// -------------------------------------------------------------------- gnn

TEST(EdgeGnn, BatchOfOneSeed) {
  graph::RmatParams gp;
  gp.num_vertices = 256;
  gp.num_edges = 2000;
  const auto g = graph::generate_rmat(gp);
  sampling::NeighborSampler sampler(g, {3, 3});
  util::Pcg32 rng(1);
  const std::vector<graph::VertexId> seeds = {0};
  const auto blocks = gnn::build_blocks(sampler.sample(seeds, rng));
  gnn::ModelConfig cfg;
  cfg.in_dim = 4;
  cfg.hidden_dim = 4;
  cfg.num_classes = 2;
  gnn::GnnModel model(cfg);
  gnn::Tensor x0 = gnn::Tensor::glorot(blocks[0].num_src(), 4, rng);
  const auto logits = model.forward(blocks, x0);
  EXPECT_EQ(logits.rows(), 1u);
}

TEST(EdgeGnn, IsolatedSeedStillClassified) {
  // A graph where the seed has no neighbors: aggregation must degrade
  // gracefully (zero neighbor mean), not crash.
  graph::EdgeList el;
  el.num_vertices = 4;
  el.edges = {{1, 2}};  // vertex 0 isolated
  const auto g = graph::CsrGraph::from_edges(el, true);
  sampling::NeighborSampler sampler(g, {2, 2});
  util::Pcg32 rng(2);
  const std::vector<graph::VertexId> seeds = {0};
  const auto sg = sampler.sample(seeds, rng);
  const auto blocks = gnn::build_blocks(sg);
  gnn::ModelConfig cfg;
  cfg.in_dim = 3;
  cfg.hidden_dim = 3;
  cfg.num_classes = 2;
  gnn::GnnModel model(cfg);
  gnn::Tensor x0 = gnn::Tensor::glorot(blocks[0].num_src(), 3, rng);
  const auto logits = model.forward(blocks, x0);
  EXPECT_EQ(logits.rows(), 1u);
  EXPECT_TRUE(std::isfinite(logits.at(0, 0)));
}

TEST(EdgeGnn, ModelRejectsWrongBlockCount) {
  gnn::ModelConfig cfg;
  cfg.num_hops = 2;
  cfg.in_dim = 4;
  gnn::GnnModel model(cfg);
  std::vector<gnn::Block> one_block(1);
  gnn::Tensor x(0, 4);
  EXPECT_THROW(model.forward(one_block, x), std::invalid_argument);
  gnn::ModelConfig zero;
  zero.num_hops = 0;
  EXPECT_THROW(gnn::GnnModel{zero}, std::invalid_argument);
}

// ---------------------------------------------------------------- iostack

TEST(EdgeIostack, ZeroLengthReadCompletes) {
  iostack::SsdOptions opts;
  opts.capacity_bytes = iostack::kPageBytes;
  iostack::SsdArray array(1, opts);
  iostack::IoEngine engine(array);
  array.start_all();
  std::byte dummy;
  const std::vector<iostack::ReadRequest> reqs = {{0, 0, 0, &dummy}};
  std::vector<std::size_t> failed;
  engine.wait(engine.submit(reqs), failed);
  EXPECT_TRUE(failed.empty());
  EXPECT_EQ(engine.latency().count, 1u);
  array.stop_all();
}

TEST(EdgeIostack, StopWithOutstandingRequestsDrains) {
  iostack::SsdOptions opts;
  opts.capacity_bytes = 8 * iostack::kPageBytes;
  opts.max_bytes_per_s = 64.0 * 1024;  // slow device
  iostack::SsdDevice ssd(opts);
  // A raw queue pair, so every request is in the SQ before stop().
  iostack::QueuePair* qp = ssd.create_queue_pair(/*depth=*/8);
  ssd.start();
  std::vector<std::byte> buf(8 * iostack::kPageBytes);
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(qp->submit({i * iostack::kPageBytes,
                            static_cast<std::uint32_t>(iostack::kPageBytes),
                            buf.data() + i * iostack::kPageBytes, i}));
  }
  ssd.stop();  // shutdown drain must complete all requests
  iostack::Cqe cqe;
  std::size_t ok = 0;
  while (qp->poll_completion(cqe)) {
    ok += cqe.status == iostack::kStatusOk ? 1 : 0;
  }
  EXPECT_EQ(ok, 8u);
}

TEST(EdgeIostack, EngineRejectsBadSsdIndex) {
  iostack::SsdOptions opts;
  iostack::SsdArray array(1, opts);
  iostack::IoEngine engine(array);
  std::byte dummy;
  const std::vector<iostack::ReadRequest> reqs = {{3, 0, 1, &dummy}};
  EXPECT_THROW(engine.submit(reqs), std::out_of_range);
}

// -------------------------------------------------------------------- sim

TEST(EdgeSim, SingleGpuNoImbalance) {
  const auto bench = runtime::Workbench::make(graph::DatasetId::kPA, 4, 1);
  const auto workload = ddak::make_epoch_workload(
      bench.dataset, bench.profile, ddak::CacheConfig{}, 1);
  const auto spec = topology::make_machine_a();
  const auto topo = topology::instantiate(
      spec, topology::classic_placement(spec, 'c', 1, 2));
  const auto fg = topology::compile_flow_graph(topo);
  auto bins = ddak::make_bins(topo, fg, {}, bench.dataset.scaled.vertices,
                              0.005, 0.01);
  const auto merged = sim::merge_replicated_gpu_bins(bins);
  const auto place = ddak::hash_place(merged, bench.profile);
  const auto rep = sim::simulate_epoch(topo, fg, workload, merged, place);
  EXPECT_EQ(rep.per_gpu_io_bandwidth.size(), 1u);
  EXPECT_EQ(rep.imbalance_cv, 0.0);
  EXPECT_GT(rep.epoch_time_s, 0.0);
}

TEST(EdgeSim, MismatchedPlacementRejected) {
  const auto bench = runtime::Workbench::make(graph::DatasetId::kPA, 4, 1);
  const auto workload = ddak::make_epoch_workload(
      bench.dataset, bench.profile, ddak::CacheConfig{}, 2);
  const auto spec = topology::make_machine_a();
  const auto topo = topology::instantiate(
      spec, topology::classic_placement(spec, 'c', 2, 4));
  const auto fg = topology::compile_flow_graph(topo);
  auto bins = ddak::make_bins(topo, fg, {}, bench.dataset.scaled.vertices,
                              0.005, 0.01);
  ddak::DataPlacementResult bogus;  // empty shares
  EXPECT_THROW(sim::simulate_epoch(topo, fg, workload, bins, bogus),
               std::invalid_argument);
}

// ---------------------------------------------------------------- runtime

TEST(EdgeRuntime, MachineRequiredForLocalSystems) {
  runtime::ExperimentConfig c;
  c.machine = nullptr;
  EXPECT_THROW(runtime::run_system(runtime::SystemKind::kMoment, c),
               std::invalid_argument);
}

TEST(EdgeRuntime, SixSsdConfigWorks) {
  // The artifact description's example config uses num_ssd = 6.
  const auto spec = topology::make_machine_a();
  const runtime::Workbench bench =
      runtime::Workbench::make(graph::DatasetId::kPA, 4, 3);
  runtime::ExperimentConfig c;
  c.machine = &spec;
  c.dataset = graph::DatasetId::kPA;
  c.num_gpus = 2;
  c.num_ssds = 6;
  const auto r = runtime::run_system(runtime::SystemKind::kMoment, c, bench);
  EXPECT_FALSE(r.oom);
  EXPECT_EQ(r.placement.total_ssds(), 6);
  EXPECT_GT(r.throughput_seeds_per_s, 0.0);
}

}  // namespace
}  // namespace moment
