// Tests for the topology-aware communication layer: CommPlan compilation
// (determinism, schedule shape, chunk sizing), contention-costed prediction,
// link-byte conservation, the engine's planned all-reduce (bit-identical to
// the flat path by construction), and the peer-HBM gather path through
// TieredFeatureClient. Registered under the `comm` CTest label (also run
// under TSan — see DESIGN.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/plan.hpp"
#include "comm/planner.hpp"
#include "gnn/synthetic.hpp"
#include "graph/generators.hpp"
#include "iostack/feature_store.hpp"
#include "runtime/parallel_trainer.hpp"
#include "topology/machine.hpp"
#include "util/rng.hpp"

namespace moment::comm {
namespace {

topology::Topology make_topo(char which, int gpus) {
  const auto spec = topology::make_machine_a();
  return topology::instantiate(
      spec, topology::classic_placement(spec, which, gpus, 8));
}

/// Field-by-field structural equality (CommPlan has no operator==).
void expect_plans_equal(const CommPlan& a, const CommPlan& b) {
  EXPECT_EQ(a.algo, b.algo);
  EXPECT_EQ(a.num_gpus, b.num_gpus);
  EXPECT_EQ(a.num_links, b.num_links);
  EXPECT_EQ(a.ring_order, b.ring_order);
  ASSERT_EQ(a.chunk_share.size(), b.chunk_share.size());
  for (std::size_t i = 0; i < a.chunk_share.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.chunk_share[i], b.chunk_share[i]);
  }
  EXPECT_EQ(a.route_of, b.route_of);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t s = 0; s < a.steps.size(); ++s) {
    ASSERT_EQ(a.steps[s].transfers.size(), b.steps[s].transfers.size());
    for (std::size_t t = 0; t < a.steps[s].transfers.size(); ++t) {
      const Transfer& x = a.steps[s].transfers[t];
      const Transfer& y = b.steps[s].transfers[t];
      EXPECT_EQ(x.src_gpu, y.src_gpu);
      EXPECT_EQ(x.dst_gpu, y.dst_gpu);
      EXPECT_DOUBLE_EQ(x.fraction, y.fraction);
      EXPECT_EQ(x.route, y.route);
    }
  }
}

TEST(Planner, DeterministicCompilation) {
  // Identical topologies must yield identical plans — the engine, the
  // clients and the simulator all assume one canonical plan per machine.
  const auto topo1 = make_topo('c', 4);
  const auto topo2 = make_topo('c', 4);
  const CommPlanner p1(topo1);
  const CommPlanner p2(topo2);
  for (auto algo : {AllReduceAlgo::kFlat, AllReduceAlgo::kRing,
                    AllReduceAlgo::kTree, AllReduceAlgo::kAuto}) {
    const CommPlan a = p1.plan(algo);
    const CommPlan b = p2.plan(algo);
    expect_plans_equal(a, b);
    const double payload = 8.0 * 1024 * 1024;
    EXPECT_DOUBLE_EQ(a.predicted_seconds(payload),
                     b.predicted_seconds(payload));
  }
}

TEST(Planner, PairBandwidthMatrix) {
  const auto topo = make_topo('c', 4);
  const CommPlanner planner(topo);
  ASSERT_EQ(planner.num_gpus(), 4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i == j) {
        EXPECT_EQ(planner.pair_bandwidth(i, j), 0.0);
      } else {
        EXPECT_GT(planner.pair_bandwidth(i, j), 0.0) << i << "->" << j;
      }
    }
  }
}

TEST(Planner, RingScheduleShape) {
  const auto topo = make_topo('c', 4);
  const CommPlan plan = CommPlanner(topo).plan(AllReduceAlgo::kRing);
  const int n = plan.num_gpus;
  ASSERT_EQ(n, 4);
  // Reduce-scatter + all-gather: 2(N-1) steps, N concurrent hops each.
  ASSERT_EQ(plan.steps.size(), static_cast<std::size_t>(2 * (n - 1)));
  for (const Step& s : plan.steps) {
    EXPECT_EQ(s.transfers.size(), static_cast<std::size_t>(n));
  }
  // ring_order is a GPU permutation anchored at 0.
  ASSERT_EQ(plan.ring_order.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(plan.ring_order[0], 0);
  auto sorted = plan.ring_order;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < n; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
  // Chunk shares: one per position, each positive, summing to 1.
  ASSERT_EQ(plan.chunk_share.size(), static_cast<std::size_t>(n));
  double sum = 0.0;
  for (double s : plan.chunk_share) {
    EXPECT_GT(s, 0.0);
    sum += s;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_EQ(plan.num_links, topo.num_links());
}

TEST(Planner, PeerRoutesCoverAllPairs) {
  const auto topo = make_topo('c', 4);
  const CommPlan plan = CommPlanner(topo).plan(AllReduceAlgo::kRing);
  for (int i = 0; i < plan.num_gpus; ++i) {
    for (int j = 0; j < plan.num_gpus; ++j) {
      const PeerRoute* r = plan.peer_route(i, j);
      if (i == j) {
        EXPECT_EQ(r, nullptr);
        continue;
      }
      ASSERT_NE(r, nullptr) << i << "->" << j;
      EXPECT_TRUE(r->valid());
      EXPECT_EQ(r->src_gpu, i);
      EXPECT_EQ(r->dst_gpu, j);
      EXPECT_GT(r->bottleneck_bw(), 0.0);
      EXPECT_GT(r->max_flow_bw, 0.0);
      for (const RouteLink& rl : r->links) {
        EXPECT_GE(rl.link, 0);
        EXPECT_GT(rl.capacity, 0.0);
      }
    }
  }
  EXPECT_EQ(plan.peer_route(-1, 0), nullptr);
  EXPECT_EQ(plan.peer_route(0, plan.num_gpus), nullptr);
}

/// A route as "label>" (link traversed a->b) or "label<" (b->a) per hop.
/// Also checks each hop's capacity is its link's rate in that direction.
std::string describe(const topology::Topology& topo, const PeerRoute& r) {
  std::string out;
  for (const RouteLink& rl : r.links) {
    const topology::Link& l = topo.link(rl.link);
    EXPECT_EQ(rl.capacity, rl.forward ? l.bw_ab : l.bw_ba) << l.label;
    out += (out.empty() ? "" : " ") + l.label + (rl.forward ? ">" : "<");
  }
  return out;
}

TEST(Planner, PeerRoutesFollowFlowGraph) {
  // The routes the planner's own widest-shortest search picked before peer
  // routes came from the flow-graph router; the two agreed on every pair.
  // Machine B, placement c: GPUs 0-1 on PLX0, GPUs 2-3 on PLX1, which hangs
  // off PLX0 over the cascade link Bus16.
  {
    const auto spec = topology::make_machine_b();
    const auto topo = topology::instantiate(
        spec, topology::classic_placement(spec, 'c', 4, 8));
    const CommPlan plan = CommPlanner(topo).plan(AllReduceAlgo::kRing);
    const char* const want[4][4] = {
        {"", "PLX0.slots.gpu0< PLX0.slots.gpu1>",
         "PLX0.slots.gpu0< Bus16> PLX1.slots.gpu0>",
         "PLX0.slots.gpu0< Bus16> PLX1.slots.gpu1>"},
        {"PLX0.slots.gpu1< PLX0.slots.gpu0>", "",
         "PLX0.slots.gpu1< Bus16> PLX1.slots.gpu0>",
         "PLX0.slots.gpu1< Bus16> PLX1.slots.gpu1>"},
        {"PLX1.slots.gpu0< Bus16< PLX0.slots.gpu0>",
         "PLX1.slots.gpu0< Bus16< PLX0.slots.gpu1>", "",
         "PLX1.slots.gpu0< PLX1.slots.gpu1>"},
        {"PLX1.slots.gpu1< Bus16< PLX0.slots.gpu0>",
         "PLX1.slots.gpu1< Bus16< PLX0.slots.gpu1>",
         "PLX1.slots.gpu1< PLX1.slots.gpu0>", ""}};
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (i == j) continue;
        const PeerRoute* r = plan.peer_route(i, j);
        ASSERT_NE(r, nullptr) << i << "->" << j;
        EXPECT_EQ(describe(topo, *r), want[i][j]) << i << "->" << j;
      }
    }
  }
  // Machine A, placement c with NVLink: GPU0 and GPU2 sit on different
  // switches but share the bridge NVLink0, one hop either way; GPU0 -> GPU3
  // has no bridge and crosses both switches and QPI.
  {
    const auto spec = topology::make_machine_a();
    auto p = topology::classic_placement(spec, 'c', 4, 8);
    p.nvlink = true;
    const auto topo = topology::instantiate(spec, p);
    const CommPlan plan = CommPlanner(topo).plan(AllReduceAlgo::kRing);
    EXPECT_EQ(describe(topo, *plan.peer_route(0, 2)), "NVLink0>");
    EXPECT_EQ(describe(topo, *plan.peer_route(2, 0)), "NVLink0<");
    EXPECT_EQ(describe(topo, *plan.peer_route(0, 3)),
              "PLX0.slots.gpu0< Bus9< QPI> Bus10> PLX1.slots.gpu1>");
  }
}

TEST(Planner, PeerRoutesFollowLinkOrientation) {
  // A link may list the GPU end first; each hop's direction and capacity
  // follow the link's own a/b order.
  topology::Topology topo;
  const auto rc = topo.add_device(topology::DeviceKind::kRootComplex, "RC0", 0);
  const auto g0 = topo.add_device(topology::DeviceKind::kGpu, "GPU0", 0);
  const auto g1 = topo.add_device(topology::DeviceKind::kGpu, "GPU1", 1);
  topo.add_link(g0, rc, topology::LinkKind::kPcie, 10.0, 20.0, "up");
  topo.add_link(rc, g1, topology::LinkKind::kPcie, 30.0, 40.0, "down");
  const CommPlan plan = CommPlanner(topo).plan(AllReduceAlgo::kRing);
  EXPECT_EQ(describe(topo, *plan.peer_route(0, 1)), "up> down>");
  EXPECT_EQ(describe(topo, *plan.peer_route(1, 0)), "down< up<");
}

TEST(Plan, SchedulePayloadMatchesAnalyticVolume) {
  const auto topo = make_topo('c', 4);
  const CommPlanner planner(topo);
  const double payload = 1.0 * 1024 * 1024;
  // Flat hub-and-spoke: (N-1) spokes in, (N-1) spokes out.
  const CommPlan flat = planner.plan(AllReduceAlgo::kFlat);
  EXPECT_NEAR(flat.schedule_payload_bytes(payload), 2.0 * payload * 3.0,
              1e-6);
  // Ring reduce-scatter + all-gather: 2(N-1) steps each injecting the whole
  // payload once across the N hops (shares sum to 1).
  const CommPlan ring = planner.plan(AllReduceAlgo::kRing);
  EXPECT_NEAR(ring.schedule_payload_bytes(payload), 2.0 * payload * 3.0,
              1e-6);
}

TEST(Plan, LinkByteCountersConserved) {
  // account() must add exactly what link_volume() reports, and both must
  // equal the schedule walked by hand: every transfer charges
  // llround(fraction * payload) to each link on its route.
  const auto topo = make_topo('c', 4);
  const double payload = 48.0 * 1024 * 1024;
  for (auto algo : {AllReduceAlgo::kFlat, AllReduceAlgo::kRing,
                    AllReduceAlgo::kTree}) {
    const CommPlan plan = CommPlanner(topo).plan(algo);
    LinkCounters counters(plan.num_links);
    plan.account(payload, counters);
    const auto vols = plan.link_volume(payload);
    std::uint64_t vol_total = 0;
    for (const LinkVolume& v : vols) {
      EXPECT_EQ(counters.ab(v.link), v.ab) << to_string(algo);
      EXPECT_EQ(counters.ba(v.link), v.ba) << to_string(algo);
      vol_total += v.ab + v.ba;
    }
    std::uint64_t schedule_total = 0;
    for (const Step& s : plan.steps) {
      for (const Transfer& t : s.transfers) {
        const auto bytes = static_cast<std::uint64_t>(
            std::llround(t.fraction * payload));
        ASSERT_GE(t.route, 0);
        schedule_total +=
            bytes * plan.routes[static_cast<std::size_t>(t.route)].links.size();
      }
    }
    EXPECT_EQ(vol_total, schedule_total) << to_string(algo);
    // reset() really zeroes.
    counters.reset();
    for (const auto v : counters.snapshot()) EXPECT_EQ(v, 0u);
  }
}

TEST(Plan, RingBeatsFlatOnMultiGpuPresets) {
  // The point of the planner: spreading the payload over all ring hops beats
  // funnelling 2(N-1) payloads through the hub's single link.
  const double payload = 64.0 * 1024 * 1024;
  for (int gpus : {4, 8}) {
    const auto topo = make_topo('c', gpus);
    const CommPlanner planner(topo);
    const double flat =
        planner.plan(AllReduceAlgo::kFlat).predicted_seconds(payload);
    const double ring =
        planner.plan(AllReduceAlgo::kRing).predicted_seconds(payload);
    EXPECT_LT(ring, flat) << gpus << " GPUs";
  }
}

TEST(Plan, AutoPicksLowestPredictedTime) {
  const auto topo = make_topo('c', 4);
  const CommPlanner planner(topo);
  const double payload = CommPlanner::kDefaultReferencePayload;
  const double best =
      planner.plan(AllReduceAlgo::kAuto).predicted_seconds(payload);
  for (auto algo : {AllReduceAlgo::kFlat, AllReduceAlgo::kRing,
                    AllReduceAlgo::kTree}) {
    EXPECT_LE(best, planner.plan(algo).predicted_seconds(payload) + 1e-15);
  }
}

TEST(Plan, ParseAlgoRoundTrip) {
  EXPECT_EQ(parse_algo("flat"), AllReduceAlgo::kFlat);
  EXPECT_EQ(parse_algo("ring"), AllReduceAlgo::kRing);
  EXPECT_EQ(parse_algo("tree"), AllReduceAlgo::kTree);
  EXPECT_EQ(parse_algo("auto"), AllReduceAlgo::kAuto);
  EXPECT_THROW(parse_algo("bogus"), std::invalid_argument);
  for (auto algo : {AllReduceAlgo::kFlat, AllReduceAlgo::kRing,
                    AllReduceAlgo::kTree, AllReduceAlgo::kAuto}) {
    EXPECT_EQ(parse_algo(to_string(algo)), algo);
  }
}

TEST(Plan, DegeneratePlansForTinyMachines) {
  // A 1-GPU machine needs no communication: empty schedule, zero cost.
  const auto topo = make_topo('c', 1);
  const CommPlan plan = CommPlanner(topo).plan(AllReduceAlgo::kAuto);
  EXPECT_EQ(plan.num_gpus, 1);
  EXPECT_TRUE(plan.steps.empty());
  EXPECT_EQ(plan.predicted_seconds(1 << 20), 0.0);
  EXPECT_TRUE(plan.link_volume(1 << 20).empty());
}

// ---------------------------------------------------------------------------
// Engine integration: the planned all-reduce must be a pure transport model.

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

TEST(EngineComm, PlannedAllReduceBitIdenticalToFlat) {
  // Acceptance criterion: the plan changes the modeled transport only. The
  // loss trajectory must be BIT-identical across no-plan, flat-plan and
  // ring-plan runs on the 4-GPU preset (same fixed-order reduction kernel).
  const auto topo = make_topo('c', 4);
  const CommPlanner planner(topo);
  const CommPlan flat = planner.plan(AllReduceAlgo::kFlat);
  const CommPlan ring = planner.plan(AllReduceAlgo::kRing);
  LinkCounters flat_counters(flat.num_links);
  LinkCounters ring_counters(ring.num_links);

  TrainerRig rig_none = TrainerRig::make(4);
  TrainerRig rig_flat = TrainerRig::make(4);
  TrainerRig rig_ring = TrainerRig::make(4);
  auto train = sampling::select_train_vertices(rig_none.g, 0.25, 2);

  runtime::EngineOptions none_opts;
  runtime::EngineOptions flat_opts;
  flat_opts.comm_plan = &flat;
  flat_opts.link_counters = &flat_counters;
  runtime::EngineOptions ring_opts;
  ring_opts.comm_plan = &ring;
  ring_opts.link_counters = &ring_counters;

  runtime::DataParallelTrainer none(rig_none.g, rig_none.providers,
                                    rig_none.model_config(), {5, 5}, train,
                                    0.01f, 11, none_opts);
  runtime::DataParallelTrainer with_flat(rig_flat.g, rig_flat.providers,
                                         rig_flat.model_config(), {5, 5},
                                         train, 0.01f, 11, flat_opts);
  runtime::DataParallelTrainer with_ring(rig_ring.g, rig_ring.providers,
                                         rig_ring.model_config(), {5, 5},
                                         train, 0.01f, 11, ring_opts);
  for (int epoch = 0; epoch < 3; ++epoch) {
    const auto a = none.train_epoch(rig_none.task.labels, 32);
    const auto b = with_flat.train_epoch(rig_flat.task.labels, 32);
    const auto c = with_ring.train_epoch(rig_ring.task.labels, 32);
    ASSERT_EQ(a.batches, b.batches);
    ASSERT_EQ(a.batches, c.batches);
    // Bitwise float equality, not near: same kernel, same order.
    EXPECT_EQ(a.mean_loss, b.mean_loss) << "epoch " << epoch;
    EXPECT_EQ(a.mean_loss, c.mean_loss) << "epoch " << epoch;
    EXPECT_EQ(a.mean_accuracy, c.mean_accuracy);
    EXPECT_TRUE(with_ring.replicas_in_sync());
    // Telemetry populated only when a plan is wired.
    EXPECT_TRUE(a.comm.algorithm.empty());
    EXPECT_EQ(b.comm.algorithm, "flat");
    EXPECT_EQ(c.comm.algorithm, "ring");
    EXPECT_GT(c.comm.payload_bytes, 0u);
    EXPECT_GT(c.comm.predicted_comm_s, 0.0);
    EXPECT_FALSE(c.comm.links.empty());
    EXPECT_FALSE(runtime::comm_report(c).empty());
    EXPECT_TRUE(runtime::comm_report(a).empty());
  }
}

TEST(EngineComm, EpochLinkBytesMatchPlanVolume) {
  // Per-epoch modeled bytes == rounds x one all-reduce's link volume,
  // exactly (llround-based accounting on both sides).
  const auto topo = make_topo('c', 4);
  const CommPlan ring = CommPlanner(topo).plan(AllReduceAlgo::kRing);
  LinkCounters counters(ring.num_links);
  TrainerRig rig = TrainerRig::make(4);
  auto train = sampling::select_train_vertices(rig.g, 0.25, 3);
  runtime::EngineOptions opts;
  opts.comm_plan = &ring;
  opts.link_counters = &counters;
  runtime::DataParallelTrainer trainer(rig.g, rig.providers,
                                       rig.model_config(), {5, 5}, train,
                                       0.01f, 17, opts);
  const auto stats = trainer.train_epoch(rig.task.labels, 32);
  ASSERT_GT(stats.rounds, 0u);
  const auto vols =
      ring.link_volume(static_cast<double>(stats.comm.payload_bytes));
  std::uint64_t per_round = 0;
  for (const LinkVolume& v : vols) per_round += v.ab + v.ba;
  EXPECT_EQ(stats.comm.modeled_bytes, per_round * stats.rounds);
  // The engine's per-link deltas must agree with the raw counters.
  std::uint64_t from_links = 0;
  for (const auto& l : stats.comm.links) from_links += l.ab + l.ba;
  EXPECT_EQ(from_links, stats.comm.modeled_bytes);
}

// ---------------------------------------------------------------------------
// Peer-HBM gather path.

constexpr std::size_t kVertices = 512;
constexpr std::size_t kDim = 12;

/// Store whose GPU tier is split into two owned HBM bins (GPU0 / GPU1) plus
/// a CPU bin and two SSD bins — so every client sees local HBM rows, remote
/// HBM rows, cache rows and SSD rows in one batch.
struct PeerRig {
  graph::CsrGraph g;
  gnn::SyntheticTask task;
  std::vector<iostack::BinBacking> bins;
  std::vector<std::int32_t> bov;
  iostack::SsdArray array;
  iostack::TieredFeatureStore store;

  PeerRig()
      : g(make_graph()),
        task(gnn::make_synthetic_task(g, 4, kDim, 0.3, 9)),
        bins({{iostack::BinBacking::Kind::kGpuCache, -1, 0},
              {iostack::BinBacking::Kind::kGpuCache, -1, 1},
              {iostack::BinBacking::Kind::kCpuCache, -1, -1},
              {iostack::BinBacking::Kind::kSsd, 0, -1},
              {iostack::BinBacking::Kind::kSsd, 1, -1}}),
        bov(make_bov()),
        array(2, make_ssd_options()),
        store(task.features, bov, bins, array) {}

  static graph::CsrGraph make_graph() {
    graph::RmatParams gp;
    gp.num_vertices = kVertices;
    gp.num_edges = 4000;
    return graph::generate_rmat(gp);
  }
  static std::vector<std::int32_t> make_bov() {
    std::vector<std::int32_t> bov(kVertices);
    for (std::size_t v = 0; v < kVertices; ++v) {
      if (v < 24) bov[v] = 0;        // GPU0-owned HBM
      else if (v < 48) bov[v] = 1;   // GPU1-owned HBM
      else if (v < 64) bov[v] = 2;   // CPU cache
      else bov[v] = 3 + static_cast<std::int32_t>(v % 2);
    }
    return bov;
  }
  static iostack::SsdOptions make_ssd_options() {
    iostack::SsdOptions opts;
    opts.capacity_bytes = 2ull << 20;
    return opts;
  }
};

std::vector<graph::VertexId> mixed_batch(std::size_t n, util::Pcg32& rng) {
  std::vector<graph::VertexId> vs(n);
  for (auto& v : vs) {
    v = static_cast<graph::VertexId>(rng.next_below(kVertices));
  }
  return vs;
}

void expect_rows_match(const gnn::Tensor& out,
                       std::span<const graph::VertexId> vs,
                       const gnn::Tensor& truth, const char* what) {
  ASSERT_EQ(out.rows(), vs.size());
  for (std::size_t i = 0; i < vs.size(); ++i) {
    EXPECT_EQ(std::memcmp(out.row(i).data(), truth.row(vs[i]).data(),
                          kDim * sizeof(float)),
              0)
        << what << ": row " << i << " (vertex " << vs[i] << ")";
  }
}

TEST(PeerGather, ByteIdenticalWithAndWithoutPeerRoute) {
  // Peer-HBM routing is a transport optimisation: with a comm plan (peer
  // route) or without one (storage path), and with the shared row cache on,
  // gathered bytes are identical to the source tensor.
  const auto topo = make_topo('c', 2);
  const CommPlan plan = CommPlanner(topo).plan(AllReduceAlgo::kRing);
  PeerRig rig;
  iostack::RowCacheOptions cache;
  cache.capacity_rows = 64;
  rig.store.enable_row_cache(cache);
  // Warm-up walks every vertex but caches only SSD-resident rows: owned-HBM
  // rows stay on the peer path.
  std::vector<graph::VertexId> order(kVertices);
  for (std::size_t v = 0; v < kVertices; ++v) {
    order[v] = static_cast<graph::VertexId>(v);
  }
  ASSERT_EQ(rig.store.warm_row_cache(order), cache.capacity_rows);

  LinkCounters counters(plan.num_links);
  iostack::TieredFeatureClient peer_path(rig.store, 256, {}, {},
                                         {0, &plan, &counters});
  iostack::TieredFeatureClient storage_path(rig.store, 256, {});
  rig.array.start_all();

  util::Pcg32 rng(123);
  for (int round = 0; round < 6; ++round) {
    const auto vs = mixed_batch(192, rng);
    for (auto* c : {&peer_path, &storage_path}) {
      gnn::Tensor out(vs.size(), kDim);
      c->gather(vs, out);
      expect_rows_match(out, vs, rig.task.features, "peer gather");
    }
  }
  // The peer client served GPU1-owned rows over the route; the plan-less
  // client fell back to the host authoritative copy.
  const auto ps = peer_path.io_resilience();
  EXPECT_GT(ps.peer_rows, 0u);
  EXPECT_EQ(ps.peer_bytes, ps.peer_rows * kDim * sizeof(float));
  EXPECT_EQ(ps.remote_hbm_host_rows, 0u);
  EXPECT_GT(ps.gpu_hits, 0u);  // GPU0-owned rows stay local
  EXPECT_EQ(storage_path.io_resilience().peer_rows, 0u);
  EXPECT_GT(storage_path.io_resilience().remote_hbm_host_rows, 0u);
  // Both clients saw the same GPU1-owned occurrences, one way or the other.
  EXPECT_EQ(ps.peer_rows, storage_path.io_resilience().remote_hbm_host_rows);
  EXPECT_GT(ps.cache_hits, 0u);
  EXPECT_EQ(ps.cache_hits, storage_path.io_resilience().cache_hits);

  // Link counters carry exactly the peer traffic: every peer row charges
  // row bytes to each link of the owner->client route.
  const PeerRoute* route = plan.peer_route(1, 0);
  ASSERT_NE(route, nullptr);
  const std::uint64_t expected = ps.peer_bytes * route->links.size();
  std::uint64_t counted = 0;
  for (const auto v : counters.snapshot()) counted += v;
  EXPECT_EQ(counted, expected);
  rig.array.stop_all();
}

TEST(PeerGather, TwoClientsConcurrentSharedCounters) {
  // TSan target: two clients (one per GPU) gather concurrently against the
  // same store, plan and LinkCounters. Bytes must stay identical and the
  // shared counters must account every peer row from both sides.
  const auto topo = make_topo('c', 2);
  const CommPlan plan = CommPlanner(topo).plan(AllReduceAlgo::kRing);
  PeerRig rig;
  LinkCounters counters(plan.num_links);
  iostack::TieredFeatureClient client0(rig.store, 256, {}, {},
                                       {0, &plan, &counters});
  iostack::TieredFeatureClient client1(rig.store, 256, {}, {},
                                       {1, &plan, &counters});
  rig.array.start_all();

  auto worker = [&](iostack::TieredFeatureClient& client, std::uint64_t seed) {
    util::Pcg32 rng(seed);
    for (int round = 0; round < 8; ++round) {
      const auto vs = mixed_batch(160, rng);
      gnn::Tensor out(vs.size(), kDim);
      client.gather(vs, out);
      expect_rows_match(out, vs, rig.task.features, "concurrent gather");
    }
  };
  std::thread t0(worker, std::ref(client0), 7);
  std::thread t1(worker, std::ref(client1), 8);
  t0.join();
  t1.join();

  EXPECT_GT(client0.io_resilience().peer_rows, 0u);
  EXPECT_GT(client1.io_resilience().peer_rows, 0u);
  const PeerRoute* r10 = plan.peer_route(1, 0);
  const PeerRoute* r01 = plan.peer_route(0, 1);
  ASSERT_NE(r10, nullptr);
  ASSERT_NE(r01, nullptr);
  const std::uint64_t expected =
      client0.io_resilience().peer_bytes * r10->links.size() +
      client1.io_resilience().peer_bytes * r01->links.size();
  std::uint64_t counted = 0;
  for (const auto v : counters.snapshot()) counted += v;
  EXPECT_EQ(counted, expected);
  rig.array.stop_all();
}

}  // namespace
}  // namespace moment::comm
