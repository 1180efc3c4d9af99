// Tests for the flow-level simulator: routing, max-min fair sharing, round
// simulation, and epoch-level behaviour (contention ordering, QPI traffic,
// M-GIDS partitioning).

#include <gtest/gtest.h>

#include <numeric>

#include "ddak/ddak.hpp"
#include "ddak/workload.hpp"
#include "graph/datasets.hpp"
#include "runtime/systems.hpp"
#include "sim/fluid.hpp"
#include "sim/machine_sim.hpp"
#include "topology/routes.hpp"
#include "util/units.hpp"

namespace moment::sim {
namespace {

using topology::FlowGraph;
using topology::MachineSpec;
using topology::RoutingPolicy;
using topology::Topology;
using util::gib_per_s;

struct Rig {
  MachineSpec spec;
  Topology topo;
  FlowGraph fg;

  static Rig make(const MachineSpec& s, char placement, int gpus, int ssds) {
    Rig r{s, {}, {}};
    r.topo = topology::instantiate(
        r.spec, topology::classic_placement(r.spec, placement, gpus, ssds));
    r.fg = topology::compile_flow_graph(r.topo);
    return r;
  }
};

TEST(Routes, SsdToLocalGpuIsTwoHops) {
  // Machine A placement c: a PLX0-attached SSD reaches a PLX0 GPU in 2 edges
  // (SSD->PLX0, PLX0->GPU).
  const Rig r = Rig::make(topology::make_machine_a(), 'c', 2, 8);
  // Find an SSD whose parent is PLX0 and the GPU on PLX0.
  int ssd_storage = -1;
  for (std::size_t i = 0; i < r.fg.storage.size(); ++i) {
    if (r.fg.storage[i].tier != topology::StorageTier::kSsd) continue;
    const auto dev = r.fg.storage[i].device;
    const auto link = r.topo.incident(dev).front();
    const auto other = r.topo.link(link).a == dev ? r.topo.link(link).b
                                                  : r.topo.link(link).a;
    if (r.topo.device(other).name == "PLX0") {
      ssd_storage = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(ssd_storage, 0);
  const auto ps = find_paths(r.fg, r.fg.storage[static_cast<std::size_t>(ssd_storage)].node,
                             r.fg.gpus[0].comp_node,
                             RoutingPolicy::kSinglePath);
  ASSERT_EQ(ps.paths.size(), 1u);
  EXPECT_EQ(ps.paths[0].size(), 2u);
  EXPECT_DOUBLE_EQ(ps.weights[0], 1.0);
}

TEST(Routes, MultiPathFindsAlternatives) {
  // DRAM1 -> GPU on PLX0 (machine A) has a QPI route; with NVLink or P2P
  // alternatives the multipath set may contain several routes.
  const Rig r = Rig::make(topology::make_machine_a(), 'c', 4, 8);
  const auto dram1 = r.fg.storage[9];  // DRAM1 (after 8 SSDs)
  ASSERT_EQ(dram1.tier, topology::StorageTier::kCpuDram);
  const auto single = find_paths(r.fg, dram1.node, r.fg.gpus[0].comp_node,
                                 RoutingPolicy::kSinglePath);
  const auto multi = find_paths(r.fg, dram1.node, r.fg.gpus[0].comp_node,
                                RoutingPolicy::kMultiPath);
  ASSERT_FALSE(single.paths.empty());
  EXPECT_GE(multi.paths.size(), single.paths.size());
  const double wsum =
      std::accumulate(multi.weights.begin(), multi.weights.end(), 0.0);
  EXPECT_NEAR(wsum, 1.0, 1e-9);
}

TEST(Routes, NoRouteReturnsEmpty) {
  const Rig r = Rig::make(topology::make_machine_a(), 'c', 2, 4);
  // Source node is unreachable through physical edges only.
  const auto ps = find_paths(r.fg, r.fg.gpus[0].comp_node,
                             r.fg.gpus[1].comp_node,
                             RoutingPolicy::kSinglePath);
  EXPECT_TRUE(ps.paths.empty());
}

TEST(MaxMinRates, EqualSharingOnSharedLink) {
  const Rig r = Rig::make(topology::make_machine_a(), 'b', 4, 8);
  // Two streams over the same SSD->PLX0 edge must split 50/50.
  int ssd_idx = -1;
  for (std::size_t i = 0; i < r.fg.storage.size(); ++i) {
    if (r.fg.storage[i].tier == topology::StorageTier::kSsd) {
      ssd_idx = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(ssd_idx, 0);
  const auto& storage = r.fg.storage[static_cast<std::size_t>(ssd_idx)];
  std::vector<SubStream> streams;
  for (int g = 0; g < 2; ++g) {
    const auto ps = find_paths(r.fg, storage.node,
                               r.fg.gpus[static_cast<std::size_t>(g)].comp_node,
                               RoutingPolicy::kSinglePath);
    ASSERT_FALSE(ps.paths.empty());
    streams.push_back({g, ssd_idx, ps.paths[0], 100.0});
  }
  const std::vector<bool> active(streams.size(), true);
  const auto rates = max_min_rates(r.fg, streams, active);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_NEAR(rates[0], rates[1], 1e-6 * rates[0]);
  // Together they saturate the 6 GiB/s SSD edge.
  EXPECT_NEAR(rates[0] + rates[1], gib_per_s(6.0), gib_per_s(0.01));
}

TEST(FluidRound, ConservesBytes) {
  const Rig r = Rig::make(topology::make_machine_a(), 'c', 2, 8);
  std::vector<SubStream> streams;
  const double bytes = 3.0 * util::kGiB;
  for (int g = 0; g < 2; ++g) {
    const auto& ssd = r.fg.storage[static_cast<std::size_t>(g)];
    const auto ps = find_paths(r.fg, ssd.node,
                               r.fg.gpus[static_cast<std::size_t>(g)].comp_node,
                               RoutingPolicy::kSinglePath);
    streams.push_back({g, g, ps.paths[0], bytes});
  }
  const FluidResult res = simulate_round(r.fg, streams, 2);
  EXPECT_GT(res.finish_time, 0.0);
  // First edge of each stream moved exactly `bytes`.
  for (const auto& s : streams) {
    EXPECT_NEAR(res.edge_bytes[static_cast<std::size_t>(s.edges.front())],
                bytes, 1.0);
  }
  for (double t : res.gpu_finish) EXPECT_GT(t, 0.0);
}

TEST(FluidRound, EmptyStreamsFinishInstantly) {
  const Rig r = Rig::make(topology::make_machine_a(), 'c', 2, 4);
  const FluidResult res = simulate_round(r.fg, {}, 2);
  EXPECT_EQ(res.finish_time, 0.0);
}

struct EpochRig {
  runtime::Workbench bench;
  ddak::EpochWorkload workload;

  static EpochRig make(int gpus) {
    EpochRig e{runtime::Workbench::make(graph::DatasetId::kIG, 3, 42), {}};
    e.workload = ddak::make_epoch_workload(e.bench.dataset, e.bench.profile,
                                           ddak::CacheConfig{}, gpus);
    return e;
  }
};

SimReport simulate_placement(const EpochRig& e, const MachineSpec& spec,
                             char which, int gpus,
                             ddak::SupplyModel supply, bool use_ddak,
                             const SimOptions& opts = {}) {
  const auto topo = topology::instantiate(
      spec, topology::classic_placement(spec, which, gpus, 8));
  const auto fg = topology::compile_flow_graph(topo);
  const auto pred =
      topology::predict(fg, ddak::to_flow_demand(e.workload, fg, supply));
  auto bins = ddak::make_bins(topo, fg, pred.per_storage_bytes,
                              e.bench.dataset.scaled.vertices, 0.005, 0.01);
  const auto merged = merge_replicated_gpu_bins(bins);
  ddak::DdakOptions dopt;
  dopt.pool_size =
      ddak::default_pool_size(e.bench.dataset.scaled.vertices);
  const auto place = use_ddak ? ddak::ddak_place(merged, e.bench.profile, dopt)
                              : ddak::hash_place(merged, e.bench.profile);
  return simulate_epoch(topo, fg, e.workload, merged, place, opts);
}

TEST(EpochSim, ContentionOrderingMachineA) {
  // Paper Fig. 1: placement (c) clearly beats (b) and (d) on Machine A.
  const EpochRig e = EpochRig::make(4);
  const auto spec = topology::make_machine_a();
  const auto hash = ddak::SupplyModel::kUniformHash;
  const auto tb = simulate_placement(e, spec, 'b', 4, hash, false);
  const auto tc = simulate_placement(e, spec, 'c', 4, hash, false);
  const auto td = simulate_placement(e, spec, 'd', 4, hash, false);
  EXPECT_GT(tb.epoch_time_s, tc.epoch_time_s * 1.3);
  EXPECT_GT(td.epoch_time_s, tc.epoch_time_s * 1.3);
}

TEST(EpochSim, ContentionOrderingMachineB) {
  // Paper Fig. 2 ordering: c < d < a <= b.
  const EpochRig e = EpochRig::make(4);
  const auto spec = topology::make_machine_b();
  const auto hash = ddak::SupplyModel::kUniformHash;
  const auto ta = simulate_placement(e, spec, 'a', 4, hash, false);
  const auto tb = simulate_placement(e, spec, 'b', 4, hash, false);
  const auto tc = simulate_placement(e, spec, 'c', 4, hash, false);
  const auto td = simulate_placement(e, spec, 'd', 4, hash, false);
  EXPECT_LT(tc.epoch_time_s, td.epoch_time_s);
  EXPECT_LT(td.epoch_time_s, ta.epoch_time_s * 1.01);
  EXPECT_LE(ta.epoch_time_s, tb.epoch_time_s * 1.05);
}

TEST(EpochSim, QpiTrafficAccounted) {
  const EpochRig e = EpochRig::make(4);
  const auto spec = topology::make_machine_a();
  // Placement (a): front-heavy SSDs force cross-socket traffic for the PLX1
  // GPUs.
  const auto rep =
      simulate_placement(e, spec, 'a', 4, ddak::SupplyModel::kUniformHash,
                         false);
  EXPECT_GT(rep.qpi_bytes, 0.0);
  bool found_qpi_link = false;
  for (const auto& lt : rep.link_traffic) {
    if (lt.kind == topology::LinkKind::kQpi) {
      found_qpi_link = true;
      EXPECT_NEAR(lt.bytes_ab + lt.bytes_ba, rep.qpi_bytes, 1.0);
    }
  }
  EXPECT_TRUE(found_qpi_link);
}

TEST(EpochSim, DdakReducesEpochTimeOnContendedPlacement) {
  // Fig. 14/15: DDAK vs hash under a fixed (contended) placement.
  const EpochRig e = EpochRig::make(4);
  const auto spec = topology::make_machine_a();
  const auto hash =
      simulate_placement(e, spec, 'b', 4, ddak::SupplyModel::kUniformHash,
                         false);
  const auto ddak_rep =
      simulate_placement(e, spec, 'b', 4, ddak::SupplyModel::kFlexibleTier,
                         true);
  EXPECT_LT(ddak_rep.epoch_time_s, hash.epoch_time_s);
}

TEST(EpochSim, GidsPartitioningHurtsOnAsymmetricPlacement) {
  // Placement (d): GPUs concentrated on PLX0 while SSDs straddle both
  // switches. Static per-GPU SSD assignment forces two GPUs to read only
  // remote SSDs — per-GPU imbalance that shared access avoids (paper Fig. 6
  // is this effect at scale).
  const EpochRig e = EpochRig::make(4);
  const auto spec = topology::make_machine_a();
  SimOptions gids;
  gids.routing = RoutingPolicy::kSinglePath;
  gids.partition_ssds_per_gpu = true;
  const auto part =
      simulate_placement(e, spec, 'd', 4, ddak::SupplyModel::kUniformHash,
                         false, gids);
  SimOptions shared;
  shared.routing = RoutingPolicy::kSinglePath;
  const auto full =
      simulate_placement(e, spec, 'd', 4, ddak::SupplyModel::kUniformHash,
                         false, shared);
  // Epoch time alone is a weak discriminator here: the inter-switch link is
  // the bottleneck either way, and it carries the same bytes whether the two
  // remote GPUs pull their full share at half the link (partitioned) or all
  // four GPUs pull half their share at a quarter of it (shared) — so the
  // times land within a few percent of each other, with the winner decided
  // by second-order stream dynamics that shift with the sampled workload.
  // Guard only against partitioning producing a meaningful win; the robust
  // partitioning penalty is the per-GPU imbalance.
  EXPECT_GE(part.epoch_time_s, full.epoch_time_s * 0.9);
  EXPECT_GT(part.imbalance_cv, full.imbalance_cv);
}

TEST(EpochSim, ComputeBoundWhenIoTiny) {
  const EpochRig e = EpochRig::make(4);
  const auto spec = topology::make_machine_a();
  SimOptions opts;
  opts.compute_time_per_batch = 100.0;  // absurd compute cost
  const auto rep =
      simulate_placement(e, spec, 'c', 4, ddak::SupplyModel::kUniformHash,
                         false, opts);
  EXPECT_FALSE(rep.io_bound);
  EXPECT_NEAR(rep.round_time_s, 100.0 + kRoundOverheadS, 1e-6);
}

TEST(EpochSim, ThroughputMetricConsistent) {
  const EpochRig e = EpochRig::make(2);
  const auto spec = topology::make_machine_b();
  const auto rep = simulate_placement(e, spec, 'c', 2,
                                      ddak::SupplyModel::kUniformHash, false);
  EXPECT_NEAR(rep.throughput_seeds_per_s,
              8000.0 * 2.0 / rep.round_time_s, 1.0);
  EXPECT_EQ(rep.rounds,
            (e.workload.batches_per_epoch + 1) / 2);
}

TEST(MergeReplicated, CombinesGpuBins) {
  std::vector<ddak::Bin> bins(3);
  bins[0] = {"GPU0.HBM", 0, topology::StorageTier::kGpuHbm, 100.0, 5.0, {}};
  bins[1] = {"GPU1.HBM", 1, topology::StorageTier::kGpuHbm, 100.0, 7.0, {}};
  bins[2] = {"SSD0", 2, topology::StorageTier::kSsd, 1000.0, 20.0, {}};
  const auto merged = merge_replicated_gpu_bins(bins);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].tier, topology::StorageTier::kGpuHbm);
  EXPECT_EQ(merged[0].storage_index, -1);
  EXPECT_DOUBLE_EQ(merged[0].capacity_vertices, 100.0);  // one replica
  EXPECT_DOUBLE_EQ(merged[0].traffic_target, 12.0);
  EXPECT_EQ(merged[1].name, "SSD0");
}

}  // namespace
}  // namespace moment::sim
