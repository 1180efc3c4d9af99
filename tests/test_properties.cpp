// Cross-cutting property tests: parameterized sweeps asserting the
// invariants the system's correctness rests on, across machines, placements,
// datasets and solver inputs. Complements the per-module unit tests.

#include <gtest/gtest.h>

#include <numeric>

#include "ddak/ddak.hpp"
#include "ddak/workload.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "maxflow/dinic.hpp"
#include "maxflow/time_bisection.hpp"
#include "placement/search.hpp"
#include "runtime/systems.hpp"
#include "sim/machine_sim.hpp"
#include "topology/machine.hpp"
#include "util/units.hpp"

namespace moment {
namespace {

using util::kGiB;

// ------------------------------------------------------------ partitioner

class PartitionProperty : public ::testing::TestWithParam<int> {};

TEST_P(PartitionProperty, BfsCoversBalancesAndBeatsHash) {
  graph::RmatParams gp;
  gp.num_vertices = 1 << 12;
  gp.num_edges = 30000;
  gp.seed = static_cast<std::uint64_t>(GetParam());
  const auto g = graph::generate_rmat(gp);
  const int parts = 2 + GetParam() % 3;  // 2..4

  const auto bfs = graph::partition_bfs(g, parts, 3);
  const auto hash = graph::partition_hash(g, parts, 3);

  // Coverage.
  for (auto p : bfs) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, parts);
  }
  const auto bfs_stats = graph::partition_stats(g, bfs);
  const auto hash_stats = graph::partition_stats(g, hash);
  EXPECT_EQ(bfs_stats.parts, parts);
  EXPECT_EQ(std::accumulate(bfs_stats.part_sizes.begin(),
                            bfs_stats.part_sizes.end(), std::size_t{0}),
            static_cast<std::size_t>(g.num_vertices()));
  // Balance within 2x of ideal (the cap allows slack for isolated fills).
  EXPECT_LE(bfs_stats.balance, 2.0);
  // Locality: BFS-grow must cut strictly fewer edges than hashing.
  EXPECT_LT(bfs_stats.edge_cut_fraction, hash_stats.edge_cut_fraction);
  // Hash cut converges to (parts-1)/parts.
  EXPECT_NEAR(hash_stats.edge_cut_fraction,
              static_cast<double>(parts - 1) / parts, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionProperty, ::testing::Range(1, 7));

TEST(Partition, RejectsBadInput) {
  graph::RmatParams gp;
  gp.num_vertices = 128;
  gp.num_edges = 512;
  const auto g = graph::generate_rmat(gp);
  EXPECT_THROW(graph::partition_bfs(g, 0), std::invalid_argument);
  EXPECT_THROW(graph::partition_hash(g, -1), std::invalid_argument);
  std::vector<std::int32_t> wrong(3, 0);
  EXPECT_THROW(graph::partition_stats(g, wrong), std::invalid_argument);
}

// --------------------------------------------------- predictor invariants

struct PredCase {
  const char* machine;
  char placement;
  int gpus;
};

// Without this, gtest prints the raw bytes of the struct: the string pointer
// (randomised per run by ASLR) and uninitialised padding, which CTest then
// bakes into the discovered test names, so they differ on every build.
void PrintTo(const PredCase& c, std::ostream* os) {
  *os << "machine_" << c.machine << "_placement_" << c.placement << '_'
      << c.gpus << "gpu";
}

class PredictorProperty : public ::testing::TestWithParam<PredCase> {};

topology::MachineSpec spec_of(const char* name) {
  return name[0] == 'a' ? topology::make_machine_a()
                        : topology::make_machine_b();
}

TEST_P(PredictorProperty, ScalingCapacitiesScalesTime) {
  // Time-bisection is homogeneous: doubling all rates halves the epoch time.
  const auto& param = GetParam();
  const auto spec = spec_of(param.machine);
  const auto topo = topology::instantiate(
      spec, topology::classic_placement(spec, param.placement, param.gpus, 8));
  const auto fg = topology::compile_flow_graph(topo);
  topology::WorkloadDemand d;
  d.per_gpu_bytes.assign(fg.gpus.size(), 80.0 * kGiB);
  d.per_tier_bytes = {30.0 * kGiB, 50.0 * kGiB, -1.0};
  const auto base = topology::predict(fg, d);
  ASSERT_TRUE(base.feasible);

  topology::FlowGraph scaled = fg;
  scaled.net.scale_capacities(2.0);
  const auto fast = topology::predict(scaled, d);
  ASSERT_TRUE(fast.feasible);
  EXPECT_NEAR(base.epoch_io_time_s / fast.epoch_io_time_s, 2.0, 0.05);
}

TEST_P(PredictorProperty, DemandMonotonicity) {
  // More bytes can never take less time.
  const auto& param = GetParam();
  const auto spec = spec_of(param.machine);
  const auto topo = topology::instantiate(
      spec, topology::classic_placement(spec, param.placement, param.gpus, 8));
  const auto fg = topology::compile_flow_graph(topo);
  double prev = 0.0;
  for (double gib : {20.0, 40.0, 80.0, 160.0}) {
    topology::WorkloadDemand d;
    d.per_gpu_bytes.assign(fg.gpus.size(), gib * kGiB);
    d.per_tier_bytes = {0.15 * gib * kGiB * fg.gpus.size(),
                        0.15 * gib * kGiB * fg.gpus.size(), -1.0};
    const auto p = topology::predict(fg, d);
    ASSERT_TRUE(p.feasible) << gib;
    EXPECT_GE(p.epoch_io_time_s, prev - 1e-9);
    prev = p.epoch_io_time_s;
  }
}

TEST_P(PredictorProperty, DeliveredBytesNeverExceedDemand) {
  const auto& param = GetParam();
  const auto spec = spec_of(param.machine);
  const auto topo = topology::instantiate(
      spec, topology::classic_placement(spec, param.placement, param.gpus, 8));
  const auto fg = topology::compile_flow_graph(topo);
  topology::WorkloadDemand d;
  d.per_gpu_bytes.assign(fg.gpus.size(), 50.0 * kGiB);
  const auto p = topology::predict(fg, d);
  ASSERT_TRUE(p.feasible);
  for (double b : p.per_gpu_bytes) {
    EXPECT_LE(b, 50.0 * kGiB * 1.001);
    EXPECT_GE(b, 50.0 * kGiB * 0.98);  // demands met at T*
  }
  // Storage serves exactly what the GPUs received.
  const double served = std::accumulate(p.per_storage_bytes.begin(),
                                        p.per_storage_bytes.end(), 0.0);
  const double delivered = std::accumulate(p.per_gpu_bytes.begin(),
                                           p.per_gpu_bytes.end(), 0.0);
  EXPECT_NEAR(served, delivered, delivered * 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Placements, PredictorProperty,
    ::testing::Values(PredCase{"a", 'a', 2}, PredCase{"a", 'b', 4},
                      PredCase{"a", 'c', 4}, PredCase{"a", 'd', 4},
                      PredCase{"b", 'a', 2}, PredCase{"b", 'c', 4},
                      PredCase{"b", 'd', 4}));

// -------------------------------------------------------- DDAK invariants

class DdakZipfProperty : public ::testing::TestWithParam<double> {};

TEST_P(DdakZipfProperty, InvariantsAcrossSkew) {
  const double exponent = GetParam();
  constexpr std::size_t kN = 3000;
  sampling::HotnessProfile p;
  p.hotness.resize(kN);
  util::Pcg32 rng(11);
  for (std::size_t i = 0; i < kN; ++i) {
    p.hotness[i] = 1.0 / std::pow(static_cast<double>(i + 1), exponent);
  }
  for (std::size_t i = kN; i > 1; --i) {
    std::swap(p.hotness[i - 1],
              p.hotness[rng.next_below(static_cast<std::uint32_t>(i))]);
  }
  p.batch_size = 10;
  p.fetches_per_batch = 100;

  std::vector<ddak::Bin> bins(4);
  bins[0] = {"GPU", 0, topology::StorageTier::kGpuHbm, 0.01 * kN, 30.0, {}};
  bins[1] = {"CPU", 1, topology::StorageTier::kCpuDram, 0.02 * kN, 20.0, {}};
  bins[2] = {"SSD0", 2, topology::StorageTier::kSsd,
             static_cast<double>(kN), 30.0, {}};
  bins[3] = {"SSD1", 3, topology::StorageTier::kSsd,
             static_cast<double>(kN), 20.0, {}};
  const auto r = ddak::ddak_place(bins, p);

  // Every vertex placed exactly once; caches at/below capacity.
  EXPECT_EQ(std::accumulate(r.bin_count.begin(), r.bin_count.end(),
                            std::size_t{0}),
            kN);
  EXPECT_LE(static_cast<double>(r.bin_count[0]),
            bins[0].capacity_vertices + 1);
  EXPECT_LE(static_cast<double>(r.bin_count[1]),
            bins[1].capacity_vertices + 1);
  // Shares sum to 1.
  EXPECT_NEAR(std::accumulate(r.bin_traffic_share.begin(),
                              r.bin_traffic_share.end(), 0.0),
              1.0, 1e-9);
  // Stronger skew => cache tiers capture more traffic per unit capacity.
  // (Sanity floor: caches must beat their capacity share for any skew > 0.)
  const double cache_share = r.bin_traffic_share[0] + r.bin_traffic_share[1];
  EXPECT_GT(cache_share, 0.03 * (exponent > 0.5 ? 2.0 : 1.0));
  // Caches hold the globally hottest vertices.
  const auto order = p.by_hotness_desc();
  EXPECT_NE(r.bin_of_vertex[order[0]], 2);
  EXPECT_NE(r.bin_of_vertex[order[0]], 3);
}

INSTANTIATE_TEST_SUITE_P(Skews, DdakZipfProperty,
                         ::testing::Values(0.4, 0.8, 1.0, 1.2, 1.5));

// --------------------------------------------------------- sim invariants

class SimConservation : public ::testing::TestWithParam<char> {};

TEST_P(SimConservation, RoundMovesExactlyTheWorkload) {
  const auto bench = runtime::Workbench::make(graph::DatasetId::kPA, 4, 42);
  const auto workload = ddak::make_epoch_workload(
      bench.dataset, bench.profile, ddak::CacheConfig{}, 4);
  const auto spec = topology::make_machine_a();
  const auto topo = topology::instantiate(
      spec, topology::classic_placement(spec, GetParam(), 4, 8));
  const auto fg = topology::compile_flow_graph(topo);
  const auto pred = topology::predict(
      fg, ddak::to_flow_demand(workload, fg, ddak::SupplyModel::kUniformHash));
  auto bins = ddak::make_bins(topo, fg, pred.per_storage_bytes,
                              bench.dataset.scaled.vertices, 0.005, 0.01);
  const auto merged = sim::merge_replicated_gpu_bins(bins);
  const auto place = ddak::hash_place(merged, bench.profile);
  const auto rep = sim::simulate_epoch(topo, fg, workload, merged, place);

  // GPU slot links must carry each GPU's fabric bytes per epoch: sum of
  // slot-link downstream traffic == fabric bytes * rounds * num_gpus.
  double slot_down = 0.0;
  for (const auto& lt : rep.link_traffic) {
    const auto& l = topo.link(lt.link);
    const bool gpu_link =
        topo.device(l.a).kind == topology::DeviceKind::kGpu ||
        topo.device(l.b).kind == topology::DeviceKind::kGpu;
    if (gpu_link && l.kind == topology::LinkKind::kPcie) {
      slot_down += lt.bytes_ab + lt.bytes_ba;
    }
  }
  double local_share = 0.0;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (merged[i].storage_index < 0) {
      local_share += place.bin_traffic_share[i];
    }
  }
  const double expected = workload.fetches_per_batch * workload.feature_bytes *
                          (1.0 - local_share) * 4.0 *
                          static_cast<double>(rep.rounds);
  EXPECT_NEAR(slot_down, expected, expected * 0.02);
}

INSTANTIATE_TEST_SUITE_P(Placements, SimConservation,
                         ::testing::Values('a', 'b', 'c', 'd'));

// --------------------------------------------------- search result sweeps

struct SearchCase {
  int gpus;
  int ssds;
};

class SearchSweep : public ::testing::TestWithParam<SearchCase> {};

TEST_P(SearchSweep, BestIsFeasibleValidAndAtLeastClassicC) {
  const auto [gpus, ssds] = GetParam();
  for (const auto& spec :
       {topology::make_machine_a(), topology::make_machine_b()}) {
    placement::SearchOptions o;
    o.num_gpus = gpus;
    o.num_ssds = ssds;
    const double total = 300.0 * kGiB;
    o.per_gpu_demand_bytes = total / gpus;
    o.per_tier_bytes = {0.12 * total, 0.16 * total, 0.72 * total};
    o.gpu_hbm_bytes = 0.12 * total / gpus;
    const auto r = placement::search_placements(spec, o);
    ASSERT_FALSE(r.top.empty()) << spec.name;
    const auto& best = r.best();
    EXPECT_TRUE(best.prediction.feasible);
    EXPECT_EQ(topology::validate_placement(spec, best.placement), "");
    EXPECT_EQ(best.placement.total_gpus(), gpus);
    EXPECT_EQ(best.placement.total_ssds(), ssds);
    const auto classic = placement::evaluate_placement(
        spec, topology::classic_placement(spec, 'c', gpus, ssds), o);
    EXPECT_GE(best.score, classic.score * 0.999) << spec.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SearchSweep,
                         ::testing::Values(SearchCase{1, 2}, SearchCase{2, 4},
                                           SearchCase{2, 8}, SearchCase{3, 6},
                                           SearchCase{4, 8}));

// ------------------------------------------------------ dataset x systems

class DatasetSweep
    : public ::testing::TestWithParam<graph::DatasetId> {};

TEST_P(DatasetSweep, MomentRunsAndBeatsHyperionEverywhere) {
  const auto id = GetParam();
  const runtime::Workbench bench = runtime::Workbench::make(id, 4, 42);
  const auto spec = topology::make_machine_b();
  runtime::ExperimentConfig c;
  c.machine = &spec;
  c.dataset = id;
  c.num_gpus = 4;
  c.num_ssds = 8;
  const auto moment = runtime::run_system(runtime::SystemKind::kMoment, c,
                                          bench);
  c.default_classic = 'b';  // a contended layout
  const auto hyperion =
      runtime::run_system(runtime::SystemKind::kMHyperion, c, bench);
  ASSERT_FALSE(moment.oom);
  ASSERT_FALSE(hyperion.oom);
  EXPECT_LT(moment.epoch_time_s, hyperion.epoch_time_s)
      << graph::dataset_name(id);
  EXPECT_TRUE(moment.prediction.feasible);
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetSweep,
                         ::testing::ValuesIn(graph::kAllDatasets));

// ------------------------------------------------- time-bisection fuzzing

class BisectionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BisectionFuzz, FeasibleSolutionsSatisfyDemandAtReportedTime) {
  util::Pcg32 rng(static_cast<std::uint64_t>(GetParam()), 0xB15);
  // Random 2-layer supply/demand network.
  const int storages = 2 + static_cast<int>(rng.next_below(4));
  const int gpus = 1 + static_cast<int>(rng.next_below(4));
  maxflow::FlowNetwork net(2 + storages + gpus);
  std::vector<maxflow::ByteConstraint> supplies, demands;
  for (int s = 0; s < storages; ++s) {
    const auto e = net.add_edge(0, 2 + s, rng.next_double(1.0, 10.0));
    supplies.push_back({e, rng.next_double(50.0, 500.0)});
  }
  for (int g = 0; g < gpus; ++g) {
    for (int s = 0; s < storages; ++s) {
      if (rng.next_double() < 0.7) {
        net.add_edge(2 + s, 2 + storages + g, rng.next_double(0.5, 8.0));
      }
    }
    const auto e = net.add_edge(2 + storages + g, 1,
                                maxflow::kInfiniteCapacity);
    demands.push_back({e, rng.next_double(5.0, 60.0)});
  }
  const auto r = maxflow::solve_time_bisection(net, 0, 1, demands, supplies);
  if (!r.feasible) return;  // disconnected/undersupplied draws are fine
  double total_demand = 0.0;
  for (const auto& d : demands) total_demand += d.bytes;
  EXPECT_NEAR(r.throughput * r.min_time_s, total_demand,
              total_demand * 1e-6);
  // Each demand edge's flow matches its requested bytes.
  for (const auto& d : demands) {
    EXPECT_NEAR(r.edge_flow[static_cast<std::size_t>(d.edge)], d.bytes,
                d.bytes * 0.01 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BisectionFuzz, ::testing::Range(0, 20));

}  // namespace
}  // namespace moment
