// Tests for the placement search: enumeration, symmetry reduction (the
// paper's isomorphic-variant elimination), ranking, and regression anchors.

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "placement/search.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace moment::placement {
namespace {

using topology::MachineSpec;
using topology::Placement;
using util::kGiB;

SearchOptions workload_options(int gpus, int ssds) {
  SearchOptions o;
  o.num_gpus = gpus;
  o.num_ssds = ssds;
  // ~450 GiB epoch split 16/17/67 across tiers — the IGB-like regime.
  const double total = 450.0 * kGiB;
  o.per_gpu_demand_bytes = total / gpus;
  o.per_tier_bytes = {0.16 * total, 0.17 * total, 0.67 * total};
  o.gpu_hbm_bytes = 0.16 * total / gpus;
  return o;
}

TEST(Canonicalize, Idempotent) {
  const MachineSpec spec = topology::make_machine_a();
  Placement p;
  p.gpus_per_group = {0, 0, 1, 3};
  p.ssds_per_group = {1, 3, 2, 2};
  const Placement c1 = canonicalize(spec, p);
  const Placement c2 = canonicalize(spec, c1);
  EXPECT_EQ(c1, c2);
}

TEST(Canonicalize, MapsMirrorPlacementsTogether) {
  const MachineSpec spec = topology::make_machine_a();
  Placement p, mirror;
  p.gpus_per_group = {0, 0, 3, 1};
  p.ssds_per_group = {4, 0, 2, 2};
  // Socket swap: groups (0,1) and (2,3) exchange.
  mirror.gpus_per_group = {0, 0, 1, 3};
  mirror.ssds_per_group = {0, 4, 2, 2};
  EXPECT_EQ(canonicalize(spec, p), canonicalize(spec, mirror));
}

TEST(Canonicalize, NoOpWithoutAutomorphisms) {
  const MachineSpec spec = topology::make_machine_b();
  Placement p;
  p.gpus_per_group = {1, 1, 0, 2};
  p.ssds_per_group = {0, 4, 2, 2};
  EXPECT_EQ(canonicalize(spec, p), p);
}

TEST(Search, SymmetryReductionShrinksMachineA) {
  const MachineSpec spec = topology::make_machine_a();
  SearchOptions o = workload_options(4, 8);
  const SearchResult r = search_placements(spec, o);
  EXPECT_GT(r.total_combinations, r.evaluated);
  EXPECT_LT(r.evaluated, r.total_combinations * 6 / 10);
}

TEST(Search, ReductionPreservesOptimum) {
  // The reduced search must find the same best score as the full search —
  // the correctness claim behind the paper's isomorphic reduction.
  const MachineSpec spec = topology::make_machine_a();
  SearchOptions o = workload_options(2, 6);
  o.use_symmetry_reduction = true;
  const SearchResult reduced = search_placements(spec, o);
  o.use_symmetry_reduction = false;
  const SearchResult full = search_placements(spec, o);
  ASSERT_FALSE(reduced.top.empty());
  ASSERT_FALSE(full.top.empty());
  EXPECT_NEAR(reduced.best().score, full.best().score,
              1e-6 * full.best().score);
}

TEST(Search, BestBeatsOrMatchesAllClassics) {
  for (const MachineSpec& spec :
       {topology::make_machine_a(), topology::make_machine_b()}) {
    SearchOptions o = workload_options(4, 8);
    const SearchResult r = search_placements(spec, o);
    ASSERT_FALSE(r.top.empty()) << spec.name;
    for (char which : {'a', 'b', 'c', 'd'}) {
      const auto classic = evaluate_placement(
          spec, topology::classic_placement(spec, which, 4, 8), o);
      EXPECT_GE(r.best().score, classic.score * 0.999)
          << spec.name << " classic " << which;
    }
  }
}

TEST(Search, RespectsDeviceCounts) {
  const MachineSpec spec = topology::make_machine_b();
  SearchOptions o = workload_options(3, 5);
  const SearchResult r = search_placements(spec, o);
  for (const auto& c : r.top) {
    EXPECT_EQ(c.placement.total_gpus(), 3);
    EXPECT_EQ(c.placement.total_ssds(), 5);
    EXPECT_EQ(topology::validate_placement(spec, c.placement), "");
  }
}

TEST(Search, KeepTopLimitsAndSorted) {
  const MachineSpec spec = topology::make_machine_a();
  SearchOptions o = workload_options(2, 4);
  o.keep_top = 3;
  const SearchResult r = search_placements(spec, o);
  EXPECT_LE(r.top.size(), 3u);
  for (std::size_t i = 1; i < r.top.size(); ++i) {
    EXPECT_GE(r.top[i - 1].score, r.top[i].score * 0.999);
  }
}

TEST(Search, DeterministicAcrossRuns) {
  const MachineSpec spec = topology::make_machine_b();
  SearchOptions o = workload_options(4, 8);
  const SearchResult a = search_placements(spec, o);
  const SearchResult b = search_placements(spec, o);
  ASSERT_FALSE(a.top.empty());
  EXPECT_EQ(a.best().placement, b.best().placement);
  EXPECT_DOUBLE_EQ(a.best().score, b.best().score);
}

TEST(Search, RejectsBadDeviceCounts) {
  const MachineSpec spec = topology::make_machine_b();
  for (auto [gpus, ssds] : {std::pair{-3, 8}, std::pair{0, 8},
                            std::pair{4, -1}}) {
    SearchOptions o = workload_options(4, 8);
    o.num_gpus = gpus;
    o.num_ssds = ssds;
    EXPECT_THROW(search_placements(spec, o), std::invalid_argument)
        << gpus << " GPUs, " << ssds << " SSDs";
  }
}

TEST(Search, BestThrowsWhenNothingFits) {
  // Valid counts can still leave no candidate: Machine B has no room for 20
  // GPUs.
  const MachineSpec spec = topology::make_machine_b();
  const SearchResult r = search_placements(spec, workload_options(20, 8));
  EXPECT_TRUE(r.top.empty());
  EXPECT_THROW(r.best(), std::out_of_range);
}

TEST(Search, IdenticalTopListWithOneVsManyEvalThreads) {
  // Candidate evaluation fans out over the shared compute pool; the ranked
  // result must not depend on the thread count (candidates are collected
  // first, evaluated into per-index slots, then sorted deterministically).
  const MachineSpec spec = topology::make_machine_a();
  SearchOptions o = workload_options(4, 8);

  util::set_compute_pool_threads(1);  // serial reference, inline
  const SearchResult serial = search_placements(spec, o);

  util::set_compute_pool_threads(4);
  const SearchResult parallel = search_placements(spec, o);
  util::set_compute_pool_threads(0);

  EXPECT_EQ(serial.total_combinations, parallel.total_combinations);
  EXPECT_EQ(serial.evaluated, parallel.evaluated);
  ASSERT_EQ(serial.top.size(), parallel.top.size());
  for (std::size_t i = 0; i < serial.top.size(); ++i) {
    EXPECT_EQ(serial.top[i].placement, parallel.top[i].placement) << i;
    EXPECT_DOUBLE_EQ(serial.top[i].score, parallel.top[i].score) << i;
    EXPECT_DOUBLE_EQ(serial.top[i].fabric_rate_bound,
                     parallel.top[i].fabric_rate_bound)
        << i;
  }
}

TEST(Search, MachineBBestUsesRootComplexSlots) {
  // Structural property behind the paper's Fig. 7: concentrating every GPU
  // behind the PLX cascade chokes on Bus 11/16, so the optimum places at
  // least one GPU on a root-complex direct slot.
  const MachineSpec spec = topology::make_machine_b();
  SearchOptions o = workload_options(4, 8);
  const SearchResult r = search_placements(spec, o);
  const auto& best = r.best().placement;
  const int rc_gpus = best.gpus_per_group[0] + best.gpus_per_group[1];
  EXPECT_GT(rc_gpus, 0) << describe(spec, best);
}

TEST(Describe, MentionsOccupiedGroups) {
  const MachineSpec spec = topology::make_machine_b();
  const std::string s = describe(spec, topology::moment_placement_machine_b());
  EXPECT_NE(s.find("RC1.slots=4"), std::string::npos);
  EXPECT_NE(s.find("PLX1.slots=2"), std::string::npos);
}

TEST(EvaluatePlacement, ProducesFeasiblePrediction) {
  const MachineSpec spec = topology::make_machine_b();
  SearchOptions o = workload_options(4, 8);
  const auto c =
      evaluate_placement(spec, topology::moment_placement_machine_b(), o);
  EXPECT_TRUE(c.prediction.feasible);
  EXPECT_GT(c.score, 0.0);
  EXPECT_GT(c.fabric_rate_bound, 0.0);
}

}  // namespace
}  // namespace moment::placement
