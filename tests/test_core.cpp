// Tests for the AutoModule co-optimizer facade.

#include <gtest/gtest.h>

#include <numeric>

#include "core/auto_module.hpp"

namespace moment::core {
namespace {

AutoModuleConfig config_for(const topology::MachineSpec* spec) {
  AutoModuleConfig c;
  c.machine = spec;
  c.dataset = graph::DatasetId::kIG;
  c.dataset_scale_shift = 3;
  c.num_gpus = 4;
  c.num_ssds = 8;
  return c;
}

TEST(AutoModule, ProducesFeasiblePlan) {
  const auto spec = topology::make_machine_b();
  const Plan plan = AutoModule::plan(config_for(&spec));
  EXPECT_TRUE(plan.prediction.feasible);
  EXPECT_GT(plan.prediction.throughput, 0.0);
  EXPECT_GT(plan.candidates_total, plan.candidates_evaluated - 1);
  EXPECT_EQ(plan.hardware_placement.total_gpus(), 4);
  EXPECT_EQ(plan.hardware_placement.total_ssds(), 8);
  EXPECT_EQ(topology::validate_placement(spec, plan.hardware_placement), "");
}

TEST(AutoModule, DataPlacementCoversAllVertices) {
  const auto spec = topology::make_machine_a();
  const Plan plan = AutoModule::plan(config_for(&spec));
  std::size_t placed = 0;
  for (auto b : plan.data_placement.bin_of_vertex) {
    ASSERT_GE(b, 0);
    ++placed;
  }
  EXPECT_EQ(placed, plan.data_placement.bin_of_vertex.size());
  const auto total = std::accumulate(plan.data_placement.bin_count.begin(),
                                     plan.data_placement.bin_count.end(),
                                     std::size_t{0});
  EXPECT_EQ(total, plan.data_placement.bin_of_vertex.size());
}

TEST(AutoModule, PlanBeatsClassicPlacements) {
  // The searched placement's predicted throughput must be at least as good
  // as every classic layout evaluated under the same workload.
  const auto spec = topology::make_machine_b();
  const auto cfg = config_for(&spec);
  const runtime::Workbench bench =
      runtime::Workbench::make(cfg.dataset, cfg.dataset_scale_shift, cfg.seed);
  const Plan plan = AutoModule::plan(cfg, bench);

  placement::SearchOptions sopt;
  sopt.num_gpus = cfg.num_gpus;
  sopt.num_ssds = cfg.num_ssds;
  sopt.per_gpu_demand_bytes = plan.workload.per_gpu_bytes;
  sopt.per_tier_bytes = {
      plan.workload.total_bytes * plan.workload.gpu_hit_fraction,
      plan.workload.total_bytes * plan.workload.cpu_hit_fraction,
      plan.workload.total_bytes * plan.workload.ssd_fraction};
  sopt.gpu_hbm_bytes =
      plan.workload.per_gpu_bytes * plan.workload.gpu_hit_fraction;
  for (char which : {'a', 'b', 'c', 'd'}) {
    const auto classic = placement::evaluate_placement(
        spec, topology::classic_placement(spec, which, 4, 8), sopt);
    EXPECT_GE(plan.prediction.throughput, classic.score * 0.999)
        << "classic " << which;
  }
}

TEST(AutoModule, TimingBreakdownPopulated) {
  const auto spec = topology::make_machine_a();
  const Plan plan = AutoModule::plan(config_for(&spec));
  EXPECT_GT(plan.search_time_s, 0.0);
  EXPECT_GT(plan.ddak_time_s, 0.0);
  EXPECT_GE(plan.total_time_s(), plan.search_time_s + plan.ddak_time_s);
}

TEST(AutoModule, ReportMentionsKeyFacts) {
  const auto spec = topology::make_machine_b();
  const Plan plan = AutoModule::plan(config_for(&spec));
  const std::string report = plan.to_string(spec);
  EXPECT_NE(report.find("MachineB"), std::string::npos);
  EXPECT_NE(report.find("predicted epoch IO time"), std::string::npos);
  EXPECT_NE(report.find("SSD"), std::string::npos);
}

TEST(AutoModule, DeterministicPlans) {
  const auto spec = topology::make_machine_b();
  const auto cfg = config_for(&spec);
  const runtime::Workbench bench =
      runtime::Workbench::make(cfg.dataset, cfg.dataset_scale_shift, cfg.seed);
  const Plan a = AutoModule::plan(cfg, bench);
  const Plan b = AutoModule::plan(cfg, bench);
  EXPECT_EQ(a.hardware_placement, b.hardware_placement);
  EXPECT_EQ(a.data_placement.bin_of_vertex, b.data_placement.bin_of_vertex);
}

TEST(AutoModule, NvlinkPlanUsesPartitionedCaches) {
  auto spec = topology::make_machine_a();
  AutoModuleConfig c = config_for(&spec);
  c.nvlink = true;
  c.cache.gpu_cache_mode = ddak::GpuCacheMode::kPartitioned;
  const Plan plan = AutoModule::plan(c);
  EXPECT_TRUE(plan.prediction.feasible);
  EXPECT_TRUE(plan.hardware_placement.nvlink);
  // Partitioned mode keeps per-GPU HBM bins (no merged replicated bin).
  int hbm_bins = 0;
  for (const auto& b : plan.bins) {
    if (b.tier == topology::StorageTier::kGpuHbm) ++hbm_bins;
  }
  EXPECT_EQ(hbm_bins, 4);
}

TEST(AutoModule, RequiresMachine) {
  AutoModuleConfig c;
  c.machine = nullptr;
  EXPECT_THROW(AutoModule::plan(c), std::invalid_argument);
}

TEST(AutoModule, PlanIsTheWinnersEvaluation) {
  // The plan reuses the refinement winner's evaluation instead of running
  // DDAK again: same placement as run_system picks, and the same bins and
  // vertex layout as a fresh simulate_placement of that placement.
  const auto spec = topology::make_machine_b();
  const auto cfg = config_for(&spec);
  const runtime::Workbench bench =
      runtime::Workbench::make(cfg.dataset, cfg.dataset_scale_shift, cfg.seed);
  const Plan plan = AutoModule::plan(cfg, bench);

  runtime::ExperimentConfig ec;
  ec.machine = &spec;
  ec.dataset = cfg.dataset;
  ec.dataset_scale_shift = cfg.dataset_scale_shift;
  ec.num_gpus = cfg.num_gpus;
  ec.num_ssds = cfg.num_ssds;
  const auto r = runtime::run_system(runtime::SystemKind::kMoment, ec, bench);
  EXPECT_EQ(plan.hardware_placement, r.placement);

  const runtime::PlacementEval fresh = runtime::simulate_placement(
      runtime::SystemKind::kMoment, spec, plan.hardware_placement, bench,
      plan.workload, cfg.cache, runtime::DataPolicy::kDdak,
      runtime::model_preset(cfg.model).compute_time_per_batch, cfg.seed);
  ASSERT_EQ(plan.bins.size(), fresh.bins.size());
  for (std::size_t i = 0; i < plan.bins.size(); ++i) {
    EXPECT_EQ(plan.bins[i].name, fresh.bins[i].name);
    EXPECT_EQ(plan.bins[i].storage_index, fresh.bins[i].storage_index);
    EXPECT_DOUBLE_EQ(plan.bins[i].capacity_vertices,
                     fresh.bins[i].capacity_vertices);
    EXPECT_DOUBLE_EQ(plan.bins[i].traffic_target,
                     fresh.bins[i].traffic_target);
    EXPECT_EQ(plan.bins[i].replica_storage_indices,
              fresh.bins[i].replica_storage_indices);
  }
  EXPECT_EQ(plan.data_placement.bin_of_vertex,
            fresh.data_placement.bin_of_vertex);
  EXPECT_EQ(r.data_placement.bin_of_vertex,
            fresh.data_placement.bin_of_vertex);
}

}  // namespace
}  // namespace moment::core
