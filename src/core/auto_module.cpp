#include "core/auto_module.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>

#include "util/table.hpp"
#include "util/units.hpp"

namespace moment::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Plan AutoModule::plan(const AutoModuleConfig& config) {
  const auto t0 = std::chrono::steady_clock::now();
  const runtime::Workbench bench = runtime::Workbench::make(
      config.dataset, config.dataset_scale_shift, config.seed);
  Plan p = plan(config, bench);
  p.profile_time_s = seconds_since(t0) - p.search_time_s - p.ddak_time_s;
  return p;
}

Plan AutoModule::plan(const AutoModuleConfig& config,
                      const runtime::Workbench& bench) {
  if (config.machine == nullptr) {
    throw std::invalid_argument("AutoModule::plan: machine spec required");
  }
  const topology::MachineSpec& spec = *config.machine;
  Plan plan;

  plan.workload = ddak::make_epoch_workload(bench.dataset, bench.profile,
                                            config.cache, config.num_gpus);

  // Stage 2: hardware placement — max-flow ranking over the symmetry-reduced
  // candidate space, refined by simulating the leaders. The winner's
  // evaluation already holds its DDAK data placement.
  const auto t_search = std::chrono::steady_clock::now();
  runtime::PlacementChoice choice = runtime::choose_moment_placement(
      spec, bench, plan.workload, config.num_gpus, config.num_ssds,
      config.nvlink, config.cache,
      runtime::model_preset(config.model).compute_time_per_batch);
  plan.hardware_placement = choice.placement;
  plan.prediction = choice.eval.prediction;
  plan.bins = std::move(choice.eval.bins);
  plan.data_placement = std::move(choice.eval.data_placement);
  plan.candidates_total = choice.candidates_total;
  plan.candidates_evaluated = choice.candidates_evaluated;
  plan.ddak_time_s = choice.eval.ddak_time_s;
  plan.search_time_s = seconds_since(t_search) - plan.ddak_time_s;
  return plan;
}

std::string Plan::to_string(const topology::MachineSpec& spec) const {
  std::ostringstream out;
  out << "Moment plan for " << spec.name << "\n";
  out << "  placement: "
      << placement::describe(spec, hardware_placement) << "\n";
  out << "  search: " << candidates_evaluated << " evaluated of "
      << candidates_total << " feasible combinations\n";
  out << "  predicted epoch IO time: " << prediction.epoch_io_time_s
      << " s (" << util::to_gib_per_s(prediction.throughput) << " GiB/s)\n";
  util::Table table({"bin", "tier", "capacity(vtx)", "traffic share",
                     "vertices", "hotness share"});
  const char* tier_names[] = {"GPU", "CPU", "SSD"};
  double total_target = 0.0;
  for (const auto& b : bins) total_target += b.traffic_target;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    table.add_row({bins[i].name, tier_names[static_cast<int>(bins[i].tier)],
                   util::Table::num(bins[i].capacity_vertices, 0),
                   util::Table::percent(total_target > 0
                                            ? bins[i].traffic_target /
                                                  total_target
                                            : 0.0),
                   std::to_string(data_placement.bin_count[i]),
                   util::Table::percent(data_placement.bin_traffic_share[i])});
  }
  out << table.to_string(2);
  out << "  offline cost: profile " << profile_time_s << " s, search "
      << search_time_s << " s, DDAK " << ddak_time_s << " s\n";
  return out.str();
}

BuiltStore build_store(const Plan& plan, const gnn::Tensor& features,
                       std::span<const graph::VertexId> by_hotness_desc,
                       std::size_t cache_rows) {
  using Kind = iostack::BinBacking::Kind;
  std::vector<iostack::BinBacking> backings;
  std::vector<std::uint64_t> pages;  // per SSD, for the rows placed on it
  for (std::size_t b = 0; b < plan.bins.size(); ++b) {
    switch (plan.bins[b].tier) {
      case topology::StorageTier::kGpuHbm:
        backings.push_back({Kind::kGpuCache, -1});
        break;
      case topology::StorageTier::kCpuDram:
        backings.push_back({Kind::kCpuCache, -1});
        break;
      case topology::StorageTier::kSsd:
        backings.push_back({Kind::kSsd, static_cast<int>(pages.size())});
        pages.push_back(iostack::TieredFeatureStore::pages_for_rows(
            features.cols(), plan.data_placement.bin_count.at(b)));
        break;
    }
  }
  // Each device holds its own pages and, after any other device fails, that
  // one's pages: the two fullest devices' pages cover every pair.
  std::sort(pages.rbegin(), pages.rend());
  std::uint64_t capacity_pages = pages.empty() ? 0 : pages[0];
  if (pages.size() > 1) capacity_pages += pages[1];
  iostack::SsdOptions options;
  options.capacity_bytes = capacity_pages * iostack::kPageBytes;

  BuiltStore built;
  built.array = std::make_unique<iostack::SsdArray>(pages.size(), options);
  built.store = std::make_unique<iostack::TieredFeatureStore>(
      features, plan.data_placement.bin_of_vertex, backings, *built.array);
  built.store->enable_row_cache({cache_rows});
  built.cached_rows = built.store->warm_row_cache(by_hotness_desc);
  return built;
}

}  // namespace moment::core
