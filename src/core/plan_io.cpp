#include "core/plan_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace moment::core {

namespace {

constexpr const char* kMagic = "moment-plan-v1";

const char* tier_token(topology::StorageTier t) {
  switch (t) {
    case topology::StorageTier::kGpuHbm: return "gpu";
    case topology::StorageTier::kCpuDram: return "cpu";
    case topology::StorageTier::kSsd: return "ssd";
  }
  return "ssd";
}

topology::StorageTier parse_tier(const std::string& s) {
  if (s == "gpu") return topology::StorageTier::kGpuHbm;
  if (s == "cpu") return topology::StorageTier::kCpuDram;
  if (s == "ssd") return topology::StorageTier::kSsd;
  throw std::runtime_error("load_plan: bad tier '" + s + "'");
}

}  // namespace

void save_plan(const Plan& plan, std::ostream& out) {
  out << kMagic << "\n";
  out << "# predicted epoch IO time (s): " << plan.prediction.epoch_io_time_s
      << "\n";
  out << "# offline cost (s): " << plan.total_time_s() << "\n";

  out << "placement " << plan.hardware_placement.label << " "
      << (plan.hardware_placement.nvlink ? 1 : 0) << "\n";
  out << "gpus";
  for (int c : plan.hardware_placement.gpus_per_group) out << ' ' << c;
  out << "\nssds";
  for (int c : plan.hardware_placement.ssds_per_group) out << ' ' << c;
  out << "\n";

  out << "bins " << plan.bins.size() << "\n";
  for (const auto& b : plan.bins) {
    out << "bin " << b.name << ' ' << b.storage_index << ' '
        << tier_token(b.tier) << ' ' << b.capacity_vertices << ' '
        << b.traffic_target;
    out << " replicas " << b.replica_storage_indices.size();
    for (int r : b.replica_storage_indices) out << ' ' << r;
    out << "\n";
  }

  out << "vertices " << plan.data_placement.bin_of_vertex.size() << "\n";
  // Run-length encode the per-vertex bin assignment (hot prefixes cluster).
  const auto& bov = plan.data_placement.bin_of_vertex;
  for (std::size_t i = 0; i < bov.size();) {
    std::size_t j = i;
    while (j < bov.size() && bov[j] == bov[i]) ++j;
    out << "run " << bov[i] << ' ' << (j - i) << "\n";
    i = j;
  }
  out << "end\n";
}

void save_plan_file(const Plan& plan, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_plan_file: cannot open " + path);
  save_plan(plan, out);
}

Plan load_plan(std::istream& in) {
  Plan plan;
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    throw std::runtime_error("load_plan: bad magic");
  }
  std::size_t expected_bins = 0;
  std::size_t expected_vertices = 0;
  std::size_t cursor = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string keyword;
    ls >> keyword;
    if (keyword == "placement") {
      int nvlink = 0;
      ls >> plan.hardware_placement.label >> nvlink;
      plan.hardware_placement.nvlink = nvlink != 0;
    } else if (keyword == "gpus") {
      int c;
      while (ls >> c) plan.hardware_placement.gpus_per_group.push_back(c);
    } else if (keyword == "ssds") {
      int c;
      while (ls >> c) plan.hardware_placement.ssds_per_group.push_back(c);
    } else if (keyword == "bins") {
      ls >> expected_bins;
    } else if (keyword == "bin") {
      ddak::Bin b;
      std::string tier, replicas_kw;
      std::size_t nreplicas = 0;
      ls >> b.name >> b.storage_index >> tier >> b.capacity_vertices >>
          b.traffic_target >> replicas_kw >> nreplicas;
      if (replicas_kw != "replicas") {
        throw std::runtime_error("load_plan: malformed bin line");
      }
      b.tier = parse_tier(tier);
      for (std::size_t i = 0; i < nreplicas; ++i) {
        int r;
        if (!(ls >> r)) throw std::runtime_error("load_plan: short replicas");
        b.replica_storage_indices.push_back(r);
      }
      plan.bins.push_back(std::move(b));
    } else if (keyword == "vertices") {
      ls >> expected_vertices;
      plan.data_placement.bin_of_vertex.assign(expected_vertices, -1);
    } else if (keyword == "run") {
      std::int32_t bin;
      std::size_t count;
      if (!(ls >> bin >> count)) {
        throw std::runtime_error("load_plan: malformed run");
      }
      if (cursor + count > expected_vertices) {
        throw std::runtime_error("load_plan: run overflows vertex count");
      }
      for (std::size_t i = 0; i < count; ++i) {
        plan.data_placement.bin_of_vertex[cursor++] = bin;
      }
    } else if (keyword == "end") {
      break;
    } else {
      throw std::runtime_error("load_plan: unknown keyword '" + keyword + "'");
    }
  }
  if (plan.bins.size() != expected_bins) {
    throw std::runtime_error("load_plan: bin count mismatch");
  }
  if (cursor != expected_vertices) {
    throw std::runtime_error("load_plan: vertex count mismatch");
  }
  // Rebuild the derived per-bin statistics.
  plan.data_placement.bin_access.assign(plan.bins.size(), 0.0);
  plan.data_placement.bin_traffic_share.assign(plan.bins.size(), 0.0);
  plan.data_placement.bin_count.assign(plan.bins.size(), 0);
  for (auto b : plan.data_placement.bin_of_vertex) {
    if (b < 0 || static_cast<std::size_t>(b) >= plan.bins.size()) {
      throw std::runtime_error("load_plan: vertex bin out of range");
    }
    ++plan.data_placement.bin_count[static_cast<std::size_t>(b)];
  }
  return plan;
}

Plan load_plan_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_plan_file: cannot open " + path);
  return load_plan(in);
}

}  // namespace moment::core
