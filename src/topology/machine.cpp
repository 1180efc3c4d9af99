#include "topology/machine.hpp"

#include <numeric>
#include <stdexcept>

#include "util/units.hpp"

namespace moment::topology {

using util::gib_per_s;

int MachineSpec::group_index(const std::string& group_name) const {
  for (std::size_t i = 0; i < slot_groups.size(); ++i) {
    if (slot_groups[i].name == group_name) return static_cast<int>(i);
  }
  throw std::invalid_argument("MachineSpec: unknown slot group " + group_name);
}

int Placement::total_gpus() const noexcept {
  return std::accumulate(gpus_per_group.begin(), gpus_per_group.end(), 0);
}
int Placement::total_ssds() const noexcept {
  return std::accumulate(ssds_per_group.begin(), ssds_per_group.end(), 0);
}

std::string validate_placement(const MachineSpec& spec, const Placement& p) {
  if (p.gpus_per_group.size() != spec.slot_groups.size() ||
      p.ssds_per_group.size() != spec.slot_groups.size()) {
    return "placement group-count mismatch";
  }
  for (std::size_t i = 0; i < spec.slot_groups.size(); ++i) {
    const SlotGroup& g = spec.slot_groups[i];
    const int gpus = p.gpus_per_group[i];
    const int ssds = p.ssds_per_group[i];
    if (gpus < 0 || ssds < 0) return "negative device count";
    if (gpus > 0 && !g.allows_gpu) return g.name + " does not accept GPUs";
    if (ssds > 0 && !g.allows_ssd) return g.name + " does not accept SSDs";
    const int used = gpus * kGpuUnits + ssds * kSsdUnits;
    if (used > g.units) {
      return g.name + " over capacity (" + std::to_string(used) + "/" +
             std::to_string(g.units) + " units)";
    }
  }
  return {};
}

Topology instantiate(const MachineSpec& spec, const Placement& p) {
  if (const std::string err = validate_placement(spec, p); !err.empty()) {
    throw std::invalid_argument("instantiate: " + err);
  }
  Topology topo = spec.skeleton;

  int gpu_index = 0;
  int ssd_index = 0;
  std::vector<DeviceId> gpu_ids;
  for (std::size_t gi = 0; gi < spec.slot_groups.size(); ++gi) {
    const SlotGroup& g = spec.slot_groups[gi];
    const auto parent = topo.find(g.parent);
    if (!parent) {
      throw std::logic_error("instantiate: skeleton lacks device " + g.parent);
    }
    for (int k = 0; k < p.gpus_per_group[gi]; ++k, ++gpu_index) {
      const DeviceId dev = topo.add_device(
          DeviceKind::kGpu, "GPU" + std::to_string(gpu_index), gpu_index);
      const double bw = pcie_bandwidth(g.pcie_gen, g.gpu_lanes);
      topo.add_link(*parent, dev, LinkKind::kPcie, bw, bw,
                    g.name + ".gpu" + std::to_string(k));
      gpu_ids.push_back(dev);
    }
    for (int k = 0; k < p.ssds_per_group[gi]; ++k, ++ssd_index) {
      const DeviceId dev = topo.add_device(
          DeviceKind::kSsd, "SSD" + std::to_string(ssd_index), ssd_index);
      const double slot_bw = pcie_bandwidth(g.pcie_gen, g.ssd_lanes);
      const double read_bw = std::min(slot_bw, spec.ssd_read_bw);
      // Reads flow SSD -> parent; writes (parent -> SSD) only matter for the
      // one-off dataset reorganisation, modelled at the same rate.
      topo.add_link(dev, *parent, LinkKind::kPcie, read_bw, read_bw,
                    g.name + ".ssd" + std::to_string(k));
    }
  }

  if (p.nvlink) {
    // Bridge GPU i with GPU i + G/2: on the evaluated servers the physical
    // GPU numbering interleaves the switch groups, so the paper's
    // (GPU1,GPU2)/(GPU3,GPU4) bridges span switches — exactly the
    // configuration where NVLink bypasses the contended PCIe buses.
    const std::size_t half = gpu_ids.size() / 2;
    for (std::size_t i = 0; i + half < gpu_ids.size() && half > 0; ++i) {
      topo.add_link(gpu_ids[i], gpu_ids[i + half], LinkKind::kNvlink,
                    spec.nvlink_bw, spec.nvlink_bw,
                    "NVLink" + std::to_string(i));
    }
  }
  return topo;
}

namespace {

/// Common skeleton pieces: two sockets with DRAM and a QPI/UPI link.
struct Sockets {
  DeviceId rc0, rc1;
};

Sockets add_dual_socket(Topology& t, double dram_bw, double qpi_bw) {
  const DeviceId rc0 = t.add_device(DeviceKind::kRootComplex, "RC0", 0);
  const DeviceId rc1 = t.add_device(DeviceKind::kRootComplex, "RC1", 1);
  const DeviceId mem0 = t.add_device(DeviceKind::kCpuMemory, "DRAM0", 0);
  const DeviceId mem1 = t.add_device(DeviceKind::kCpuMemory, "DRAM1", 1);
  t.add_link(mem0, rc0, LinkKind::kDram, dram_bw, dram_bw, "MC0");
  t.add_link(mem1, rc1, LinkKind::kDram, dram_bw, dram_bw, "MC1");
  t.add_link(rc0, rc1, LinkKind::kQpi, qpi_bw, qpi_bw, "QPI");
  return {rc0, rc1};
}

}  // namespace

MachineSpec make_machine_a() {
  MachineSpec spec;
  spec.name = "MachineA";
  spec.description =
      "Balanced PCIe topology: per socket, 4 direct NVMe slots plus one PLX "
      "switch (Bus 9 / Bus 10) with GPU-capable x16 slots. 2x Xeon Gold 5320, "
      "768 GB DRAM, PCIe 4.0.";
  spec.ssd_read_bw = gib_per_s(6.0);     // Intel P5510
  spec.nvlink_bw = gib_per_s(50.0);      // A100 NVLink bridge pair
  spec.hbm_bw = gib_per_s(1200.0);

  Topology& t = spec.skeleton;
  const Sockets s = add_dual_socket(t, gib_per_s(40.0), gib_per_s(36.0));
  const DeviceId plx0 = t.add_device(DeviceKind::kPcieSwitch, "PLX0", 0);
  const DeviceId plx1 = t.add_device(DeviceKind::kPcieSwitch, "PLX1", 1);
  const double x16 = pcie_bandwidth(4, 16);
  t.add_link(s.rc0, plx0, LinkKind::kPcie, x16, x16, "Bus9");
  t.add_link(s.rc1, plx1, LinkKind::kPcie, x16, x16, "Bus10");

  spec.slot_groups = {
      {"RC0.nvme", "RC0", 4, false, true, 4, 16, 4},
      {"RC1.nvme", "RC1", 4, false, true, 4, 16, 4},
      {"PLX0.slots", "PLX0", 12, true, true, 4, 16, 4},
      {"PLX1.slots", "PLX1", 12, true, true, 4, 16, 4},
  };
  // Swapping the two sockets (and their PLX switches) is an automorphism.
  spec.automorphisms = {{1, 0, 3, 2}};
  return spec;
}

MachineSpec make_machine_b() {
  MachineSpec spec;
  spec.name = "MachineB";
  spec.description =
      "Cascaded PCIe topology: PLX0 on RC0 via Bus 11, PLX1 cascaded off "
      "PLX0 via Bus 16; both root complexes expose direct slots. 2x Xeon "
      "Gold 6426Y, 512 GB DRAM, PCIe 4.0.";
  spec.ssd_read_bw = gib_per_s(6.0);
  spec.nvlink_bw = gib_per_s(50.0);
  spec.hbm_bw = gib_per_s(1200.0);

  Topology& t = spec.skeleton;
  const Sockets s = add_dual_socket(t, gib_per_s(40.0), gib_per_s(36.0));
  const DeviceId plx0 = t.add_device(DeviceKind::kPcieSwitch, "PLX0", 0);
  const DeviceId plx1 = t.add_device(DeviceKind::kPcieSwitch, "PLX1", 1);
  const double x16 = pcie_bandwidth(4, 16);
  t.add_link(s.rc0, plx0, LinkKind::kPcie, x16, x16, "Bus11");
  t.add_link(plx0, plx1, LinkKind::kPcie, x16, x16, "Bus16");

  spec.slot_groups = {
      {"RC0.slots", "RC0", 4, true, true, 4, 16, 4},
      {"RC1.slots", "RC1", 8, true, true, 4, 16, 4},
      {"PLX0.slots", "PLX0", 12, true, true, 4, 16, 4},
      {"PLX1.slots", "PLX1", 12, true, true, 4, 16, 4},
  };
  spec.automorphisms = {};  // the cascade breaks socket symmetry
  return spec;
}

Placement classic_placement(const MachineSpec& spec, char which, int num_gpus,
                            int num_ssds) {
  Placement p;
  p.gpus_per_group.assign(spec.slot_groups.size(), 0);
  p.ssds_per_group.assign(spec.slot_groups.size(), 0);
  p.label = std::string(1, which);

  const bool machine_a = spec.name == "MachineA";
  const int front_direct =
      spec.group_index(machine_a ? "RC0.nvme" : "RC0.slots");
  const int plx0 = spec.group_index("PLX0.slots");
  const int plx1 = spec.group_index("PLX1.slots");

  auto spread = [&](std::vector<int>& counts, std::vector<int> groups, int n) {
    for (int i = 0; i < n; ++i) counts[static_cast<std::size_t>(groups[static_cast<std::size_t>(i) % groups.size()])]++;
  };

  switch (which) {
    case 'a':  // SSDs front-prioritised; GPUs spread across PLX switches.
      spread(p.ssds_per_group, {front_direct, plx0}, num_ssds);
      spread(p.gpus_per_group, {plx0, plx1}, num_gpus);
      break;
    case 'b':  // SSDs front-prioritised; GPUs concentrated on PLX0.
      spread(p.ssds_per_group, {front_direct, plx0}, num_ssds);
      spread(p.gpus_per_group, {plx0}, num_gpus);
      break;
    case 'c':  // SSDs balanced across the PLX switches; GPUs likewise.
      spread(p.ssds_per_group, {plx0, plx1}, num_ssds);
      spread(p.gpus_per_group, {plx0, plx1}, num_gpus);
      break;
    case 'd':  // SSDs balanced across PLX; GPUs concentrated on PLX0.
      spread(p.ssds_per_group, {plx0, plx1}, num_ssds);
      spread(p.gpus_per_group, {plx0}, num_gpus);
      break;
    default:
      throw std::invalid_argument("classic_placement: expected 'a'..'d'");
  }
  if (const std::string err = validate_placement(spec, p); !err.empty()) {
    throw std::invalid_argument("classic_placement: " + err);
  }
  return p;
}

Placement moment_placement_machine_b() {
  // Fig. 7: GPU0 on RC0; GPU3 + 4 SSDs on RC1; 2 SSDs on PLX0; 2 SSDs and
  // GPUs 1-2 on PLX1.
  Placement p;
  p.label = "moment-fig7";
  p.gpus_per_group = {1, 1, 0, 2};
  p.ssds_per_group = {0, 4, 2, 2};
  return p;
}

}  // namespace moment::topology
