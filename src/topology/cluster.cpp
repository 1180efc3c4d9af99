#include "topology/cluster.hpp"

#include <stdexcept>

#include "util/units.hpp"

namespace moment::topology {

using util::gib_per_s;

MachineSpec make_cluster(const ClusterOptions& options) {
  if (options.num_machines < 1) {
    throw std::invalid_argument("make_cluster: need at least one machine");
  }
  MachineSpec spec;
  spec.name = "Cluster" + std::to_string(options.num_machines) + "x";
  spec.description =
      std::to_string(options.num_machines) +
      " machines joined by a network switch; per machine one root complex, "
      "socket DRAM, a NIC and one GPU/SSD slot group (paper Section 5).";
  spec.ssd_read_bw = gib_per_s(kClusterSsdReadGibPerS);
  spec.nvlink_bw = gib_per_s(50.0);
  spec.hbm_bw = gib_per_s(1200.0);

  Topology& t = spec.skeleton;
  const DeviceId net_switch =
      t.add_device(DeviceKind::kPcieSwitch, "NET", 0);

  for (int m = 0; m < options.num_machines; ++m) {
    const std::string suffix = std::to_string(m);
    const DeviceId rc =
        t.add_device(DeviceKind::kRootComplex, "RC" + suffix, m);
    const DeviceId mem =
        t.add_device(DeviceKind::kCpuMemory, "DRAM" + suffix, m);
    const DeviceId nic = t.add_device(DeviceKind::kNic, "NIC" + suffix, m);
    t.add_link(mem, rc, LinkKind::kDram, gib_per_s(kClusterDramGibPerS),
               gib_per_s(kClusterDramGibPerS), "MC" + suffix);
    const double nic_pcie = pcie_bandwidth(kClusterPcieGen, 16);
    t.add_link(rc, nic, LinkKind::kPcie, nic_pcie, nic_pcie,
               "NicBus" + suffix);
    t.add_link(nic, net_switch, LinkKind::kNetwork,
               gib_per_s(options.network_gib_per_s),
               gib_per_s(options.network_gib_per_s), "Net" + suffix);

    SlotGroup g;
    g.name = "M" + suffix + ".slots";
    g.parent = "RC" + suffix;
    g.units = options.slot_units_per_machine;
    g.allows_gpu = true;
    g.allows_ssd = true;
    g.pcie_gen = kClusterPcieGen;
    spec.slot_groups.push_back(std::move(g));
  }

  // Machines are interchangeable: rotating the machine indices is an
  // automorphism. One rotation generates the cyclic group; together with the
  // swap of the first two machines it generates the full symmetric group,
  // which the canonicalizer closes over.
  const auto n = spec.slot_groups.size();
  if (n >= 2) {
    std::vector<int> rotate(n), swap01(n);
    for (std::size_t i = 0; i < n; ++i) {
      rotate[i] = static_cast<int>((i + 1) % n);
      swap01[i] = static_cast<int>(i);
    }
    std::swap(swap01[0], swap01[1]);
    spec.automorphisms.push_back(std::move(rotate));
    spec.automorphisms.push_back(std::move(swap01));
  }
  return spec;
}

MachineSpec make_cluster_c() {
  ClusterOptions options;
  options.num_machines = 4;
  options.network_gib_per_s = 10.0;  // ~100 Gb/s line rate, ~85% effective
  return make_cluster(options);
}

}  // namespace moment::topology
