#pragma once
// Multi-node cluster modelling — the paper's Section 5 ("Generalization to
// Multi-node"): NICs join the device graph, inter-machine network links
// become capacity-constrained edges, and the same max-flow machinery plans
// traffic across the whole cluster.
//
// The preset mirrors Cluster C from Table 1/3 (4 machines, 1 GPU each,
// 100 Gb/s network) but the builder is general: any machine count, per-node
// GPU/SSD slots, and network rate.

#include "topology/machine.hpp"

namespace moment::topology {

struct ClusterOptions {
  int num_machines = 4;
  /// Slot units per machine (a GPU takes 2 units, an SSD 1).
  int slot_units_per_machine = 10;
  double network_gib_per_s = 10.0;   // ~100 Gb/s effective per NIC
};

/// Every machine's PCIe generation (Cluster C runs PCIe 3.0), DRAM
/// bandwidth and each SSD's read bandwidth (GiB/s).
inline constexpr int kClusterPcieGen = 3;
inline constexpr double kClusterDramGibPerS = 30.0;
inline constexpr double kClusterSsdReadGibPerS = 6.0;

/// Builds a cluster-wide MachineSpec: per machine a root complex, socket
/// DRAM, a NIC, and one GPU/SSD slot group; NICs meet at a central network
/// switch. Machines are interchangeable, so the spec carries the rotation
/// automorphisms that collapse symmetric placements (the paper's
/// rotation-invariant reduction at cluster scale).
MachineSpec make_cluster(const ClusterOptions& options = {});

/// Table-1/3 Cluster C: 4 machines, PCIe 3.0, 100 Gb/s network.
MachineSpec make_cluster_c();

}  // namespace moment::topology
