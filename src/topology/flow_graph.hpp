#pragma once
// Compiles a concrete Topology into the single-source single-sink
// capacity-constrained directed graph of paper Fig. 9.
//
// Node mapping:
//   s  -> virtual source feeding every storage node
//   storage nodes: each SSD, each socket DRAM, and each GPU's HBM cache
//   interconnect nodes: root complexes and PCIe switches
//   computation nodes: one per GPU (each GPU yields TWO flow nodes: its HBM
//     storage node and its computation node)
//   t  -> virtual sink draining every computation node
//
// Edge mapping (all capacities in bytes/s):
//   s -> storage            supply edge (rate-mirrored per the paper:
//                           c(s,vs) = c(vs,vi); byte-capped in
//                           time-bisection mode)
//   SSD -> parent           SSD read rate (slot- and device-limited)
//   DRAM -> root complex    memory-controller serve rate
//   HBM_i -> comp_i         local HBM rate
//   HBM_i -> parent switch  upstream P2P export over the GPU's slot link
//   parent -> comp_i        downstream slot link
//   HBM_i -> comp_j         NVLink bridge (when present), per direction
//   interconnect links      one directed edge per direction (PCIe/QPI full
//                           duplex)
//   comp -> t               demand edge (infinite in rate mode)

#include <vector>

#include "maxflow/flow_network.hpp"
#include "topology/device.hpp"

namespace moment::topology {

/// Storage tier of a storage node, ordered by the paper's hierarchy
/// GPU > CPU > SSD (Section 3.3).
enum class StorageTier : std::uint8_t { kGpuHbm = 0, kCpuDram = 1, kSsd = 2 };

struct StorageNodeInfo {
  DeviceId device = -1;      // GPU, CpuMemory or SSD device
  StorageTier tier = StorageTier::kSsd;
  maxflow::NodeId node = -1;
  maxflow::EdgeId supply_edge = -1;  // s -> storage
};

struct GpuNodeInfo {
  DeviceId device = -1;
  maxflow::NodeId comp_node = -1;
  maxflow::NodeId mem_node = -1;
  maxflow::EdgeId demand_edge = -1;  // comp -> t
};

/// Directed flow edges realising each physical link, for utilisation reports.
struct LinkFlowEdges {
  LinkId link = -1;
  maxflow::EdgeId ab = -1;  // flow edge in the link's a->b direction (-1 if none)
  maxflow::EdgeId ba = -1;
};

struct FlowGraph {
  maxflow::FlowNetwork net;
  maxflow::NodeId source = -1;
  maxflow::NodeId sink = -1;
  std::vector<StorageNodeInfo> storage;  // SSDs, DRAMs, then GPU HBMs
  std::vector<GpuNodeInfo> gpus;         // ordered by GPU index
  std::vector<LinkFlowEdges> link_edges; // parallel to topology links
  /// Source->tier aggregator edges, indexed by StorageTier. The aggregator
  /// lets byte budgets be expressed per tier ("the CPU cache holds X bytes of
  /// demanded data in total") while the flow chooses how member devices share
  /// it — which is exactly the freedom DDAK later realises. -1 if the tier
  /// has no members.
  maxflow::EdgeId tier_edge[3] = {-1, -1, -1};
};

struct FlowGraphOptions {
  /// Model GPU HBM as a storage tier (cached hot embeddings). Disabling it
  /// reproduces systems without a GPU cache.
  bool gpu_cache = true;
  /// Model NVLink links if present in the topology.
  bool use_nvlink = true;
};

FlowGraph compile_flow_graph(const Topology& topo,
                             const FlowGraphOptions& options = {});

}  // namespace moment::topology
