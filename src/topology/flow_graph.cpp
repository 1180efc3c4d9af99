#include "topology/flow_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace moment::topology {

using maxflow::EdgeId;
using maxflow::NodeId;

FlowGraph compile_flow_graph(const Topology& topo,
                             const FlowGraphOptions& options) {
  FlowGraph fg;
  const double hbm_bw = util::gib_per_s(1200.0);

  // Node allocation. comp_of / mem_of / inter_of map device -> flow node.
  const auto nd = static_cast<std::size_t>(topo.num_devices());
  std::vector<NodeId> inter_of(nd, -1), comp_of(nd, -1), mem_of(nd, -1),
      storage_of(nd, -1);

  fg.source = fg.net.add_node();
  fg.sink = fg.net.add_node();

  for (std::size_t d = 0; d < nd; ++d) {
    const Device& dev = topo.device(static_cast<DeviceId>(d));
    switch (dev.kind) {
      case DeviceKind::kRootComplex:
      case DeviceKind::kPcieSwitch:
      case DeviceKind::kNic:  // interchange hub in multi-node graphs (§5)
        inter_of[d] = fg.net.add_node();
        break;
      case DeviceKind::kCpuMemory:
      case DeviceKind::kSsd:
        storage_of[d] = fg.net.add_node();
        break;
      case DeviceKind::kGpu: {
        comp_of[d] = fg.net.add_node();
        GpuNodeInfo info;
        info.device = static_cast<DeviceId>(d);
        info.comp_node = comp_of[d];
        if (options.gpu_cache) {
          mem_of[d] = fg.net.add_node();
          info.mem_node = mem_of[d];
          // Local HBM path: cache hits never touch PCIe.
          fg.net.add_edge(mem_of[d], comp_of[d], hbm_bw);
        }
        fg.gpus.push_back(info);
        break;
      }
    }
  }

  // Sort GPU infos by GPU index so fg.gpus[i] is GPUi.
  std::sort(fg.gpus.begin(), fg.gpus.end(),
            [&](const GpuNodeInfo& x, const GpuNodeInfo& y) {
              return topo.device(x.device).index < topo.device(y.device).index;
            });

  // Per-storage-device accumulated outgoing rate (mirrored onto supply edge).
  std::vector<double> out_rate(nd, 0.0);

  fg.link_edges.resize(topo.num_links());
  for (std::size_t li = 0; li < topo.num_links(); ++li) {
    const Link& l = topo.link(static_cast<LinkId>(li));
    LinkFlowEdges& le = fg.link_edges[li];
    le.link = static_cast<LinkId>(li);
    const Device& da = topo.device(l.a);
    const Device& db = topo.device(l.b);

    auto is_inter = [](const Device& dev) {
      return dev.kind == DeviceKind::kRootComplex ||
             dev.kind == DeviceKind::kPcieSwitch ||
             dev.kind == DeviceKind::kNic;
    };

    // le.ab / le.ba hold the edges in the link's a->b / b->a direction; the
    // branches that orient an edge by device kind swap them when the link
    // lists its ends the other way round.
    if (l.kind == LinkKind::kDram) {
      // Orientation: CpuMemory side -> root complex (feature reads).
      const auto [mem, rc, bw] =
          da.kind == DeviceKind::kCpuMemory
              ? std::tuple{l.a, l.b, l.bw_ab}
              : std::tuple{l.b, l.a, l.bw_ba};
      le.ab = fg.net.add_edge(storage_of[static_cast<std::size_t>(mem)],
                              inter_of[static_cast<std::size_t>(rc)], bw);
      out_rate[static_cast<std::size_t>(mem)] += bw;
      if (mem != l.a) std::swap(le.ab, le.ba);
    } else if (l.kind == LinkKind::kNvlink) {
      if (options.gpu_cache && options.use_nvlink) {
        // Peer HBM -> peer compute, both directions.
        le.ab = fg.net.add_edge(mem_of[static_cast<std::size_t>(l.a)],
                                comp_of[static_cast<std::size_t>(l.b)], l.bw_ab);
        le.ba = fg.net.add_edge(mem_of[static_cast<std::size_t>(l.b)],
                                comp_of[static_cast<std::size_t>(l.a)], l.bw_ba);
        out_rate[static_cast<std::size_t>(l.a)] += l.bw_ab;
        out_rate[static_cast<std::size_t>(l.b)] += l.bw_ba;
      }
    } else if (da.kind == DeviceKind::kSsd || db.kind == DeviceKind::kSsd) {
      const auto [ssd, parent, bw] =
          da.kind == DeviceKind::kSsd ? std::tuple{l.a, l.b, l.bw_ab}
                                      : std::tuple{l.b, l.a, l.bw_ba};
      le.ab = fg.net.add_edge(storage_of[static_cast<std::size_t>(ssd)],
                              inter_of[static_cast<std::size_t>(parent)], bw);
      out_rate[static_cast<std::size_t>(ssd)] += bw;
      if (ssd != l.a) std::swap(le.ab, le.ba);
    } else if (da.kind == DeviceKind::kGpu || db.kind == DeviceKind::kGpu) {
      const auto [parent, gpu, down_bw, up_bw] =
          db.kind == DeviceKind::kGpu
              ? std::tuple{l.a, l.b, l.bw_ab, l.bw_ba}
              : std::tuple{l.b, l.a, l.bw_ba, l.bw_ab};
      le.ab = fg.net.add_edge(inter_of[static_cast<std::size_t>(parent)],
                              comp_of[static_cast<std::size_t>(gpu)], down_bw);
      if (options.gpu_cache) {
        le.ba = fg.net.add_edge(mem_of[static_cast<std::size_t>(gpu)],
                                inter_of[static_cast<std::size_t>(parent)],
                                up_bw);
        out_rate[static_cast<std::size_t>(gpu)] += up_bw;
      }
      if (gpu == l.a) std::swap(le.ab, le.ba);
    } else if (is_inter(da) && is_inter(db)) {
      le.ab = fg.net.add_edge(inter_of[static_cast<std::size_t>(l.a)],
                              inter_of[static_cast<std::size_t>(l.b)], l.bw_ab);
      le.ba = fg.net.add_edge(inter_of[static_cast<std::size_t>(l.b)],
                              inter_of[static_cast<std::size_t>(l.a)], l.bw_ba);
    } else {
      throw std::logic_error("compile_flow_graph: unsupported link endpoints");
    }
  }

  // Supply side: s -> tier aggregator -> storage node. The per-storage edge
  // mirrors the node's total outgoing rate (paper's c(s, v_s) = c(v_s, v_i));
  // the tier edge mirrors the member sum and exists so byte budgets can be
  // expressed per tier. SSDs first, then DRAM, then GPU HBM caches, each
  // ordered by device index within its tier.
  auto add_storage = [&](DeviceKind kind, StorageTier tier) {
    std::vector<std::pair<StorageNodeInfo, double>> members;
    double tier_rate = 0.0;
    for (DeviceId dev : topo.devices_of_kind(kind)) {
      const auto d = static_cast<std::size_t>(dev);
      const NodeId node =
          kind == DeviceKind::kGpu ? mem_of[d] : storage_of[d];
      if (node < 0) continue;
      StorageNodeInfo info;
      info.device = dev;
      info.tier = tier;
      info.node = node;
      const double rate =
          kind == DeviceKind::kGpu ? std::min(out_rate[d] + hbm_bw, hbm_bw * 2)
                                   : out_rate[d];
      members.emplace_back(info, rate);
      tier_rate += rate;
    }
    if (members.empty()) return;
    const NodeId tier_node = fg.net.add_node();
    fg.tier_edge[static_cast<int>(tier)] =
        fg.net.add_edge(fg.source, tier_node, tier_rate);
    for (auto& [info, rate] : members) {
      info.supply_edge = fg.net.add_edge(tier_node, info.node, rate);
      fg.storage.push_back(info);
    }
  };
  add_storage(DeviceKind::kSsd, StorageTier::kSsd);
  add_storage(DeviceKind::kCpuMemory, StorageTier::kCpuDram);
  if (options.gpu_cache) add_storage(DeviceKind::kGpu, StorageTier::kGpuHbm);

  // Demand edges comp -> t, infinite in rate mode.
  for (auto& g : fg.gpus) {
    g.demand_edge = fg.net.add_edge(g.comp_node, fg.sink,
                                    maxflow::kInfiniteCapacity);
  }
  return fg;
}

}  // namespace moment::topology
