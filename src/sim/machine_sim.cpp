#include "sim/machine_sim.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace moment::sim {

std::vector<ddak::Bin> merge_replicated_gpu_bins(
    std::span<const ddak::Bin> bins) {
  std::vector<ddak::Bin> out;
  ddak::Bin merged;
  merged.name = "GPU.HBM(replicated)";
  merged.storage_index = -1;
  merged.tier = topology::StorageTier::kGpuHbm;
  bool any_gpu = false;
  for (const auto& b : bins) {
    if (b.tier == topology::StorageTier::kGpuHbm) {
      any_gpu = true;
      merged.capacity_vertices =
          merged.capacity_vertices == 0.0
              ? b.capacity_vertices
              : std::min(merged.capacity_vertices, b.capacity_vertices);
      merged.traffic_target += b.traffic_target;
    } else {
      out.push_back(b);
    }
  }
  if (any_gpu) out.insert(out.begin(), merged);
  return out;
}

std::vector<ddak::Bin> merge_replicated_cpu_bins(
    std::span<const ddak::Bin> bins) {
  std::vector<ddak::Bin> out;
  ddak::Bin mirrored;
  mirrored.name = "CPU.DRAM(mirrored)";
  mirrored.tier = topology::StorageTier::kCpuDram;
  bool any_cpu = false;
  double capacity_total = 0.0;
  double min_socket_capacity = 0.0;
  std::vector<ddak::Bin> exclusives;
  for (const auto& b : bins) {
    if (b.tier == topology::StorageTier::kCpuDram && b.storage_index >= 0) {
      any_cpu = true;
      capacity_total += b.capacity_vertices;
      min_socket_capacity =
          min_socket_capacity == 0.0
              ? b.capacity_vertices
              : std::min(min_socket_capacity, b.capacity_vertices);
      mirrored.traffic_target += b.traffic_target * kCpuMirrorFraction;
      mirrored.replica_storage_indices.push_back(b.storage_index);
      ddak::Bin exclusive = b;
      exclusive.capacity_vertices *= 1.0 - kCpuMirrorFraction;
      exclusive.traffic_target *= 1.0 - kCpuMirrorFraction;
      exclusives.push_back(std::move(exclusive));
    } else {
      out.push_back(b);
    }
  }
  if (any_cpu) {
    // The mirrored content occupies kCpuMirrorFraction of every socket's
    // budget; the hottest vertices land here (largest CPU-tier target).
    mirrored.capacity_vertices = kCpuMirrorFraction * min_socket_capacity;
    mirrored.storage_index = mirrored.replica_storage_indices.front();
    if (mirrored.capacity_vertices >= 1.0) out.push_back(mirrored);
    for (auto& e : exclusives) {
      if (e.capacity_vertices >= 1.0) out.push_back(std::move(e));
    }
  }
  return out;
}

namespace {

/// `fg` with every SSD's egress edge capped at iops * request size, or `fg`
/// itself when no IOPS limit is set (4 KiB random reads are IOPS-bound
/// before they are bandwidth-bound on real NVMe). `capped` holds the copy.
const topology::FlowGraph& iops_capped(const topology::FlowGraph& fg,
                                       const SimOptions& options,
                                       topology::FlowGraph& capped) {
  if (options.ssd_iops <= 0.0) return fg;
  capped = fg;
  const double cap = options.ssd_iops * options.ssd_request_bytes;
  for (const auto& s : capped.storage) {
    if (s.tier != topology::StorageTier::kSsd) continue;
    for (maxflow::EdgeId eid : capped.net.incident(s.node)) {
      const auto& e = capped.net.edge(eid);
      if (e.is_residual || capped.net.edge_source(eid) != s.node) continue;
      capped.net.set_capacity(eid,
                              std::min(capped.net.original_capacity(eid), cap));
    }
  }
  return capped;
}

/// Builds the streams of one round, one GPU at a time. Holds what is fixed
/// for a simulation: the per-(GPU, bin) routes and the SSD ordinals.
class RoundStreams {
 public:
  RoundStreams(const topology::FlowGraph& fg, std::span<const ddak::Bin> bins,
               const SimOptions& options)
      : bins_(bins),
        options_(options),
        num_gpus_(static_cast<int>(fg.gpus.size())),
        ssd_ordinal_(bins.size(), -1) {
    for (std::size_t bi = 0; bi < bins.size(); ++bi) {
      if (bins[bi].tier != topology::StorageTier::kSsd) continue;
      ssd_ordinal_[bi] = num_ssd_bins_++;
    }
    // Route table: each GPU reads a socket-replicated bin from its nearest
    // replica, then follows the routing policy's paths. A bin without a
    // route fails only once traffic is put on it.
    routes_.resize(static_cast<std::size_t>(num_gpus_) * bins.size());
    for (int g = 0; g < num_gpus_; ++g) {
      const maxflow::NodeId comp =
          fg.gpus[static_cast<std::size_t>(g)].comp_node;
      for (std::size_t bi = 0; bi < bins.size(); ++bi) {
        const ddak::Bin& bin = bins[bi];
        if (bin.storage_index < 0) continue;  // replicated HBM: local
        Route& route = routes_[static_cast<std::size_t>(g) * bins.size() + bi];
        route.storage_index = bin.storage_index;
        if (bin.replica_storage_indices.size() > 1) {
          std::size_t best_hops = std::numeric_limits<std::size_t>::max();
          for (int ri : bin.replica_storage_indices) {
            const topology::PathSet rp = topology::find_paths(
                fg, fg.storage[static_cast<std::size_t>(ri)].node, comp,
                topology::RoutingPolicy::kSinglePath);
            if (!rp.paths.empty() && rp.paths[0].size() < best_hops) {
              best_hops = rp.paths[0].size();
              route.storage_index = ri;
            }
          }
        }
        route.paths = topology::find_paths(
            fg, fg.storage[static_cast<std::size_t>(route.storage_index)].node,
            comp, options.routing);
      }
    }
  }

  /// Appends GPU g's streams for one round that fetches `bytes` in total:
  /// bin bi serves weights[bi] / total of them. Under M-GIDS partitioning
  /// the GPU draws its whole SSD weight from its own SSD subset; SSD bytes
  /// carry the read amplification.
  void add_gpu(int g, std::span<const double> weights, double total,
               double bytes, std::vector<SubStream>& streams) const {
    double ssd_total = 0.0;
    for (std::size_t bi = 0; bi < weights.size(); ++bi) {
      if (ssd_ordinal_[bi] >= 0) ssd_total += weights[bi];
    }
    for (std::size_t bi = 0; bi < bins_.size(); ++bi) {
      double share = weights[bi];
      if (options_.partition_ssds_per_gpu && ssd_ordinal_[bi] >= 0) {
        const int per_gpu = std::max(1, num_ssd_bins_ / num_gpus_);
        const int owner = std::min(ssd_ordinal_[bi] / per_gpu, num_gpus_ - 1);
        share = owner == g ? ssd_total / static_cast<double>(per_gpu) : 0.0;
      }
      if (share <= 1e-12 * total) continue;
      const ddak::Bin& bin = bins_[bi];
      if (bin.storage_index < 0) continue;  // replicated HBM: no fabric
      double bin_bytes = bytes * share / total;
      if (bin.tier == topology::StorageTier::kSsd) {
        bin_bytes *= options_.ssd_read_amplification;
      }
      const Route& route =
          routes_[static_cast<std::size_t>(g) * bins_.size() + bi];
      if (route.paths.paths.empty()) {
        throw std::logic_error("simulate_epoch: no route from " + bin.name +
                               " to GPU" + std::to_string(g));
      }
      for (std::size_t p = 0; p < route.paths.paths.size(); ++p) {
        SubStream s;
        s.gpu = g;
        s.storage_index = route.storage_index;
        s.edges = route.paths.paths[p];
        s.bytes = bin_bytes * route.paths.weights[p];
        streams.push_back(std::move(s));
      }
    }
  }

 private:
  struct Route {
    int storage_index = -1;  // the replica read
    topology::PathSet paths;
  };

  std::span<const ddak::Bin> bins_;
  const SimOptions& options_;
  int num_gpus_;
  int num_ssd_bins_ = 0;
  std::vector<int> ssd_ordinal_;  // position among SSD bins, -1 otherwise
  std::vector<Route> routes_;  // [gpu * bins + bin]
};

/// The epoch of one round's IO time and per-edge bytes: round time,
/// IO-boundness, rounds, epoch time, throughput, and the per-link and QPI
/// bytes scaled to the epoch.
SimReport epoch_report(const topology::Topology& topo,
                       const topology::FlowGraph& fg,
                       const ddak::EpochWorkload& workload,
                       const SimOptions& options, double io_round_time_s,
                       std::span<const double> edge_bytes) {
  const auto num_gpus = static_cast<std::size_t>(fg.gpus.size());
  SimReport report;
  report.io_round_time_s = io_round_time_s;
  report.round_time_s =
      std::max(io_round_time_s, options.compute_time_per_batch) +
      kRoundOverheadS;
  report.io_bound = io_round_time_s >= options.compute_time_per_batch;
  report.rounds = (workload.batches_per_epoch + num_gpus - 1) / num_gpus;
  // Pipeline: IO of round k overlaps compute of round k-1; the tail adds one
  // compute phase.
  report.epoch_time_s =
      static_cast<double>(report.rounds) * report.round_time_s +
      options.compute_time_per_batch;
  report.throughput_seeds_per_s = static_cast<double>(workload.batch_size) *
                                  static_cast<double>(num_gpus) /
                                  report.round_time_s;

  // Map per-edge bytes back to physical links, scaled to the whole epoch.
  const auto scale = static_cast<double>(report.rounds);
  for (const auto& le : fg.link_edges) {
    if (le.link < 0) continue;
    LinkTrafficReport lt;
    lt.link = le.link;
    const auto& l = topo.link(le.link);
    lt.label = l.label;
    lt.kind = l.kind;
    if (le.ab >= 0) {
      lt.bytes_ab = edge_bytes[static_cast<std::size_t>(le.ab)] * scale;
    }
    if (le.ba >= 0) {
      lt.bytes_ba = edge_bytes[static_cast<std::size_t>(le.ba)] * scale;
    }
    if (lt.kind == topology::LinkKind::kQpi) {
      report.qpi_bytes += lt.bytes_ab + lt.bytes_ba;
    }
    report.link_traffic.push_back(std::move(lt));
  }
  return report;
}

void check_inputs(const topology::FlowGraph& fg,
                  std::span<const ddak::Bin> bins,
                  const ddak::DataPlacementResult& placement) {
  if (placement.bin_traffic_share.size() != bins.size()) {
    throw std::invalid_argument("simulate_epoch: placement/bins mismatch");
  }
  if (fg.gpus.empty()) throw std::invalid_argument("simulate_epoch: no GPUs");
}

}  // namespace

SimReport simulate_epoch(const topology::Topology& topo,
                         const topology::FlowGraph& fg_in,
                         const ddak::EpochWorkload& workload,
                         std::span<const ddak::Bin> bins,
                         const ddak::DataPlacementResult& placement,
                         const SimOptions& options) {
  check_inputs(fg_in, bins, placement);
  topology::FlowGraph capped;
  const topology::FlowGraph& fg = iops_capped(fg_in, options, capped);
  const RoundStreams builder(fg, bins, options);
  const int num_gpus = static_cast<int>(fg.gpus.size());
  const double bytes_per_batch =
      workload.fetches_per_batch * workload.feature_bytes;
  const std::span<const double> shares = placement.bin_traffic_share;

  // One round: every GPU fetches one batch by the expected bin shares.
  std::vector<SubStream> streams;
  for (int g = 0; g < num_gpus; ++g) {
    builder.add_gpu(g, shares, 1.0, bytes_per_batch, streams);
  }
  const FluidResult round = simulate_round(fg, streams, num_gpus);

  SimReport report = epoch_report(topo, fg, workload, options,
                                  round.finish_time, round.edge_bytes);

  double local_bytes_per_gpu = 0.0;  // HBM-replicated hits, same for each GPU
  for (std::size_t bi = 0; bi < bins.size(); ++bi) {
    if (bins[bi].storage_index < 0) {
      local_bytes_per_gpu += bytes_per_batch * shares[bi];
    }
  }
  const double fabric_bytes = bytes_per_batch - local_bytes_per_gpu;
  for (const double t : round.gpu_finish) {
    report.per_gpu_io_bandwidth.push_back(t > 0.0 ? fabric_bytes / t : 0.0);
  }
  report.imbalance_cv = util::coefficient_of_variation(round.gpu_finish);
  report.agg_io_bandwidth =
      round.finish_time > 0.0
          ? fabric_bytes * static_cast<double>(num_gpus) / round.finish_time
          : 0.0;
  return report;
}

TraceSimReport simulate_epoch_traced(
    const topology::Topology& topo, const topology::FlowGraph& fg_in,
    const ddak::EpochWorkload& workload, std::span<const ddak::Bin> bins,
    const ddak::DataPlacementResult& placement,
    const sampling::NeighborSampler& sampler,
    std::span<const graph::VertexId> train_vertices,
    const TraceSimOptions& options) {
  if (train_vertices.empty()) {
    throw std::invalid_argument("simulate_epoch_traced: no train vertices");
  }
  if (options.trace_rounds == 0) {
    throw std::invalid_argument("simulate_epoch_traced: no rounds to trace");
  }
  check_inputs(fg_in, bins, placement);
  const SimOptions& base = options.base;
  topology::FlowGraph capped;
  const topology::FlowGraph& fg = iops_capped(fg_in, base, capped);
  const RoundStreams builder(fg, bins, base);
  const int num_gpus = static_cast<int>(fg.gpus.size());
  const std::size_t scaled_batch =
      options.scaled_batch_size > 0 ? options.scaled_batch_size : 8;
  const double bytes_per_batch =
      workload.fetches_per_batch * workload.feature_bytes;

  util::Pcg32 rng(options.seed, 0x54524143);  // "TRAC"
  std::vector<double> io_times;
  std::vector<double> edge_bytes;  // summed over traced rounds
  std::vector<double> counts(bins.size());
  for (std::size_t round = 0; round < options.trace_rounds; ++round) {
    std::vector<SubStream> streams;
    for (int g = 0; g < num_gpus; ++g) {
      // Sample a real batch for this GPU and bucket its fetch set by bin.
      // Seeds are drawn with replacement: only the (unique) fetch set is
      // read, never gnn::build_blocks, which rejects a repeated seed.
      std::vector<graph::VertexId> seeds(scaled_batch);
      for (auto& s : seeds) {
        s = train_vertices[rng.next_below(
            static_cast<std::uint32_t>(train_vertices.size()))];
      }
      const auto sg = sampler.sample(seeds, rng);
      std::fill(counts.begin(), counts.end(), 0.0);
      for (graph::VertexId v : sg.fetch_set) {
        const auto bi = placement.bin_of_vertex[v];
        if (bi < 0 || static_cast<std::size_t>(bi) >= bins.size()) {
          throw std::out_of_range("simulate_epoch_traced: vertex bin");
        }
        counts[static_cast<std::size_t>(bi)] += 1.0;
      }
      builder.add_gpu(g, counts, static_cast<double>(sg.fetch_set.size()),
                      bytes_per_batch, streams);
    }
    const FluidResult res = simulate_round(fg, streams, num_gpus);
    io_times.push_back(res.finish_time);
    edge_bytes.resize(res.edge_bytes.size(), 0.0);
    for (std::size_t e = 0; e < edge_bytes.size(); ++e) {
      edge_bytes[e] += res.edge_bytes[e];
    }
  }

  TraceSimReport report;
  report.traced_rounds = io_times.size();
  report.round_io_time_s = util::summarize(io_times);
  for (double& b : edge_bytes) b /= static_cast<double>(report.traced_rounds);
  report.epoch = epoch_report(topo, fg, workload, base,
                              report.round_io_time_s.mean, edge_bytes);
  return report;
}

}  // namespace moment::sim
