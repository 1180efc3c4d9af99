#pragma once
// Epoch-level "measured" simulator. Where the max-flow module *predicts*
// throughput from capacities alone, this module executes the training loop's
// traffic at flow-level fidelity: per-round concurrent streams, max-min fair
// link sharing, data-parallel barriers, and sampling/compute overlap. The
// deliberate modelling differences (single/weighted-path routing instead of
// optimal splitting, per-round barriers, integer rounds) are what give the
// paper's Fig. 13 prediction-vs-measurement gap.
//
// Two modes share the routes, the per-GPU round streams and the epoch
// arithmetic:
//   - expectation mode (simulate_epoch) drives one representative round from
//     the placement's *expected* bin shares;
//   - trace mode (simulate_epoch_traced) samples real mini-batches with the
//     real neighbor sampler, looks each fetched vertex up in the realised
//     data placement, and simulates every traced round individually. It
//     captures what expectation mode cannot: round-to-round variance from
//     sampling noise and placement granularity. A traced round moves the
//     paper-scale per-batch volume, split across bins by the traced batch's
//     observed composition.
//
// The simulator models a fault-free machine: a failed device's steady state
// is what the feature store's failover remap leaves, which the caller can
// simulate as a placement of its own.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ddak/ddak.hpp"
#include "ddak/workload.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "sim/fluid.hpp"
#include "topology/machine.hpp"
#include "topology/routes.hpp"
#include "util/stats.hpp"

namespace moment::sim {

/// Fixed per-round launch/sync overhead (kernel launches, allreduce) added
/// to every simulated round, in seconds.
inline constexpr double kRoundOverheadS = 0.002;

struct SimOptions {
  topology::RoutingPolicy routing = topology::RoutingPolicy::kMultiPath;
  /// Model-training time per batch on one GPU (seconds); sets the compute
  /// side of the IO/compute overlap. See runtime/models.hpp for presets.
  double compute_time_per_batch = 0.06;
  /// M-GIDS mode: SSDs are statically partitioned across GPUs (GPU g reads
  /// only SSD bins with ordinal in [g*S/G, (g+1)*S/G)); each GPU's whole SSD
  /// byte share is drawn from its own subset.
  bool partition_ssds_per_gpu = false;
  /// Multiplier on SSD-tier stream bytes: software page-cache overheads and
  /// page-granularity read amplification (BaM-style stacks move whole 4 KiB
  /// cache lines plus metadata traffic per miss). 1.0 = none.
  double ssd_read_amplification = 1.0;
  /// Random-read IOPS limit per SSD (0 = bandwidth-limited only). When set,
  /// each SSD's egress rate is capped at min(bandwidth, iops * request
  /// size) — 4 KiB feature reads on a P5510 are IOPS-bound near 1M ops/s.
  double ssd_iops = 0.0;
  double ssd_request_bytes = 4096.0;
};

struct LinkTrafficReport {
  topology::LinkId link = -1;
  std::string label;
  topology::LinkKind kind = topology::LinkKind::kPcie;
  double bytes_ab = 0.0;  // per epoch
  double bytes_ba = 0.0;
};

struct SimReport {
  double epoch_time_s = 0.0;
  double round_time_s = 0.0;
  double io_round_time_s = 0.0;     // slowest GPU's IO time per round
  std::size_t rounds = 0;
  double throughput_seeds_per_s = 0.0;   // trained seed vertices / s
  double agg_io_bandwidth = 0.0;         // bytes/s during the IO phase
  std::vector<double> per_gpu_io_bandwidth;
  double imbalance_cv = 0.0;             // CV of per-GPU IO finish times
  double qpi_bytes = 0.0;                // per epoch, both directions
  std::vector<LinkTrafficReport> link_traffic;
  bool io_bound = false;
};

/// Expectation mode: simulates one epoch of data-parallel training.
/// `bins`/`placement` define where each vertex's embedding lives and hence
/// the per-(GPU, storage) traffic; a merged replicated-GPU bin
/// (storage_index == -1) is served HBM-locally by every GPU.
SimReport simulate_epoch(const topology::Topology& topo,
                         const topology::FlowGraph& fg,
                         const ddak::EpochWorkload& workload,
                         std::span<const ddak::Bin> bins,
                         const ddak::DataPlacementResult& placement,
                         const SimOptions& options = {});

struct TraceSimOptions {
  SimOptions base;
  /// Rounds actually traced and fluid-simulated (at least 1); the epoch
  /// extrapolates from their mean (an epoch has thousands of statistically
  /// identical rounds).
  std::size_t trace_rounds = 12;
  /// Seeds per traced batch on the scaled graph (8 when 0; pass the hotness
  /// profiler's proportional batch size).
  std::size_t scaled_batch_size = 0;
  std::uint64_t seed = 42;
};

struct TraceSimReport {
  /// The epoch extrapolated from the traced rounds' mean IO time and mean
  /// per-link bytes. The per-GPU bandwidth and imbalance fields stay empty.
  SimReport epoch;
  util::Summary round_io_time_s;  // spread across traced rounds
  std::size_t traced_rounds = 0;
};

/// Trace mode. `placement.bin_of_vertex` is the realised placement over
/// `bins` (indices align). `train_vertices` seeds the traced batches; the
/// sampler must wrap the same scaled graph the placement was computed for.
TraceSimReport simulate_epoch_traced(
    const topology::Topology& topo, const topology::FlowGraph& fg,
    const ddak::EpochWorkload& workload, std::span<const ddak::Bin> bins,
    const ddak::DataPlacementResult& placement,
    const sampling::NeighborSampler& sampler,
    std::span<const graph::VertexId> train_vertices,
    const TraceSimOptions& options = {});

/// Merges per-GPU HBM bins into one replicated bin (capacity = one replica,
/// traffic = sum). Use with GpuCacheMode::kReplicated.
std::vector<ddak::Bin> merge_replicated_gpu_bins(std::span<const ddak::Bin> bins);

/// Share of each socket's CPU cache budget that mirrors the hottest cached
/// vertices (see merge_replicated_cpu_bins).
inline constexpr double kCpuMirrorFraction = 0.5;

/// Splits the CPU cache into a socket-mirrored hot portion and per-socket
/// exclusive remainders: every socket mirrors the hottest
/// kCpuMirrorFraction of its cache budget, so those hits are served from the
/// GPU's local socket and never cross QPI (the paper's "adaptive migration
/// of hot data"); colder cached vertices stay single-copy. This is Moment's
/// CPU cache policy; the hash baseline stripes all vertices across sockets.
std::vector<ddak::Bin> merge_replicated_cpu_bins(
    std::span<const ddak::Bin> bins);

}  // namespace moment::sim
