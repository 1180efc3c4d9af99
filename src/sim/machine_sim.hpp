#pragma once
// Epoch-level "measured" simulator. Where the max-flow module *predicts*
// throughput from capacities alone, this module executes the training loop's
// traffic at flow-level fidelity: per-round concurrent streams, max-min fair
// link sharing, data-parallel barriers, and sampling/compute overlap. The
// deliberate modelling differences (single/weighted-path routing instead of
// optimal splitting, per-round barriers, integer rounds) are what give the
// paper's Fig. 13 prediction-vs-measurement gap.

#include <span>
#include <string>
#include <vector>

#include "comm/plan.hpp"
#include "ddak/ddak.hpp"
#include "ddak/workload.hpp"
#include "sim/fluid.hpp"
#include "sim/routes.hpp"
#include "topology/machine.hpp"

namespace moment::sim {

struct SimOptions {
  RoutingPolicy routing = RoutingPolicy::kMultiPath;
  int max_paths = 3;
  /// Model-training time per batch on one GPU (seconds); sets the compute
  /// side of the IO/compute overlap. See runtime/models.hpp for presets.
  double compute_time_per_batch = 0.06;
  /// Fixed per-round launch/sync overhead (kernel launches, allreduce).
  double round_overhead_s = 0.002;
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
  /// Average feature rows per SSD command after the client's run coalescing
  /// (TieredFeatureClient's GatherStats::coalesce_rows_per_cmd).
  /// Each command moves factor * request bytes, so under an IOPS cap the
  /// effective egress rate scales by the same factor; 1.0 = no coalescing.
  double ssd_coalesce_factor = 1.0;
  /// Degraded mode: SSD bins with these ordinals (position among SSD-tier
  /// bins, matching the partition_ssds_per_gpu numbering) are failed; their
  /// traffic share is redistributed proportionally onto surviving SSD bins —
  /// the steady state after the feature store's failover remap.
  std::vector<int> failed_ssd_ordinals;
  /// Transient read-error rate p on the SSD tier: every SSD byte is fetched
  /// 1/(1-p) times on average (retry read amplification). 0 = fault-free.
  double ssd_transient_error_rate = 0.0;
  /// Gradient all-reduce comm phase. When `comm_plan` is set, every round
  /// additionally pays the plan's contention-costed time for
  /// `gradient_bytes_per_round` bytes (per schedule step, the most loaded
  /// (link, direction) sets the step's duration; steps are sequential), and
  /// the plan's modeled per-link bytes are folded into link_traffic. The
  /// comm phase is a barrier between rounds, so it does not overlap IO or
  /// compute. Not owned; null = comm-free epochs (historical behaviour).
  const comm::CommPlan* comm_plan = nullptr;
  double gradient_bytes_per_round = 0.0;
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
  /// Degraded-mode echo: failed SSD bins and the retry read-amplification
  /// factor applied to SSD-tier bytes (1.0 = fault-free).
  std::size_t failed_ssds = 0;
  double retry_read_amplification = 1.0;
  /// Echo of SimOptions::ssd_coalesce_factor applied to the IOPS cap.
  double coalesce_factor = 1.0;
  /// Contention-costed gradient all-reduce time per round (0 without a
  /// comm plan) and the plan's algorithm name ("" without one).
  double comm_round_time_s = 0.0;
  std::string comm_algorithm;
};

/// Simulates one epoch of data-parallel training.
/// `bins`/`placement` define where each vertex's embedding lives and hence
/// the per-(GPU, storage) traffic; a merged replicated-GPU bin
/// (storage_index == -1) is served HBM-locally by every GPU.
SimReport simulate_epoch(const topology::Topology& topo,
                         const topology::FlowGraph& fg,
                         const ddak::EpochWorkload& workload,
                         std::span<const ddak::Bin> bins,
                         const ddak::DataPlacementResult& placement,
                         const SimOptions& options = {});

/// Merges per-GPU HBM bins into one replicated bin (capacity = one replica,
/// traffic = sum). Use with GpuCacheMode::kReplicated.
std::vector<ddak::Bin> merge_replicated_gpu_bins(std::span<const ddak::Bin> bins);

/// Splits the CPU cache into a socket-mirrored hot portion and per-socket
/// exclusive remainders: every socket mirrors the hottest
/// `mirror_fraction` of its cache budget, so those hits are served from the
/// GPU's local socket and never cross QPI (the paper's "adaptive migration
/// of hot data"); colder cached vertices stay single-copy. This is Moment's
/// CPU cache policy; the hash baseline stripes all vertices across sockets.
std::vector<ddak::Bin> merge_replicated_cpu_bins(
    std::span<const ddak::Bin> bins, double mirror_fraction = 0.5);

}  // namespace moment::sim
