#pragma once
// End-to-end system models for the evaluation: Moment and the baselines the
// paper compares against. Each run couples a hardware placement, a data
// placement policy, a routing policy, and the epoch simulator:
//
//   Moment     — searched (or given) placement, flow-guided multipath IO,
//                DDAK data placement from the max-flow traffic plan.
//   M-Hyperion — Hyperion extended to multiple GPUs: shared SSD access but
//                topology-oblivious single-path routing and hash placement.
//   M-GIDS     — GIDS extended with DDP: SSDs statically partitioned per GPU
//                (each GPU reads only its own subset); OOMs on UK/CL from
//                BaM page-cache metadata, as measured in the paper.
//   DistDGL    — 4-machine cluster model: CPU-based sampling rate and the
//                measured 20 Gb/s effective network; OOMs when 5x dataset
//                exceeds aggregate cluster DRAM.

#include <optional>
#include <string>
#include <vector>

#include "ddak/ddak.hpp"
#include "ddak/workload.hpp"
#include "graph/datasets.hpp"
#include "runtime/models.hpp"
#include "sampling/hotness.hpp"
#include "sim/machine_sim.hpp"
#include "topology/machine.hpp"
#include "topology/predictor.hpp"

namespace moment::runtime {

enum class SystemKind { kMoment, kMHyperion, kMGids, kDistDgl };
const char* system_name(SystemKind kind) noexcept;

enum class DataPolicy { kDdak, kHash };

struct ExperimentConfig {
  const topology::MachineSpec* machine = nullptr;  // unused for DistDGL
  graph::DatasetId dataset = graph::DatasetId::kIG;
  int dataset_scale_shift = 2;          // keeps tests/benches fast
  gnn::ModelKind model = gnn::ModelKind::kGraphSage;
  int num_gpus = 4;
  int num_ssds = 8;
  /// Placement override; when absent Moment searches and baselines use the
  /// classic placement `default_classic`.
  std::optional<topology::Placement> placement;
  char default_classic = 'c';
  std::optional<DataPolicy> data_policy;  // default: per-system policy
  bool nvlink = false;
  ddak::CacheConfig cache;
  std::uint64_t seed = 42;
};

struct SystemResult {
  std::string system;
  std::string machine;
  std::string dataset;
  std::string model;
  int num_gpus = 0;
  bool oom = false;
  std::string oom_reason;

  double epoch_time_s = 0.0;
  double throughput_seeds_per_s = 0.0;
  sim::SimReport sim;                 // "measured"
  sim::SimOptions sim_options;        // what `sim` ran with
  topology::Prediction prediction;    // max-flow "predicted"
  double predicted_epoch_time_s = 0.0;
  topology::Placement placement;
  ddak::EpochWorkload workload;
  std::vector<ddak::Bin> bins;        // as placed (see simulate_placement)
  ddak::DataPlacementResult data_placement;
  double monetary_cost_usd = 0.0;     // 5-year TCO of the platform
};

/// Runs one system on one configuration. Deterministic given the seed.
SystemResult run_system(SystemKind kind, const ExperimentConfig& config);

/// Shared preprocessing bundle so sweeps don't regenerate datasets.
struct Workbench {
  graph::Dataset dataset;
  sampling::HotnessProfile profile;

  /// The dataset plus its pre-sampled profile: its own training set,
  /// fan-outs {25, 10}, paper-scale batches (8 seeds at IG), drawn until two
  /// fetches per vertex are recorded, so DDAK and the hot-row cache rank the
  /// graph rather than vertex-id ties.
  static Workbench make(graph::DatasetId id, int scale_shift,
                        std::uint64_t seed);
};

SystemResult run_system(SystemKind kind, const ExperimentConfig& config,
                        const Workbench& bench);

/// Platform 5-year TCO estimates from the paper's cost discussion
/// (Section 4.2): single customized machine vs the 4-node cluster.
double machine_tco_usd();
double cluster_tco_usd();

/// One placement through the evaluation pipeline: max-flow prediction,
/// storage bins, data placement and the fluid-simulated epoch.
struct PlacementEval {
  topology::Prediction prediction;
  /// The bins the data was placed into: per-GPU HBM bins merged into one
  /// under replicated caches, the CPU cache socket-mirrored under DDAK.
  std::vector<ddak::Bin> bins;
  ddak::DataPlacementResult data_placement;
  sim::SimReport sim;
  sim::SimOptions sim_options;  // what the winning `sim` ran with
  double ddak_time_s = 0.0;  // wall time of the data-placement step
};

/// The one evaluation pipeline every system runs on a hardware placement
/// (NVLink edges follow `placement.nvlink`). What varies by system:
///   - supply model: Moment plans tier-flexible supplies (DDAK realises the
///     split); the baselines are pinned to the uniform hash split;
///   - data placement: DDAK (with the CPU cache mirrored per socket) or hash
///     striping (`seed` is the hash seed), per `policy`;
///   - M-GIDS partitions the SSDs per GPU and reads 1.45x the bytes;
///   - Moment routes over multiple paths or directly, whichever simulates
///     faster (multipath wins ties); the baselines route directly.
PlacementEval simulate_placement(SystemKind kind,
                                 const topology::MachineSpec& spec,
                                 const topology::Placement& placement,
                                 const Workbench& bench,
                                 const ddak::EpochWorkload& workload,
                                 const ddak::CacheConfig& cache,
                                 DataPolicy policy,
                                 double compute_time_per_batch,
                                 std::uint64_t seed);

/// Moment's placement choice: max-flow ranks the (symmetry-reduced)
/// candidate space, then the top few candidates plus the classic layouts run
/// through simulate_placement (DDAK, symmetric-access fluid model), and the
/// best *simulated* placement wins. The single-commodity max flow can
/// overestimate what symmetric per-GPU access achieves on asymmetric
/// layouts; the refinement step keeps that optimism from selecting them.
struct PlacementChoice {
  topology::Placement placement;
  PlacementEval eval;  // the winner's evaluation
  std::size_t candidates_total = 0;
  std::size_t candidates_evaluated = 0;
};

PlacementChoice choose_moment_placement(const topology::MachineSpec& spec,
                                        const Workbench& bench,
                                        const ddak::EpochWorkload& workload,
                                        int num_gpus, int num_ssds,
                                        bool nvlink,
                                        const ddak::CacheConfig& cache,
                                        double compute_time_per_batch);

}  // namespace moment::runtime
