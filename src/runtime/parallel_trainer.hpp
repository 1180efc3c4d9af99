#pragma once
// Functional data-parallel trainer: N workers ("GPUs"), each with its own
// model replica, sampler and feature provider, synchronised per round by
// gradient averaging (DDP semantics). Training vertices are evenly
// partitioned across workers, as in the paper's runtime (Section 3.1).
//
// Each worker is a persistent executor thread that double-buffers
// mini-batches: batch N+1 is sampled while batch N's gather completes, and
// its feature gather is issued through the provider's async begin/wait
// protocol right after that wait, so its storage latency hides behind batch
// N's forward/backward while the provider still holds the pages of both
// earlier batches. Rounds stay barrier-synchronized for DDP correctness:
// grads are averaged chunk-parallel on the coordinator between two
// barriers, then every worker steps its own optimizer on the identical
// averaged gradients.
//
// Per-stage telemetry (sample / gather / compute / all-reduce seconds plus a
// pipeline-overlap ratio) makes this measured path directly comparable to the
// predicted timings in sim::SimReport — the measured half of a Fig.-13-style
// prediction-vs-measurement story.

#include <barrier>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "comm/plan.hpp"
#include "gnn/features.hpp"
#include "gnn/model.hpp"
#include "gnn/optimizer.hpp"
#include "graph/csr.hpp"
#include "sampling/neighbor_sampler.hpp"

namespace moment::runtime {

/// Per-worker wall-clock breakdown of one epoch (seconds).
struct StageTimes {
  double sample_s = 0.0;        // neighbor sampling + block building
  /// gather_begin: routing, tier and cache copies, coalescing and the
  /// hand-off to the client's IO thread (which submits to the SQs).
  double gather_issue_s = 0.0;
  double gather_wait_s = 0.0;   // exposed stall inside gather_wait
  double compute_s = 0.0;       // forward/backward
  double optimizer_s = 0.0;     // local optimizer step
  /// Time an async gather ticket was in flight while this worker did other
  /// work: the previous batch's compute, the round barrier, the optimizer
  /// step and the next batch's sampling. The gather is issued after the
  /// previous batch's wait, so that wait is not part of it. Zero for
  /// providers that complete synchronously inside gather_begin().
  double hidden_io_s = 0.0;

  double gather_s() const noexcept { return gather_issue_s + gather_wait_s; }
};

/// Modeled bytes that crossed one physical link this epoch (both directions).
struct CommLinkBytes {
  topology::LinkId link = -1;
  std::string label;
  std::uint64_t ab = 0;
  std::uint64_t ba = 0;
};

/// Communication telemetry for one epoch: the modeled all-reduce transport
/// plus any peer-HBM gather traffic the feature clients routed over the same
/// LinkCounters. Populated only when EngineOptions wires a CommPlan; the
/// per-link deltas additionally need a LinkCounters instance.
struct CommStats {
  std::string algorithm;            // "flat"/"ring"/"tree"; empty = no plan
  std::uint64_t payload_bytes = 0;  // gradient bytes per all-reduce round
  std::uint64_t modeled_bytes = 0;  // sum of per-link byte deltas this epoch
  /// Contention-costed plan model x rounds: the predicted wall-clock cost of
  /// this epoch's all-reduces on the physical links (compare against the
  /// measured allreduce_s).
  double predicted_comm_s = 0.0;
  std::vector<CommLinkBytes> links;  // links with nonzero traffic, by id
};

struct EpochStats {
  float mean_loss = 0.0f;
  float mean_accuracy = 0.0f;
  std::size_t batches = 0;
  std::size_t fetched_vertices = 0;
  double wall_time_s = 0.0;

  // Per-stage telemetry: the measured counterpart of sim::SimReport.
  std::size_t rounds = 0;
  std::vector<StageTimes> per_worker;
  StageTimes stage_max;      // per-stage slowest worker (critical path)
  double allreduce_s = 0.0;  // coordinator: chunk-parallel grad averaging
  /// hidden_io / (hidden_io + gather_wait): the fraction of async-gather
  /// in-flight time that was overlapped with other pipeline stages instead
  /// of stalling the worker. 0 when nothing ran asynchronously. The wait
  /// for the previous batch is never hidden time: the next gather is
  /// issued after it (see StageTimes::hidden_io_s).
  double overlap_ratio = 0.0;

  /// IO telemetry this epoch: counter fields are per-epoch deltas summed
  /// over workers (row sources, fault recovery and the coalesce/cache
  /// IO-reduction pipeline); the devices_* gauges are the post-epoch state of the backing
  /// array (max across providers). All zero for fault-free runs on providers
  /// without a faultable backend.
  gnn::FeatureProvider::IoResilience io;

  /// Modeled communication telemetry (all-reduce + peer-HBM gather).
  CommStats comm;
};

/// Formats the epoch's IO telemetry for the per-epoch report: each row
/// source's share of the fetched rows (GPU, peer, CPU, host, cache, pages
/// reused from an idle staging slot, SSD),
/// the IO-reduction pipeline's counters (coalesced commands and rows/cmd,
/// cache hit rate) and the retry/failover counters (RetryStats-derived).
/// Single line, empty-ish sections elided.
std::string io_report(const EpochStats& stats);

/// Formats the epoch's comm telemetry (algorithm, per-round payload,
/// predicted seconds, per-link bytes, peer-gather rows) as a single line.
/// Empty string when no comm plan was wired.
std::string comm_report(const EpochStats& stats);

struct EngineOptions {
  /// 1 = strictly sequential per worker (sample -> gather -> compute), the
  /// pre-pipelining reference; 2 = double-buffered prefetch: batch N+1 is
  /// sampled before batch N's gather completes and its gather is issued
  /// right after, before batch N computes. At most one gather is in flight
  /// per worker at either depth.
  std::size_t pipeline_depth = 2;
  /// Compiled communication plan for the gradient all-reduce. The reduction
  /// itself always runs the same fixed-order elementwise kernel (so every
  /// algorithm is bit-identical); the plan drives the modeled transport:
  /// per-link byte accounting and predicted comm seconds. Null = flat path
  /// with no accounting. Not owned; must outlive the trainer.
  const comm::CommPlan* comm_plan = nullptr;
  /// Per-link byte counters shared with the feature clients' peer-gather
  /// path; snapshotted per epoch into EpochStats::comm. Not owned.
  comm::LinkCounters* link_counters = nullptr;
};

/// Owns one replica per worker (model, Adam optimizer, sampler, partition)
/// and the persistent worker threads that train them. The graph and the
/// providers are not owned and must outlive the trainer. train_epoch() is
/// not re-entrant.
class DataParallelTrainer {
 public:
  /// `providers.size()` defines the worker count; each worker uses its own
  /// provider (e.g. a per-GPU TieredFeatureClient).
  DataParallelTrainer(const graph::CsrGraph& graph,
                      std::vector<gnn::FeatureProvider*> providers,
                      const gnn::ModelConfig& model_config,
                      std::vector<int> fanouts,
                      std::vector<graph::VertexId> train_vertices,
                      float learning_rate, std::uint64_t seed,
                      EngineOptions options = {});
  ~DataParallelTrainer();

  DataParallelTrainer(const DataParallelTrainer&) = delete;
  DataParallelTrainer& operator=(const DataParallelTrainer&) = delete;

  /// One barrier-synchronized epoch over the partitioned training set.
  /// `max_rounds` truncates for tests. Labels index by global vertex id; a
  /// table too short for a training vertex throws std::out_of_range. The
  /// epoch count feeds the per-epoch seed derivation (batch shuffling and
  /// per-round sampling streams), so every pipeline depth produces the same
  /// loss trajectory.
  EpochStats train_epoch(std::span<const std::int32_t> labels,
                         std::size_t batch_size,
                         std::size_t max_rounds = SIZE_MAX);

  gnn::GnnModel& replica(std::size_t i) { return replicas_[i]->model; }

  /// True when all replicas hold bit-identical parameters (the DDP
  /// invariant: every replica applies the same Adam step to the same
  /// averaged gradient).
  bool replicas_in_sync() const;

 private:
  enum class RoundControl { kContinue, kStopNow, kStopAfterStep };

  /// A sampled batch whose feature gather has been issued (double buffer).
  struct Prefetch {
    std::span<const graph::VertexId> batch;
    std::vector<gnn::Block> blocks;
    gnn::Tensor x0;  // reshaped in place: keeps its storage across batches
    gnn::FeatureProvider::GatherTicket ticket =
        gnn::FeatureProvider::kSyncTicket;
    std::chrono::steady_clock::time_point issued_at{};
    bool valid = false;
  };

  /// Per-epoch results of one worker, reset by the coordinator.
  struct alignas(64) WorkerState {
    double loss_sum = 0.0;
    double acc_sum = 0.0;
    std::size_t batches = 0;
    std::size_t fetched = 0;
    StageTimes times;
    bool has_batch = false;
    std::exception_ptr error;
  };

  /// Everything one worker trains with. Identical seeds give identical
  /// initial models (DDP invariant).
  struct Replica {
    Replica(const graph::CsrGraph& graph, gnn::FeatureProvider& provider,
            const gnn::ModelConfig& model_config,
            const std::vector<int>& fanouts, float learning_rate);

    gnn::FeatureProvider& provider;
    gnn::GnnModel model;
    gnn::Adam optimizer;
    sampling::NeighborSampler sampler;
    std::vector<graph::VertexId> partition;
    std::vector<gnn::Param*> params;  // model.parameters(), cached
    WorkerState state;
    Prefetch slots[2];  // round r computes slots[r & 1]
  };

  /// Shared per-epoch context, written by the coordinator before waking the
  /// workers and read by them; barrier phases order all other accesses.
  struct EpochContext {
    std::span<const std::int32_t> labels;
    std::size_t batch_size = 0;
    std::size_t max_rounds = 0;
    std::uint64_t epoch = 0;
    RoundControl control = RoundControl::kContinue;
  };

  void worker_main(std::size_t w);
  void run_worker_epoch(std::size_t w);
  /// Draws the slot's batch and samples its blocks (the sample half).
  void sample_batch(std::size_t w, sampling::BatchIterator& iter,
                    Prefetch& slot, std::size_t round);
  /// Issues the slot's feature gather (the gather half); no-op when empty.
  void gather_batch(std::size_t w, Prefetch& slot);
  void all_reduce_grads();
  gnn::FeatureProvider::IoResilience io_totals() const;

  std::vector<std::unique_ptr<Replica>> replicas_;
  std::uint64_t seed_;
  EngineOptions options_;
  std::uint64_t epoch_counter_ = 0;
  /// Prefix offsets (in floats) of each parameter's gradient within the flat
  /// element space the all-reduce chunks over; back() == total elements.
  std::vector<std::size_t> grad_offsets_;

  // Worker lifecycle: workers park on cv_ between epochs; epoch_seq_ wakes
  // them, shutdown_ retires them. barrier_ has workers + coordinator parties.
  std::vector<std::thread> workers_;
  std::barrier<> barrier_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t epoch_seq_ = 0;
  bool shutdown_ = false;
  EpochContext ctx_;
};

}  // namespace moment::runtime
