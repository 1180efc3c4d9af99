#pragma once
// Tiered feature store: vertex embeddings distributed across GPU cache, CPU
// cache and the SSD array according to a data placement (DDAK or hash), with
// gathers served through the GPU-initiated IO stack. This is the functional
// realisation of the paper's storage hierarchy — the piece that actually
// moves bytes, as opposed to the flow-level simulator that models time.
//
// Fault tolerance: the store keeps a host-side authoritative copy of every
// SSD-resident row. Reads that permanently fail (retries exhausted, device
// dead) are served from that copy — byte-identical to the device bytes, so
// training trajectories do not depend on fault timing. When a device hard-
// fails, its bins are re-placed onto surviving SSDs via the ddak failover
// planner; fresh slots are written and the vertex locations republished
// atomically, after which gathers hit the survivors at full speed again.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "comm/plan.hpp"
#include "gnn/features.hpp"
#include "iostack/ssd.hpp"
#include "util/uninit.hpp"

namespace moment::iostack {

/// Sizes the store's static hot-row DRAM cache (see enable_row_cache).
struct RowCacheOptions {
  /// Rows the cache holds. 0 disables it.
  std::size_t capacity_rows = 0;
};

/// Where a data-placement bin physically lives.
struct BinBacking {
  enum class Kind { kGpuCache, kCpuCache, kSsd };
  Kind kind = Kind::kSsd;
  int ssd = -1;  // valid when kind == kSsd
  /// Owning GPU ordinal for kGpuCache bins. -1 (default) means the bin is
  /// replicated into every GPU's HBM (the historical behaviour); >= 0 means
  /// exactly that GPU holds the rows, and other GPUs' clients reach them via
  /// the peer-HBM path (comm plan route) or the host authoritative copy.
  int gpu = -1;
};

/// Empty, and sets nothing: the gather has one pipeline with no per-client
/// knobs. The type remains only because the benchmark under perfbench/ still
/// passes `GatherOptions{}` to the TieredFeatureClient constructor; delete
/// it together with that argument.
struct GatherOptions {};

/// Shared layout: writes SSD-resident rows to the devices (the one-off
/// "dataset reorganisation" the paper's SSD-wear discussion covers) and
/// keeps cache tiers in host tensors. Clients (one per simulated GPU) gather
/// through their own IoEngine.
class TieredFeatureStore {
 public:
  /// `bin_of_vertex[v]` indexes `bins`. All SSD rows are written before
  /// return; the array must not be started yet. Throws
  /// std::invalid_argument if a bin is on an SSD and row_bytes() exceeds
  /// kMaxTransferBytes (a row must fit in one read command).
  TieredFeatureStore(const gnn::Tensor& features,
                     std::span<const std::int32_t> bin_of_vertex,
                     std::span<const BinBacking> bins, SsdArray& array);

  std::size_t dim() const noexcept { return dim_; }
  SsdArray& array() noexcept { return *array_; }
  const SsdArray& array() const noexcept { return *array_; }

  /// Bytes a single vertex row occupies on an SSD (padded to page size so
  /// reads are page-aligned like real NVMe access).
  std::size_t row_bytes() const noexcept { return row_bytes_; }

  struct Location {
    BinBacking::Kind kind;
    std::uint32_t index;  // cache row or SSD slot
    /// SSD ordinal for kSsd rows; for kGpuCache rows this is the owning GPU
    /// ordinal (-1 = replicated on every GPU).
    std::int32_t ssd;
  };
  /// Lock-free location lookup; safe against concurrent remaps (locations
  /// are packed into a single atomic word and republished with release).
  Location location(graph::VertexId v) const noexcept;

  const gnn::Tensor& gpu_cache() const noexcept { return gpu_cache_; }
  const gnn::Tensor& cpu_cache() const noexcept { return cpu_cache_; }

  /// The host authoritative row (raw floats, dim() wide). Valid for any
  /// vertex whose original placement was SSD (regardless of later remaps) or
  /// an owned GPU-HBM bin (the storage-path fallback for remote-owned rows).
  std::span<const float> authoritative_row(graph::VertexId v) const;

  /// Re-places every bin of `ssd` onto surviving devices: plans with
  /// ddak::plan_bin_failover, writes the rows to fresh slots, then publishes
  /// the new locations. Idempotent per device; thread-safe. Returns true if
  /// this call performed the remap (false = already done or nothing to do);
  /// the client whose call it was counts it in its device_remaps. Vertices
  /// that fit on no survivor keep pointing at the failed device and are
  /// served from the authoritative copy by clients.
  bool remap_failed_device(std::size_t ssd);

  /// Sizes the shared hot-row DRAM cache, which every client consults
  /// before it builds SSD requests, and empties it. capacity_rows == 0
  /// disables it. Not thread-safe: call before clients gather.
  void enable_row_cache(const RowCacheOptions& options);
  std::size_t row_cache_capacity() const noexcept { return cache_rows_.rows(); }

  /// Refills the cache from a hotness order (sampling::HotnessProfile::
  /// by_hotness_desc) with the authoritative rows of the first
  /// row_cache_capacity() distinct SSD-resident vertices in it. Returns the
  /// number of rows cached. The cache is read-only afterwards, so this must
  /// finish before clients gather.
  std::size_t warm_row_cache(std::span<const graph::VertexId> by_hotness_desc);

  /// The cached row of `v`, or an empty span if `v` is not cached.
  /// Lock-free: the cache never changes while clients gather.
  std::span<const float> cached_row(graph::VertexId v) const noexcept {
    if (v >= cache_slot_.size() || cache_slot_[v] < 0) return {};
    return cache_rows_.row(static_cast<std::size_t>(cache_slot_[v]));
  }

 private:
  friend class TieredFeatureClient;

  static std::uint64_t pack(const Location& loc) noexcept;
  static Location unpack(std::uint64_t bits) noexcept;

  std::size_t dim_ = 0;
  std::size_t row_bytes_ = 0;
  /// Packed Location per vertex: bits 0..31 index, 32..47 ssd+1, 48..49 kind.
  std::vector<std::atomic<std::uint64_t>> loc_;
  gnn::Tensor gpu_cache_;  // replicated per GPU in the real system
  gnn::Tensor cpu_cache_;
  SsdArray* array_ = nullptr;

  /// Host authoritative copy of SSD-resident and owned-GPU-HBM rows, and the
  /// (stable) row index of each such vertex in it; -1 for vertices that need
  /// no host copy (CPU-cache rows, replicated HBM rows).
  gnn::Tensor host_copy_;
  std::vector<std::int64_t> host_index_;

  /// Placement snapshot for the failover planner.
  std::vector<BinBacking> bins_;
  std::vector<std::int32_t> bin_of_vertex_;

  /// Failover state: next free slot per SSD and per-device remap flags.
  std::mutex remap_mu_;
  std::vector<std::uint32_t> ssd_next_slot_;
  std::vector<bool> device_remapped_;

  /// Static hot-row cache: row cache_slot_[v] of cache_rows_ holds v's
  /// bytes, -1 = not cached (empty while the cache is disabled). Keyed by
  /// vertex, so it stays valid when a failover moves rows between devices.
  std::vector<std::int32_t> cache_slot_;
  gnn::Tensor cache_rows_;
};

/// Wires a gather client into the comm layer's peer-HBM path: rows whose bin
/// is owned by another GPU (BinBacking::gpu >= 0) are served by a modeled
/// P2P copy over the plan's route — per-link bytes charged to `counters` —
/// instead of the host/SSD round-trip. With no plan (the default), remote-
/// owned rows fall back to the host authoritative copy (the storage path).
struct PeerConfig {
  /// This client's GPU ordinal (compared against BinBacking::gpu).
  int gpu = 0;
  /// Compiled comm plan providing peer routes; null disables the peer path.
  /// Not owned; must outlive the client.
  const comm::CommPlan* plan = nullptr;
  /// Optional per-link byte counters, shared with the engine's all-reduce
  /// accounting. Not owned.
  comm::LinkCounters* counters = nullptr;
};

/// Per-GPU gather client. Implements gnn::FeatureProvider so the trainer can
/// run end-to-end through the IO stack. Every batch runs one pipeline with
/// no knobs: gather_begin routes each row (local/peer GPU, CPU, host copy or
/// shared row cache, else an SSD target), coalesces the SSD targets into
/// adjacent-slot commands and hands them to the client's IoEngine, whose IO
/// thread submits and completes them while the caller samples and computes;
/// gather_wait waits for that batch, then scatters the bounce-buffered rows
/// and remaps failed devices on the calling thread, so every counter follows
/// the caller's order, not IO timing.
/// Each occurrence of a repeated vertex is routed on its own. Two staging
/// slots allow two batches in flight (pipelined prefetch). One thread at a
/// time may call the client.
///
/// Failures are recovered, not thrown: a read that permanently fails is
/// served from the store's authoritative copy (same bytes), and a hard
/// device failure triggers the store's remap. gather_wait only throws on
/// protocol misuse, never on IO faults.
class TieredFeatureClient final : public gnn::FeatureProvider {
 public:
  /// The GatherOptions argument is ignored (see GatherOptions).
  explicit TieredFeatureClient(TieredFeatureStore& store,
                               std::size_t queue_depth = 256,
                               IoEngineOptions io_options = {},
                               GatherOptions = {}, PeerConfig peer = {});

  std::size_t dim() const override { return store_.dim(); }
  void gather(std::span<const graph::VertexId> vertices,
              gnn::Tensor& out) override;
  GatherTicket gather_begin(std::span<const graph::VertexId> vertices,
                            gnn::Tensor& out) override;
  void gather_wait(GatherTicket ticket) override;

  /// The client's counters plus its engine's retry stats and the array's
  /// two gauges.
  IoResilience io_resilience() const override;

  /// Same as io_resilience(). Kept only because the benchmark under
  /// perfbench/ still reads it; delete it with that use.
  IoResilience stats() const { return io_resilience(); }
  /// The client's IO engine; its retry_stats() and latency() are snapshots
  /// safe to read from any thread.
  const IoEngine& engine() const noexcept { return io_; }

 private:
  /// One SSD row in flight: where its bytes land in the bounce buffer,
  /// which output row receives them, and which coalesced command carries it.
  struct PendingRow {
    std::size_t out_row;
    std::size_t bounce_off;
    graph::VertexId vertex;
    std::uint32_t run;
  };
  /// One coalesced command (a run of adjacent rows on one SSD). Failure is
  /// per command: if it permanently fails, every row it carried is served
  /// from the host copy.
  struct Run {
    std::size_t bounce_off;
    std::uint32_t rows;
    bool failed;
  };
  /// An SSD row to read, before coalescing.
  struct SsdTarget {
    std::uint32_t ssd;
    std::uint32_t index;
    graph::VertexId vertex;
    std::uint32_t out_row;
  };
  /// One in-flight gather: its IoEngine ticket, the commands it handed
  /// over, the rows to scatter, and a dedicated bounce buffer (per-slot, so
  /// prefetch never overwrites the batch still being awaited). The IO thread
  /// reads `reqs` and the devices write `bounce` until the ticket is waited.
  struct Slot {
    std::uint64_t ticket = 0;  // 0 = free
    gnn::Tensor* out = nullptr;
    std::vector<ReadRequest> reqs;
    std::vector<PendingRow> pending;
    std::vector<Run> runs;
    // Staging for SSD reads; growing it does not zero-fill what the reads
    // then overwrite.
    std::vector<std::byte, util::UninitAllocator<std::byte>> bounce;
  };

  /// Stage 1: serves every row that needs no SSD read and collects the rest
  /// in scratch_targets_.
  void route_rows(std::span<const graph::VertexId> vertices, gnn::Tensor& out);
  /// Routes a GPU-HBM row: local, peer route, or host copy.
  void route_hbm_row(graph::VertexId v, const TieredFeatureStore::Location& loc,
                     gnn::Tensor& out, std::size_t out_row);
  /// Stage 2: coalesces scratch_targets_ into commands and hands them to
  /// the IO thread as one batch owned by `slot`.
  void submit_runs(Slot& slot);
  /// Stage 3: waits for the slot's batch, scatters it into its output
  /// tensor, and remaps devices that failed during it.
  void complete(Slot& slot);

  /// The slot holding `ticket` (0 finds a free slot), or nullptr.
  Slot* find_slot(std::uint64_t ticket) noexcept;
  void snapshot_health();
  void reset_slot(Slot& slot) noexcept;

  TieredFeatureStore& store_;
  PeerConfig peer_;
  /// Counted by the gather stages; the retry fields and gauges stay zero
  /// here and are filled in by io_resilience().
  IoResilience counts_;
  Slot slots_[2];
  std::vector<FailedRead> scratch_failed_;
  /// Devices with a permanently failed read in the batch being completed.
  std::vector<bool> scratch_failed_ssds_;
  std::vector<SsdTarget> scratch_targets_;
  /// Per-batch device-health snapshot: one atomic load per device per
  /// gather instead of one per vertex.
  std::vector<DeviceHealth> scratch_health_;
  /// Declared after the slots whose buffers its reads target, so it is
  /// destroyed (and its reads drained) first.
  IoEngine io_;
};

}  // namespace moment::iostack
