#pragma once
// Tiered feature store: vertex embeddings distributed across GPU cache, CPU
// cache and the SSD array according to a data placement (DDAK or hash), with
// gathers served through the GPU-initiated IO stack. This is the functional
// realisation of the paper's storage hierarchy — the piece that actually
// moves bytes, as opposed to the flow-level simulator that models time.
//
// SSD layout: each device's rows pack densely into 4 KiB pages, as many to
// a page as fit whole (a row never straddles a page), in hotness order once
// warm_row_cache has the ranking. A gather reads every page its batch
// touches once, BaM-style (paper §3.1), except the pages a client's idle
// staging slot still holds from an earlier batch: those rows are copied
// from the slot, as a BaM software cache serves a page it already holds.
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
#include <utility>
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
  /// return, each device's in vertex-id order until warm_row_cache repacks
  /// them in hotness order; the array must not be started yet. Throws
  /// std::invalid_argument if a bin is on an SSD and row_bytes() exceeds
  /// kMaxTransferBytes (a row must fit in one read command), or if a
  /// device's pages cannot hold the rows placed on it.
  TieredFeatureStore(const gnn::Tensor& features,
                     std::span<const std::int32_t> bin_of_vertex,
                     std::span<const BinBacking> bins, SsdArray& array);

  std::size_t dim() const noexcept { return dim_; }
  SsdArray& array() noexcept { return *array_; }
  const SsdArray& array() const noexcept { return *array_; }

  /// Bytes of one vertex row, dim() floats. An SSD page holds
  /// floor(kPageBytes / row_bytes()) rows back to back; a row wider than a
  /// page takes whole pages of its own. Reads are whole pages either way.
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
  /// ddak::plan_bin_failover, writes the rows to fresh slots packed from a
  /// fresh page on, then publishes the new locations. Idempotent per
  /// device; thread-safe. Returns true if this call performed the remap
  /// (false = already done or nothing to do); the client whose call it was
  /// counts it in its device_remaps. Vertices that fit on no survivor keep
  /// pointing at the failed device and are served from the authoritative
  /// copy by clients.
  bool remap_failed_device(std::size_t ssd);

  /// Sizes the shared hot-row DRAM cache, which every client consults
  /// before it builds SSD requests, and empties it. capacity_rows == 0
  /// disables it. Not thread-safe: call before clients gather.
  void enable_row_cache(const RowCacheOptions& options);
  std::size_t row_cache_capacity() const noexcept { return cache_rows_.rows(); }

  /// Refills the cache from a hotness order (sampling::HotnessProfile::
  /// by_hotness_desc) with the authoritative rows of the first
  /// row_cache_capacity() distinct SSD-resident vertices in it, then
  /// rewrites the rows of every SSD that has not failed into slots 0, 1, 2,
  /// ... in that order: its ranked rows first, then its unranked rows in
  /// vertex-id order, so hot rows share pages (repeated and out-of-range
  /// ids are skipped). Rows on a failed device stay where they are. Returns
  /// the number of rows cached. No gather may be in flight: the cache is
  /// read-only afterwards and the rewrite moves rows that reads target.
  std::size_t warm_row_cache(std::span<const graph::VertexId> by_hotness_desc);

  /// The cached row of `v`, or an empty span if `v` is not cached.
  /// Lock-free: the cache never changes while clients gather.
  std::span<const float> cached_row(graph::VertexId v) const noexcept {
    if (v >= cache_slot_.size() || cache_slot_[v] < 0) return {};
    return cache_rows_.row(static_cast<std::size_t>(cache_slot_[v]));
  }

  /// Bumped by every call that rewrites SSD rows (warm_row_cache and a
  /// remap that ran), after its writes. A page read under an older version
  /// may hold other rows' bytes now, so clients never reuse it.
  std::uint64_t layout_version() const noexcept {
    return layout_version_.load(std::memory_order_acquire);
  }

 private:
  friend class TieredFeatureClient;

  static std::uint64_t pack(const Location& loc) noexcept;
  static Location unpack(std::uint64_t bits) noexcept;

  /// The one slot -> page mapping (the constructor, remap_failed_device and
  /// the client all use it): slots fill rows_per_page_ rows per page in
  /// slot order; a row wider than a page takes pages_per_row_ pages.
  std::uint64_t first_page(std::uint64_t slot) const noexcept {
    return slot / rows_per_page_ * pages_per_row_;
  }
  std::uint64_t slot_offset(std::uint64_t slot) const noexcept {
    return first_page(slot) * kPageBytes + slot % rows_per_page_ * row_bytes_;
  }
  /// Slots whose pages all fit on SSD `ssd`.
  std::uint64_t slot_capacity(std::size_t ssd) const noexcept;
  /// Writes `row` to slot `slot` of SSD `ssd`.
  void write_slot(std::size_t ssd, std::uint64_t slot,
                  std::span<const float> row);

  std::size_t dim_ = 0;
  std::size_t row_bytes_ = 0;
  std::size_t rows_per_page_ = 1;
  std::size_t pages_per_row_ = 1;
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

  /// Failover state: next free slot per SSD (the packed count after
  /// warm_row_cache, rounded up to a page boundary at each remap) and
  /// per-device remap flags.
  std::mutex remap_mu_;
  std::vector<std::uint32_t> ssd_next_slot_;
  std::vector<bool> device_remapped_;

  /// Static hot-row cache: row cache_slot_[v] of cache_rows_ holds v's
  /// bytes, -1 = not cached (empty while the cache is disabled). Keyed by
  /// vertex, so it stays valid when a failover moves rows between devices.
  std::vector<std::int32_t> cache_slot_;
  gnn::Tensor cache_rows_;

  std::atomic<std::uint64_t> layout_version_{0};
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
/// shared row cache, else an SSD target), copies each SSD target whose page
/// an idle staging slot still holds from that slot's bounce buffer, turns
/// the rest into one read per run of consecutive touched pages and hands
/// them to the client's IoEngine, whose IO thread submits and completes
/// them while the caller samples and computes;
/// gather_wait waits for that batch, then scatters the bounce-buffered rows
/// and remaps failed devices on the calling thread, so every counter follows
/// the caller's order, not IO timing.
/// Each occurrence of a repeated vertex is routed on its own. Two staging
/// slots allow two batches in flight (pipelined prefetch); a slot keeps the
/// pages of the last batch it read until the next batch it carries reads
/// its own, and only a slot with no batch in flight lends them out. One
/// thread at a time may call the client.
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
  /// which output row receives them, and which command (index into
  /// Slot::reqs) carries its page. Failure is per command: if it
  /// permanently fails, every row on its pages is served from the host copy.
  struct PendingRow {
    std::size_t out_row;
    std::size_t bounce_off;
    graph::VertexId vertex;
    std::uint32_t cmd;
  };
  using Bounce = std::vector<std::byte, util::UninitAllocator<std::byte>>;
  /// An SSD row to read, before its page joins a command.
  struct SsdTarget {
    std::uint32_t ssd;
    std::uint32_t index;
    graph::VertexId vertex;
    std::uint32_t out_row;
  };
  /// One in-flight gather: its IoEngine ticket, the commands it handed
  /// over, the rows to scatter, and a dedicated bounce buffer (per-slot, so
  /// prefetch never overwrites the batch still being awaited). The IO thread
  /// reads `reqs` and the devices write `bounce` until the ticket is waited;
  /// a bounce buffer a device may still write into after that moves to
  /// quarantine_ and `reqs` is cleared. Once waited, `reqs` (sorted by
  /// device and offset, a failed command's `dest` null) says which pages
  /// `bounce` holds, read under store layout version `layout`.
  struct Slot {
    std::uint64_t ticket = 0;  // 0 = free
    std::uint64_t layout = 0;
    gnn::Tensor* out = nullptr;
    std::vector<ReadRequest> reqs;
    std::vector<PendingRow> pending;
    // Staging for SSD reads; growing it does not zero-fill what the reads
    // then overwrite.
    Bounce bounce;
  };

  /// Stage 1: serves every row that needs no SSD read and collects the rest
  /// in scratch_targets_, sorted by (ssd, slot).
  void route_rows(std::span<const graph::VertexId> vertices, gnn::Tensor& out);
  /// Routes a GPU-HBM row: local, peer route, or host copy.
  void route_hbm_row(graph::VertexId v, const TieredFeatureStore::Location& loc,
                     gnn::Tensor& out, std::size_t out_row);
  /// Stage 2: copies each target whose pages an idle slot read under the
  /// current layout, in a command that succeeded, from that slot's bounce
  /// buffer into `out`, and drops it from scratch_targets_.
  void reuse_idle_pages(gnn::Tensor& out);
  /// Stage 3: turns scratch_targets_ into page-run commands and hands them
  /// to the IO thread as one batch owned by `slot`.
  void submit_runs(Slot& slot);
  /// Stage 4: waits for the slot's batch, scatters it into its output
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
  /// Bounce buffers of waited batches that a device still holds a
  /// given-up-on command for (IoEngine::writes_pending), with their ticket;
  /// freed once no device can write into them.
  std::vector<std::pair<std::uint64_t, Bounce>> quarantine_;
  /// Indices into Slot::reqs of the commands that permanently failed.
  std::vector<std::size_t> scratch_failed_;
  /// Devices with a permanently failed read in the batch being completed.
  std::vector<bool> scratch_failed_ssds_;
  std::vector<SsdTarget> scratch_targets_;
  /// Per-batch device-health snapshot: one atomic load per device per
  /// gather instead of one per vertex.
  std::vector<DeviceHealth> scratch_health_;
  /// Declared after the slots and the quarantine whose buffers its reads
  /// target, so it is destroyed (and its reads drained) first.
  IoEngine io_;
};

}  // namespace moment::iostack
