#pragma once
// Feature providers: where vertex embeddings come from. The in-memory
// provider backs tests; the IO-stack provider (iostack/feature_store.hpp)
// pulls them through the simulated NVMe path, exercising the same interface.
//
// Providers expose both a synchronous gather and an asynchronous
// begin/wait protocol. The async form lets the pipelined execution engine
// issue the feature fetch for batch N+1 and compute on batch N while the IO
// is in flight; providers without real asynchrony (e.g. InMemoryFeatures)
// fall back to completing the gather inside gather_begin().

#include <cstdint>
#include <span>

#include "gnn/tensor.hpp"
#include "graph/csr.hpp"

namespace moment::gnn {

class FeatureProvider {
 public:
  /// Handle for an in-flight asynchronous gather. kSyncTicket means the
  /// gather already completed inside gather_begin() (nothing was overlapped).
  using GatherTicket = std::uint64_t;
  static constexpr GatherTicket kSyncTicket = 0;

  virtual ~FeatureProvider() = default;
  virtual std::size_t dim() const = 0;
  /// Fills `out` (vertices.size() x dim()) with the features of `vertices`.
  virtual void gather(std::span<const graph::VertexId> vertices,
                      Tensor& out) = 0;

  /// Starts filling `out` with the features of `vertices`. `out` must stay
  /// alive (and must not move) until the matching gather_wait() returns;
  /// `vertices` may be released once gather_begin() returns. The default
  /// implementation is the synchronous fallback.
  virtual GatherTicket gather_begin(std::span<const graph::VertexId> vertices,
                                    Tensor& out) {
    gather(vertices, out);
    return kSyncTicket;
  }

  /// Completes the gather identified by `ticket`. A kSyncTicket is a no-op.
  virtual void gather_wait(GatherTicket ticket) { (void)ticket; }

  /// IO telemetry: where each gathered row came from, fault-recovery work
  /// and the IO-reduction pipeline's effect (run coalescing, shared hot-row
  /// cache, pages reused from an idle staging slot). Counters are
  /// cumulative since construction and count only this provider's own
  /// work; the two devices_* gauges reflect the backing device array now.
  /// Providers without a faultable backend (e.g. InMemoryFeatures) report
  /// all-zero.
  ///
  /// Each gathered row counts once, under the source that served it: with
  /// no faults, gpu_hits + cpu_hits + peer_rows + remote_hbm_host_rows +
  /// cache_hits + dedup_saved_reads + ssd_rows = rows gathered. A row
  /// served from the host copy after a fault counts in failovers instead,
  /// or as well when its SSD read was issued and failed.
  struct IoResilience {
    /// Rows served from this GPU's HBM tier (local or replicated bins).
    std::uint64_t gpu_hits = 0;
    /// Rows served from the CPU DRAM tier.
    std::uint64_t cpu_hits = 0;
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t permanent_failures = 0;
    /// Rows served from the host-side authoritative copy after SSD reads
    /// permanently failed.
    std::uint64_t failovers = 0;
    /// Failed devices whose bins this provider re-placed onto survivors. A
    /// remap is done once per device, by whichever client saw the failure
    /// first, so the sum over a store's clients is the store's remap count.
    std::uint64_t device_remaps = 0;
    std::uint32_t devices_degraded = 0;
    std::uint32_t devices_failed = 0;

    // IO-reduction pipeline (all zero when the provider has none).
    /// SSD-resident rows served from a page an idle staging slot already
    /// held (read by an earlier batch), so no read was issued for them.
    std::uint64_t dedup_saved_reads = 0;
    /// SSD-resident rows that missed the row cache and the idle slots and
    /// were read from an SSD, one per occurrence. Rows on one page, a
    /// repeated vertex included, share that page's single read.
    std::uint64_t ssd_rows = 0;
    /// SSD read commands, one per run of consecutive pages a batch touches
    /// (<= ssd_rows).
    std::uint64_t ssd_commands = 0;
    /// Commands that carried two or more rows, on one page or on
    /// consecutive pages.
    std::uint64_t coalesced_commands = 0;
    /// Shared hot-row cache traffic.
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    /// Always 0: the row cache is static and never evicts. Kept only
    /// because the benchmark under perfbench/ still reads it; delete it with
    /// that use.
    std::uint64_t cache_evictions = 0;

    // Peer-HBM gather path (zero unless a comm plan routes remote-owned
    // HBM rows over the modeled GPU fabric).
    /// Rows copied from another GPU's HBM tier over a planned P2P route.
    std::uint64_t peer_rows = 0;
    /// Feature bytes those rows moved across the fabric (dim * 4 each).
    std::uint64_t peer_bytes = 0;
    /// Remote-owned HBM rows that fell back to the host authoritative copy
    /// (peer routing disabled or the pair unroutable).
    std::uint64_t remote_hbm_host_rows = 0;

    /// Average rows per issued SSD command (0 when nothing was issued).
    double coalesce_rows_per_cmd() const noexcept {
      return ssd_commands > 0 ? static_cast<double>(ssd_rows) /
                                    static_cast<double>(ssd_commands)
                              : 0.0;
    }

    /// Calls f(a.x, b.x, gauge) for every field but the always-zero
    /// cache_evictions: gauge is true for devices_degraded and
    /// devices_failed, false for the counters. Aggregating and differencing
    /// records walk this one list, so a new field needs its line here and
    /// the code that counts it.
    template <typename F>
    friend void for_each_field(IoResilience& a, const IoResilience& b, F&& f) {
      f(a.gpu_hits, b.gpu_hits, false);
      f(a.cpu_hits, b.cpu_hits, false);
      f(a.retries, b.retries, false);
      f(a.timeouts, b.timeouts, false);
      f(a.permanent_failures, b.permanent_failures, false);
      f(a.failovers, b.failovers, false);
      f(a.device_remaps, b.device_remaps, false);
      f(a.devices_degraded, b.devices_degraded, true);
      f(a.devices_failed, b.devices_failed, true);
      f(a.dedup_saved_reads, b.dedup_saved_reads, false);
      f(a.ssd_rows, b.ssd_rows, false);
      f(a.ssd_commands, b.ssd_commands, false);
      f(a.coalesced_commands, b.coalesced_commands, false);
      f(a.cache_hits, b.cache_hits, false);
      f(a.cache_misses, b.cache_misses, false);
      f(a.peer_rows, b.peer_rows, false);
      f(a.peer_bytes, b.peer_bytes, false);
      f(a.remote_hbm_host_rows, b.remote_hbm_host_rows, false);
    }
  };
  virtual IoResilience io_resilience() const { return {}; }
};

class InMemoryFeatures final : public FeatureProvider {
 public:
  explicit InMemoryFeatures(Tensor features) : features_(std::move(features)) {}

  std::size_t dim() const override { return features_.cols(); }
  void gather(std::span<const graph::VertexId> vertices,
              Tensor& out) override;

  const Tensor& tensor() const noexcept { return features_; }

 private:
  Tensor features_;
};

}  // namespace moment::gnn
