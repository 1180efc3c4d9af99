#pragma once
// In-memory NVMe SSD emulation. Each device owns a byte store (the
// "flash"), a set of registered queue pairs (one per client/GPU — the paper
// extends Hyperion's stack so a single SSD is shared by multiple GPUs), and
// a service thread that drains submission queues round-robin and posts
// completions. An optional throughput model paces service to a target
// bytes/s so latency/bandwidth tests behave like hardware, and an optional
// FaultInjector makes the device misbehave deterministically (transient read
// errors, latency spikes, hard failure) for chaos testing.
//
// The client side (IoEngine) is fault-tolerant: per-request deadlines,
// bounded retry with exponential backoff, deadline-bounded waits (a hung or
// dead SSD can never hang training), and a device health registry on
// SsdArray (healthy -> degraded -> failed) that the feature store's failover
// path keys off.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "iostack/fault_injector.hpp"
#include "iostack/queue_pair.hpp"

namespace moment::iostack {

inline constexpr std::size_t kPageBytes = 4096;

/// Maximum data a single command may carry (the NVMe MDTS analogue). Run
/// coalescing in the gather path merges adjacent feature rows into one
/// multi-row read up to this bound; IoEngine rejects anything larger so a
/// buggy caller can't smuggle an unbounded transfer past the pacing model.
inline constexpr std::size_t kMaxTransferBytes = 128 * 1024;

struct SsdStats {
  std::uint64_t reads = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t errors = 0;
  /// Completions the device failed to post. The service loop fetches a
  /// command only when its client's CQ has room, so this must stay 0.
  std::uint64_t dropped_completions = 0;
};

struct SsdOptions {
  std::size_t capacity_bytes = 64ull << 20;
  /// 0 = serve as fast as memcpy allows; otherwise pace to this rate.
  double max_bytes_per_s = 0.0;
  std::size_t max_batch = 32;  // SQEs drained per queue per service pass
};

class SsdDevice {
 public:
  explicit SsdDevice(const SsdOptions& options);
  ~SsdDevice();

  SsdDevice(const SsdDevice&) = delete;
  SsdDevice& operator=(const SsdDevice&) = delete;

  /// Registers a client's queue pair; must happen before start().
  QueuePair* create_queue_pair(std::size_t depth = 256);

  /// Attaches a deterministic fault injector; must happen before start().
  /// Returns the injector for runtime control (fail_now(), stats()).
  FaultInjector* inject_faults(const FaultProfile& profile);
  FaultInjector* fault_injector() noexcept { return injector_.get(); }

  void start();
  void stop();
  bool running() const noexcept { return running_.load(); }

  /// Host-side write (dataset reorganisation and failover re-placement).
  /// Safe while the service loop runs ONLY for regions no in-flight or
  /// future read references yet (failover writes freshly allocated slots and
  /// publishes them afterwards via an acquire/release location update).
  void write(std::uint64_t offset, const std::byte* src, std::size_t len);

  std::size_t capacity() const noexcept { return store_.size(); }
  SsdStats stats() const;

 private:
  void service_loop();
  void serve(const Sqe& sqe, QueuePair& qp);
  void bounded_stall(std::uint32_t stall_us);

  std::vector<std::byte> store_;
  std::vector<std::unique_ptr<QueuePair>> queues_;
  SsdOptions options_;
  std::unique_ptr<FaultInjector> injector_;
  std::thread service_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  mutable std::mutex stats_mu_;
  SsdStats stats_;
};

/// Device health as tracked by the array's registry. Degraded devices are
/// still served (retries usually recover them); failed devices are never
/// submitted to again — the feature store serves their rows from the host
/// copy and re-places them onto survivors. Failed is sticky.
enum class DeviceHealth : int { kHealthy = 0, kDegraded = 1, kFailed = 2 };

struct HealthOptions {
  /// Consecutive request failures (errors or timeouts) before degraded.
  std::uint32_t degraded_after = 3;
  /// Consecutive request failures before the device is declared failed.
  /// A kStatusDeviceFailed completion fails the device immediately.
  std::uint32_t failed_after = 8;
};

/// A set of SSDs plus client-side engines, modelling the machine's array of
/// NVMe devices shared by all GPUs. Owns the device health registry, shared
/// by every client engine (thread-safe).
class SsdArray {
 public:
  SsdArray(std::size_t num_ssds, const SsdOptions& options,
           const HealthOptions& health = {});
  ~SsdArray();

  std::size_t size() const noexcept { return ssds_.size(); }
  SsdDevice& ssd(std::size_t i) { return *ssds_[i]; }

  void start_all();
  void stop_all();

  DeviceHealth health(std::size_t i) const noexcept;
  /// Consecutive-failure accounting: failures walk the device through
  /// healthy -> degraded -> failed; a success resets the streak and restores
  /// a degraded device to healthy. Failed is sticky.
  void report_io_result(std::size_t i, bool ok) noexcept;
  void mark_failed(std::size_t i) noexcept;
  std::size_t num_degraded() const noexcept;
  std::size_t num_failed() const noexcept;

 private:
  struct DeviceState {
    std::atomic<int> health{0};
    std::atomic<std::uint32_t> consecutive_failures{0};
  };
  std::vector<std::unique_ptr<SsdDevice>> ssds_;
  std::vector<std::unique_ptr<DeviceState>> states_;
  HealthOptions health_options_;
};

/// A batch-read request (doorbell batching: submit many, ring once). A
/// request may span multiple adjacent feature rows (`length` a multiple of
/// the row size, up to kMaxTransferBytes) — the coalesced form trades
/// commands for bandwidth, which is what moves an IOPS-bound array.
struct ReadRequest {
  std::size_t ssd = 0;
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
  std::byte* dest = nullptr;
};

/// Per-request latency statistics (nanoseconds, submit to completion-poll).
struct LatencyStats {
  std::uint64_t count = 0;
  double mean_ns = 0.0;
  double max_ns = 0.0;
};

/// Client-side resilience policy.
struct IoEngineOptions {
  /// Retries after the first attempt fails or times out; a request is a
  /// permanent failure after 1 + max_retries attempts.
  std::uint32_t max_retries = 3;
  /// Per-attempt deadline, from the attempt's entry into an SQ; an attempt
  /// past it is abandoned and retried.
  std::chrono::nanoseconds request_deadline = std::chrono::seconds(5);
  /// Exponential backoff base: attempt k waits backoff << (k-1).
  std::chrono::nanoseconds retry_backoff = std::chrono::microseconds(50);
  /// Hard bound on wait_all(), on a completion group (from group_begin())
  /// and on submit_batch()'s SQ-full spin: past it, every remaining request
  /// is force-failed so no wait is unbounded.
  std::chrono::nanoseconds wait_deadline = std::chrono::seconds(30);
};

struct RetryStats {
  std::uint64_t retries = 0;             // resubmitted attempts
  std::uint64_t timeouts = 0;            // attempts abandoned past deadline
  std::uint64_t permanent_failures = 0;  // requests that exhausted retries
};

/// A request that permanently failed (all attempts exhausted, device dead,
/// or wait deadline hit). Carries the original request so the caller can
/// serve the bytes from an alternative source.
struct FailedRead {
  std::size_t ssd = 0;
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
  std::byte* dest = nullptr;
};

/// Per-client ("per-GPU") IO engine: one queue pair to every SSD, async
/// submission, polling completion — the GPU-initiated access path, with
/// client-side retry/timeout resilience layered on top. Single-threaded: one
/// thread at a time drives it (a client's IoThread, or a test directly).
///
/// Submission has one step. enqueue() places requests on per-device
/// software queues; submit_queued() moves what fits into each device's SQ
/// and never waits on a full one, so a saturated SSD never holds back
/// another. pump() runs that step together with completion draining,
/// retries and timeouts; the blocking submit_read()/submit_batch() are
/// enqueue() plus pump() in a loop.
class IoEngine {
 public:
  /// Creates queue pairs on each SSD of the array. Call before start_all().
  explicit IoEngine(SsdArray& array, std::size_t queue_depth = 256,
                    IoEngineOptions options = {});

  /// Blocking read of one request: submit_batch() of one.
  void submit_read(std::size_t ssd, std::uint64_t offset, std::uint32_t length,
                   std::byte* dest);

  /// Doorbell batching: enqueues the whole batch, then pumps until every
  /// request is in an SQ (or failed). Deadline-bounded: requests still
  /// queued after wait_deadline are failed as timeouts.
  void submit_batch(std::span<const ReadRequest> requests);

  /// Non-blocking: queues `requests` (in the open group, if any) on their
  /// devices' software queues. The whole batch is validated first, so a
  /// throw (std::out_of_range for an SSD index, std::invalid_argument for a
  /// transfer over kMaxTransferBytes) queues nothing. A request for a failed
  /// device fails at once without touching it.
  void enqueue(std::span<const ReadRequest> requests);

  /// One non-blocking round of progress: drains completions, resubmits due
  /// retries, runs submit_queued() and expires overdue attempts. Returns
  /// true if anything moved.
  bool pump();

  /// Polls completions until all in-flight requests reach a terminal state
  /// (deadline-bounded). Returns the number of permanently failed requests
  /// and resets the failure counter.
  std::size_t wait_all();
  /// Same, appending the permanently-failed ungrouped requests to `failed`.
  std::size_t wait_all(std::vector<FailedRead>& failed);

  /// Completion groups: reads submitted between group_begin() and
  /// group_end() can be awaited independently of later submissions, so two
  /// batches (e.g. the current gather and a prefetched one) can be in
  /// flight at once. Only one group may be open at a time; groups may be
  /// awaited in any order via wait_group() or poll_group(). A group is
  /// bounded by wait_deadline from group_begin(): past it, its remaining
  /// reads are force-failed.
  std::uint64_t group_begin();
  void group_end(std::uint64_t group);
  /// Non-blocking: true once every read of `group` (closed here if still
  /// open) reached a terminal state; then appends the group's permanently
  /// failed requests to `failed` and forgets the group.
  bool poll_group(std::uint64_t group, std::vector<FailedRead>& failed);
  /// Pumps until poll_group() succeeds; returns the group's permanent-
  /// failure count.
  std::size_t wait_group(std::uint64_t group);
  /// Same, appending the group's permanently-failed requests to `failed`.
  std::size_t wait_group(std::uint64_t group, std::vector<FailedRead>& failed);

  /// Requests not yet terminal (queued, in a device SQ or awaiting retry).
  std::size_t in_flight() const noexcept {
    return queued_count_ + pending_.size() + retry_queue_.size();
  }
  std::uint64_t completed() const noexcept { return completed_; }

  const RetryStats& retry_stats() const noexcept { return retry_stats_; }
  void reset_retry_stats() noexcept { retry_stats_ = {}; }
  const IoEngineOptions& options() const noexcept { return options_; }

  /// Latency of completed requests since construction/reset (first submit
  /// to completion poll, i.e. including retry delays).
  LatencyStats latency() const noexcept;
  void reset_latency() noexcept;

 private:
  /// One attempt in a device SQ (or completed, not yet polled), or a request
  /// still on its device's software queue.
  struct Pending {
    std::size_t ssd = 0;
    std::uint64_t offset = 0;
    std::uint32_t length = 0;
    std::byte* dest = nullptr;
    std::uint64_t group_id = 0;  // 0 = ungrouped
    std::uint64_t first_submit_ns = 0;  // first entry into an SQ
    std::uint64_t deadline_ns = 0;
    std::uint32_t attempts = 1;
  };
  struct RetryEntry {
    Pending req;
    std::uint64_t not_before_ns = 0;
  };
  struct CompletionGroup {
    std::size_t outstanding = 0;
    std::uint64_t deadline_ns = 0;
    bool open = true;
    std::vector<FailedRead> failed;
  };

  /// The submission step: moves queued requests into every device's SQ
  /// while it has room, in per-device FIFO order, and never waits. Returns
  /// the number of requests still queued.
  std::size_t submit_queued();
  bool drain_completions();
  bool service_retries(std::uint64_t now);
  bool check_timeouts(std::uint64_t now);
  void finish_success(const Pending& p);
  void finish_failure(const Pending& p);
  void handle_attempt_failure(Pending p, std::uint64_t now, bool timed_out);
  void force_fail(std::uint64_t group_id, bool all);
  /// Fails the queued (never submitted) requests of `group_id`, or all.
  void fail_queued(std::uint64_t group_id, bool all);
  std::uint64_t backoff_ns(std::uint32_t attempts) const noexcept;
  bool device_failed(std::size_t ssd) const noexcept;

  SsdArray* array_ = nullptr;
  std::vector<QueuePair*> queues_;  // one per SSD
  IoEngineOptions options_;

  /// Per-device software queues filled by enqueue() and emptied into the
  /// SQs by submit_queued().
  std::vector<std::deque<Pending>> queued_;
  std::size_t queued_count_ = 0;

  /// Tag-indexed state (no linear scans on the completion path).
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::unordered_map<std::uint64_t, std::size_t> abandoned_;  // tag -> ssd
  std::vector<RetryEntry> retry_queue_;
  std::unordered_map<std::uint64_t, CompletionGroup> groups_;
  std::uint64_t open_group_ = 0;
  std::uint64_t next_group_id_ = 1;
  std::uint64_t next_tag_ = 1;
  std::uint64_t completed_ = 0;
  std::size_t failures_ = 0;
  std::vector<FailedRead> ungrouped_failed_;
  RetryStats retry_stats_;
  std::uint64_t last_timeout_scan_ns_ = 0;

  std::uint64_t latency_count_ = 0;
  double latency_sum_ns_ = 0.0;
  double latency_max_ns_ = 0.0;
};

}  // namespace moment::iostack
