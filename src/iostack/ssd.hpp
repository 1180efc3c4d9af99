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
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <list>
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

/// SQEs the device drains from one queue per service pass, so one busy
/// client cannot starve the others.
inline constexpr std::size_t kSqesPerServicePass = 32;

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
  /// Hard bound on a batch (from its start on the IO thread) and on the
  /// engine's shutdown drain: past it, every remaining request is
  /// force-failed so no wait is unbounded.
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
/// client-side retry/timeout resilience layered on top. The engine owns its
/// IO thread (the GPU's IO warps), the only thread that touches the queue
/// pairs and the request state. A caller hands over a batch with submit()
/// and gets a ticket back at once; the thread keeps every device's queues
/// fed (a full SQ on one SSD never holds back another) while the caller
/// samples and computes, and publishes each batch as done, with its
/// permanent failures, under one mutex and condition variable. This is the
/// paper's per-GPU IO stack with no central coordinator (Section 3.1).
class IoEngine {
 public:
  /// Creates queue pairs on each SSD of the array (call before start_all())
  /// and starts the IO thread, which blocks until a batch arrives.
  explicit IoEngine(SsdArray& array, std::size_t queue_depth = 256,
                    IoEngineOptions options = {});
  /// Stops the IO thread. Reads already handed over are driven to a
  /// terminal state first (bounded by wait_deadline), so no device writes
  /// into a caller's buffer after the engine is gone.
  ~IoEngine();

  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  /// Validates `requests` on the calling thread, then hands them to the IO
  /// thread as one batch and returns without waiting on any SQ. A bad batch
  /// throws (std::out_of_range for an SSD index, std::invalid_argument for a
  /// transfer over kMaxTransferBytes) and queues nothing. `requests` and
  /// every `dest` buffer must stay valid until wait() on the returned ticket
  /// (never 0) returns.
  std::uint64_t submit(std::span<const ReadRequest> requests);

  /// Blocks until every read of `ticket` reached a terminal state (bounded
  /// by wait_deadline from the batch's start on the IO thread) and appends
  /// the permanently failed ones to `failed`. Rethrows an exception the IO
  /// thread raised while the batch was in flight. Tickets may be waited in
  /// any order, each exactly once.
  void wait(std::uint64_t ticket, std::vector<FailedRead>& failed);

  /// Counters since construction; safe from any thread.
  RetryStats retry_stats() const;
  /// Latency of completed requests (first entry into an SQ to completion
  /// poll, i.e. including retry delays); safe from any thread.
  LatencyStats latency() const;

 private:
  /// One handed-over batch. submit() sets `ticket` and `requests`; the rest
  /// but `done` belongs to the IO thread until it sets `done` under mu_.
  struct Batch {
    std::uint64_t ticket = 0;
    std::span<const ReadRequest> requests;
    bool started = false;
    std::size_t outstanding = 0;  // reads not yet terminal
    std::uint64_t deadline_ns = 0;
    std::vector<FailedRead> failed;
    std::exception_ptr error;
    bool done = false;
  };
  /// One attempt in a device SQ (or completed, not yet polled), or a request
  /// still on its device's software queue.
  struct Pending {
    std::size_t ssd = 0;
    std::uint64_t offset = 0;
    std::uint32_t length = 0;
    std::byte* dest = nullptr;
    Batch* batch = nullptr;
    std::uint64_t first_submit_ns = 0;  // first entry into an SQ
    std::uint64_t deadline_ns = 0;
    std::uint32_t attempts = 1;
  };
  struct RetryEntry {
    Pending req;
    std::uint64_t not_before_ns = 0;
  };

  void run();
  /// Sets the batch's deadline and places its reads on their devices'
  /// software queues; a read for a failed device fails at once.
  void start(Batch& batch);
  /// One non-blocking round of progress: drains completions, resubmits due
  /// retries, runs submit_queued() and expires overdue attempts. Returns
  /// true if anything moved.
  bool pump();
  /// Pumps until no request is in flight, force-failing what is left past
  /// wait_deadline.
  void drain() noexcept;
  std::size_t in_flight() const noexcept {
    return queued_count_ + pending_.size() + retry_queue_.size();
  }
  /// The submission step: moves queued requests into every device's SQ
  /// while it has room, in per-device FIFO order, and never waits. Returns
  /// the number of requests still queued.
  std::size_t submit_queued();
  bool drain_completions();
  bool service_retries(std::uint64_t now);
  bool check_timeouts(std::uint64_t now);
  /// Bumps one retry counter under mu_ (retry_stats() reads it from any
  /// thread).
  void bump(std::uint64_t RetryStats::*counter);
  void finish_failure(const Pending& p);
  void handle_attempt_failure(Pending p, std::uint64_t now, bool timed_out);
  /// Fails every remaining request of `batch`, or of all batches if null.
  void force_fail(const Batch* batch);
  std::uint64_t backoff_ns(std::uint32_t attempts) const noexcept;
  bool device_failed(std::size_t ssd) const noexcept;

  SsdArray& array_;
  std::vector<QueuePair*> queues_;  // one per SSD
  IoEngineOptions options_;

  // IO thread only.
  /// Per-device software queues filled by start() and emptied into the
  /// SQs by submit_queued().
  std::vector<std::deque<Pending>> queued_;
  std::size_t queued_count_ = 0;
  /// Tag-indexed state (no linear scans on the completion path).
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::vector<RetryEntry> retry_queue_;
  std::uint64_t next_tag_ = 1;
  std::uint64_t last_timeout_scan_ns_ = 0;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // IO thread: new batch or stop
  std::condition_variable done_cv_;  // wait(): a batch finished
  std::list<Batch> batches_;         // handed over, not yet waited
  std::vector<Batch*> inbox_;        // handed over, not yet started
  std::uint64_t next_ticket_ = 1;
  bool stop_ = false;
  // Written by the IO thread under mu_.
  RetryStats retry_stats_;
  std::uint64_t latency_count_ = 0;
  double latency_sum_ns_ = 0.0;
  double latency_max_ns_ = 0.0;

  std::thread thread_;  // started last, in the constructor body
};

}  // namespace moment::iostack
