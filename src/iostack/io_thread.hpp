#pragma once
// Per-client IO thread: the GPU's IO warps. It owns the client's IoEngine
// and is the only thread that touches it, so the engine stays lock-free.
// The caller hands over a batch of reads and returns at once; the thread
// keeps every device's queues fed (a full SQ on one SSD never holds back
// another) while the caller samples and computes, and publishes each batch
// as done, with its permanent failures, under one mutex and condition
// variable. This is the paper's per-GPU IO stack with no central
// coordinator (Section 3.1): IO progresses while the GPU computes.

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <list>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "iostack/ssd.hpp"

namespace moment::iostack {

class IoThread {
 public:
  /// Creates the engine's queue pairs (call before the array starts) and
  /// starts the thread, which blocks until a batch arrives.
  explicit IoThread(SsdArray& array, std::size_t queue_depth = 256,
                    IoEngineOptions options = {});
  /// Stops the thread. Reads already handed over are driven to a terminal
  /// state first (bounded by the engine's wait_deadline), so no device
  /// writes into a caller's buffer after the thread is gone.
  ~IoThread();

  IoThread(const IoThread&) = delete;
  IoThread& operator=(const IoThread&) = delete;

  /// Hands `requests` to the IO thread as one completion group and returns
  /// without waiting on any SQ. `requests` and every `dest` buffer must stay
  /// valid until wait() on the returned ticket (never 0) returns.
  std::uint64_t submit(std::span<const ReadRequest> requests);

  /// Blocks until every read of `ticket` reached a terminal state (bounded
  /// by wait_deadline from its hand-over) and appends the permanently failed
  /// ones to `failed`. Rethrows an exception the IO thread raised for the
  /// batch (e.g. IoEngine::enqueue's std::invalid_argument). Each ticket is
  /// waited exactly once.
  void wait(std::uint64_t ticket, std::vector<FailedRead>& failed);

  /// Engine counters as of the last completed batch; safe from any thread.
  RetryStats retry_stats() const;
  LatencyStats latency() const;

 private:
  struct Batch {
    std::uint64_t ticket = 0;
    std::span<const ReadRequest> requests;
    std::uint64_t group = 0;        // IO thread only
    std::vector<FailedRead> failed;  // written by the IO thread before done
    std::exception_ptr error;
    bool done = false;
  };

  void run();
  /// Opens the batch's completion group and queues its reads; an exception
  /// is recorded on the batch, which then completes with nothing queued.
  void start(Batch& batch);

  IoEngine engine_;  // touched only by thread_

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // IO thread: new batch or stop
  std::condition_variable done_cv_;  // wait(): a batch finished
  std::list<Batch> batches_;         // handed over, not yet waited
  std::vector<Batch*> inbox_;        // handed over, not yet started
  std::uint64_t next_ticket_ = 1;
  bool stop_ = false;
  RetryStats retry_stats_;
  LatencyStats latency_;

  std::thread thread_;  // last: starts after every member it uses
};

}  // namespace moment::iostack
