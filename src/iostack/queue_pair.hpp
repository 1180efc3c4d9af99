#pragma once
// NVMe-style submission/completion queue pair. Lock-free SPSC rings with
// acquire/release doorbells, mirroring the structure of the paper's
// multi-GPU GPU-initiated IO stack: each GPU owns its queue pairs and drives
// SSD reads without any centralized coordinator (paper Section 3.1,
// "Multi-GPU Disk IO Stack").
//
// The host-side client plays the role of a GPU warp issuing commands; the
// SSD service thread plays the device controller.

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace moment::iostack {

/// Submission queue entry: a read request.
struct Sqe {
  std::uint64_t offset = 0;   // byte offset on the SSD
  std::uint32_t length = 0;   // bytes to read
  std::byte* dest = nullptr;  // destination ("application buffer")
  std::uint64_t tag = 0;      // completion correlation id
};

/// Completion queue entry.
struct Cqe {
  std::uint64_t tag = 0;
  std::uint32_t status = 0;  // 0 = success
};

/// Fixed-capacity single-producer single-consumer ring. The requested
/// capacity is rounded up to the next power of two (index math stays
/// branch-free), so e.g. a queue depth of 100 yields an effective 128.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity)
      : buffer_(std::bit_ceil(capacity == 0 ? std::size_t{64} : capacity)),
        mask_(buffer_.size() - 1) {}

  bool push(const T& item) noexcept {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail >= buffer_.size()) return false;  // full
    buffer_[head & mask_] = item;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  bool pop(T& out) noexcept {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    if (tail == head) return false;  // empty
    out = buffer_[tail & mask_];
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  std::size_t size() const noexcept {
    return head_.load(std::memory_order_acquire) -
           tail_.load(std::memory_order_acquire);
  }
  std::size_t capacity() const noexcept { return buffer_.size(); }

 private:
  std::vector<T> buffer_;
  std::size_t mask_;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
};

/// One SQ/CQ pair. The client pushes SQEs and pops CQEs; the device thread
/// does the reverse. `depth` is rounded up to a power of two; depth()
/// reports the effective (rounded) capacity.
class QueuePair {
 public:
  explicit QueuePair(std::size_t depth = 256) : sq_(depth), cq_(depth) {}

  // Client side.
  bool submit(const Sqe& sqe) noexcept { return sq_.push(sqe); }
  bool poll_completion(Cqe& cqe) noexcept { return cq_.pop(cqe); }

  // Device side.
  bool fetch(Sqe& sqe) noexcept { return sq_.pop(sqe); }
  bool complete(const Cqe& cqe) noexcept { return cq_.push(cqe); }
  /// True when complete() would succeed. The device is the CQ's only
  /// producer, so room it sees here cannot vanish before it posts.
  bool cq_has_room() const noexcept { return cq_.size() < cq_.capacity(); }

  std::size_t depth() const noexcept { return sq_.capacity(); }
  std::size_t sq_backlog() const noexcept { return sq_.size(); }

 private:
  SpscRing<Sqe> sq_;
  SpscRing<Cqe> cq_;
};

}  // namespace moment::iostack
