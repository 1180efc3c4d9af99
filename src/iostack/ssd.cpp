#include "iostack/ssd.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace moment::iostack {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

SsdDevice::SsdDevice(const SsdOptions& options)
    : store_(options.capacity_bytes), options_(options) {}

SsdDevice::~SsdDevice() { stop(); }

QueuePair* SsdDevice::create_queue_pair(std::size_t depth) {
  if (running_.load()) {
    throw std::logic_error("SsdDevice: create_queue_pair while running");
  }
  queues_.push_back(std::make_unique<QueuePair>(depth));
  return queues_.back().get();
}

FaultInjector* SsdDevice::inject_faults(const FaultProfile& profile) {
  if (running_.load()) {
    throw std::logic_error("SsdDevice: inject_faults while running");
  }
  injector_ = std::make_unique<FaultInjector>(profile);
  return injector_.get();
}

void SsdDevice::start() {
  if (running_.exchange(true)) return;
  stop_requested_.store(false);
  service_thread_ = std::thread([this] { service_loop(); });
}

void SsdDevice::stop() {
  if (!running_.load()) return;
  stop_requested_.store(true);
  if (service_thread_.joinable()) service_thread_.join();
  running_.store(false);
}

void SsdDevice::write(std::uint64_t offset, const std::byte* src,
                      std::size_t len) {
  if (offset > store_.size() || len > store_.size() - offset) {
    throw std::out_of_range("SsdDevice::write: beyond capacity");
  }
  std::memcpy(store_.data() + offset, src, len);
}

SsdStats SsdDevice::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void SsdDevice::bounded_stall(std::uint32_t stall_us) {
  // Sleep in slices so a stalling device still honours stop() promptly.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(stall_us);
  while (!stop_requested_.load(std::memory_order_relaxed) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(
        std::min<std::uint32_t>(stall_us, 100)));
  }
}

void SsdDevice::serve(const Sqe& sqe, QueuePair& qp) {
  Cqe cqe;
  cqe.tag = sqe.tag;
  std::uint32_t status = kStatusOk;
  if (injector_) {
    const FaultInjector::Decision d = injector_->on_read();
    if (d.stall_us > 0) bounded_stall(d.stall_us);
    status = d.status;
  }
  if (status == kStatusOk &&
      (sqe.dest == nullptr || sqe.offset % kPageBytes != 0 ||
       sqe.length % kPageBytes != 0 || sqe.offset > store_.size() ||
       sqe.length > store_.size() - sqe.offset)) {
    status = kStatusReadError;
  }
  if (status == kStatusOk) {
    std::memcpy(sqe.dest, store_.data() + sqe.offset, sqe.length);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.reads;
    stats_.bytes_read += sqe.length;
  } else {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.errors;
  }
  cqe.status = status;
  // The caller fetched this SQE only after cq_has_room(), so the post cannot
  // fail; a drop would mean that guard was bypassed.
  if (!qp.complete(cqe)) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.dropped_completions;
  }
}

void SsdDevice::service_loop() {
  using clock = std::chrono::steady_clock;
  const bool paced = options_.max_bytes_per_s > 0.0;
  auto epoch = clock::now();
  double budget_bytes = 0.0;  // token bucket
  auto last_refill = epoch;

  while (!stop_requested_.load(std::memory_order_relaxed)) {
    bool served_any = false;
    for (auto& qp : queues_) {
      for (std::size_t k = 0; k < kSqesPerServicePass; ++k) {
        if (paced && budget_bytes <= 0.0) break;
        // A client that stopped polling keeps its SQEs queued rather than
        // holding the device: fetch only what can be completed.
        if (!qp->cq_has_room()) break;
        Sqe sqe;
        if (!qp->fetch(sqe)) break;
        serve(sqe, *qp);
        served_any = true;
        if (paced) budget_bytes -= static_cast<double>(sqe.length);
      }
    }
    if (paced) {
      const auto now = clock::now();
      const double dt =
          std::chrono::duration<double>(now - last_refill).count();
      last_refill = now;
      budget_bytes += dt * options_.max_bytes_per_s;
      // Cap the bucket at ~10ms worth so bursts stay realistic.
      budget_bytes =
          std::min(budget_bytes, options_.max_bytes_per_s * 0.010);
    }
    if (!served_any) std::this_thread::yield();
  }

  // Serve what is still queued so clients never hang on shutdown; SQEs of
  // a client whose CQ is full stay queued (its deadline handles them).
  for (auto& qp : queues_) {
    Sqe sqe;
    while (qp->cq_has_room() && qp->fetch(sqe)) serve(sqe, *qp);
  }
}

SsdArray::SsdArray(std::size_t num_ssds, const SsdOptions& options) {
  ssds_.reserve(num_ssds);
  states_.reserve(num_ssds);
  for (std::size_t i = 0; i < num_ssds; ++i) {
    ssds_.push_back(std::make_unique<SsdDevice>(options));
    states_.push_back(std::make_unique<DeviceState>());
  }
}

SsdArray::~SsdArray() { stop_all(); }

void SsdArray::start_all() {
  for (auto& s : ssds_) s->start();
}

void SsdArray::stop_all() {
  for (auto& s : ssds_) s->stop();
}

DeviceHealth SsdArray::health(std::size_t i) const noexcept {
  return static_cast<DeviceHealth>(
      states_[i]->health.load(std::memory_order_acquire));
}

void SsdArray::report_io_result(std::size_t i, bool ok) noexcept {
  DeviceState& st = *states_[i];
  if (ok) {
    st.consecutive_failures.store(0, std::memory_order_relaxed);
    int cur = st.health.load(std::memory_order_relaxed);
    if (cur == static_cast<int>(DeviceHealth::kDegraded)) {
      // Failed is sticky; only degraded recovers to healthy.
      st.health.compare_exchange_strong(
          cur, static_cast<int>(DeviceHealth::kHealthy),
          std::memory_order_release, std::memory_order_relaxed);
    }
    return;
  }
  const std::uint32_t streak =
      st.consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
  if (streak >= kFailedAfter) {
    mark_failed(i);
  } else if (streak >= kDegradedAfter) {
    int cur = st.health.load(std::memory_order_relaxed);
    if (cur == static_cast<int>(DeviceHealth::kHealthy)) {
      st.health.compare_exchange_strong(
          cur, static_cast<int>(DeviceHealth::kDegraded),
          std::memory_order_release, std::memory_order_relaxed);
    }
  }
}

void SsdArray::mark_failed(std::size_t i) noexcept {
  states_[i]->health.store(static_cast<int>(DeviceHealth::kFailed),
                           std::memory_order_release);
}

std::size_t SsdArray::num_degraded() const noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (health(i) == DeviceHealth::kDegraded) ++n;
  }
  return n;
}

std::size_t SsdArray::num_failed() const noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (health(i) == DeviceHealth::kFailed) ++n;
  }
  return n;
}

IoEngine::IoEngine(SsdArray& array, std::size_t queue_depth,
                   IoEngineOptions options)
    : array_(array), options_(options) {
  queues_.reserve(array.size());
  for (std::size_t i = 0; i < array.size(); ++i) {
    queues_.push_back(array.ssd(i).create_queue_pair(queue_depth));
  }
  queued_.resize(array.size());
  thread_ = std::thread([this] { run(); });
}

IoEngine::~IoEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_one();
  thread_.join();
}

std::uint64_t IoEngine::submit(std::span<const ReadRequest> requests) {
  for (const ReadRequest& r : requests) {
    if (r.ssd >= queues_.size()) {
      throw std::out_of_range("IoEngine::submit: ssd index");
    }
    if (r.length > kMaxTransferBytes) {
      throw std::invalid_argument(
          "IoEngine::submit: transfer size exceeds kMaxTransferBytes");
    }
  }
  std::uint64_t ticket = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Batch& b = batches_.emplace_back();
    b.ticket = ticket = next_ticket_++;
    b.requests = requests;
    inbox_.push_back(&b);
  }
  work_cv_.notify_one();
  return ticket;
}

void IoEngine::wait(std::uint64_t ticket, std::vector<std::size_t>& failed) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it =
      std::find_if(batches_.begin(), batches_.end(),
                   [ticket](const Batch& b) { return b.ticket == ticket; });
  if (it == batches_.end()) {
    throw std::logic_error("IoEngine::wait: unknown ticket");
  }
  done_cv_.wait(lock, [&] { return it->done; });
  failed.insert(failed.end(), it->failed.begin(), it->failed.end());
  const std::exception_ptr error = it->error;
  batches_.erase(it);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

bool IoEngine::writes_pending(std::uint64_t ticket) const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::any_of(orphans_.begin(), orphans_.end(), [&](const auto& o) {
    return o.second.ticket == ticket;
  });
}

RetryStats IoEngine::retry_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retry_stats_;
}

LatencyStats IoEngine::latency() const {
  std::lock_guard<std::mutex> lock(mu_);
  LatencyStats s;
  s.count = latency_count_;
  s.mean_ns = latency_count_ > 0
                  ? latency_sum_ns_ / static_cast<double>(latency_count_)
                  : 0.0;
  s.max_ns = latency_max_ns_;
  return s;
}

void IoEngine::run() {
  std::vector<Batch*> active;    // handed over and not yet done
  std::vector<Batch*> finished;  // done this pass, not yet published
  for (;;) {
    std::size_t fresh = 0;  // taken from inbox_ now, at the back of active
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Blocks only when idle; with reads in flight it returns at once.
      work_cv_.wait(lock, [&] {
        return stop_ || !inbox_.empty() || !active.empty();
      });
      if (stop_) break;
      fresh = inbox_.size();
      active.insert(active.end(), inbox_.begin(), inbox_.end());
      inbox_.clear();
    }
    bool progress = fresh > 0;
    try {
      for (std::size_t i = active.size() - fresh; i < active.size(); ++i) {
        start(*active[i]);
      }
      progress |= pump();
      std::erase_if(active, [&](Batch* b) {
        if (b->outstanding > 0 && now_ns() > b->deadline_ns) force_fail(b);
        if (b->outstanding > 0) return false;
        finished.push_back(b);
        return true;
      });
    } catch (...) {
      // Not tied to one batch (e.g. std::bad_alloc inside the engine):
      // every batch in flight reports it.
      const std::exception_ptr error = std::current_exception();
      drain();
      for (Batch* b : active) {
        if (!b->error) b->error = error;
        finished.push_back(b);
      }
      active.clear();
    }
    if (!finished.empty()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (Batch* b : finished) b->done = true;
      }
      done_cv_.notify_all();
      finished.clear();
    } else if (!progress) {
      std::this_thread::yield();
    }
  }
  drain();
}

void IoEngine::start(Batch& batch) {
  batch.deadline_ns =
      now_ns() + static_cast<std::uint64_t>(options_.wait_deadline.count());
  batch.outstanding = batch.requests.size();
  for (std::size_t i = 0; i < batch.requests.size(); ++i) {
    queued_[batch.requests[i].ssd].push_back({&batch, i});
  }
  queued_count_ += batch.requests.size();
}

void IoEngine::drain() noexcept {
  // Reads still in flight must land (or fail) before a caller may free
  // their buffers.
  try {
    const std::uint64_t bound =
        now_ns() + static_cast<std::uint64_t>(options_.wait_deadline.count());
    while (in_flight() > 0) {
      if (!pump()) {
        if (now_ns() > bound) {
          force_fail(nullptr);
          break;
        }
        std::this_thread::yield();
      }
    }
    // A running device still serves what it holds, into the caller's
    // buffer; a stopped one never writes again. (orphans_ is written only
    // by this thread, so reading it here needs no lock.)
    while (std::any_of(orphans_.begin(), orphans_.end(), [&](const auto& o) {
      return array_.ssd(o.second.ssd).running();
    })) {
      if (!drain_completions()) std::this_thread::yield();
    }
  } catch (...) {
    // Only an allocation can throw here. Forget what is left so no request
    // outlives its batch; a late completion is then dropped as a stale tag.
    pending_.clear();
    for (std::deque<Pending>& q : queued_) q.clear();
    queued_count_ = 0;
  }
}

bool IoEngine::device_failed(std::size_t ssd) const noexcept {
  return array_.health(ssd) == DeviceHealth::kFailed;
}

std::uint64_t IoEngine::backoff_ns(std::uint32_t attempts) const noexcept {
  const auto base =
      static_cast<std::uint64_t>(options_.retry_backoff.count());
  const std::uint32_t shift = std::min(attempts > 0 ? attempts - 1 : 0u, 6u);
  return base << shift;
}

void IoEngine::bump(std::uint64_t RetryStats::*counter) {
  std::lock_guard<std::mutex> lock(mu_);
  ++(retry_stats_.*counter);
}

void IoEngine::finish_failure(const Pending& p) {
  bump(&RetryStats::permanent_failures);
  --p.batch->outstanding;
  p.batch->failed.push_back(p.index);
}

void IoEngine::retry_or_fail(Pending p, std::uint64_t now) {
  const std::size_t ssd = p.request().ssd;
  if (device_failed(ssd) || p.attempts > options_.max_retries) {
    finish_failure(p);
    return;
  }
  bump(&RetryStats::retries);
  p.not_before_ns = now + backoff_ns(p.attempts);
  ++p.attempts;
  queued_[ssd].push_back(p);
  ++queued_count_;
}

IoEngine::PendingMap::iterator IoEngine::abandon(PendingMap::iterator it) {
  const std::size_t ssd = it->second.request().ssd;
  {
    std::lock_guard<std::mutex> lock(mu_);
    orphans_.emplace(it->first, Orphan{ssd, it->second.batch->ticket});
    ++retry_stats_.timeouts;
  }
  array_.report_io_result(ssd, false);
  return pending_.erase(it);
}

bool IoEngine::drain_completions() {
  Cqe cqe;
  bool progress = false;
  for (auto* qp : queues_) {
    while (qp->poll_completion(cqe)) {
      progress = true;
      const auto it = pending_.find(cqe.tag);
      if (it == pending_.end()) {
        // Late completion of an abandoned attempt (tags are never reused):
        // the retry (or failover) owns the request now; the duplicate write
        // carried the same bytes, and it has landed.
        std::lock_guard<std::mutex> lock(mu_);
        orphans_.erase(cqe.tag);
        continue;
      }
      const Pending p = it->second;
      pending_.erase(it);
      const std::size_t ssd = p.request().ssd;
      if (cqe.status == kStatusOk) {
        array_.report_io_result(ssd, true);
        const double lat =
            static_cast<double>(now_ns() - p.first_submit_ns);
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++latency_count_;
          latency_sum_ns_ += lat;
          latency_max_ns_ = std::max(latency_max_ns_, lat);
        }
        --p.batch->outstanding;
      } else {
        if (cqe.status == kStatusDeviceFailed) {
          array_.mark_failed(ssd);
        } else {
          array_.report_io_result(ssd, false);
        }
        retry_or_fail(p, now_ns());
      }
    }
  }
  return progress;
}

bool IoEngine::check_timeouts(std::uint64_t now) {
  // Rate-limited: the deadline scan is O(in-flight) and only needs to run
  // at timeout granularity, not per poll.
  if (now - last_timeout_scan_ns_ < 100'000) return false;
  last_timeout_scan_ns_ = now;
  bool progress = false;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (now <= it->second.deadline_ns) {
      ++it;
      continue;
    }
    const Pending p = it->second;
    it = abandon(it);
    retry_or_fail(p, now);
    progress = true;
  }
  return progress;
}

bool IoEngine::pump() {
  bool progress = drain_completions();
  const std::size_t queued = queued_count_;
  progress |= submit_queued() < queued;
  progress |= check_timeouts(now_ns());
  return progress;
}

void IoEngine::force_fail(const Batch* batch) {
  const auto doomed = [batch](const Pending& p) {
    return batch == nullptr || p.batch == batch;
  };
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (!doomed(it->second)) {
      ++it;
      continue;
    }
    const Pending p = it->second;
    it = abandon(it);
    finish_failure(p);
  }
  // Queued requests (first attempts and retries) are not on a device.
  for (std::deque<Pending>& q : queued_) {
    std::erase_if(q, [&](const Pending& p) {
      if (!doomed(p)) return false;
      finish_failure(p);
      --queued_count_;
      return true;
    });
  }
  last_timeout_scan_ns_ = now_ns();
}

std::size_t IoEngine::submit_queued() {
  if (queued_count_ == 0) return 0;
  const std::uint64_t now = now_ns();
  const auto deadline =
      static_cast<std::uint64_t>(options_.request_deadline.count());
  for (std::size_t ssd = 0; ssd < queued_.size(); ++ssd) {
    std::deque<Pending>& q = queued_[ssd];
    const bool dead = !q.empty() && device_failed(ssd);
    while (!q.empty()) {
      Pending& p = q.front();
      if (dead) {
        finish_failure(p);  // known-dead device: fail without touching it
      } else {
        // A backing-off retry holds this device; the next one is still fed.
        if (now < p.not_before_ns) break;
        const ReadRequest& r = p.request();
        if (!queues_[ssd]->submit({r.offset, r.length, r.dest, next_tag_})) {
          break;  // SQ full: this device waits, the next one is still fed
        }
        if (p.attempts == 1) p.first_submit_ns = now;
        p.deadline_ns = now + deadline;
        pending_.emplace(next_tag_++, p);
      }
      q.pop_front();
      --queued_count_;
    }
  }
  return queued_count_;
}

}  // namespace moment::iostack
