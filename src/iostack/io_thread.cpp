#include "iostack/io_thread.hpp"

#include <algorithm>
#include <stdexcept>

namespace moment::iostack {

IoThread::IoThread(SsdArray& array, std::size_t queue_depth,
                   IoEngineOptions options)
    : engine_(array, queue_depth, options), thread_([this] { run(); }) {}

IoThread::~IoThread() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_one();
  thread_.join();
}

std::uint64_t IoThread::submit(std::span<const ReadRequest> requests) {
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

void IoThread::wait(std::uint64_t ticket, std::vector<FailedRead>& failed) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it =
      std::find_if(batches_.begin(), batches_.end(),
                   [ticket](const Batch& b) { return b.ticket == ticket; });
  if (it == batches_.end()) {
    throw std::logic_error("IoThread::wait: unknown ticket");
  }
  done_cv_.wait(lock, [&] { return it->done; });
  failed.insert(failed.end(), it->failed.begin(), it->failed.end());
  const std::exception_ptr error = it->error;
  batches_.erase(it);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

RetryStats IoThread::retry_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retry_stats_;
}

LatencyStats IoThread::latency() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latency_;
}

void IoThread::start(Batch& batch) {
  batch.group = engine_.group_begin();
  try {
    engine_.enqueue(batch.requests);
  } catch (...) {
    batch.error = std::current_exception();
  }
  engine_.group_end(batch.group);
}

void IoThread::run() {
  std::vector<Batch*> active;    // handed over and not yet done
  std::vector<Batch*> finished;  // done this pass, not yet published
  // Reads still in flight must land (or fail) before a caller may free
  // their buffers. wait_all() allocates only to record failures; if even
  // that throws, the batches already carry an error or their owner is
  // being destroyed, so nobody is left to report it to.
  const auto drain = [this] {
    try {
      engine_.wait_all();
    } catch (...) {
    }
  };
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Blocks only when idle; with reads in flight it returns at once.
      work_cv_.wait(lock, [&] {
        return stop_ || !inbox_.empty() || !active.empty();
      });
      if (stop_) break;
      active.insert(active.end(), inbox_.begin(), inbox_.end());
      inbox_.clear();
    }
    bool progress = false;
    try {
      for (Batch* b : active) {
        if (b->group == 0) {  // newly handed over
          start(*b);
          progress = true;
        }
      }
      progress |= engine_.pump();
      std::erase_if(active, [&](Batch* b) {
        if (!engine_.poll_group(b->group, b->failed)) return false;
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
        retry_stats_ = engine_.retry_stats();
        latency_ = engine_.latency();
      }
      done_cv_.notify_all();
      finished.clear();
    } else if (!progress) {
      std::this_thread::yield();
    }
  }
  drain();
}

}  // namespace moment::iostack
