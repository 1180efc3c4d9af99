#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace moment::util {

namespace {

/// Set for the lifetime of each pool worker; a parallel_for issued on one
/// runs inline.
thread_local bool tls_pool_worker = false;

/// One parallel_for call. It lives in fork_join's frame: posted on the pool's
/// list until the caller has claimed its last chunk, and kept until no worker
/// that joined it is still running one of its chunks.
struct Job {
  std::size_t begin, end, step, chunks;
  void* fn;
  void (*run)(void*, std::size_t, std::size_t);
  std::atomic<std::size_t> next_chunk{0};
  // Guarded by the pool's mutex:
  std::size_t joined = 0;          // workers inside run_chunks
  std::condition_variable left{};  // signalled when `joined` drops to 0
  std::exception_ptr error{};      // of the lowest failing chunk, error_chunk
  std::size_t error_chunk = 0;
  Job* next_job = nullptr;         // the pool's list of posted jobs
};

class Pool {
 public:
  explicit Pool(std::size_t workers) {
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { work(); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (auto& t : threads_) t.join();
  }

  // Posts `job`, claims its chunks on the calling thread, and returns once
  // every chunk has run.
  void run(Job& job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job.next_job = jobs_;
      jobs_ = &job;
    }
    wake_.notify_all();
    run_chunks(job);
    std::unique_lock<std::mutex> lock(mu_);
    Job** link = &jobs_;
    while (*link != &job) link = &(*link)->next_job;
    *link = job.next_job;
    job.left.wait(lock, [&] { return job.joined == 0; });
  }

 private:
  // Claims and runs chunks of `job` until none is left.
  void run_chunks(Job& job) {
    for (;;) {
      const std::size_t k =
          job.next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (k >= job.chunks) return;
      const std::size_t b = job.begin + k * job.step;
      try {
        job.run(job.fn, b, std::min(job.end, b + job.step));
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!job.error || k < job.error_chunk) {
          job.error = std::current_exception();
          job.error_chunk = k;
        }
      }
    }
  }

  Job* claimable_job() const {
    for (Job* j = jobs_; j != nullptr; j = j->next_job) {
      if (j->next_chunk.load(std::memory_order_relaxed) < j->chunks) return j;
    }
    return nullptr;
  }

  void work() {
    tls_pool_worker = true;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      Job* job = nullptr;
      wake_.wait(lock, [&] {
        return (job = claimable_job()) != nullptr || stopping_;
      });
      if (job == nullptr) return;
      ++job->joined;
      lock.unlock();
      run_chunks(*job);
      lock.lock();
      if (--job->joined == 0) job->left.notify_one();
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;
  Job* jobs_ = nullptr;  // posted jobs, newest first
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

std::mutex g_compute_mu;
std::unique_ptr<Pool> g_compute_pool;
std::size_t g_compute_threads = 0;  // 0 = not yet resolved

std::size_t resolve_auto_threads() {
  if (const char* env = std::getenv("MOMENT_COMPUTE_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(std::min(v, 16l));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 16);
}

void rebuild_pool_locked(std::size_t n) {
  g_compute_threads = n == 0 ? resolve_auto_threads() : std::min<std::size_t>(n, 64);
  g_compute_pool.reset();  // joins old workers before spawning new ones
  if (g_compute_threads > 1) {
    g_compute_pool = std::make_unique<Pool>(g_compute_threads);
  }
}

}  // namespace

std::size_t compute_pool_threads() {
  std::lock_guard<std::mutex> lock(g_compute_mu);
  if (g_compute_threads == 0) rebuild_pool_locked(0);
  return g_compute_threads;
}

void set_compute_pool_threads(std::size_t n) {
  std::lock_guard<std::mutex> lock(g_compute_mu);
  rebuild_pool_locked(n);
}

namespace detail {

bool fork_join(std::size_t begin, std::size_t end, std::size_t grain,
               void* fn, void (*run)(void*, std::size_t, std::size_t)) {
  if (tls_pool_worker) return false;
  const std::size_t threads = compute_pool_threads();
  if (threads == 1) return false;
  const std::size_t range = end - begin;
  const std::size_t chunks = std::min((range + grain - 1) / grain, threads * 4);
  const std::size_t step = (range + chunks - 1) / chunks;
  Job job{begin, end, step, (range + step - 1) / step, fn, run};
  // compute_pool_threads() built the pool under g_compute_mu on this thread,
  // and the pool is not rebuilt while a call is in flight.
  g_compute_pool->run(job);
  if (job.error) std::rethrow_exception(job.error);
  return true;
}

}  // namespace detail

}  // namespace moment::util
