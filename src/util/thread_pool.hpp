#pragma once
// The process-wide compute pool, reachable only through `parallel_for`. The
// GEMM/aggregation kernels (gnn/kernels), the trainer's gradient all-reduce,
// the neighbor sampler and the placement search fan their loops out on it.
//
// A call is fork-join: it splits the range into chunks, posts one job that
// lives in the call's frame, and claims chunks on the calling thread while
// idle pool workers claim the rest. It returns once every chunk has run, so
// a call allocates nothing and its caller never waits on a queued chunk.
// Several threads may call at once (the trainer's workers do); the pool
// serves their jobs side by side.

#include <cstddef>
#include <memory>
#include <type_traits>

namespace moment::util {

/// Effective compute-pool thread count (1 means "run inline, no pool").
std::size_t compute_pool_threads();

/// Reconfigures the compute pool size. 0 = auto (MOMENT_COMPUTE_THREADS env
/// var, else hardware_concurrency, clamped to [1, 16]). Destroys and
/// recreates the pool; must not be called while a parallel_for is in flight.
void set_compute_pool_threads(std::size_t n);

namespace detail {
/// Runs `run(fn, b, e)` for each of parallel_for's chunks on the calling
/// thread and the pool and returns true; or returns false, having run
/// nothing, when the call must run inline (a pool of 1 thread, or the caller
/// is a pool worker).
bool fork_join(std::size_t begin, std::size_t end, std::size_t grain,
               void* fn, void (*run)(void*, std::size_t, std::size_t));
}  // namespace detail

/// Runs `fn(chunk_begin, chunk_end)` over chunks of [begin, end) of at least
/// `grain` indices, at most four per pool thread, on the calling thread and
/// the compute pool. The call returns when every chunk is done, also when a
/// chunk throws (the lowest-indexed chunk's exception is rethrown). Runs the
/// whole range inline, as one direct call, when the pool has 1 thread, the
/// range is within one grain, or the caller already is a pool worker (a
/// nested call).
///
/// Chunk boundaries depend only on (range, grain, pool size), so callers that
/// need thread-count-invariant results must make `fn` independent per index
/// (each index writes only its own rows), not rely on chunk shapes.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  Fn&& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  using F = std::remove_reference_t<Fn>;
  void* f = const_cast<void*>(static_cast<const void*>(std::addressof(fn)));
  if (end - begin <= grain ||
      !detail::fork_join(begin, end, grain, f,
                         [](void* p, std::size_t b, std::size_t e) {
                           (*static_cast<F*>(p))(b, e);
                         })) {
    fn(begin, end);
  }
}

}  // namespace moment::util
