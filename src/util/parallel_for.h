// Simple data-parallel loop over a persistent thread pool.
#ifndef POE_UTIL_PARALLEL_FOR_H_
#define POE_UTIL_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>

namespace poe {

/// Number of worker threads used by ParallelFor (hardware concurrency,
/// overridable with the POE_NUM_THREADS environment variable).
int NumThreads();

namespace internal {

/// The pool half of ParallelFor, for ranges larger than one chunk when
/// several workers are configured.
void ParallelForOnPool(
    int64_t n, const std::function<void(int64_t begin, int64_t end)>& body,
    int64_t min_chunk);

}  // namespace internal

/// Runs body(begin, end) over [0, n) split into roughly equal chunks, one
/// per worker. Falls back to inline execution for small n, when only one
/// worker is configured, when called from inside a running ParallelFor
/// body, or when another thread's ParallelFor holds the pool. Blocks
/// until all chunks complete. Safe to call from many threads at once.
/// The first two fallbacks call `body` directly, without wrapping it in a
/// std::function, so a cheap pass on a one-thread serving path pays
/// nothing for being parallelizable.
///
/// `body` must be safe to call concurrently on disjoint ranges.
template <typename Body>
void ParallelFor(int64_t n, const Body& body, int64_t min_chunk = 1024) {
  if (n <= 0) return;
  if (NumThreads() <= 1 || n <= min_chunk) {
    body(0, n);
    return;
  }
  internal::ParallelForOnPool(n, body, min_chunk);
}

}  // namespace poe

#endif  // POE_UTIL_PARALLEL_FOR_H_
