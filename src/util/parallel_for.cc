#include "util/parallel_for.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

namespace poe {

namespace {

/// True on pool workers, and on a caller while its job runs on the pool.
/// A ParallelFor issued from such a thread is nested inside a running job
/// and runs inline: it must neither wait for the pool (its own job holds
/// it) nor try_lock run_mu_, which this thread may already own.
thread_local bool t_inside_pool_job = false;

/// A lazily constructed pool of workers that execute (begin, end) chunks.
/// Kept deliberately simple: one job at a time, caller blocks. Concurrent
/// callers do not queue: whoever finds the pool busy runs its own range
/// inline, so job state is never shared between two callers.
class WorkerPool {
 public:
  explicit WorkerPool(int num_workers) {
    workers_.reserve(num_workers);
    for (int i = 0; i < num_workers; ++i) {
      workers_.emplace_back([this] {
        t_inside_pool_job = true;
        WorkerLoop();
      });
    }
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  /// Runs the job on the pool, or returns false without running anything
  /// when the call is nested or another caller's job holds the pool.
  bool TryRun(int64_t n, int64_t chunk,
              const std::function<void(int64_t, int64_t)>& body) {
    if (t_inside_pool_job) return false;
    std::unique_lock<std::mutex> job(run_mu_, std::try_to_lock);
    if (!job.owns_lock()) return false;
    t_inside_pool_job = true;
    Run(n, chunk, body);
    t_inside_pool_job = false;
    return true;
  }

 private:
  void Run(int64_t n, int64_t chunk,
           const std::function<void(int64_t, int64_t)>& body) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      body_ = &body;
      total_ = n;
      chunk_ = chunk;
      next_ = 0;
      pending_ = (n + chunk - 1) / chunk;
      generation_++;
    }
    cv_.notify_all();
    // The caller participates too, so the pool works even with 0 workers.
    DrainChunks();
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    body_ = nullptr;
  }

  void DrainChunks() {
    while (true) {
      int64_t begin;
      const std::function<void(int64_t, int64_t)>* body;
      int64_t chunk, total;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (body_ == nullptr || next_ >= total_) return;
        begin = next_;
        next_ += chunk_;
        body = body_;
        chunk = chunk_;
        total = total_;
      }
      (*body)(begin, std::min(begin + chunk, total));
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }

  void WorkerLoop() {
    uint64_t seen_generation = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
          return shutdown_ || (body_ != nullptr && generation_ != seen_generation &&
                               next_ < total_);
        });
        if (shutdown_) return;
        seen_generation = generation_;
      }
      DrainChunks();
    }
  }

  std::mutex run_mu_;  ///< held by the one caller whose job owns the pool
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  const std::function<void(int64_t, int64_t)>* body_ = nullptr;
  int64_t total_ = 0;
  int64_t chunk_ = 0;
  int64_t next_ = 0;
  int64_t pending_ = 0;
  uint64_t generation_ = 0;
  bool shutdown_ = false;
};

int ComputeNumThreads() {
  if (const char* env = std::getenv("POE_NUM_THREADS")) {
    int n = std::atoi(env);
    if (n >= 1) return n;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

int NumThreads() {
  static const int n = ComputeNumThreads();
  return n;
}

namespace {

// Function-local static pointer: allowed pattern for non-trivially
// destructible globals (the pool intentionally leaks at exit).
WorkerPool* GetPool() {
  static WorkerPool* pool = new WorkerPool(NumThreads() - 1);
  return pool;
}

}  // namespace

namespace internal {

void ParallelForOnPool(int64_t n,
                       const std::function<void(int64_t, int64_t)>& body,
                       int64_t min_chunk) {
  const int workers = NumThreads();
  int64_t chunk = std::max<int64_t>(min_chunk, (n + workers - 1) / workers);
  if (!GetPool()->TryRun(n, chunk, body)) body(0, n);
}

}  // namespace internal

}  // namespace poe
