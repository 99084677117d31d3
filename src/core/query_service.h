// The realtime model-querying service of the introduction's AIaaS scenario.
#ifndef POE_CORE_QUERY_SERVICE_H_
#define POE_CORE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/expert_pool.h"
#include "core/versioned_pool.h"
#include "serve/metrics.h"
#include "serve/model_cache.h"
#include "util/histogram.h"
#include "util/result.h"
#include "util/retry.h"

namespace poe {

/// Thread-safe front-end over a VersionedPool: clients submit composite
/// tasks, the service assembles (or serves from the sharded model cache)
/// the task-specific model and records latency. Assembly is train-free, so
/// serving is dominated by pointer wiring - this is the system's headline
/// property (Figures 6-7).
///
/// Concurrency: the cache is sharded (hash of the canonical key picks the
/// shard, per-shard mutexes) with single-flight assembly, and
/// `ExpertPool::Query` always runs outside every lock - concurrent misses
/// on different keys assemble in parallel, concurrent misses on the same
/// key share one assembly, and hits never wait behind an assembly.
///
/// Live upgrade: UpgradePool() atomically publishes a new pool generation
/// while in-flight queries finish on the old one (each assembly pins ONE
/// generation handle for its whole run). The flight cache then drops ONLY
/// the keys whose expert set changed between generations — unchanged
/// composites keep hitting across the swap — and a stale model that an
/// in-flight assembly inserts after the sweep is caught by the cache's
/// validate hook on its first would-be hit.
class ModelQueryService {
 public:
  /// Lock shards of the assembled-model cache's key space.
  static constexpr int kCacheShards = 8;

  /// `cache_capacity` = 0 disables the assembled-model cache. The service
  /// serves at the pool's own precision: an int8 service is one over a
  /// pool that already ran `SetServingPrecision(kInt8)` (or was loaded
  /// from an int8 pool file).
  explicit ModelQueryService(ExpertPool pool, size_t cache_capacity = 0);

  /// Builds M(Q) for the composite task. Task ids are canonicalized
  /// (sorted, deduplicated): order and repeats do not affect which cache
  /// entry serves the query ({2,1,1}, {1,2} and {2,1} share one entry),
  /// and branch/logit-column order always follows sorted task ids - every
  /// spelling observes one deterministic model. Map columns to classes
  /// through the model's global_classes().
  ///
  /// The remaining `deadline` budget bounds cache assembly (an expired
  /// deadline fails with kDeadlineExceeded before any work). Transient
  /// failures are retried with backoff per expert inside the pool; a
  /// fault outside that loop (the `service.assemble` site) reaches the
  /// caller unretried. Retries taken are counted into
  /// serve_stats().assembly_retries, and a degraded answering model bumps
  /// degraded_queries. Error results are never cached, so a fault-failed
  /// key does not stick.
  Result<std::shared_ptr<TaskModel>> Query(
      const std::vector<int>& task_ids, const Deadline& deadline = Deadline());

  /// Atomically publishes `next` as the new serving generation. In-flight
  /// queries complete on the generation they pinned; new queries (and
  /// assemblies) see `next` immediately. Only cache keys whose expert set
  /// CHANGED between the generations are invalidated (the count lands in
  /// serve_stats().cache_keys_invalidated); unchanged composites keep
  /// hitting, served by the old generation's models — safe because their
  /// masters were adopted by pointer into the new generation. Precision
  /// is a service invariant: an f32 `next` under an int8 service is
  /// converted, an int8 `next` under an f32 service is rejected.
  Result<GenerationDiff> UpgradePool(ExpertPool next);

  /// The serving generation now (1 + number of successful upgrades).
  uint64_t generation() const { return versioned_.generation(); }

  /// Pins the current generation (for callers that need a consistent pool
  /// view across several calls — e.g. tests asserting on byte counters).
  PoolGenerationHandle PinGeneration() const { return versioned_.Current(); }

  /// Accounts requests answered by a different generation than the one
  /// they pinned. The InferenceServer calls this at delivery (it knows
  /// the answering model).
  void NoteStaleGeneration(int64_t n = 1) {
    stale_generation_queries_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Full serving metrics: latency percentiles, QPS, per-shard hit rates,
  /// and the generation counters (generation, generations_swapped,
  /// cache_keys_invalidated, stale_generation_queries).
  ServeStats serve_stats() const;

  /// The CURRENT generation's pool. The reference stays valid only until
  /// the next UpgradePool, so callers hold PinGeneration() instead; the
  /// last caller is perfbench's model_query workload, and this goes with
  /// the next change to perfbench.
  const ExpertPool& pool() const { return versioned_.Current()->pool; }

  size_t cache_size() const { return cache_.size(); }

 private:
  VersionedPool versioned_;
  ShardedModelCache cache_;
  LatencyHistogram latency_;
  QpsWindow qps_;
  std::atomic<int64_t> assembly_retries_{0};
  std::atomic<int64_t> degraded_queries_{0};
  std::atomic<int64_t> stale_generation_queries_{0};
};

}  // namespace poe

#endif  // POE_CORE_QUERY_SERVICE_H_
