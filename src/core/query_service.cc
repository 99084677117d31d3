#include "core/query_service.h"

#include <algorithm>
#include <utility>

#include "util/fault.h"
#include "util/stopwatch.h"

namespace poe {

namespace {

// Pack once, serve many: the library trunk's persistent GEMM panels are
// built here, before the pool becomes generation 1; expert branches
// prepack lazily at store acquisition.
ExpertPool PrepareInitialPool(ExpertPool pool) {
  pool.PrepackForServing();
  return pool;
}

}  // namespace

ModelQueryService::ModelQueryService(ExpertPool pool, size_t cache_capacity)
    : versioned_(PrepareInitialPool(std::move(pool))),
      cache_(ShardedModelCache::Options{
          cache_capacity, kCacheShards,
          // Charge each resident composite its PRIVATE-copy bytes; the
          // expert store's referenced bytes are the deduplicated truth
          // and serve_stats() reports the difference as what expert-level
          // sharing saved.
          [](const std::shared_ptr<TaskModel>& m) {
            return m->StateBytes();
          },
          // Generation guard: a hit whose model predates the last content
          // change of ANY key expert is dropped instead of served. This
          // closes the swap race the post-swap sweep cannot: an assembly
          // pinned to the old generation may insert AFTER the sweep ran.
          [this](const std::vector<int>& key,
                 const std::shared_ptr<TaskModel>& m) {
            return GenerationCoversKey(*versioned_.Current(), key,
                                       m->generation());
          }}) {}

Result<std::shared_ptr<TaskModel>> ModelQueryService::Query(
    const std::vector<int>& task_ids, const Deadline& deadline) {
  Stopwatch clock;

  if (deadline.expired()) {
    return Status::DeadlineExceeded("deadline expired before assembly");
  }

  // Canonical cache key: sorted + deduplicated, so {2,1,1} and {1,2} are
  // one entry. Assembly also uses the canonical order, so every spelling
  // of a composite task observes one deterministic model - branch (and
  // logit column) order follows sorted task ids, cached or not; callers
  // map columns through global_classes() as always.
  std::vector<int> key = CanonicalTaskKey(task_ids);

  // Every query is accounted on its shard (hit, led assembly, or
  // coalesced wait); the aggregate counters in serve_stats() are
  // shard sums, so they reconcile by construction and the hot path pays
  // no extra global atomics.
  auto result = cache_.GetOrAssemble(
      key, [this, &deadline](const std::vector<int>& canonical)
               -> Result<std::shared_ptr<TaskModel>> {
        // The assembly leader pins ONE generation for its whole run: the
        // pool it queries and the generation it stamps cannot disagree,
        // and a concurrent swap cannot free anything under it. Pinning
        // at assembly (not at submission) means a query that merely
        // raced a swap still assembles against the NEW pool.
        const PoolGenerationHandle gen = versioned_.Current();
        POE_RETURN_NOT_OK(PoeFaultHit("service.assemble"));
        int64_t retries = 0;
        auto model = gen->pool.Query(canonical, deadline, &retries);
        assembly_retries_.fetch_add(retries, std::memory_order_relaxed);
        if (!model.ok()) return model.status();
        auto shared =
            std::make_shared<TaskModel>(std::move(model).ValueOrDie());
        shared->set_generation(gen->id);
        return shared;
      });

  if (result.ok() && (*result.ValueOrDie()).degraded()) {
    degraded_queries_.fetch_add(1, std::memory_order_relaxed);
  }
  latency_.Record(clock.ElapsedMillis());
  qps_.Record();
  return result;
}

Result<GenerationDiff> ModelQueryService::UpgradePool(ExpertPool next) {
  auto diff_result = versioned_.Swap(std::move(next));
  if (!diff_result.ok()) return diff_result.status();
  // Selective invalidation: sweep exactly the keys the new generation no
  // longer covers (those naming a changed/removed expert, or any key if
  // the trunk changed - last_changed bumps make that judgment local).
  // Unchanged composites stay resident and keep hitting; their old-
  // generation models remain correct because every master they alias was
  // adopted by pointer into the new generation. The sweep count lands in
  // per-shard `invalidated`, summed by serve_stats().
  const PoolGenerationHandle gen = versioned_.Current();
  cache_.EraseMatching([&gen](const std::vector<int>& key,
                              const std::shared_ptr<TaskModel>& m) {
    return !GenerationCoversKey(*gen, key, m->generation());
  });
  return diff_result;
}

ServeStats ModelQueryService::serve_stats() const {
  const PoolGenerationHandle gen = versioned_.Current();
  ServeStats stats;
  stats.shards = cache_.ShardStats();
  for (const CacheShardStats& shard : stats.shards) {
    stats.cache_hits += shard.hits;
    stats.cache_misses += shard.misses;
    stats.coalesced += shard.coalesced;
    stats.resident_model_bytes += shard.resident_bytes;
    stats.cache_keys_invalidated += shard.invalidated;
  }
  stats.queries = stats.cache_hits + stats.cache_misses + stats.coalesced;
  // Store counters are per-generation: a swap starts a fresh store for
  // changed experts (adopted masters keep their bytes, not their
  // counters). serve_stats() reports the CURRENT generation's store.
  const ExpertStoreStats store = gen->pool.expert_store()->stats();
  stats.expert_hits = store.expert_hits;
  stats.expert_misses = store.expert_misses;
  stats.shared_bytes_saved = store.shared_bytes_saved;
  stats.experts_referenced = store.experts_referenced;
  stats.referenced_expert_bytes = store.referenced_bytes;
  stats.experts_poisoned = store.experts_poisoned;
  stats.experts_degraded = store.experts_degraded;
  stats.experts_nonresident = store.experts_nonresident;
  stats.trunk_bytes = HeldStateBytes(*gen->pool.library());
  stats.assembly_retries = assembly_retries_.load(std::memory_order_relaxed);
  stats.degraded_queries = degraded_queries_.load(std::memory_order_relaxed);
  stats.generation = gen->id;
  stats.generations_swapped = versioned_.generations_swapped();
  stats.stale_generation_queries =
      stale_generation_queries_.load(std::memory_order_relaxed);
  stats.p50_ms = latency_.Percentile(0.50);
  stats.p95_ms = latency_.Percentile(0.95);
  stats.p99_ms = latency_.Percentile(0.99);
  stats.max_ms = latency_.max_ms();
  stats.avg_ms = latency_.avg_ms();
  stats.qps = qps_.Rate();
  stats.precision = gen->pool.serving_precision();
  stats.pool_bytes = gen->pool.ServingBytes();
  return stats;
}

}  // namespace poe
