// ServeStats: the extended metrics surface of the serving runtime.
// Populated by ModelQueryService (cache + latency half) and by
// InferenceServer (adds the queue/batching half on top).
#ifndef POE_SERVE_METRICS_H_
#define POE_SERVE_METRICS_H_

#include <cstdint>
#include <vector>

#include "core/task_model.h"

namespace poe {

/// Per-shard cache counters (hit rate per shard is the load-balance
/// diagnostic: a hot shard shows up as one row with all the traffic).
struct CacheShardStats {
  int64_t hits = 0;
  int64_t misses = 0;     ///< assemblies this shard led
  int64_t coalesced = 0;  ///< misses that waited on another thread's assembly
  int64_t evictions = 0;
  /// Entries dropped because their value no longer validates (stale pool
  /// generation): the swap-time sweep plus any stale hit caught by the
  /// validate hook. Disjoint from `evictions` (capacity pressure).
  int64_t invalidated = 0;
  int64_t size = 0;       ///< resident entries now
  /// Σ value_bytes over resident entries — the bytes this shard's
  /// composites would occupy if each were a private copy. The expert
  /// store's referenced bytes are the deduplicated truth; the difference
  /// is the sharing saving.
  int64_t resident_bytes = 0;

  int64_t lookups() const { return hits + misses + coalesced; }
  double hit_rate() const {
    const int64_t n = lookups();
    return n > 0 ? static_cast<double>(hits) / static_cast<double>(n) : 0.0;
  }
};

/// Aggregate serving metrics. Counter identity (enforced by tests):
///   queries == cache_hits + cache_misses + coalesced
/// and for a drained server:
///   submitted == completed + rejected + deadline_expired
/// (+ queue_depth on a live one; requests inside an in-flight batch are
/// in none of the buckets until their futures resolve, so the live
/// identity can lag by up to num_workers * max_batch_rows requests).
/// Every bucket is terminal and disjoint: a request that expired after
/// admission counts ONLY in deadline_expired, never in completed.
struct ServeStats {
  // --- query/cache side (ModelQueryService) ---
  int64_t queries = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;  ///< led an assembly
  int64_t coalesced = 0;     ///< waited on an in-flight assembly of the key
  double p50_ms = 0.0;       ///< end-to-end Query() latency percentiles
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double avg_ms = 0.0;
  double qps = 0.0;  ///< trailing-window query rate
  std::vector<CacheShardStats> shards;
  ServingPrecision precision = ServingPrecision::kFloat32;
  int64_t pool_bytes = 0;

  // --- pool-generation side (VersionedPool; reconcile by construction:
  //     generation == 1 + generations_swapped, and cache_keys_invalidated
  //     == Σ shards[i].invalidated — both sides of each identity are
  //     derived from the same underlying state, never counted twice) ---
  /// Generation currently serving (the first pool is generation 1;
  /// 0 only on a stats() default object).
  uint64_t generation = 0;
  /// Successful VersionedPool::Swap calls (no-op upgrades included: they
  /// still publish a new generation id).
  int64_t generations_swapped = 0;
  /// Cache entries dropped across all swaps because their expert set
  /// changed between generations — the swap-time sweep plus stale hits
  /// caught by the validate hook. Unchanged composites are NOT in here;
  /// they keep hitting across swaps.
  int64_t cache_keys_invalidated = 0;
  /// Requests that pinned a generation other than the one that served
  /// them (telemetry, not an error: serving always answers from the
  /// current generation and the response reports which one).
  int64_t stale_generation_queries = 0;

  // --- expert-granularity sharing (ExpertStore; see its stats struct) ---
  int64_t expert_hits = 0;    ///< branch acquires served by a live branch
  int64_t expert_misses = 0;  ///< branch materializations
  /// Cumulative bytes that per-composite weight copies would have
  /// materialized but sharing did not (Σ expert bytes over all hits).
  int64_t shared_bytes_saved = 0;
  int64_t experts_referenced = 0;       ///< distinct experts live now
  int64_t referenced_expert_bytes = 0;  ///< their deduplicated bytes
  int64_t trunk_bytes = 0;              ///< shared library component bytes
  /// Experts whose materialization hit permanent corruption (acquires of
  /// them fail fast with kUnavailable; other experts are unaffected).
  int64_t experts_poisoned = 0;
  /// Experts still serving f32 under an int8 pool (failed conversion).
  int64_t experts_degraded = 0;
  /// Σ StateBytes over cache-resident models: what model-granularity
  /// accounting would charge. Compare against
  /// trunk_bytes + referenced_expert_bytes (the deduplicated footprint).
  int64_t resident_model_bytes = 0;

  // --- request-queue side (InferenceServer; zero on a bare service) ---
  int64_t submitted = 0;
  /// Refused at submission without processing: queue full (backpressure),
  /// malformed input, or server shut down.
  int64_t rejected = 0;
  int64_t completed = 0;
  int64_t batches = 0;            ///< trunk forward passes executed
  int64_t batched_requests = 0;   ///< requests served by those passes
  int64_t queue_depth = 0;        ///< pending now
  /// Cross-model trunk reuse: trunk passes that served ≥ 2 distinct
  /// models, and the rows those passes served.
  int64_t trunk_fused_batches = 0;
  int64_t trunk_fused_rows = 0;

  // --- robustness side ---
  /// Admitted requests shed because their deadline passed before (or
  /// while) a batch would have run them. The forward pass is never spent
  /// on an expired request.
  int64_t deadline_expired = 0;
  /// Backoff retries taken inside task-model assembly (the pool's
  /// per-expert transient-failure retries).
  int64_t assembly_retries = 0;
  /// Queries answered by a model with at least one degraded (f32-under-
  /// int8) branch or a degraded trunk.
  int64_t degraded_queries = 0;

  // --- cluster side (ClusterNode; all zero on a single-node server).
  //     Identities, enforced by the cluster tests:
  //       remote_fetch_requests == remote_fetch_ok + remote_fetch_failed
  //     (every fetch attempt terminates in exactly one bucket) and
  //       remote_fetch_replica <= remote_fetch_ok. ---
  /// Membership epoch of this node's view (1 at cluster start; every
  /// accepted transition/merge that changes the view advances it).
  uint64_t cluster_epoch = 0;
  /// Experts this node keeps non-resident (owned by peers).
  int64_t experts_nonresident = 0;
  /// Remote materialization attempts (one per Acquire that found no
  /// resident master; the pool's per-expert retry re-enters here).
  int64_t remote_fetch_requests = 0;
  /// Fetches that produced a module — from any owner.
  int64_t remote_fetch_ok = 0;
  /// Subset of remote_fetch_ok answered by a non-primary owner (the
  /// primary was down or refused).
  int64_t remote_fetch_replica = 0;
  /// Fetches that exhausted every owner; the acquire fails kUnavailable
  /// and the query serves degraded or errors within the whitelist.
  int64_t remote_fetch_failed = 0;
  /// Fetch-expert RPCs this node answered with a module.
  int64_t peer_fetches_served = 0;
  /// Membership views adopted from peers (strictly newer epoch, or the
  /// deterministic equal-epoch tie-break).
  int64_t gossip_merges = 0;
  /// Pings this node sent / pings that failed (feeds failure detection).
  int64_t pings_sent = 0;
  int64_t ping_failures = 0;

  /// Average requests per fused forward pass (row counts per pass are
  /// reported per-response as InferenceResponse::batch_rows).
  double avg_batch() const {
    return batches > 0 ? static_cast<double>(batched_requests) /
                             static_cast<double>(batches)
                       : 0.0;
  }
  double overall_hit_rate() const {
    return queries > 0
               ? static_cast<double>(cache_hits) / static_cast<double>(queries)
               : 0.0;
  }
  /// Bytes the resident composites would occupy as private copies minus
  /// the deduplicated footprint they actually share. Can dip below the
  /// naive difference when clients hold evicted models (their experts
  /// stay referenced without a resident composite charging for them).
  int64_t resident_dedup_saved_bytes() const {
    const int64_t deduped = trunk_bytes + referenced_expert_bytes;
    return resident_model_bytes > deduped ? resident_model_bytes - deduped
                                          : 0;
  }
};

}  // namespace poe

#endif  // POE_SERVE_METRICS_H_
