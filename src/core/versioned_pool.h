// VersionedPool: immutable, refcounted pool generations with atomic swap —
// the zero-downtime mutation layer of the serving stack.
//
// Production pools change under traffic: experts get retrained,
// re-quantized, added, retired. A generation is an immutable snapshot of
// the whole expert library (ExpertStore + trunk + calibration state,
// i.e. one ExpertPool) tagged with a monotonically increasing id.
// Swap() publishes a new generation atomically: queries that already
// pinned the old generation finish on it — its refcounted ExpertBranch
// handles keep every module they need alive — and the old generation's
// memory is released when the last reference drops, which the existing
// refcount machinery guarantees without any new lifetime code.
//
// The swap DIFFS the generations by content, not by identity: each
// expert's fingerprint is the CRC32C of its v3 serialization section (the
// exact bytes SaveExpertPool would checksum — weights, precision,
// activation scales) extended with its class list. Experts whose
// fingerprint is unchanged ADOPT the old generation's master module
// before publish, so unchanged weights are shared by pointer across
// generations (no duplication, prepacked GEMM panels stay warm) and the
// trunk keeps pointer identity when the library is unchanged — serving-
// layer trunk fusion keeps batching straight across a swap.
//
// The diff also drives flight-cache invalidation upstream
// (ModelQueryService): only composite keys naming a changed expert are
// dropped; unchanged composites keep hitting. The rule is the per-expert
// change table `last_changed` — see GenerationCoversKey.
#ifndef POE_CORE_VERSIONED_POOL_H_
#define POE_CORE_VERSIONED_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/expert_pool.h"
#include "util/result.h"

namespace poe {

/// One immutable pool snapshot. Handles (shared_ptr<const PoolGeneration>)
/// pin the whole snapshot: the pool, its store, and its masters stay alive
/// until the last handle AND the last ExpertBranch released. Mutating the
/// pool through a handle is a contract violation (hence const).
struct PoolGeneration {
  /// 1 for the initial pool; +1 per successful Swap (no-ops included).
  uint64_t id = 0;
  ExpertPool pool;
  /// Content fingerprints backing the generation diff: CRC32C over each
  /// module's v3 serialization section (+ class list for experts), so a
  /// weight, precision, or activation-scale change all register.
  uint32_t library_crc = 0;
  std::vector<uint32_t> expert_crcs;
  /// last_changed[t] = generation id in which expert t's content last
  /// changed (== this generation's id for changed/added experts, carried
  /// forward for unchanged ones). The cache-invalidation rule in one
  /// line: a model assembled at generation g still serves key K iff every
  /// t in K exists here with last_changed[t] <= g.
  std::vector<uint64_t> last_changed;

  PoolGeneration(uint64_t id_in, ExpertPool pool_in)
      : id(id_in), pool(std::move(pool_in)) {}
};

using PoolGenerationHandle = std::shared_ptr<const PoolGeneration>;

/// What a Swap found when diffing old against new — returned to callers
/// (poectl prints it) and the basis for selective cache invalidation.
struct GenerationDiff {
  uint64_t from = 0;
  uint64_t to = 0;
  std::vector<int> changed;  ///< ids present in both, content differs
  std::vector<int> added;    ///< ids new in `to`
  std::vector<int> removed;  ///< ids dropped in `to`
  int unchanged = 0;         ///< ids present in both, content identical
  bool library_changed = false;

  /// True when nothing changed content-wise (the generation id still
  /// advanced — a no-op upgrade is published, it just invalidates nothing
  /// and serves bitwise-identical results).
  bool noop() const {
    return changed.empty() && added.empty() && removed.empty() &&
           !library_changed;
  }
  std::string ToString() const;
};

/// True when a model assembled at generation `model_generation` still
/// names the same expert content, for every id of (canonical) `key`, in
/// generation `gen`. Unversioned models (generation 0) never validate.
bool GenerationCoversKey(const PoolGeneration& gen,
                         const std::vector<int>& key,
                         uint64_t model_generation);

/// The facade: holds the current generation, swaps in new ones. Reads
/// (Current) are a mutex-protected shared_ptr copy — cheap and wait-free
/// in practice; Swaps serialize against each other. All methods are
/// thread-safe.
class VersionedPool {
 public:
  /// Wraps `initial` as generation 1. Fingerprinting a healthy pool
  /// cannot fail; a pool whose modules refuse to serialize is unusable
  /// and CHECK-fails here rather than serving undiffable generations.
  explicit VersionedPool(ExpertPool initial);

  /// The serving generation now. Callers that need a consistent view
  /// across several operations (assemble, stamp, account) pin ONE handle
  /// and use it throughout; a concurrent Swap never mutates a published
  /// generation.
  PoolGenerationHandle Current() const;

  /// Atomically publishes `next` as the new current generation.
  ///
  /// Precision policy: serving precision is an invariant of the facade.
  /// An f32 `next` arriving while the current generation serves int8 is
  /// converted with ExpertPool::SetServingPrecision; an int8 `next`
  /// arriving while current serves f32 is rejected with
  /// FailedPrecondition (int8 conversion is irreversible, so the facade
  /// cannot go back — and transports pin the precision at startup).
  ///
  /// Unchanged experts (and an unchanged library) adopt the old
  /// generation's master modules before publish; the new pool is
  /// prepacked before it becomes visible. In-flight queries pinned to the
  /// old generation are untouched. Returns the content diff.
  Result<GenerationDiff> Swap(ExpertPool next);

  /// Id of the current generation (== 1 + generations_swapped()).
  uint64_t generation() const;

  /// Successful Swap() calls so far.
  int64_t generations_swapped() const {
    return swapped_.load(std::memory_order_relaxed);
  }

 private:
  struct Fingerprint {
    uint32_t library_crc = 0;
    std::vector<uint32_t> expert_crcs;
  };
  static Result<Fingerprint> FingerprintPool(const ExpertPool& pool);

  mutable std::mutex mu_;  ///< guards current_ (brief pointer reads/writes)
  std::mutex swap_mu_;     ///< serializes whole Swap calls
  PoolGenerationHandle current_;
  std::atomic<int64_t> swapped_{0};
};

}  // namespace poe

#endif  // POE_CORE_VERSIONED_POOL_H_
