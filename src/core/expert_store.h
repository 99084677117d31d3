// ExpertStore: expert-granularity sharing for the serving stack.
//
// The paper's economics come from composing task models out of a shared
// expert library, so serving state must scale with *distinct experts*,
// not with the number of composites that reference them. The store owns
// the master expert modules (moved here from ExpertPool) and hands out
// refcounted, immutable ExpertBranch handles: assembling {1,2,3} after
// {1,2} materializes only expert 3's branch — experts 1 and 2 are the
// SAME objects, by pointer identity, in both composites.
//
// Lifecycle: a branch stays materialized exactly while some TaskModel
// (cached or client-held) references it — the store keeps only a weak
// reference, so evicting one composite can never free an expert another
// composite still uses, and dropping the last composite releases the
// branch without touching the master weights. Branch wiring and counters
// run under the store mutex (cheap: pointers plus a byte count);
// materialization additionally triggers the pack-once step
// (Module::Prepack) that builds the persistent GEMM weight panels every
// forward of every composite sharing this expert then consumes — that
// pack is O(weight bytes) and runs OUTSIDE the store mutex, so acquires
// of other experts never stall behind it. Deduped composites share
// packed bytes by pointer identity, and concurrent acquires of one
// expert trivially coalesce onto a single branch (the single-flight
// property at expert granularity; forwards fall back to per-call packing
// until the panels land). Prepack itself is idempotent, mutex-guarded
// per layer, and publish-safe, so pool copies (which share master
// modules under distinct store mutexes) cannot corrupt each other.
#ifndef POE_CORE_EXPERT_STORE_H_
#define POE_CORE_EXPERT_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "models/wrn.h"
#include "nn/sequential.h"
#include "util/result.h"

namespace poe {

/// One immutable expert branch: the serving form a TaskModel holds. The
/// head aliases the store's master module (f32 or packed int8 — whatever
/// the pool currently serves), so a branch never duplicates weights.
struct ExpertBranch {
  std::shared_ptr<Sequential> head;
  std::vector<int> classes;  ///< global class ids this expert predicts
  WrnConfig config;          ///< architecture (for cost reporting)
  int task_id = -1;          ///< slot in the owning store; -1 = ad-hoc
  /// The precision this branch ACTUALLY serves, fixed at materialization.
  /// Under an int8 pool this is normally kInt8, but an expert whose
  /// conversion failed keeps serving f32 (degraded mode) — composites and
  /// responses report that honestly instead of failing the query.
  ServingPrecision precision = ServingPrecision::kFloat32;
};

/// Refcounted handle composites hold; the refcount IS the residency
/// signal (see ExpertStore lifecycle above).
using ExpertBranchHandle = std::shared_ptr<const ExpertBranch>;

/// Counters of the expert-sharing layer. Reconcile by construction:
///   expert_hits + expert_misses == total Acquire() calls that succeeded
/// and shared_bytes_saved is exactly the sum of the hit experts' bytes —
/// the weight state an isolated-assembly design (one private copy per
/// composite) would have materialized anew.
struct ExpertStoreStats {
  int64_t expert_hits = 0;    ///< acquire reused an already-live branch
  int64_t expert_misses = 0;  ///< acquire materialized the branch
  int64_t shared_bytes_saved = 0;
  int64_t experts_referenced = 0;  ///< branches live right now
  int64_t referenced_bytes = 0;    ///< bytes of those live branches
  /// Slots whose materialization hit permanent corruption: acquires of
  /// THESE experts fail fast with kUnavailable; every other expert keeps
  /// serving (blast-radius isolation).
  int64_t experts_poisoned = 0;
  /// Slots still serving f32 under an int8 store (failed conversion).
  int64_t experts_degraded = 0;
  /// Slots with no resident master module (cluster residency shedding):
  /// acquiring one goes through the remote materializer. A successful
  /// remote fetch installs the master, so the slot leaves this count —
  /// fetched experts are cached, not re-fetched per query.
  int64_t experts_nonresident = 0;
};

class ExpertStore {
 public:
  /// Produces the master module of a non-resident expert (cluster serving:
  /// fetch it from the peer that owns it). Called OUTSIDE the store mutex.
  /// Transient failures (kUnavailable/kIoError/kResourceExhausted) bubble
  /// to the pool's per-expert retry loop; kCorruption poisons the slot
  /// like any other materialization corruption.
  using RemoteMaterializer =
      std::function<Result<std::shared_ptr<Sequential>>(int task_id)>;

  ExpertStore() = default;
  ExpertStore(const ExpertStore&) = delete;
  ExpertStore& operator=(const ExpertStore&) = delete;

  /// Appends a master expert module; returns its task id (slot index).
  int AddExpert(std::shared_ptr<Sequential> module, std::vector<int> classes,
                WrnConfig config);

  /// Replaces the master module of `task_id` with `module`, keeping the
  /// slot's classes/config. VersionedPool uses this before publishing a
  /// new generation: an expert whose content CRC is unchanged adopts the
  /// OLD generation's master, so its bytes (and already-built prepacked
  /// panels) are shared across generations instead of duplicated, and
  /// pointer-identity dedup keeps working across the swap. Only legal
  /// while the slot has no live branch (the pre-publish pool has served
  /// nothing yet).
  void AdoptMaster(int task_id, std::shared_ptr<Sequential> module);

  /// A store over the SAME master modules but with fresh sharing state:
  /// no live branches, zeroed counters. ExpertPool's copy constructor
  /// uses this so each pool copy (each service) gets independent
  /// accounting.
  std::unique_ptr<ExpertStore> Clone() const;

  /// Returns the (shared) branch for `task_id`, materializing it if no
  /// composite currently references it. OutOfRange on unknown ids;
  /// kUnavailable (fast, no work) for a poisoned slot. A materialization
  /// failure (fault site "store.materialize") is returned to the caller:
  /// transient codes (kIoError/kUnavailable/kResourceExhausted) are
  /// retried at the pool level, kCorruption permanently poisons THIS slot
  /// only — acquires of other experts are unaffected.
  Result<ExpertBranchHandle> Acquire(int task_id);

  /// Switches every master module to dequant-free int8 serving and
  /// refreshes the per-expert byte accounting. Live branches keep working
  /// (their heads alias the converted modules); like the pool-level
  /// conversion this is irreversible. Subsequent Acquire() materializations
  /// prepack the int8 form instead of the f32 one.
  ///
  /// Degraded mode: a conversion failure (fault site "store.int8.convert")
  /// leaves that expert serving f32 — mixed-precision composites work
  /// because inter-module tensors are f32 either way. Degraded slots are
  /// reported via stats().experts_degraded, and each branch carries its
  /// actual precision.
  void PrepareInt8Serving();

  /// Releases the master module of `task_id` (cluster residency shedding:
  /// a node keeps resident only the experts placement assigns it). Only
  /// legal while the slot has no live branch. The slot keeps its classes
  /// and config — fetch replies and placement still need them — and a
  /// later Acquire materializes through the remote materializer, whose
  /// fetched module is installed back into the slot (cached residency).
  /// FailedPrecondition when a composite still references the branch.
  Status ReleaseMaster(int task_id);

  /// Installs the hook Acquire uses for slots with no resident master.
  /// Clones share it (a pool copy made after shedding must still be able
  /// to materialize).
  void SetRemoteMaterializer(RemoteMaterializer fn);

  /// True when the slot holds its master module locally.
  bool resident(int task_id) const;

  /// Precision newly materialized branches are prepacked for.
  ServingPrecision serving_precision() const;

  int num_experts() const;
  /// By value: the slot set is fixed once the pool is built, but
  /// ReleaseMaster, AdoptMaster and a remote fetch replace slot.module
  /// after the lock is released.
  std::shared_ptr<Sequential> module(int task_id) const;
  std::vector<int> classes(int task_id) const;

  /// Bytes of master weight state held (every expert, referenced or not) —
  /// the pool side of ExpertPool::ServingBytes().
  int64_t MasterBytes() const;

  /// Bytes of experts referenced by at least one live composite. With the
  /// model-level view this is the honest footprint denominator: it scales
  /// with distinct experts, never with composites.
  int64_t ReferencedBytes() const;

  ExpertStoreStats stats() const;

 private:
  struct Slot {
    std::shared_ptr<Sequential> module;  ///< null = non-resident (remote)
    std::vector<int> classes;
    WrnConfig config;
    std::weak_ptr<const ExpertBranch> live;  ///< current branch, if any
    int64_t bytes = 0;  ///< HeldStateBytes at last (re)materialization
    bool poisoned = false;      ///< permanent materialization corruption
    std::string poison_reason;  ///< first corruption message, for errors
  };

  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  RemoteMaterializer remote_;  ///< null until SetRemoteMaterializer
  ServingPrecision precision_ = ServingPrecision::kFloat32;
  int64_t expert_hits_ = 0;
  int64_t expert_misses_ = 0;
  int64_t shared_bytes_saved_ = 0;
};

}  // namespace poe

#endif  // POE_CORE_EXPERT_STORE_H_
