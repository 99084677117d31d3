// ExpertPool: the preprocessing-phase product of PoE and the query engine
// of the service phase.
#ifndef POE_CORE_EXPERT_POOL_H_
#define POE_CORE_EXPERT_POOL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/expert_store.h"
#include "core/task_model.h"
#include "data/hierarchy.h"
#include "data/synthetic.h"
#include "distill/specialize.h"
#include "distill/trainer.h"
#include "eval/metrics.h"
#include "models/wrn.h"
#include "util/result.h"
#include "util/retry.h"

namespace poe {

/// Preprocessing-phase configuration.
struct PoeBuildConfig {
  /// Architecture of the library *student* model distilled from oracle
  /// with standard KD; num_classes must equal the oracle's class count.
  WrnConfig library_config;
  /// conv4 widening factor of each expert (paper: 0.25).
  double expert_ks = 0.25;
  /// Standard-KD options for the library student.
  TrainOptions library_options;
  /// CKD options for expert extraction.
  TrainOptions expert_options;
  CkdOptions ckd;
  bool verbose = false;
};

/// Timing/diagnostic record of a preprocessing run.
struct PoeBuildStats {
  double library_seconds = 0.0;
  double experts_seconds = 0.0;
  std::vector<double> per_expert_seconds;
};

/// A pool of composable experts plus the shared library component
/// (Figure 1a). Built once from an oracle; then Query() synthesizes a
/// task-specific model for any composite task in realtime with no
/// training (Figure 1b).
class ExpertPool {
 public:
  /// Runs the full preprocessing phase:
  ///  1. library extraction - standard KD from `oracle` into a small
  ///     generic student, keeping conv1..conv3 as the library;
  ///  2. expert extraction - per primitive task, CKD of the oracle's
  ///     sub-logits into a tiny conv4 head on the frozen library.
  static ExpertPool Preprocess(const LogitFn& oracle,
                               const SyntheticDataset& data,
                               const PoeBuildConfig& config, Rng& rng,
                               PoeBuildStats* stats = nullptr);

  /// Assembles the pieces directly (used by Load and tests).
  ExpertPool(WrnConfig library_config, double expert_ks,
             ClassHierarchy hierarchy,
             std::shared_ptr<Sequential> library,
             std::vector<std::shared_ptr<Sequential>> experts);

  /// Copies share the master modules (weights are never duplicated) but
  /// get their OWN expert store, so sharing accounting is per copy. Moves
  /// keep the store.
  ExpertPool(const ExpertPool& other);
  ExpertPool& operator=(const ExpertPool& other);
  ExpertPool(ExpertPool&&) = default;
  ExpertPool& operator=(ExpertPool&&) = default;

  /// Service phase: builds M(Q) for composite task Q = given primitive
  /// task ids. Train-free; the returned model aliases pool weights (and
  /// inherits the pool's serving precision). Fails on empty, duplicate,
  /// or out-of-range ids.
  ///
  /// Transient branch-acquisition failures (kIoError/kUnavailable/
  /// kResourceExhausted) are retried per expert with exponential backoff
  /// under `retry_policy()` — the system's one retry layer; permanent
  /// errors (kCorruption from a poisoned expert, bad ids) fail
  /// immediately. The deadline bounds the whole assembly — each expert's
  /// retry loop gets the remaining budget, and an expired deadline yields
  /// kDeadlineExceeded without acquiring further branches. `retries`,
  /// when non-null, is incremented once per backoff taken (feeds
  /// ServeStats::assembly_retries).
  Result<TaskModel> Query(const std::vector<int>& task_ids,
                          const Deadline& deadline = Deadline(),
                          int64_t* retries = nullptr) const;

  /// Switches the pool (library + every expert) to the given serving
  /// precision. kInt8 converts Conv2d/Linear weights to packed int8 with
  /// per-output-channel scales and releases their f32 storage, so every
  /// subsequently assembled model serves dequant-free; the conversion is
  /// irreversible (going back to kFloat32 fails) and the pool can no
  /// longer be trained. Save still works: int8 pools persist
  /// their quantized form directly.
  Status SetServingPrecision(ServingPrecision precision);
  ServingPrecision serving_precision() const { return precision_; }

  /// Static activation calibration: runs `samples` (an [N, C, H, W] batch
  /// drawn from the serving distribution) through the library and every
  /// expert head with activation observation on, then freezes the
  /// observed per-layer max-abs ranges into static activation scales.
  /// A subsequent int8 conversion then serves without the per-forward
  /// max-abs pass, and Save persists the scales so loaded int8 pools come
  /// up calibrated. Must run while the pool still serves f32.
  Status CalibrateActivations(const Tensor& samples);

  /// Pack-once serving, library half: materializes the library trunk's
  /// persistent GEMM weight panels for the current precision (experts are
  /// prepacked lazily by the store at branch acquisition). Idempotent;
  /// called by the serving layer (ModelQueryService) at construction.
  void PrepackForServing() const;

  /// Bytes of weight state the pool holds: f32 parameters/buffers plus
  /// packed int8 weights (the memory-footprint half of the paper's
  /// realtime-serving story; reported by ServeStats::pool_bytes).
  int64_t ServingBytes() const;

  const ClassHierarchy& hierarchy() const { return hierarchy_; }
  const WrnConfig& library_config() const { return library_config_; }
  double expert_ks() const { return expert_ks_; }
  int num_experts() const { return store_->num_experts(); }
  const std::shared_ptr<Sequential>& library() const { return library_; }
  /// Master module of expert `task_id` (owned by the expert store).
  std::shared_ptr<Sequential> expert(int task_id) const;

  /// The expert-granularity sharing layer: Query() acquires branch handles
  /// from here, so overlapping composites of THIS pool (and models it
  /// already handed out) alias the same ExpertBranch objects. Each pool
  /// copy owns its own store — the masters underneath are shared.
  const std::shared_ptr<ExpertStore>& expert_store() const { return store_; }

  /// Architecture of expert `task_id` (WRN conv4 group + head).
  WrnConfig ExpertConfig(int task_id) const;

  /// Persistence (versioned binary format, checksummed).
  Status Save(const std::string& path) const;
  static Result<ExpertPool> Load(const std::string& path);

  /// Adopts master modules from `prev` for the listed experts (and the
  /// library trunk when `adopt_library`). VersionedPool calls this before
  /// publishing a new generation, for exactly the experts whose content
  /// CRC did NOT change across the upgrade: unchanged weights are then
  /// shared by pointer across generations (no byte duplication, prepacked
  /// panels stay warm) and the trunk keeps its pointer identity, which is
  /// what lets the serving layer's trunk fusion keep batching across a
  /// swap. Must run before this pool serves anything.
  void AdoptUnchangedFrom(const ExpertPool& prev,
                          const std::vector<int>& unchanged_experts,
                          bool adopt_library);

  /// Retry bounds for transient branch-acquisition failures inside the
  /// deadline-aware Query. Tests tighten this to make fault schedules
  /// deterministic; copies inherit it.
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

 private:
  WrnConfig library_config_;
  double expert_ks_ = 0.25;
  ClassHierarchy hierarchy_;
  std::shared_ptr<Sequential> library_;
  std::shared_ptr<ExpertStore> store_;
  ServingPrecision precision_ = ServingPrecision::kFloat32;
  RetryPolicy retry_policy_;
};

}  // namespace poe

#endif  // POE_CORE_EXPERT_POOL_H_
