#include "core/expert_pool.h"

#include <algorithm>
#include <unordered_set>

#include "core/serialization.h"
#include "distill/precompute.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace poe {

ExpertPool::ExpertPool(WrnConfig library_config, double expert_ks,
                       ClassHierarchy hierarchy,
                       std::shared_ptr<Sequential> library,
                       std::vector<std::shared_ptr<Sequential>> experts)
    : library_config_(library_config),
      expert_ks_(expert_ks),
      hierarchy_(std::move(hierarchy)),
      library_(std::move(library)),
      store_(std::make_shared<ExpertStore>()) {
  POE_CHECK(library_ != nullptr);
  POE_CHECK_EQ(static_cast<int>(experts.size()), hierarchy_.num_tasks());
  for (int t = 0; t < static_cast<int>(experts.size()); ++t) {
    store_->AddExpert(std::move(experts[t]), hierarchy_.task_classes(t),
                      ExpertConfig(t));
  }
}

ExpertPool::ExpertPool(const ExpertPool& other)
    : library_config_(other.library_config_),
      expert_ks_(other.expert_ks_),
      hierarchy_(other.hierarchy_),
      library_(other.library_),
      store_(other.store_->Clone()),
      precision_(other.precision_),
      retry_policy_(other.retry_policy_) {}

ExpertPool& ExpertPool::operator=(const ExpertPool& other) {
  if (this != &other) *this = ExpertPool(other);  // copy, then move-assign
  return *this;
}

WrnConfig ExpertPool::ExpertConfig(int task_id) const {
  WrnConfig cfg = library_config_;
  cfg.ks = expert_ks_;
  cfg.num_classes =
      static_cast<int>(hierarchy_.task_classes(task_id).size());
  return cfg;
}

void ExpertPool::AdoptUnchangedFrom(const ExpertPool& prev,
                                    const std::vector<int>& unchanged_experts,
                                    bool adopt_library) {
  for (int t : unchanged_experts) {
    POE_CHECK_GE(t, 0);
    POE_CHECK_LT(t, std::min(num_experts(), prev.num_experts()));
    store_->AdoptMaster(t, prev.store_->module(t));
  }
  if (adopt_library) library_ = prev.library_;
}

ExpertPool ExpertPool::Preprocess(const LogitFn& oracle,
                                  const SyntheticDataset& data,
                                  const PoeBuildConfig& config, Rng& rng,
                                  PoeBuildStats* stats) {
  // The library student is a generic model over the oracle's class set;
  // the pool's hierarchy may cover a subset of those classes, but never
  // classes the oracle does not know.
  POE_CHECK_GE(config.library_config.num_classes,
               data.hierarchy.num_classes())
      << "library student must cover at least the hierarchy's classes";

  // The oracle is fixed: its logits over the training set serve both
  // library KD and the CKD tables, so it runs over the set once.
  Stopwatch sw;
  Tensor oracle_logits = BatchedApply(oracle, data.train.images);

  // Phase 1: library extraction by standard KD (Eq. 1). The student is a
  // small generic model; its conv1..conv3 become the shared library.
  Wrn library_student(config.library_config, rng);
  TrainStandardKd(oracle_logits, library_student, data.train,
                  config.library_options);
  const double library_seconds = sw.ElapsedSeconds();
  if (config.verbose) {
    POE_LOG(Info) << "library extraction done in " << library_seconds << "s";
  }

  std::shared_ptr<Sequential> library = library_student.library_part();
  // Freeze the shared component: experts never update it.
  library->SetTrainable(false);

  // Phase 2: expert extraction by CKD, one expert per primitive task.
  // The oracle and the frozen library are shared teachers: compute their
  // tables once for all experts.
  CkdTables tables =
      PrecomputeCkdTables(std::move(oracle_logits), *library, data.train);
  std::vector<std::shared_ptr<Sequential>> experts;
  std::vector<double> per_expert;
  sw.Reset();
  for (int t = 0; t < data.hierarchy.num_tasks(); ++t) {
    Stopwatch expert_sw;
    const std::vector<int>& classes = data.hierarchy.task_classes(t);
    WrnConfig expert_cfg = config.library_config;
    expert_cfg.ks = config.expert_ks;
    expert_cfg.num_classes = static_cast<int>(classes.size());
    auto head = BuildExpertPart(expert_cfg,
                                config.library_config.conv3_channels(), rng);
    TrainCkdExpertWithTables(tables, *head, data.train, classes,
                             config.expert_options, config.ckd);
    per_expert.push_back(expert_sw.ElapsedSeconds());
    if (config.verbose) {
      POE_LOG(Info) << "expert " << t << " extracted in "
                    << per_expert.back() << "s";
    }
    experts.push_back(std::move(head));
  }
  const double experts_seconds = sw.ElapsedSeconds();

  if (stats != nullptr) {
    stats->library_seconds = library_seconds;
    stats->experts_seconds = experts_seconds;
    stats->per_expert_seconds = std::move(per_expert);
  }
  return ExpertPool(config.library_config, config.expert_ks,
                    data.hierarchy, std::move(library), std::move(experts));
}

Result<TaskModel> ExpertPool::Query(const std::vector<int>& task_ids,
                                    const Deadline& deadline,
                                    int64_t* retries) const {
  if (task_ids.empty()) {
    return Status::InvalidArgument("composite task must be non-empty");
  }
  std::unordered_set<int> seen;
  std::vector<ExpertBranchHandle> branches;
  branches.reserve(task_ids.size());
  for (int t : task_ids) {
    if (!seen.insert(t).second) {
      return Status::InvalidArgument("duplicate primitive task id " +
                                     std::to_string(t));
    }
    if (deadline.expired()) {
      return Status::DeadlineExceeded(
          "deadline expired during assembly (expert " + std::to_string(t) +
          " of " + std::to_string(task_ids.size()) + ")");
    }
    // The store validates the id and shares the branch if any other
    // composite already holds it (expert-level dedup). Transient
    // materialization failures retry here, closest to the failing layer;
    // permanent ones (poisoned expert, bad id) surface immediately.
    auto branch = RetryWithBackoff(
        retry_policy_, deadline, [&] { return store_->Acquire(t); }, retries);
    if (!branch.ok()) return branch.status();
    branches.push_back(std::move(branch).ValueOrDie());
  }
  return TaskModel(library_, library_config_, std::move(branches),
                   precision_);
}

Status ExpertPool::SetServingPrecision(ServingPrecision precision) {
  if (precision == precision_) return Status::OK();
  if (precision == ServingPrecision::kFloat32) {
    return Status::FailedPrecondition(
        "int8 serving is irreversible: the f32 weights were released");
  }
  // Degraded mode: a failed library conversion keeps the trunk on f32
  // (composites then run an f32 trunk into int8 — or themselves degraded
  // — heads); the pool-level precision still flips so intent is recorded
  // and a later save/load retries the conversion.
  if (PoeFaultHit("pool.int8.convert.library").ok()) {
    library_->PrepareInt8Serving();
  }
  store_->PrepareInt8Serving();
  precision_ = ServingPrecision::kInt8;
  return Status::OK();
}

Status ExpertPool::CalibrateActivations(const Tensor& samples) {
  if (precision_ != ServingPrecision::kFloat32) {
    return Status::FailedPrecondition(
        "activation calibration observes f32 forwards: calibrate before "
        "the int8 conversion");
  }
  if (samples.ndim() != 4 || samples.dim(0) < 1) {
    return Status::InvalidArgument(
        "calibration samples must be a non-empty [N, C, H, W] batch");
  }
  library_->BeginActivationCalibration();
  for (int t = 0; t < store_->num_experts(); ++t) {
    store_->module(t)->BeginActivationCalibration();
  }
  // One shared trunk pass; every expert head observes the same features
  // (exactly the serving dataflow of an all-expert composite).
  Tensor features = library_->Forward(samples, /*training=*/false);
  for (int t = 0; t < store_->num_experts(); ++t) {
    store_->module(t)->Forward(features, /*training=*/false);
  }
  library_->FinishActivationCalibration();
  for (int t = 0; t < store_->num_experts(); ++t) {
    store_->module(t)->FinishActivationCalibration();
  }
  return Status::OK();
}

void ExpertPool::PrepackForServing() const {
  // Pack the trunk's ACTUAL serving form: under a degraded int8 pool the
  // library may still be f32, and Prepack(kInt8) on an f32 module is an
  // ordering bug by contract.
  library_->Prepack(library_->Int8WeightBytes() > 0
                        ? ServingPrecision::kInt8
                        : ServingPrecision::kFloat32);
}

int64_t ExpertPool::ServingBytes() const {
  return HeldStateBytes(*library_) + store_->MasterBytes();
}

std::shared_ptr<Sequential> ExpertPool::expert(int task_id) const {
  return store_->module(task_id);
}

Status ExpertPool::Save(const std::string& path) const {
  // Both precisions persist: f32 pools save full module state, int8 pools
  // save the per-channel quantized form (+ static activation scales) so
  // Load comes straight up at packed int8 serving with no f32 round-trip.
  return SaveExpertPool(*this, path);
}

Result<ExpertPool> ExpertPool::Load(const std::string& path) {
  return LoadExpertPool(path);
}

}  // namespace poe
