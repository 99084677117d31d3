// Model specialization methods: Scratch, Transfer, standard KD, and CKD
// (the paper's conditional knowledge distillation, Section 4.1).
#ifndef POE_DISTILL_SPECIALIZE_H_
#define POE_DISTILL_SPECIALIZE_H_

#include <vector>

#include "data/dataset.h"
#include "distill/trainer.h"
#include "eval/metrics.h"
#include "nn/module.h"
#include "nn/sequential.h"

namespace poe {

/// CKD loss composition, Eq. (2): L_CKD = L_soft + alpha * L_scale.
/// The use_* flags implement the Table 5 ablation; with use_soft == false
/// the scale term is used unweighted (it is then the whole loss).
struct CkdOptions {
  float alpha = 0.3f;  ///< paper fixes alpha = 0.3
  bool use_soft = true;
  bool use_scale = true;
};

/// Trains `model` from scratch with cross-entropy on a task-specific
/// dataset (labels must be local indices).
TrainResult TrainScratch(Module& model, const Dataset& train_local,
                         const TrainOptions& options,
                         const EvalFn& evaluator = nullptr);

/// Standard KD, Eq. (1): distills the teacher's full softened logits into
/// `student` over the whole training set. Teacher logits are precomputed
/// once (the teacher is fixed). Student output width must equal the
/// teacher's.
TrainResult TrainStandardKd(const LogitFn& teacher, Module& student,
                            const Dataset& full_train,
                            const TrainOptions& options,
                            const EvalFn& evaluator = nullptr);

/// Standard KD against precomputed teacher logits [N, |C|], rows aligned
/// with `full_train` (what the LogitFn overload computes first).
TrainResult TrainStandardKd(const Tensor& teacher_logits, Module& student,
                            const Dataset& full_train,
                            const TrainOptions& options,
                            const EvalFn& evaluator = nullptr);

/// Transfer baseline: freezes `library` (conv1..conv3) and trains only the
/// expert head with cross-entropy on the task-specific dataset. Library
/// features are precomputed once in eval mode.
TrainResult TrainTransfer(Sequential& library, Sequential& head,
                          const Dataset& task_train_local,
                          const TrainOptions& options,
                          const EvalFn& evaluator = nullptr);

/// Conditional knowledge distillation (ours): distills the oracle's
/// *sub-logits* over `task_classes` into an expert head on top of the
/// frozen library, using ALL training data (in- and out-of-distribution),
/// with the optional L1 scale regularizer (Eq. 3-4).
TrainResult TrainCkdExpert(const LogitFn& oracle, Sequential& library,
                           Sequential& head, const Dataset& full_train,
                           const std::vector<int>& task_classes,
                           const TrainOptions& options,
                           const CkdOptions& ckd,
                           const EvalFn& evaluator = nullptr);

/// Teacher-side tables shared by all experts of one preprocessing run:
/// both the oracle and the library are fixed, so their outputs over the
/// training set are computed once and reused per expert.
struct CkdTables {
  Tensor oracle_logits;     ///< [N, |C|]
  Tensor library_features;  ///< [N, C3, h, w]
};

/// Builds the shared tables for `full_train`.
CkdTables PrecomputeCkdTables(const LogitFn& oracle, Sequential& library,
                              const Dataset& full_train);

/// Same, adopting oracle logits already computed over `full_train` (the
/// ones library KD used), so the oracle runs over the set only once.
CkdTables PrecomputeCkdTables(Tensor oracle_logits, Sequential& library,
                              const Dataset& full_train);

/// CKD against precomputed tables (rows aligned with `full_train`).
TrainResult TrainCkdExpertWithTables(const CkdTables& tables,
                                     Sequential& head,
                                     const Dataset& full_train,
                                     const std::vector<int>& task_classes,
                                     const TrainOptions& options,
                                     const CkdOptions& ckd,
                                     const EvalFn& evaluator = nullptr);

}  // namespace poe

#endif  // POE_DISTILL_SPECIALIZE_H_
