#include "distill/specialize.h"

#include <utility>

#include "distill/precompute.h"
#include "nn/losses.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace poe {

TrainResult TrainScratch(Module& model, const Dataset& train_local,
                         const TrainOptions& options,
                         const EvalFn& evaluator) {
  Sgd sgd(model.Parameters(), options.sgd());
  auto step = [&](const Batch& batch) {
    sgd.ZeroGrad();
    Tensor logits = model.Forward(batch.images, /*training=*/true);
    LossResult ce = SoftmaxCrossEntropy(logits, batch.labels);
    model.Backward(ce.grad);
    sgd.Step();
    return ce.loss;
  };
  return RunTrainingLoop(train_local, options, &sgd, step, evaluator);
}

TrainResult TrainStandardKd(const LogitFn& teacher, Module& student,
                            const Dataset& full_train,
                            const TrainOptions& options,
                            const EvalFn& evaluator) {
  // The teacher is fixed: compute its logits for every sample once.
  return TrainStandardKd(BatchedApply(teacher, full_train.images), student,
                         full_train, options, evaluator);
}

TrainResult TrainStandardKd(const Tensor& teacher_logits, Module& student,
                            const Dataset& full_train,
                            const TrainOptions& options,
                            const EvalFn& evaluator) {
  POE_CHECK_EQ(teacher_logits.ndim(), 2);
  POE_CHECK_EQ(teacher_logits.dim(0), full_train.size());

  Sgd sgd(student.Parameters(), options.sgd());
  auto step = [&](const Batch& batch) {
    sgd.ZeroGrad();
    Tensor t = GatherRows(teacher_logits, batch.indices);
    Tensor s = student.Forward(batch.images, /*training=*/true);
    LossResult kl = DistillationKl(t, s, options.temperature);
    student.Backward(kl.grad);
    sgd.Step();
    return kl.loss;
  };
  return RunTrainingLoop(full_train, options, &sgd, step, evaluator);
}

TrainResult TrainTransfer(Sequential& library, Sequential& head,
                          const Dataset& task_train_local,
                          const TrainOptions& options,
                          const EvalFn& evaluator) {
  // The library is frozen: precompute its features once (eval mode so
  // running statistics are untouched, the component stays bit-identical).
  Tensor features = BatchedApply(
      [&](const Tensor& x) { return library.Forward(x, false); },
      task_train_local.images);

  Sgd sgd(head.Parameters(), options.sgd());
  auto step = [&](const Batch& batch) {
    sgd.ZeroGrad();
    Tensor f = GatherRows(features, batch.indices);
    Tensor logits = head.Forward(f, /*training=*/true);
    LossResult ce = SoftmaxCrossEntropy(logits, batch.labels);
    head.Backward(ce.grad);
    sgd.Step();
    return ce.loss;
  };
  return RunTrainingLoop(task_train_local, options, &sgd, step, evaluator);
}

CkdTables PrecomputeCkdTables(const LogitFn& oracle, Sequential& library,
                              const Dataset& full_train) {
  return PrecomputeCkdTables(BatchedApply(oracle, full_train.images), library,
                             full_train);
}

CkdTables PrecomputeCkdTables(Tensor oracle_logits, Sequential& library,
                              const Dataset& full_train) {
  POE_CHECK_EQ(oracle_logits.dim(0), full_train.size());
  CkdTables tables;
  tables.oracle_logits = std::move(oracle_logits);
  tables.library_features = BatchedApply(
      [&](const Tensor& x) { return library.Forward(x, false); },
      full_train.images);
  return tables;
}

TrainResult TrainCkdExpert(const LogitFn& oracle, Sequential& library,
                           Sequential& head, const Dataset& full_train,
                           const std::vector<int>& task_classes,
                           const TrainOptions& options,
                           const CkdOptions& ckd,
                           const EvalFn& evaluator) {
  CkdTables tables = PrecomputeCkdTables(oracle, library, full_train);
  return TrainCkdExpertWithTables(tables, head, full_train, task_classes,
                                  options, ckd, evaluator);
}

TrainResult TrainCkdExpertWithTables(const CkdTables& tables,
                                     Sequential& head,
                                     const Dataset& full_train,
                                     const std::vector<int>& task_classes,
                                     const TrainOptions& options,
                                     const CkdOptions& ckd,
                                     const EvalFn& evaluator) {
  POE_CHECK(ckd.use_soft || ckd.use_scale)
      << "CKD needs at least one loss term";
  // Oracle sub-logits t_{H_i} (Eq. 3), rows aligned with full_train.
  Tensor teacher_sub = GatherColumns(tables.oracle_logits, task_classes);
  const Tensor& features = tables.library_features;
  POE_CHECK_EQ(features.dim(0), full_train.size());

  const float soft_weight = ckd.use_soft ? 1.0f : 0.0f;
  const float scale_weight =
      ckd.use_scale ? (ckd.use_soft ? ckd.alpha : 1.0f) : 0.0f;

  Sgd sgd(head.Parameters(), options.sgd());
  auto step = [&](const Batch& batch) {
    sgd.ZeroGrad();
    Tensor t = GatherRows(teacher_sub, batch.indices);
    Tensor f = GatherRows(features, batch.indices);
    Tensor s = head.Forward(f, /*training=*/true);

    float loss = 0.0f;
    Tensor grad = Tensor::Zeros(s.shape());
    if (soft_weight > 0.0f) {
      LossResult soft = DistillationKl(t, s, options.temperature);
      loss += soft_weight * soft.loss;
      Axpy(soft_weight, soft.grad, grad);
    }
    if (scale_weight > 0.0f) {
      LossResult scale = L1LogitLoss(t, s);
      loss += scale_weight * scale.loss;
      Axpy(scale_weight, scale.grad, grad);
    }
    head.Backward(grad);
    sgd.Step();
    return loss;
  };
  return RunTrainingLoop(full_train, options, &sgd, step, evaluator);
}

}  // namespace poe
