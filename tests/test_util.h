// Shared fixtures for training-level tests: a tiny dataset and tiny models
// so end-to-end tests stay fast.
#ifndef POE_TESTS_TEST_UTIL_H_
#define POE_TESTS_TEST_UTIL_H_

#include "data/synthetic.h"
#include "distill/trainer.h"
#include "models/wrn.h"
#include "nn/activations.h"
#include "nn/sequential.h"

namespace poe {
namespace testutil {

/// 3 primitive tasks x 2 classes, 6x6 images, small but learnable.
inline SyntheticDataConfig TinyDataConfig() {
  SyntheticDataConfig cfg;
  cfg.name = "tiny-test";
  cfg.num_tasks = 3;
  cfg.classes_per_task = 2;
  cfg.height = 6;
  cfg.width = 6;
  cfg.train_per_class = 16;
  cfg.test_per_class = 8;
  cfg.noise = 0.4f;
  cfg.jitter = 1;
  cfg.seed = 77;
  return cfg;
}

/// A small oracle architecture for the tiny dataset.
inline WrnConfig TinyOracleConfig() {
  WrnConfig cfg;
  cfg.depth = 10;
  cfg.kc = 2.0;
  cfg.ks = 2.0;
  cfg.num_classes = 6;
  cfg.base_channels = 4;
  return cfg;
}

/// Library student: narrower version of the oracle.
inline WrnConfig TinyLibraryConfig() {
  WrnConfig cfg = TinyOracleConfig();
  cfg.kc = 1.0;
  cfg.ks = 1.0;
  return cfg;
}

/// Fast training options for tests.
inline TrainOptions FastTrainOptions(int epochs = 4) {
  TrainOptions opts;
  opts.epochs = epochs;
  opts.batch_size = 16;
  opts.lr = 0.05f;
  opts.seed = 5;
  return opts;
}

/// The whole-batch inference loop, the reference for Sequential's row
/// passes: each module sees the full batch, with `X -> ReLU` pairs
/// collapsed into X's fused forward as Sequential does.
inline Tensor WholeBatchChain(Sequential& seq, const Tensor& input) {
  Tensor x = input;
  for (size_t i = 0; i < seq.size(); ++i) {
    Module* m = seq.at(i);
    if (i + 1 < seq.size() && m->CanFuseRelu() &&
        dynamic_cast<const ReLU*>(seq.at(i + 1)) != nullptr) {
      x = m->ForwardFusedRelu(x);
      ++i;
      continue;
    }
    x = m->Forward(x, /*training=*/false);
  }
  return x;
}

}  // namespace testutil
}  // namespace poe

#endif  // POE_TESTS_TEST_UTIL_H_
