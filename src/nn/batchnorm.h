// Batch normalization over NCHW feature maps.
#ifndef POE_NN_BATCHNORM_H_
#define POE_NN_BATCHNORM_H_

#include <string>
#include <vector>

#include "nn/module.h"

namespace poe {

/// BatchNorm2d: per-channel normalization with affine transform and running
/// statistics for inference (PyTorch semantics: biased variance for the
/// batch statistic, running stats updated with `momentum`).
///
/// Every pass runs per channel on the worker pool. A channel's reductions
/// keep their sequential order inside one chunk, so outputs, running stats
/// and gradients are bitwise identical at any thread count.
class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(int64_t channels, float eps = 1e-5f,
                       float momentum = 0.1f);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  void CollectParameters(std::vector<Parameter*>* out) override;
  void CollectBuffers(std::vector<Tensor*>* out) override;
  bool CanFuseRelu() const override { return true; }
  /// Inference normalize with max(0, scale*x + shift) in one pass.
  Tensor ForwardFusedRelu(const Tensor& input) override;
  /// ForwardFusedRelu written over `x` itself: the same per-element ops,
  /// so bitwise equal, with no output allocation.
  void ForwardFusedReluInPlace(Tensor* x);
  /// Training forward with the following ReLU folded in: returns
  /// ReLU(BN(x)), bitwise equal to the two modules run in turn. Pair it
  /// with BackwardFusedRelu.
  Tensor ForwardTrainingFusedRelu(const Tensor& input);
  /// Backward of ForwardTrainingFusedRelu: gates grad_output by the
  /// cached output's sign and runs the BN backward in the same pass.
  Tensor BackwardFusedRelu(const Tensor& grad_output);
  std::string Name() const override { return "BatchNorm2d"; }

  int64_t channels() const { return channels_; }
  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }
  /// Running statistics (not trainable; serialized with the model).
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }

 private:
  // Shared inference path: out = scale*x + shift from running stats, with
  // optional fused ReLU.
  void InferenceNormalize(const Tensor& input, Tensor* output, bool relu);
  Tensor TrainingForward(const Tensor& input, bool relu);
  Tensor BackwardImpl(const Tensor& grad_output, bool relu);

  int64_t channels_;
  float eps_, momentum_;
  Parameter gamma_;
  Parameter beta_;
  Tensor running_mean_;
  Tensor running_var_;

  // Backward caches.
  Tensor cached_xhat_;
  std::vector<float> cached_inv_std_;
  Tensor cached_relu_out_;  // defined only after a fused training forward
  int64_t cached_batch_ = 0, cached_hw_ = 0;
};

}  // namespace poe

#endif  // POE_NN_BATCHNORM_H_
