// Batch normalization over NCHW feature maps.
#ifndef POE_NN_BATCHNORM_H_
#define POE_NN_BATCHNORM_H_

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "nn/module.h"

namespace poe {

/// One element of the inference normalize: scale * x + shift, rounded once
/// where the build targets FMA (the form the compiler contracts the
/// expression to there) and twice where it does not. Every inference
/// normalize goes through this, so a conv epilogue that applies a
/// following BatchNorm2d is bitwise the layer's own pass.
inline float BnAffine(float x, float scale, float shift) {
#ifdef __FMA__
  return std::fma(scale, x, shift);
#else
  return scale * x + shift;
#endif
}

/// BnAffine followed by ReLU.
inline float BnAffineRelu(float x, float scale, float shift) {
  return std::max(0.0f, BnAffine(x, scale, shift));
}

/// BatchNorm2d: per-channel normalization with affine transform and running
/// statistics for inference (PyTorch semantics: biased variance for the
/// batch statistic, running stats updated with `momentum`).
///
/// Every pass runs per channel on the worker pool. A channel's reductions
/// keep their sequential order inside one chunk, so outputs, running stats
/// and gradients are bitwise identical at any thread count. The training
/// passes reduce a few channels side by side, each still in its own
/// order: one channel's double sum is a serial chain of adds that would
/// otherwise bound the pass at the add latency per element.
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
  /// The inference transform as per-channel arrays (length channels()):
  /// the inference forward maps x in channel c to BnAffine(x, scale[c],
  /// shift[c]). A conv that feeds this layer applies it in its tile
  /// epilogue (BasicBlock), with the same per-element ops.
  void InferenceAffine(float* scale, float* shift) const;
  /// Training forward with the following ReLU folded in: returns
  /// ReLU(BN(x)), bitwise equal to the two modules run in turn. Pair it
  /// with BackwardFusedRelu.
  Tensor ForwardTrainingFusedRelu(const Tensor& input);
  /// Backward of ForwardTrainingFusedRelu: gates grad_output by the
  /// cached output's sign and runs the BN backward in the same pass. The
  /// gate is a bit mask, not a branch: a branch on the sign of post-ReLU
  /// values mispredicts on about half of them. A closed gate yields +0.0f
  /// whatever grad_output holds there, NaN and infinities included.
  Tensor BackwardFusedRelu(const Tensor& grad_output);
  std::string Name() const override { return "BatchNorm2d"; }

  int64_t channels() const { return channels_; }
  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }
  /// Running statistics (not trainable; serialized with the model).
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }

 private:
  // Channel c's inference scale and shift, from the running stats.
  void ChannelAffine(int64_t c, float* scale, float* shift) const;
  // Shared inference path: out = scale*x + shift from running stats, with
  // optional fused ReLU.
  Tensor InferenceNormalize(const Tensor& input, bool relu);
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
