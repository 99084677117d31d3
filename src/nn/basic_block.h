// Pre-activation residual block (the Wide ResNet building block).
#ifndef POE_NN_BASIC_BLOCK_H_
#define POE_NN_BASIC_BLOCK_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/module.h"
#include "util/rng.h"

namespace poe {

/// Pre-activation WRN basic block (Zagoruyko & Komodakis 2016):
///
///   a   = ReLU(BN1(x))
///   out = Conv2(ReLU(BN2(Conv1(a)))) + shortcut
///
/// where shortcut is x when shapes match, else a 1x1 strided convolution of
/// `a` (the projection path standard in pre-activation ResNets).
///
/// The inference forward fuses the elementwise work into the convs' GEMM
/// epilogues (ConvTileEpilogue): each finished tile of conv1 goes through
/// BN2+ReLU, and each tile of conv2 adds the shortcut. When conv2 serves
/// int8 with a calibrated scale, conv1's tiles are also quantized straight
/// into conv2's padded input images, so the activation between the convs
/// is never stored as f32. `a` is dropped once its last reader is done.
/// Every element sees the ops of the out-of-place form in the same order,
/// so the logits are bitwise its.
class BasicBlock : public Module {
 public:
  BasicBlock(int64_t in_channels, int64_t out_channels, int64_t stride,
             Rng& rng);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  void CollectParameters(std::vector<Parameter*>* out) override;
  void CollectBuffers(std::vector<Tensor*>* out) override;
  void PrepareInt8Serving() override;
  int64_t Int8WeightBytes() const override;
  void CollectChildren(std::vector<Module*>* out) override;
  std::string Name() const override { return "BasicBlock"; }

  bool has_projection() const { return projection_ != nullptr; }

 private:
  Tensor InferenceForward(const Tensor& input);

  BatchNorm2d bn1_;
  Conv2d conv1_;
  BatchNorm2d bn2_;
  Conv2d conv2_;
  std::unique_ptr<Conv2d> projection_;  // nullptr => identity shortcut
};

}  // namespace poe

#endif  // POE_NN_BASIC_BLOCK_H_
