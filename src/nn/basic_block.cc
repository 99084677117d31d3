#include "nn/basic_block.h"

#include "tensor/arena.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"

namespace poe {

BasicBlock::BasicBlock(int64_t in_channels, int64_t out_channels,
                       int64_t stride, Rng& rng)
    : bn1_(in_channels),
      conv1_(in_channels, out_channels, /*kernel=*/3, stride, /*pad=*/1, rng),
      bn2_(out_channels),
      conv2_(out_channels, out_channels, /*kernel=*/3, /*stride=*/1,
             /*pad=*/1, rng) {
  if (in_channels != out_channels || stride != 1) {
    projection_ = std::make_unique<Conv2d>(in_channels, out_channels,
                                           /*kernel=*/1, stride, /*pad=*/0,
                                           rng);
  }
}

Tensor BasicBlock::Forward(const Tensor& input, bool training) {
  if (!training) return InferenceForward(input);
  // Both BN+ReLU pairs run as one pass: the training forward whose fused
  // backward gates by the cached output.
  Tensor a = bn1_.ForwardTrainingFusedRelu(input);
  Tensor h = conv1_.Forward(a, training);
  h = bn2_.ForwardTrainingFusedRelu(h);
  h = conv2_.Forward(h, training);
  Tensor shortcut =
      projection_ ? projection_->Forward(a, training) : input;
  return Add(h, shortcut);
}

Tensor BasicBlock::InferenceForward(const Tensor& input) {
  Tensor a = bn1_.ForwardFusedRelu(input);
  const Tensor shortcut =
      projection_ ? projection_->Forward(a, /*training=*/false) : input;
  // conv1's tiles go through BN2+ReLU and conv2's take the shortcut, in
  // the GEMM epilogues: the ops of the out-of-place chain, so bitwise its
  // result.
  ScratchScope scope;
  const int64_t channels = bn2_.channels();
  float* bn2 = scope.Alloc(2 * channels);
  bn2_.InferenceAffine(bn2, bn2 + channels);
  ConvTileEpilogue first;
  first.bn_scale = bn2;
  first.bn_shift = bn2 + channels;
  ConvTileEpilogue second;
  second.residual = &shortcut;
  if (!conv2_.TakesInt8Images()) {
    // conv1 writes f32 and conv2 quantizes it, if at all, as usual (a
    // dynamic int8 scale needs all of conv1's output first).
    Tensor h = conv1_.ForwardFused(a, first);
    a = Tensor();
    return conv2_.ForwardFused(h, second);
  }
  // Calibrated int8: conv1's tiles quantize with conv2's static scale
  // straight into conv2's padded images, so no f32 activation is kept.
  const int64_t batch = input.dim(0);
  const ConvInputImages images = conv2_.AllocInputImages(
      scope, batch,
      ConvOutSize(input.dim(2), conv1_.kernel(), conv1_.pad(),
                  conv1_.stride()),
      ConvOutSize(input.dim(3), conv1_.kernel(), conv1_.pad(),
                  conv1_.stride()));
  first.next = &images;
  conv1_.ForwardFused(a, first);
  a = Tensor();
  return conv2_.ForwardImages(images, batch, second);
}

Tensor BasicBlock::Backward(const Tensor& grad_output) {
  // Residual path.
  Tensor g = conv2_.Backward(grad_output);
  g = bn2_.BackwardFusedRelu(g);
  Tensor grad_a = conv1_.Backward(g);
  if (projection_) {
    // Shortcut consumed `a` too: accumulate its contribution.
    AddInPlace(grad_a, projection_->Backward(grad_output));
    return bn1_.BackwardFusedRelu(grad_a);
  }
  // Identity shortcut consumed `input` directly.
  Tensor grad_input = bn1_.BackwardFusedRelu(grad_a);
  AddInPlace(grad_input, grad_output);
  return grad_input;
}

void BasicBlock::CollectParameters(std::vector<Parameter*>* out) {
  bn1_.CollectParameters(out);
  conv1_.CollectParameters(out);
  bn2_.CollectParameters(out);
  conv2_.CollectParameters(out);
  if (projection_) projection_->CollectParameters(out);
}

void BasicBlock::CollectBuffers(std::vector<Tensor*>* out) {
  bn1_.CollectBuffers(out);
  bn2_.CollectBuffers(out);
}

void BasicBlock::PrepareInt8Serving() {
  // Convolutions serve int8; batch-norms stay f32 (their state is tiny and
  // they consume the conv's dequantized f32 output directly).
  conv1_.PrepareInt8Serving();
  conv2_.PrepareInt8Serving();
  if (projection_) projection_->PrepareInt8Serving();
}

int64_t BasicBlock::Int8WeightBytes() const {
  int64_t total = conv1_.Int8WeightBytes() + conv2_.Int8WeightBytes();
  if (projection_) total += projection_->Int8WeightBytes();
  return total;
}

void BasicBlock::CollectChildren(std::vector<Module*>* out) {
  out->push_back(&bn1_);
  out->push_back(&conv1_);
  out->push_back(&bn2_);
  out->push_back(&conv2_);
  if (projection_) out->push_back(projection_.get());
}

}  // namespace poe
