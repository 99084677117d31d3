#include "nn/basic_block.h"

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
  // Inference caches nothing, so conv1's and conv2's outputs are fresh
  // and ours to overwrite. Every element sees the same float ops as in
  // the out-of-place form (BN2+ReLU, then conv2 + shortcut), so the
  // result is bitwise the same.
  Tensor a = bn1_.ForwardFusedRelu(input);
  Tensor h = conv1_.Forward(a, /*training=*/false);
  const Tensor shortcut =
      projection_ ? projection_->Forward(a, /*training=*/false) : input;
  a = Tensor();
  bn2_.ForwardFusedReluInPlace(&h);
  Tensor out = conv2_.Forward(h, /*training=*/false);
  h = Tensor();
  AddInPlace(out, shortcut);
  return out;
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
