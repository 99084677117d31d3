#include "nn/module.h"

#include <algorithm>

namespace poe {

Tensor Module::ForwardFusedRelu(const Tensor& input) {
  Tensor out = Forward(input, /*training=*/false);
  // Pass-through modules (e.g. reshapes) may return a view of the input;
  // clamping that in place would corrupt the caller's tensor.
  if (out.SharesStorageWith(input)) out = out.Clone();
  float* p = out.data();
  const int64_t n = out.numel();
  for (int64_t i = 0; i < n; ++i) p[i] = std::max(0.0f, p[i]);
  return out;
}

std::vector<Parameter*> Module::Parameters() {
  std::vector<Parameter*> out;
  CollectParameters(&out);
  return out;
}

void Module::ZeroGrad() {
  for (Parameter* p : Parameters()) p->grad.Fill(0.0f);
}

void Module::SetTrainable(bool trainable) {
  for (Parameter* p : Parameters()) p->trainable = trainable;
}

int64_t Module::NumParams() {
  int64_t n = 0;
  for (Parameter* p : Parameters()) n += p->value.numel();
  return n;
}

void Module::Prepack(ServingPrecision precision) {
  std::vector<Module*> children;
  CollectChildren(&children);
  for (Module* child : children) child->Prepack(precision);
}

int64_t Module::PackedWeightBytes() {
  std::vector<Module*> children;
  CollectChildren(&children);
  int64_t bytes = 0;
  for (Module* child : children) bytes += child->PackedWeightBytes();
  return bytes;
}

void Module::BeginActivationCalibration() {
  std::vector<Module*> children;
  CollectChildren(&children);
  for (Module* child : children) child->BeginActivationCalibration();
}

void Module::FinishActivationCalibration() {
  std::vector<Module*> children;
  CollectChildren(&children);
  for (Module* child : children) child->FinishActivationCalibration();
}

void Module::CollectQuantizable(std::vector<Module*>* out) {
  std::vector<Module*> children;
  CollectChildren(&children);
  for (Module* child : children) child->CollectQuantizable(out);
}

bool Module::CouplesRows() {
  std::vector<Module*> children;
  CollectChildren(&children);
  for (Module* child : children) {
    if (child->CouplesRows()) return true;
  }
  return false;
}

int64_t HeldStateBytes(Module& module) {
  int64_t bytes = module.Int8WeightBytes() + module.PackedWeightBytes();
  for (Parameter* p : module.Parameters()) bytes += p->value.nbytes();
  std::vector<Tensor*> buffers;
  module.CollectBuffers(&buffers);
  for (Tensor* b : buffers) bytes += b->nbytes();
  return bytes;
}

}  // namespace poe
