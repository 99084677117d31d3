// Sequential container of modules.
#ifndef POE_NN_SEQUENTIAL_H_
#define POE_NN_SEQUENTIAL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/module.h"

namespace poe {

/// Chains modules; Forward applies them in order, Backward in reverse.
///
/// Inference runs depth first: the batch is cut into passes of a few rows,
/// each pass goes through every module, and its output rows are copied
/// into the batch output. A pass's activations stay in one core's cache,
/// where a whole batch's (2 MiB per block at b32, 32x32) would stream
/// from L3. The passes are dealt to the worker pool, whose nested calls
/// inside the modules then run inline. Every inference module is row-
/// independent — convs and pooling work per image, BN is a per-channel
/// affine, GEMM rows accumulate alone — so the output is bitwise that of
/// the whole-batch loop. That loop still serves training, a batch no
/// larger than one pass (batch 1 splits its convs' GEMM tiles across the
/// workers instead), and any module tree that CouplesRows().
class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a module (takes ownership) and returns a raw borrow.
  Module* Add(ModulePtr module);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  void CollectParameters(std::vector<Parameter*>* out) override;
  void CollectBuffers(std::vector<Tensor*>* out) override;
  void PrepareInt8Serving() override;
  int64_t Int8WeightBytes() const override;
  void CollectChildren(std::vector<Module*>* out) override {
    for (auto& m : modules_) out->push_back(m.get());
  }
  std::string Name() const override { return "Sequential"; }

  size_t size() const { return modules_.size(); }
  Module* at(size_t i) { return modules_.at(i).get(); }
  const Module* at(size_t i) const { return modules_.at(i).get(); }

 private:
  /// The module loop: whole batch, or one row pass.
  Tensor ForwardModules(const Tensor& input, bool training);
  /// Inference over `input` in passes of `rows` rows.
  Tensor ForwardInRowPasses(const Tensor& input, int64_t rows);

  std::vector<ModulePtr> modules_;
};

}  // namespace poe

#endif  // POE_NN_SEQUENTIAL_H_
