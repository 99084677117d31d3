// The im2col lowering of Conv2d's inference forward, built only on the
// layer's public API. The library runs one lowering, the direct
// (im2col-free) one; the tests hold it to this reference bit for bit, and
// micro_ops times it against this reference.
#ifndef POE_TESTS_SUPPORT_CONV_REFERENCE_H_
#define POE_TESTS_SUPPORT_CONV_REFERENCE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/task_model.h"
#include "nn/basic_block.h"
#include "nn/conv2d.h"
#include "tensor/gemm.h"
#include "tensor/gemm_s8.h"
#include "tensor/tensor.h"

namespace poe {

/// One conv's weights taken once for the im2col lowering: the f32
/// weight() and bias() (packed into op(A) panels for GemmPackedA when
/// `prepacked`, else multiplied by GemmEx), or for an int8-serving conv
/// its ExportInt8State values repacked with PackedS8Weights::PackConv,
/// its weight scales, its activation scale and its bias.
class Im2ColConv {
 public:
  explicit Im2ColConv(Conv2d& conv, bool prepacked = false);

  /// The conv's inference forward of `input` (NCHW). Per image: quantize
  /// (int8, with the static scale, else one max-abs scale over the whole
  /// input, as ForwardInt8 takes it), Im2Col (int8: in the weights'
  /// k-group order), then the packed or plain GEMM with the epilogue
  /// bias, ReLU when `relu`, and (int8) activation scale times per-row
  /// weight scales. Images are dealt to the workers as Conv2d deals them.
  Tensor Forward(const Tensor& input, bool relu) const;

 private:
  int64_t in_c_, out_c_, kernel_, stride_, pad_;
  bool int8_;
  std::vector<float> weight_;  // f32 [out_c x ckk], unless prepacked
  PackedAWeights packed_;      // f32 prepacked panels
  std::vector<float> bias_;    // empty without bias
  PackedS8Weights qweight_;    // int8 panels, k-group order
  std::vector<float> wscales_;
  float act_scale_ = 0.0f;  // 0 = dynamic
};

/// Im2ColConv(conv).Forward(input, relu).
Tensor Im2ColForward(Conv2d& conv, const Tensor& input, bool relu = false);

/// How a reference walk runs one conv.
using ConvForwardFn = std::function<Tensor(Conv2d&, const Tensor&)>;

/// BasicBlock inference as its unfused chain of public forwards:
/// bn1+ReLU -> conv1 -> bn2+ReLU -> conv2, plus the identity shortcut or
/// the projection conv of bn1's output; `conv` runs each of the convs.
Tensor UnfusedBlock(BasicBlock& block, const Tensor& x,
                    const ConvForwardFn& conv);

/// TaskModel::Logits with every conv on the im2col lowering. Walks the
/// modules of trunk() and of each branch head in order: a Conv2d runs
/// Im2ColForward, a BasicBlock its UnfusedBlock chain with Im2ColForward,
/// any other module its own Forward(x, false); the heads' outputs are
/// joined with ConcatColumns. Adds the number of convs it ran through the
/// reference to `*reference_convs` when that is not null.
Tensor Im2ColLogits(TaskModel& model, const Tensor& images,
                    int64_t* reference_convs = nullptr);

}  // namespace poe

#endif  // POE_TESTS_SUPPORT_CONV_REFERENCE_H_
