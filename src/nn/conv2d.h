// 2-D convolution layer lowered to GEMM, batch-parallel. Forwards (f32
// inference and training, int8 serving, any stride) run im2col-free: the
// GEMM reads its B operand in place from a zero-padded image view
// (tensor/conv_direct.h), bitwise identical to the im2col lowering. The
// backward is im2col-free too: dX is a direct transposed conv over the
// padded dY, and the dW GEMM reads the padded input image in place.
#ifndef POE_NN_CONV2D_H_
#define POE_NN_CONV2D_H_

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "nn/conv_epilogue.h"
#include "nn/module.h"
#include "tensor/gemm.h"
#include "tensor/gemm_s8.h"
#include "util/rng.h"

namespace poe {

class ScratchScope;

/// Square-kernel 2-D convolution over NCHW tensors.
///
/// Weight shape: [out_channels, in_channels * kernel * kernel] (the im2col
/// GEMM layout). Bias is optional and off by default, matching WRN blocks
/// where batch-norm absorbs the bias.
///
/// Steady-state Forward makes no scratch allocations: the direct path's
/// padded-image buffer (and the im2col buffer where that lowering runs)
/// come from the per-thread arena, a stride-1, pad-0 f32 view reads the
/// input in place, and bias (+ fused ReLU at inference) is applied by the
/// GEMM epilogue instead of a second pass over the output. Backward
/// draws its padded images, flipped weights and gradient slots from the
/// arena too.
class Conv2d : public Module {
 public:
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
         int64_t stride, int64_t pad, Rng& rng, bool bias = false);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  /// Backward sums dW and db over parts of this many batch rows, each
  /// into its own slot, then the slots in part order: the result depends
  /// on the batch alone, never on the thread count.
  static constexpr int64_t kGradRowsPerPart = 8;
  void CollectParameters(std::vector<Parameter*>* out) override;
  bool CanFuseRelu() const override { return true; }
  Tensor ForwardFusedRelu(const Tensor& input) override;

  /// Inference forward with `epilogue` run on each output tile. Returns
  /// the output, or an undefined tensor when the epilogue quantizes into
  /// a next conv's images, which only an int8-serving conv does.
  Tensor ForwardFused(const Tensor& input, const ConvTileEpilogue& epilogue);

  /// True when the inference forward can read its input as int8 direct
  /// images that a producer filled (ForwardImages): int8 serving with a
  /// static calibrated scale, stride 1, on the direct path.
  bool TakesInt8Images() const;
  /// `batch` input images for an h x w input, carved from `scope`, with
  /// the border and padding-channel lanes zeroed; requires
  /// TakesInt8Images().
  ConvInputImages AllocInputImages(ScratchScope& scope, int64_t batch,
                                   int64_t h, int64_t w) const;
  /// Inference forward over `batch` images a producer filled.
  Tensor ForwardImages(const ConvInputImages& images, int64_t batch,
                       const ConvTileEpilogue& epilogue);

  /// Dequant-free int8 serving: quantizes the weight matrix with
  /// per-output-channel symmetric scales into pre-packed int8 GEMM panels
  /// (persistence exports the portable row-major form via Unpack) and
  /// releases the f32 weight storage. Inference Forward then quantizes
  /// activations per-tensor — with the static calibrated scale when one
  /// was observed, else a dynamic max-abs scale — and runs the int8 GEMM
  /// with dequantization fused into its output pass. Irreversible;
  /// training is forbidden afterwards.
  void PrepareInt8Serving() override;
  int64_t Int8WeightBytes() const override;
  bool int8_serving() const { return int8_serving_; }

  /// Pack-once serving. kFloat32 materializes the persistent op(A) weight
  /// panels (the conv weight is the GEMM's A operand) so inference
  /// forwards skip the per-call PackA pass; kInt8 is satisfied already —
  /// the int8 weight panels are built at PrepareInt8Serving/Adopt time.
  /// Idempotent, publish-safe against concurrent forwards (release/
  /// acquire), transparent fallback while unpacked. Inference-only after.
  void Prepack(ServingPrecision precision) override;
  int64_t PackedWeightBytes() override;

  /// Static activation calibration (see Module); observation happens on
  /// f32 inference forwards between Begin and Finish.
  void BeginActivationCalibration() override;
  void FinishActivationCalibration() override;
  float static_act_scale() const override { return act_scale_; }
  void set_static_act_scale(float scale) override { act_scale_ = scale; }

  void CollectQuantizable(std::vector<Module*>* out) override {
    out->push_back(this);
  }
  bool CouplesRows() override {
    return observe_act_ || (int8_serving_ && !(act_scale_ > 0.0f));
  }
  Result<Int8WeightState> ExportInt8State() const override;
  Status AdoptInt8State(Int8WeightState state) override;

  std::string Name() const override { return "Conv2d"; }

  int64_t in_channels() const { return in_channels_; }
  int64_t out_channels() const { return out_channels_; }
  int64_t kernel() const { return kernel_; }
  int64_t stride() const { return stride_; }
  int64_t pad() const { return pad_; }
  bool has_bias() const { return has_bias_; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  Tensor ForwardImpl(const Tensor& input, bool training, bool fuse_relu,
                     const ConvTileEpilogue* fused);
  Tensor ForwardInt8(const Tensor* input, const ConvInputImages* images,
                     int64_t batch, int64_t h, int64_t w, bool fuse_relu,
                     const ConvTileEpilogue* fused);
  /// Shared PrepareInt8Serving/Adopt tail: packs `values` (row-major
  /// [out_c x ckk]) and releases the f32 weight.
  void FinishInt8Setup(const int8_t* values);

  int64_t in_channels_, out_channels_, kernel_, stride_, pad_;
  bool has_bias_;
  Parameter weight_;
  Parameter bias_;

  // Int8 serving state (valid when int8_serving_).
  bool int8_serving_ = false;
  PackedS8Weights qweight_;     // [out_c x ckk] panels, kernel layout
  std::vector<float> wscales_;  // per-output-channel dequant scales

  // Static activation calibration (0 = dynamic per-forward max-abs).
  bool observe_act_ = false;
  float observed_act_max_ = 0.0f;
  float act_scale_ = 0.0f;

  // Pack-once f32 serving state (see Prepack).
  std::mutex prepack_mu_;
  PackedAWeights packed_w_;  // f32 op(A) weight panels
  std::atomic<bool> f32_packed_{false};

  // Cached from the last training Forward.
  Tensor cached_input_;
  int64_t cached_h_ = 0, cached_w_ = 0;
};

}  // namespace poe

#endif  // POE_NN_CONV2D_H_
