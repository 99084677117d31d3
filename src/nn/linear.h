// Fully-connected layer.
#ifndef POE_NN_LINEAR_H_
#define POE_NN_LINEAR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "nn/module.h"
#include "tensor/gemm.h"
#include "tensor/gemm_s8.h"
#include "util/rng.h"

namespace poe {

/// y = x W^T + b over 2-D [batch, in_features] inputs.
/// Weight shape [out_features, in_features].
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng,
         bool bias = true);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  void CollectParameters(std::vector<Parameter*>* out) override;
  bool CanFuseRelu() const override { return true; }
  Tensor ForwardFusedRelu(const Tensor& input) override;

  /// Dequant-free int8 serving: weights become int8 with per-output-
  /// feature scales, the f32 storage is released, and inference quantizes
  /// activations on the fly into the int8 GEMM (dequant + bias + ReLU
  /// fused in its output pass). Activations use the static calibrated
  /// scale when one was observed, else a dynamic per-tensor max-abs scale.
  /// Irreversible; training is forbidden afterwards.
  void PrepareInt8Serving() override;
  int64_t Int8WeightBytes() const override;
  bool int8_serving() const { return int8_serving_; }

  /// Pack-once serving. kFloat32 materializes the persistent f32 op(B) =
  /// W^T panels so subsequent inference forwards skip the per-call
  /// transposed B pack; the packed form is published with release/acquire
  /// ordering and forwards fall back to the per-call pack until it lands.
  /// kInt8 is satisfied already — the int8 panels are built at
  /// PrepareInt8Serving/Adopt time (conversion-time packing), so the int8
  /// branch is an idempotent no-op. A prepacked layer is inference-only.
  void Prepack(ServingPrecision precision) override;
  int64_t PackedWeightBytes() override;

  /// Static activation calibration (see Module). Observation happens on
  /// f32 inference forwards between Begin and Finish; single-threaded
  /// setup-time operation.
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

  std::string Name() const override { return "Linear"; }

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  bool has_bias() const { return has_bias_; }

 private:
  Tensor ForwardImpl(const Tensor& input, bool training, bool fuse_relu);
  Tensor ForwardInt8(const Tensor& input, bool fuse_relu);
  /// Shared PrepareInt8Serving/Adopt tail: packs `values` (row-major
  /// [out_features x in_features]) into the kernel-layout op(B) panels
  /// and releases the f32 weight.
  void FinishInt8Setup(const int8_t* values);

  int64_t in_features_, out_features_;
  bool has_bias_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;

  // Int8 serving state (valid when int8_serving_). Only the packed op(B)
  // panels stay resident: they are built at conversion time — before
  // int8_serving_ publishes, so no forward can race an unpacked window —
  // and ExportInt8State reconstructs the portable row-major form through
  // PackedS8BWeights::Unpack. No second raw copy of the weights exists
  // (the raw-copy-plus-panels tradeoff this replaces roughly doubled the
  // int8 Linear footprint).
  bool int8_serving_ = false;
  std::vector<float> wscales_;  // per-output-feature dequant scales

  // Static activation calibration (0 = dynamic per-forward max-abs).
  bool observe_act_ = false;
  float observed_act_max_ = 0.0f;
  float act_scale_ = 0.0f;

  // Pack-once serving state. The f32 ready flag publishes the packed form
  // to concurrent forwards (store-release after building, load-acquire in
  // the fast path); prepack_mu_ serializes builders. The int8 panels need
  // no flag: they exist whenever int8_serving_ does.
  std::mutex prepack_mu_;
  PackedBWeights packed_w_;     // f32 op(B) = W^T panels
  PackedS8BWeights packed_qw_;  // int8 op(B) = W^T panels + colsums
  std::atomic<bool> f32_packed_{false};
};

}  // namespace poe

#endif  // POE_NN_LINEAR_H_
