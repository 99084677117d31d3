// Module: the base interface of the layer-graph training framework.
#ifndef POE_NN_MODULE_H_
#define POE_NN_MODULE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/parameter.h"
#include "tensor/tensor.h"
#include "util/result.h"

namespace poe {

/// Numeric precision a module (and the pool built from modules) serves at.
/// kInt8 means weights are held as packed int8 with per-output-channel
/// scales and every forward pass runs the quantized GEMM.
enum class ServingPrecision { kFloat32, kInt8 };

/// Portable (kernel-layout-independent) snapshot of one layer's int8
/// serving state: the row-major quantized weight matrix, its per-row
/// (= per-output-channel) scales, and the static activation scale when the
/// layer was calibrated (0 = dynamic per-forward max-abs quantization).
/// This is what serialization persists for int8 pools — packed GEMM panels
/// are process-local and always rebuilt from this form on load.
struct Int8WeightState {
  int64_t rows = 0;  ///< output channels / features
  int64_t cols = 0;  ///< reduction depth (in_channels*k*k or in_features)
  std::vector<int8_t> values;  ///< rows x cols, row-major
  std::vector<float> scales;   ///< length rows
  float act_scale = 0.0f;      ///< 0 = dynamic activation quantization
};

/// A differentiable computation node with explicit forward/backward.
///
/// Calling convention:
///  - Forward(x, training) caches whatever the backward pass needs.
///  - Backward(grad_out) must follow a Forward with training == true; it
///    accumulates parameter gradients (+=) and returns grad wrt the input.
///  - Modules own their parameters; CollectParameters exposes raw pointers
///    whose lifetime equals the module's.
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Computes the output for `input`. When `training`, caches activations
  /// for Backward and uses batch statistics in normalization layers.
  virtual Tensor Forward(const Tensor& input, bool training) = 0;

  /// Back-propagates `grad_output` (same shape as the last Forward output),
  /// accumulating parameter gradients; returns grad wrt the last input.
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  /// Appends pointers to all parameters (recursively for containers).
  virtual void CollectParameters(std::vector<Parameter*>* out) = 0;

  /// Appends pointers to non-trainable state tensors (e.g. batch-norm
  /// running statistics). Containers recurse; leaves default to none.
  virtual void CollectBuffers(std::vector<Tensor*>* /*out*/) {}

  /// True when the module can fold a trailing ReLU into its inference
  /// forward pass (its output-writing epilogue). Sequential uses this to
  /// collapse `X -> ReLU` pairs into one pass at inference.
  virtual bool CanFuseRelu() const { return false; }

  /// Inference-only forward with ReLU fused into the output write. The
  /// base implementation falls back to Forward + an in-place clamp, so it
  /// is always safe to call; layers with CanFuseRelu() avoid the extra
  /// pass over the output.
  virtual Tensor ForwardFusedRelu(const Tensor& input);

  /// Switches the module to dequant-free int8 serving: layers with weight
  /// matrices (Conv2d, Linear) quantize them per-output-channel into
  /// packed int8 panels and release the f32 storage; containers recurse;
  /// everything else (activations, batch-norm) keeps serving f32. The
  /// conversion is irreversible and inference-only — training Forward and
  /// Backward are forbidden afterwards.
  virtual void PrepareInt8Serving() {}

  /// Bytes of packed int8 weight state held (scales included); 0 while
  /// serving f32. Containers report the sum over children.
  virtual int64_t Int8WeightBytes() const { return 0; }

  /// Direct children of a container module (Sequential, BasicBlock, Wrn).
  /// Leaves append nothing. The default implementations of the traversal
  /// hooks below recurse through this, so containers override exactly one
  /// method to participate in prepacking / calibration / persistence.
  virtual void CollectChildren(std::vector<Module*>* /*out*/) {}

  /// Materializes persistent packed GEMM operands for the given serving
  /// precision ("pack once, run many"): Conv2d/Linear build the kernel-
  /// layout weight panels their inference forwards consume, so steady-
  /// state forwards skip the per-call packing pass. Idempotent and
  /// thread-safe; forwards fall back to per-call packing until the packed
  /// form is published. `precision` must match the layer's current
  /// serving mode (kInt8 requires PrepareInt8Serving first). A prepacked
  /// module is inference-only: the packed panels alias frozen weights.
  virtual void Prepack(ServingPrecision precision);

  /// Bytes of persistent packed weight panels built by Prepack (f32 and
  /// int8 forms not already counted by Int8WeightBytes). Part of the
  /// honest serving footprint (HeldStateBytes).
  virtual int64_t PackedWeightBytes();

  /// Static activation calibration: between Begin and Finish, f32
  /// inference forwards of Conv2d/Linear record the max-abs of their
  /// inputs; Finish freezes those observations into static activation
  /// scales, so int8 serving skips the per-forward max-abs pass.
  virtual void BeginActivationCalibration();
  virtual void FinishActivationCalibration();

  /// The frozen static activation scale of a quantizable leaf (0 while
  /// dynamic / not calibrated). The setter exists for persistence: f32
  /// pool payloads carry calibrated scales so a save/load cycle does not
  /// silently fall back to dynamic quantization.
  virtual float static_act_scale() const { return 0.0f; }
  virtual void set_static_act_scale(float /*scale*/) {}

  /// Appends the quantizable weight-bearing leaves (Conv2d, Linear) in
  /// traversal order — the layers whose int8 state serialization walks.
  virtual void CollectQuantizable(std::vector<Module*>* out);

  /// True when the inference forward couples the rows of a batch, so it
  /// must see the whole batch in one call: a leaf serving int8 with a
  /// dynamic activation scale (the max-abs of the whole input), or one
  /// observing activations for calibration (unsynchronized per-call
  /// state). Sequential runs row passes only when this is false.
  /// Containers recurse; Conv2d and Linear override.
  virtual bool CouplesRows();

  /// Leaf hooks for int8 pool persistence. Export snapshots the layer's
  /// quantized weights (FailedPrecondition unless int8-serving); Adopt
  /// installs a snapshot into a still-f32 layer — quantized values and
  /// scales are taken verbatim, packed panels are rebuilt for this
  /// process's kernel, the f32 weight storage is released, and the layer
  /// comes up serving int8 with no f32 round-trip.
  virtual Result<Int8WeightState> ExportInt8State() const {
    return Status::FailedPrecondition(Name() + " holds no int8 state");
  }
  virtual Status AdoptInt8State(Int8WeightState /*state*/) {
    return Status::FailedPrecondition(Name() + " cannot adopt int8 state");
  }

  /// Layer type name for debugging/serialization ("Conv2d", ...).
  virtual std::string Name() const = 0;

  /// Convenience: all parameters as a vector.
  std::vector<Parameter*> Parameters();

  /// Zeroes all parameter gradients.
  void ZeroGrad();

  /// Marks all parameters (non-)trainable; frozen parameters are skipped by
  /// optimizers but still conduct gradients.
  void SetTrainable(bool trainable);

  /// Total number of parameter elements.
  int64_t NumParams();
};

/// Shorthand owning pointer used throughout model builders.
using ModulePtr = std::unique_ptr<Module>;

/// Bytes of weight state `module` actually holds in memory: f32
/// parameter/buffer storage still present, packed int8 weight bytes, and
/// persistent prepacked GEMM panels (PackedWeightBytes). For an
/// int8-serving module this is the dequant-free footprint (released f32
/// weights count zero); for an unpacked f32 module it matches the state
/// size.
int64_t HeldStateBytes(Module& module);

}  // namespace poe

#endif  // POE_NN_MODULE_H_
