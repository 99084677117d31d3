// The GEMM tile hook behind Conv2d's fused inference epilogues: a
// conv's finished output tiles go through the next layers' elementwise
// work (BN+ReLU, a residual add, the int8 quantize into the next conv's
// padded image) while they are hot, instead of in separate sweeps.
#ifndef POE_NN_CONV_EPILOGUE_H_
#define POE_NN_CONV_EPILOGUE_H_

#include <cstdint>

#include "tensor/conv_direct.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace poe {

/// A batch of int8 conv input images in the direct layout of `view` (its
/// `padded` pointer unused), `elems` bytes apart, quantized as
/// QuantizeOneS8(v, inv_scale). A producer writes their interiors; the
/// owner zeroed the rest (Conv2d::AllocInputImages).
struct ConvInputImages {
  ConvImageViewS8 view;
  int8_t* data = nullptr;
  int64_t elems = 0;
  float inv_scale = 1.0f;
};

/// What a fused inference forward does to each finished output tile, in
/// this order, after the conv's own GEMM store (all steps optional):
///   v = max(0, BnAffine(v, bn_scale[c], bn_shift[c]))  (next BN + ReLU)
///   v = v + residual                  (residual: the output's shape)
/// and then either keeps v in the output tensor or, when `next` is set
/// (without a residual), quantizes it into next's images (no output
/// tensor is made). Each element sees exactly the ops of running those
/// layers in turn, so the result is bitwise theirs.
struct ConvTileEpilogue {
  const float* bn_scale = nullptr;  ///< per output channel, with bn_shift
  const float* bn_shift = nullptr;
  const Tensor* residual = nullptr;
  const ConvInputImages* next = nullptr;
};

/// The per-image state a fused forward's tile hook reads. C rows are
/// output channels and C is out_h x out_w pixels per row.
struct ConvImageFusion {
  const ConvTileEpilogue* ep = nullptr;
  const float* residual = nullptr;  ///< this image's residual, C's layout
  int8_t* next_image = nullptr;     ///< this image's direct-layout target
  int64_t out_w = 0;
};

/// The tile hook of image b of a forward whose output images are
/// `out_size` floats of `out_w`-pixel rows, backed by `*f` (which must
/// outlive the GEMM call); empty when `fused` is null.
GemmTileHook ConvFusionHook(const ConvTileEpilogue* fused, int64_t b,
                            int64_t out_size, int64_t out_w,
                            ConvImageFusion* f);

}  // namespace poe

#endif  // POE_NN_CONV_EPILOGUE_H_
