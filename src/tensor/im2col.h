// im2col: the column-matrix lowering of convolution as GEMM.
//
// No training or serving path materializes these matrices by default:
// forwards read the GEMM's B operand straight from a zero-padded image
// view (tensor/conv_direct.h), bitwise identical to im2col + GEMM, and
// the backward reads the same views (Conv2d::Backward). Im2Col backs the
// POE_CONV_PATH=im2col pin and the tests' references.
//
// The unfold works a column-matrix row at a time: for each kernel column
// kw the in-range output columns form one span [ow_lo, ow_hi), so a row
// is a zero fill, a copy (a memcpy at stride 1) and a zero fill, with no
// per-element bounds test.
#ifndef POE_TENSOR_IM2COL_H_
#define POE_TENSOR_IM2COL_H_

#include <cstdint>

namespace poe {

/// Unfolds one image (C x H x W, row-major) into a column matrix of shape
/// (C*kh*kw) x (out_h*out_w) so that convolution is a single GEMM with the
/// (out_c) x (C*kh*kw) weight matrix.
void Im2Col(const float* image, int64_t channels, int64_t height,
            int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t pad,
            int64_t stride, float* columns);

/// Int8 overload for the quantized serving path: unfolds an already
/// symmetric-quantized image (padding writes quantized zero = 0 exactly).
/// With group > 1 the rows follow PackedS8Weights::PackConv's k order
/// (c / group, kh, kw, c % group) and the rows of the channels that pad
/// `channels` up to a multiple of group are zero.
void Im2Col(const int8_t* image, int64_t channels, int64_t height,
            int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t pad,
            int64_t stride, int8_t* columns, int64_t group = 1);

/// Output spatial size for a conv dimension.
inline int64_t ConvOutSize(int64_t in, int64_t kernel, int64_t pad,
                           int64_t stride) {
  return (in + 2 * pad - kernel) / stride + 1;
}

}  // namespace poe

#endif  // POE_TENSOR_IM2COL_H_
