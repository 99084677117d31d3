// im2col: the column-matrix lowering of convolution as GEMM, kept as the
// tests' and micro-benchmarks' reference. No library path materializes
// these matrices: forwards read the GEMM's B operand straight from a
// zero-padded image view (tensor/conv_direct.h), bitwise identical to
// im2col + GEMM, and the backward reads the same views
// (Conv2d::Backward). conv_reference.h builds whole conv forwards on it.
//
// The unfold works a column-matrix row at a time: for each kernel column
// kw the in-range output columns form one span [ow_lo, ow_hi), so a row
// is a zero fill, a copy (a memcpy at stride 1) and a zero fill, with no
// per-element bounds test.
#ifndef POE_TESTS_SUPPORT_IM2COL_H_
#define POE_TESTS_SUPPORT_IM2COL_H_

#include <cstdint>

#include "tensor/conv_direct.h"

namespace poe {

/// Unfolds one image (C x H x W, row-major) into a column matrix of shape
/// (C*kh*kw) x (out_h*out_w) so that convolution is a single GEMM with the
/// (out_c) x (C*kh*kw) weight matrix.
void Im2Col(const float* image, int64_t channels, int64_t height,
            int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t pad,
            int64_t stride, float* columns);

/// Int8 overload for the quantized reference: unfolds an already
/// symmetric-quantized image (padding writes quantized zero = 0 exactly).
/// With group > 1 the rows follow PackedS8Weights::PackConv's k order
/// (c / group, kh, kw, c % group) and the rows of the channels that pad
/// `channels` up to a multiple of group are zero.
void Im2Col(const int8_t* image, int64_t channels, int64_t height,
            int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t pad,
            int64_t stride, int8_t* columns, int64_t group = 1);

}  // namespace poe

#endif  // POE_TESTS_SUPPORT_IM2COL_H_
