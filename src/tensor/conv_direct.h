// Im2col-free direct convolution support: zero-padded image views that
// the blocked GEMM reads its B operand from, instead of a materialized
// im2col matrix (which duplicates every input element kernel*kernel
// times).
//
// f32, any stride: the micro-kernel loads each k-step's B row straight
// from the padded image. A per-call table maps k row p = (c, kh, kw) to
// that tap's offset, and each output row's columns are contiguous in the
// image, so no B panel is written (gemm.cc, DirectB). For stride s > 1
// the image is stored column-phase split: padded column x lives in phase
// plane x % s at position x / s, so the taps of one output row are again
// contiguous and the offset table absorbs the phase. Panels that no SIMD
// load shape covers (rows narrower than a vector, N tails) are gathered
// into an L1-sized panel for the same kernel.
//
// int8, stride 1: the B-panel packers gather the virtual im2col matrix out
// of the padded image while packing (spans or SIMD loads, then the VNNI
// k-grouping). Strided int8 convs use im2col: the VNNI kernels consume k
// in groups of 4 consecutive rows, which a packer must interleave anyway.
//
// Every direct product runs the same FMA (or exact integer) chain per
// output element as the im2col lowering, so outputs are bitwise identical
// on every kernel tier. `POE_CONV_PATH=im2col|direct|auto` (or
// SetConvPath) overrides the automatic choice for A/B benching.
#ifndef POE_TENSOR_CONV_DIRECT_H_
#define POE_TENSOR_CONV_DIRECT_H_

#include <cstdint>

namespace poe {

/// Which lowering Conv2d uses for non-pointwise forward passes.
enum class ConvPath {
  kAuto,    ///< direct when the geometry is covered, else im2col
  kIm2Col,  ///< always materialize the im2col matrix
  kDirect,  ///< direct when covered (f32: always; int8: stride 1)
};

/// Current process-wide path choice. Initialized once from POE_CONV_PATH
/// ("auto" | "im2col" | "direct", default auto).
ConvPath ConvPathChoice();

/// Overrides the path choice (tests and A/B benches). Not thread-safe
/// against concurrent forwards; flip it only around single-threaded
/// measurement or setup code.
void SetConvPath(ConvPath path);

/// True when the f32 forward takes the direct path (every geometry is
/// covered; only the POE_CONV_PATH=im2col pin opts out).
inline bool UseDirectConv() {
  return ConvPathChoice() != ConvPath::kIm2Col;
}

/// True when the int8 forward takes the direct path: stride 1 only (the
/// padding is absorbed into the padded image copy, so any pad works).
inline bool UseDirectConvS8(int64_t stride) {
  return stride == 1 && UseDirectConv();
}

/// A zero-padded image the GEMM reads the virtual im2col matrix from.
/// With stride 1, `padded` holds channels x (height + 2*pad) x
/// (width + 2*pad) elements. With stride s > 1 (f32 only) it holds
/// phases() column-phase planes of channels x padded_h() x phase_w():
/// padded column x sits in plane x % s at x / s. The interior is the
/// image, the border is exact zero (float 0.0f or quantized 0, matching
/// what Im2Col writes for out-of-range taps).
template <typename T>
struct ConvImageViewT {
  const T* padded = nullptr;
  int64_t channels = 0;
  int64_t height = 0;  ///< logical (unpadded) image height
  int64_t width = 0;   ///< logical (unpadded) image width
  int64_t kernel = 0;  ///< square kernel extent
  int64_t pad = 0;
  int64_t stride = 1;

  int64_t padded_h() const { return height + 2 * pad; }
  int64_t padded_w() const { return width + 2 * pad; }
  int64_t out_h() const { return (padded_h() - kernel) / stride + 1; }
  int64_t out_w() const { return (padded_w() - kernel) / stride + 1; }
  /// Column-phase planes the taps read: kw % stride for kw < kernel.
  int64_t phases() const { return stride < kernel ? stride : kernel; }
  /// Width of one phase plane's rows (padded_w() when stride is 1).
  int64_t phase_w() const { return (padded_w() + stride - 1) / stride; }
  /// GEMM reduction depth (im2col rows): channels * kernel^2.
  int64_t depth() const { return channels * kernel * kernel; }
  /// GEMM output columns (im2col columns): out_h * out_w.
  int64_t cols() const { return out_h() * out_w(); }
};

using ConvImageView = ConvImageViewT<float>;
using ConvImageViewS8 = ConvImageViewT<int8_t>;

/// Number of elements a padded copy of one image needs. Zero when pad == 0
/// (the view can alias the input image directly — no copy at all).
inline int64_t PaddedImageElems(int64_t channels, int64_t height,
                                int64_t width, int64_t pad) {
  return pad == 0 ? 0
                  : channels * (height + 2 * pad) * (width + 2 * pad);
}

/// Elements of the f32 direct-layout copy of one image for view `v`
/// (its `padded` pointer is ignored). Zero when stride is 1 and pad is 0:
/// the view aliases the input image.
int64_t DirectImageElems(const ConvImageView& v);

/// Writes one CHW image into `buf` (DirectImageElems(v) floats) in the
/// direct layout of `v`, border zeros included. Requires a nonzero
/// DirectImageElems(v).
void FillDirectImage(const float* image, const ConvImageView& v, float* buf);

/// Zeroes the border of a padded int8 image buffer once; the interior may
/// stay uninitialized (CopyImageInterior overwrites all of it). Callers
/// reuse one buffer across a batch: the borders only need zeroing once
/// because interior copies never touch them.
void ZeroImageBorder(int8_t* padded, int64_t channels, int64_t height,
                     int64_t width, int64_t pad);

/// Copies an already-quantized CHW int8 image into the interior of a
/// padded buffer.
void CopyImageInterior(const int8_t* image, int64_t channels, int64_t height,
                       int64_t width, int64_t pad, int8_t* padded);

}  // namespace poe

#endif  // POE_TENSOR_CONV_DIRECT_H_
