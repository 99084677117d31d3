// Im2col-free direct convolution support: zero-padded image layouts that
// the GEMM micro-kernels read their B operand from in place, instead of a
// materialized im2col matrix (which duplicates every input element
// kernel*kernel times).
//
// A per-call table maps each k step to its tap's offset at output pixel
// (0, 0), and the pixels of one output row are contiguous in the image, so
// no B panel is written (gemm.h ImageMatrix, gemm_s8.cc
// GemmS8ConvPackedA). Conv backward reads the same tables: the dW GEMM
// takes the image as its A operand (GemmConvAEx).
// For stride s > 1 the image is stored column-phase split: padded column x
// lives in phase plane x % s at position x / s, so the taps of one output
// row are again contiguous and the offset table absorbs the phase. Panels
// that no load shape covers (rows narrower than a vector, N tails) are
// gathered into a small panel for the same kernel.
//
// f32 images are planar. int8 images interleave `group` channels per pixel
// (the int8 kernel's k-group: 4 for VNNI and scalar, 2 for AVX2), so the
// B bytes of one k-group for consecutive output pixels form one contiguous
// run, the packed panel's own layout. Their weights are packed in the
// matching k order (c / group, kh, kw, c % group), with zero weights for
// the channels that pad C up to a multiple of `group`.
//
// Every direct product runs the same FMA (or exact integer) chain per
// output element as GEMM over the materialized im2col matrix, so outputs
// are bitwise that lowering's on every kernel tier. It is the only conv
// lowering the library runs; the im2col one lives on in the tests as
// their reference (tests/support/conv_reference.h).
#ifndef POE_TENSOR_CONV_DIRECT_H_
#define POE_TENSOR_CONV_DIRECT_H_

#include <cstdint>

namespace poe {

/// Output spatial size for a conv dimension.
inline int64_t ConvOutSize(int64_t in, int64_t kernel, int64_t pad,
                           int64_t stride) {
  return (in + 2 * pad - kernel) / stride + 1;
}

/// A zero-padded image the GEMM reads the virtual im2col matrix from. It
/// holds phases() column-phase planes (one when stride is 1), each of
/// channel_groups() x padded_h() x phase_w() pixels of `group` channels:
/// padded column x sits in plane x % stride at position x / stride, and
/// channel c in group c / group at lane c % group. The interior is the
/// image; the border and the lanes past `channels` are exact zero (float
/// 0.0f or quantized 0, what an im2col unfold writes for out-of-range taps).
template <typename T>
struct ConvImageViewT {
  const T* padded = nullptr;
  int64_t channels = 0;
  int64_t height = 0;  ///< logical (unpadded) image height
  int64_t width = 0;   ///< logical (unpadded) image width
  int64_t kernel = 0;  ///< square kernel extent
  int64_t pad = 0;
  int64_t stride = 1;
  int64_t group = 1;  ///< channels per pixel: 1 for f32, the k-group for int8

  int64_t padded_h() const { return height + 2 * pad; }
  int64_t padded_w() const { return width + 2 * pad; }
  int64_t out_h() const { return (padded_h() - kernel) / stride + 1; }
  int64_t out_w() const { return (padded_w() - kernel) / stride + 1; }
  /// Column-phase planes the taps read: kw % stride for kw < kernel.
  int64_t phases() const { return stride < kernel ? stride : kernel; }
  /// Width of one phase plane's rows (padded_w() when stride is 1).
  int64_t phase_w() const { return (padded_w() + stride - 1) / stride; }
  int64_t channel_groups() const { return (channels + group - 1) / group; }
  /// GEMM reduction depth (im2col rows): channels * kernel^2.
  int64_t depth() const { return channels * kernel * kernel; }
  /// GEMM output columns (im2col columns): out_h * out_w.
  int64_t cols() const { return out_h() * out_w(); }
  /// Offset of tap (channel group cg, kh, kw) at output pixel (0, 0).
  int64_t tap_offset(int64_t cg, int64_t kh, int64_t kw) const {
    return ((((kw % stride) * channel_groups() + cg) * padded_h() + kh) *
                phase_w() +
            kw / stride) *
           group;
  }
  /// Moves a tap from output pixel 0 to output pixel j.
  int64_t col_offset(int64_t j) const {
    return ((j / out_w()) * stride * phase_w() + j % out_w()) * group;
  }
};

using ConvImageView = ConvImageViewT<float>;
using ConvImageViewS8 = ConvImageViewT<int8_t>;

/// Writes the k-step offset table of a direct GEMM over `v`: entry
/// (cg * kernel + kh) * kernel + kw is tap_offset(cg, kh, kw) (a k row for
/// f32, a k-group of `group` rows for int8).
template <typename T>
void TapOffsets(const ConvImageViewT<T>& v, int32_t* koff) {
  for (int64_t cg = 0; cg < v.channel_groups(); ++cg)
    for (int64_t kh = 0; kh < v.kernel; ++kh)
      for (int64_t kw = 0; kw < v.kernel; ++kw)
        *koff++ = static_cast<int32_t>(v.tap_offset(cg, kh, kw));
}

/// Elements of the direct-layout copy of one image for view `v` (its
/// `padded` pointer is ignored). Zero when the view can alias the planar
/// input image: stride 1, pad 0 and one channel per pixel.
template <typename T>
int64_t DirectImageElems(const ConvImageViewT<T>& v) {
  if (v.stride == 1 && v.pad == 0 && v.group == 1) return 0;
  return v.phases() * v.channel_groups() * v.group * v.padded_h() *
         v.phase_w();
}

/// Writes one CHW image into `buf` (DirectImageElems(v) elements) in the
/// direct layout of `v`, border and padding-channel zeros included.
/// Requires a nonzero DirectImageElems(v). The f32 form needs group 1; the
/// int8 form copies an already-quantized image byte for byte.
void FillDirectImage(const float* image, const ConvImageView& v, float* buf);
void FillDirectImage(const int8_t* image, const ConvImageViewS8& v,
                     int8_t* buf);

/// dst[i * group + r] = src[r][i] for i < n and r < group: `group`
/// channel rows interleaved into one pixel run of an int8 direct image
/// (SIMD for the kernels' groups, 2 and 4).
void InterleaveChannelRows(const int8_t* const* src, int64_t group, int64_t n,
                           int8_t* dst);

/// Zeroes what FillDirectImage would zero in `buf` for a stride-1 view:
/// the border, and the whole last channel group when `channels` leaves
/// padding lanes. A producer then writes the interior lanes in place.
void ZeroDirectImageBorder(const ConvImageViewS8& v, int8_t* buf);

}  // namespace poe

#endif  // POE_TENSOR_CONV_DIRECT_H_
