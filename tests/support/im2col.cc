#include "support/im2col.h"

#include <algorithm>
#include <cstring>

namespace poe {

namespace {

// The output columns [lo, hi) whose input column ow*stride - pad + kw
// lands inside [0, width). Depends only on kw, never on the row.
struct ValidSpan {
  int64_t lo, hi;
};

ValidSpan ValidOutputColumns(int64_t width, int64_t out_w, int64_t kw,
                             int64_t pad, int64_t stride) {
  // First ow with ow*stride >= pad - kw.
  const int64_t first = pad - kw;
  int64_t lo = first <= 0 ? 0 : (first + stride - 1) / stride;
  // Last ow with ow*stride <= width - 1 + pad - kw.
  const int64_t last = width - 1 + pad - kw;
  int64_t hi = last < 0 ? 0 : last / stride + 1;
  hi = std::min(hi, out_w);
  lo = std::min(lo, hi);
  return {lo, hi};
}

// Shared unfold over the element type: f32, and int8 for the quantized
// reference (zero padding is exact in both domains).
// Row (c, kh, kw) goes to ((c / group * kernel_h + kh) * kernel_w + kw) *
// group + c % group, which is the plain running order for group 1.
template <typename T>
void Im2ColT(const T* image, int64_t channels, int64_t height, int64_t width,
             int64_t kernel_h, int64_t kernel_w, int64_t pad, int64_t stride,
             T* columns, int64_t group) {
  const int64_t out_h = ConvOutSize(height, kernel_h, pad, stride);
  const int64_t out_w = ConvOutSize(width, kernel_w, pad, stride);
  const int64_t out_hw = out_h * out_w;
  const int64_t padded_channels = (channels + group - 1) / group * group;
  for (int64_t c = 0; c < padded_channels; ++c) {
    for (int64_t kh = 0; kh < kernel_h; ++kh) {
      for (int64_t kw = 0; kw < kernel_w; ++kw) {
        const int64_t row =
            ((c / group * kernel_h + kh) * kernel_w + kw) * group + c % group;
        T* col_row = columns + row * out_hw;
        if (c >= channels) {
          std::fill(col_row, col_row + out_hw, T(0));
          continue;
        }
        const T* img_c = image + c * height * width;
        const ValidSpan span = ValidOutputColumns(width, out_w, kw, pad,
                                                  stride);
        for (int64_t oh = 0; oh < out_h; ++oh) {
          T* dst = col_row + oh * out_w;
          const int64_t ih = oh * stride - pad + kh;
          if (ih < 0 || ih >= height) {
            std::fill(dst, dst + out_w, T(0));
            continue;
          }
          std::fill(dst, dst + span.lo, T(0));
          // Output column ow reads input column ow * stride + shift.
          const T* src = img_c + ih * width;
          const int64_t shift = kw - pad;
          if (stride == 1) {
            std::memcpy(dst + span.lo, src + span.lo + shift,
                        static_cast<size_t>(span.hi - span.lo) * sizeof(T));
          } else {
            for (int64_t ow = span.lo; ow < span.hi; ++ow)
              dst[ow] = src[ow * stride + shift];
          }
          std::fill(dst + span.hi, dst + out_w, T(0));
        }
      }
    }
  }
}

}  // namespace

void Im2Col(const float* image, int64_t channels, int64_t height,
            int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t pad,
            int64_t stride, float* columns) {
  Im2ColT(image, channels, height, width, kernel_h, kernel_w, pad, stride,
          columns, /*group=*/1);
}

void Im2Col(const int8_t* image, int64_t channels, int64_t height,
            int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t pad,
            int64_t stride, int8_t* columns, int64_t group) {
  Im2ColT(image, channels, height, width, kernel_h, kernel_w, pad, stride,
          columns, group);
}

}  // namespace poe
