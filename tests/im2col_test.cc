#include "tensor/im2col.h"

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "util/rng.h"

namespace poe {
namespace {

TEST(Im2ColTest, OutSize) {
  EXPECT_EQ(ConvOutSize(8, 3, 1, 1), 8);
  EXPECT_EQ(ConvOutSize(8, 3, 1, 2), 4);
  EXPECT_EQ(ConvOutSize(8, 1, 0, 1), 8);
  EXPECT_EQ(ConvOutSize(8, 1, 0, 2), 4);
  EXPECT_EQ(ConvOutSize(5, 3, 0, 1), 3);
}

TEST(Im2ColTest, OneByOneKernelIsIdentity) {
  const int c = 2, h = 3, w = 3;
  std::vector<float> img(c * h * w);
  for (size_t i = 0; i < img.size(); ++i) img[i] = static_cast<float>(i);
  std::vector<float> cols(c * h * w);
  Im2Col(img.data(), c, h, w, 1, 1, 0, 1, cols.data());
  for (size_t i = 0; i < img.size(); ++i) EXPECT_EQ(cols[i], img[i]);
}

TEST(Im2ColTest, CenterTapOfPadded3x3EqualsImage) {
  const int h = 4, w = 4;
  std::vector<float> img(h * w);
  for (int i = 0; i < h * w; ++i) img[i] = static_cast<float>(i + 1);
  std::vector<float> cols(9 * h * w);
  Im2Col(img.data(), 1, h, w, 3, 3, 1, 1, cols.data());
  // Row 4 (kh=1, kw=1) is the center tap: equals the original image.
  for (int i = 0; i < h * w; ++i) EXPECT_EQ(cols[4 * h * w + i], img[i]);
  // Top-left tap (kh=0,kw=0) at output (0,0) looks at (-1,-1): padding.
  EXPECT_EQ(cols[0], 0.0f);
}

TEST(Im2ColTest, StridedSamplesCorrectPixels) {
  const int h = 4, w = 4;
  std::vector<float> img(h * w);
  for (int i = 0; i < h * w; ++i) img[i] = static_cast<float>(i);
  // 1x1 kernel, stride 2: picks pixels (0,0),(0,2),(2,0),(2,2).
  std::vector<float> cols(4);
  Im2Col(img.data(), 1, h, w, 1, 1, 0, 2, cols.data());
  EXPECT_EQ(cols[0], 0.0f);
  EXPECT_EQ(cols[1], 2.0f);
  EXPECT_EQ(cols[2], 8.0f);
  EXPECT_EQ(cols[3], 10.0f);
}

// The element-at-a-time unfold the span-based transform replaced, kept
// as the bitwise reference.
template <typename T>
void RefIm2Col(const T* image, int64_t channels, int64_t height,
               int64_t width, int64_t kernel, int64_t pad, int64_t stride,
               T* columns) {
  const int64_t out_h = ConvOutSize(height, kernel, pad, stride);
  const int64_t out_w = ConvOutSize(width, kernel, pad, stride);
  const int64_t out_hw = out_h * out_w;
  int64_t row = 0;
  for (int64_t c = 0; c < channels; ++c) {
    const T* img_c = image + c * height * width;
    for (int64_t kh = 0; kh < kernel; ++kh) {
      for (int64_t kw = 0; kw < kernel; ++kw, ++row) {
        T* col_row = columns + row * out_hw;
        for (int64_t oh = 0; oh < out_h; ++oh) {
          const int64_t ih = oh * stride - pad + kh;
          if (ih < 0 || ih >= height) {
            for (int64_t ow = 0; ow < out_w; ++ow)
              col_row[oh * out_w + ow] = T(0);
            continue;
          }
          const T* img_row = img_c + ih * width;
          for (int64_t ow = 0; ow < out_w; ++ow) {
            const int64_t iw = ow * stride - pad + kw;
            col_row[oh * out_w + ow] =
                (iw >= 0 && iw < width) ? img_row[iw] : T(0);
          }
        }
      }
    }
  }
}

template <typename T>
bool BytesEqual(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// (kernel, stride, pad)
using UnfoldCase = std::tuple<int, int, int>;

class UnfoldSweep : public ::testing::TestWithParam<UnfoldCase> {};

// Odd heights and widths, including images narrower (and shorter) than
// the kernel; geometries with no output pixel are skipped.
constexpr int kSides[][2] = {{7, 5}, {5, 9}, {3, 1}, {2, 4}, {11, 3}, {1, 1}};

TEST_P(UnfoldSweep, MatchesScalarReferenceBitwise) {
  const auto [k, stride, pad] = GetParam();
  const int c = 3;
  int covered = 0;
  for (const auto& side : kSides) {
    const int h = side[0], w = side[1];
    if (h + 2 * pad < k || w + 2 * pad < k) continue;
    ++covered;
    SCOPED_TRACE(::testing::Message() << "h=" << h << " w=" << w);
    const int64_t out_hw =
        ConvOutSize(h, k, pad, stride) * ConvOutSize(w, k, pad, stride);
    const size_t n_cols = static_cast<size_t>(c * k * k * out_hw);
    Rng rng(static_cast<uint64_t>(k * 100 + stride * 10 + pad + h * w));

    std::vector<float> img(c * h * w);
    for (auto& v : img) v = rng.Uniform(-2.0f, 2.0f);
    // Poison the outputs so an unwritten element shows up.
    std::vector<float> got(n_cols, -7.0f), want(n_cols, 7.0f);
    Im2Col(img.data(), c, h, w, k, k, pad, stride, got.data());
    RefIm2Col(img.data(), c, h, w, k, pad, stride, want.data());
    EXPECT_TRUE(BytesEqual(got, want)) << "f32 Im2Col";

    std::vector<int8_t> qimg(c * h * w);
    for (auto& v : qimg) v = static_cast<int8_t>(rng.Uniform(-127.0f, 127.0f));
    std::vector<int8_t> qgot(n_cols, 55), qwant(n_cols, -55);
    Im2Col(qimg.data(), c, h, w, k, k, pad, stride, qgot.data());
    RefIm2Col(qimg.data(), c, h, w, k, pad, stride, qwant.data());
    EXPECT_TRUE(BytesEqual(qgot, qwant)) << "int8 Im2Col";
  }
  EXPECT_GT(covered, 0);
}

INSTANTIATE_TEST_SUITE_P(
    KernelStridePad, UnfoldSweep,
    ::testing::Combine(::testing::Values(1, 3, 5), ::testing::Values(1, 2, 3),
                       ::testing::Values(0, 1, 2)));

}  // namespace
}  // namespace poe
