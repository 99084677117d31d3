// Property test: Conv2d (the direct lowering: GEMM over a zero-padded image
// view) against a naive convolution loop across a parameter sweep of
// shapes, strides, and paddings.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "nn/conv2d.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace poe {
namespace {

// Direct convolution: out[b][oc][oh][ow] = sum_ic,kh,kw w * x (+ bias).
Tensor NaiveConv(const Tensor& x, const Tensor& weight, const Tensor& bias,
                 int64_t out_c, int64_t kernel, int64_t stride, int64_t pad) {
  const int64_t batch = x.dim(0), in_c = x.dim(1), h = x.dim(2),
                w = x.dim(3);
  const int64_t out_h = (h + 2 * pad - kernel) / stride + 1;
  const int64_t out_w = (w + 2 * pad - kernel) / stride + 1;
  Tensor out = Tensor::Zeros({batch, out_c, out_h, out_w});
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t oc = 0; oc < out_c; ++oc) {
      for (int64_t oh = 0; oh < out_h; ++oh) {
        for (int64_t ow = 0; ow < out_w; ++ow) {
          double acc = bias.defined() ? bias.at(oc) : 0.0;
          for (int64_t ic = 0; ic < in_c; ++ic) {
            for (int64_t kh = 0; kh < kernel; ++kh) {
              for (int64_t kw = 0; kw < kernel; ++kw) {
                const int64_t ih = oh * stride - pad + kh;
                const int64_t iw = ow * stride - pad + kw;
                if (ih < 0 || ih >= h || iw < 0 || iw >= w) continue;
                const float xv = x.at(((b * in_c + ic) * h + ih) * w + iw);
                const float wv = weight.at(
                    oc * in_c * kernel * kernel + ic * kernel * kernel +
                    kh * kernel + kw);
                acc += static_cast<double>(xv) * wv;
              }
            }
          }
          out.at(((b * out_c + oc) * out_h + oh) * out_w + ow) =
              static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

// (in_c, out_c, kernel, stride, pad, h, w, bias)
using Case = std::tuple<int, int, int, int, int, int, int, bool>;

class ConvReferenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(ConvReferenceTest, MatchesNaiveConvolution) {
  const auto [in_c, out_c, kernel, stride, pad, h, w, bias] = GetParam();
  Rng rng(in_c * 131 + out_c * 17 + kernel + stride + pad + h + w);
  Conv2d conv(in_c, out_c, kernel, stride, pad, rng, bias);
  Tensor x = Tensor::Randn({3, in_c, h, w}, rng);
  Tensor fast = conv.Forward(x, false);
  Tensor slow = NaiveConv(x, conv.weight().value,
                          bias ? conv.bias().value : Tensor(), out_c, kernel,
                          stride, pad);
  ASSERT_EQ(fast.shape(), slow.shape());
  EXPECT_LT(MaxAbsDiff(fast, slow), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvReferenceTest,
    ::testing::Values(Case{1, 1, 1, 1, 0, 4, 4, false},
                      Case{3, 8, 3, 1, 1, 8, 8, false},
                      Case{3, 8, 3, 2, 1, 8, 8, false},
                      Case{4, 2, 3, 1, 0, 5, 7, true},
                      Case{2, 6, 1, 2, 0, 6, 6, true},
                      Case{8, 16, 3, 2, 1, 7, 5, false},
                      Case{1, 3, 5, 1, 2, 9, 9, true},
                      Case{2, 2, 3, 3, 1, 9, 9, false}));

}  // namespace
}  // namespace poe
