// Conv2d::Backward against references that share none of its code paths.
//
// dW (and db) must be bitwise the per-part Im2Col + GemmEx product over
// the batch-only partition (Conv2d::kGradRowsPerPart rows per part, parts
// summed in order). dX must land within a stated tolerance of a
// double-precision naive transposed conv, and satisfy the adjoint
// identity <conv(x), y> = <x, dX(y)>. CMake reruns this binary under
// POE_GEMM_KERNEL=scalar|avx2 and POE_NUM_THREADS=1|4, so a dW partition
// that followed the thread count would fail one of the entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "nn/conv2d.h"
#include "support/im2col.h"
#include "tensor/gemm.h"
#include "util/rng.h"

namespace poe {
namespace {

struct BackwardCase {
  int64_t in_c, out_c, kernel, stride, pad, h, w;
  std::string name;
};

// The WRN-16 training convs (stem, the three stage bodies, both 3x3/s2
// transitions, both 1x1/s2 projections, the expert's 16-channel 8x8),
// then odd widths for the kernel tails and the geometries the phase
// split must also cover: no pad, pad past kernel - 1, stride 3.
const BackwardCase kCases[] = {
    {3, 16, 3, 1, 1, 32, 32, "stem"},
    {16, 16, 3, 1, 1, 32, 32, "stage1"},
    {32, 32, 3, 1, 1, 16, 16, "stage2"},
    {64, 64, 3, 1, 1, 8, 8, "stage3"},
    {16, 32, 3, 2, 1, 32, 32, "transition2"},
    {32, 64, 3, 2, 1, 16, 16, "transition3"},
    {16, 32, 1, 2, 0, 32, 32, "projection2"},
    {32, 64, 1, 2, 0, 16, 16, "projection3"},
    {16, 16, 3, 1, 1, 8, 8, "expert8x8"},
    {5, 7, 3, 1, 1, 7, 7, "odd7"},
    {7, 5, 3, 2, 1, 5, 5, "odd5s2"},
    {5, 7, 1, 2, 0, 7, 5, "odd1x1s2"},
    {3, 4, 3, 1, 0, 7, 5, "nopad"},
    {2, 3, 1, 1, 1, 5, 5, "pad1x1"},
    {3, 2, 5, 3, 2, 7, 5, "k5s3"},
};

// Batch rows: two full parts and a partial one.
constexpr int64_t kBatch = 2 * Conv2d::kGradRowsPerPart + 3;

class ConvBackwardTest : public ::testing::TestWithParam<BackwardCase> {
 protected:
  void SetUp() override {
    const BackwardCase& c = GetParam();
    Rng rng(static_cast<uint64_t>(c.in_c * 1000 + c.out_c * 10 + c.kernel));
    conv_ = std::make_unique<Conv2d>(c.in_c, c.out_c, c.kernel, c.stride,
                                     c.pad, rng, /*bias=*/true);
    x_ = Tensor::Randn({kBatch, c.in_c, c.h, c.w}, rng);
    y_ = conv_->Forward(x_, /*training=*/true);
    // Odd-valued gradients make the float sums order-sensitive.
    dy_ = Tensor::Randn(y_.shape(), rng);
    for (int64_t i = 0; i < dy_.numel(); ++i) dy_.at(i) *= 1.37f;
    conv_->ZeroGrad();
    dx_ = conv_->Backward(dy_);
  }

  std::unique_ptr<Conv2d> conv_;
  Tensor x_, y_, dy_, dx_;
};

TEST_P(ConvBackwardTest, WeightGradBitwiseMatchesIm2ColPartSums) {
  const BackwardCase& c = GetParam();
  const int64_t out_h = ConvOutSize(c.h, c.kernel, c.pad, c.stride);
  const int64_t out_w = ConvOutSize(c.w, c.kernel, c.pad, c.stride);
  const int64_t ohw = out_h * out_w;
  const int64_t ckk = c.in_c * c.kernel * c.kernel;
  std::vector<float> cols(static_cast<size_t>(ckk * ohw));
  std::vector<float> slot(static_cast<size_t>(c.out_c * ckk));
  std::vector<float> dw(slot.size(), 0.0f), db(c.out_c, 0.0f);
  std::vector<float> db_slot(c.out_c);
  for (int64_t begin = 0; begin < kBatch;
       begin += Conv2d::kGradRowsPerPart) {
    const int64_t end = std::min(kBatch, begin + Conv2d::kGradRowsPerPart);
    std::fill(db_slot.begin(), db_slot.end(), 0.0f);
    for (int64_t b = begin; b < end; ++b) {
      const float* dy_b = dy_.data() + b * c.out_c * ohw;
      Im2Col(x_.data() + b * c.in_c * c.h * c.w, c.in_c, c.h, c.w, c.kernel,
             c.kernel, c.pad, c.stride, cols.data());
      GemmEx(false, true, c.out_c, ckk, ohw, 1.0f, dy_b, cols.data(),
             b == begin ? 0.0f : 1.0f, slot.data(), GemmEpilogue{},
             /*parallel=*/false);
      for (int64_t oc = 0; oc < c.out_c; ++oc) {
        float acc = 0.0f;
        for (int64_t i = 0; i < ohw; ++i) acc += dy_b[oc * ohw + i];
        db_slot[oc] += acc;
      }
    }
    for (size_t i = 0; i < dw.size(); ++i) dw[i] += slot[i];
    for (int64_t oc = 0; oc < c.out_c; ++oc) db[oc] += db_slot[oc];
  }
  const Tensor& got_dw = conv_->weight().grad;
  const Tensor& got_db = conv_->bias().grad;
  ASSERT_EQ(got_dw.numel(), static_cast<int64_t>(dw.size()));
  EXPECT_EQ(std::memcmp(got_dw.data(), dw.data(), dw.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(got_db.data(), db.data(), db.size() * sizeof(float)),
            0);
}

// Each dX element within 2e-5 of the sum of its terms' magnitudes (an
// fp32 chain over at most 576 terms stays far inside that) of a double
// naive transposed conv.
TEST_P(ConvBackwardTest, InputGradMatchesDoubleReference) {
  const BackwardCase& c = GetParam();
  const int64_t out_h = ConvOutSize(c.h, c.kernel, c.pad, c.stride);
  const int64_t out_w = ConvOutSize(c.w, c.kernel, c.pad, c.stride);
  const float* wt = conv_->weight().value.data();
  ASSERT_EQ(dx_.shape(), x_.shape());
  int64_t bad = 0;
  for (int64_t b = 0; b < kBatch; ++b) {
    for (int64_t ci = 0; ci < c.in_c; ++ci) {
      for (int64_t y = 0; y < c.h; ++y) {
        for (int64_t x = 0; x < c.w; ++x) {
          double sum = 0.0, mag = 0.0;
          for (int64_t oc = 0; oc < c.out_c; ++oc) {
            for (int64_t kh = 0; kh < c.kernel; ++kh) {
              const int64_t ry = y + c.pad - kh;
              if (ry < 0 || ry % c.stride != 0 || ry / c.stride >= out_h)
                continue;
              for (int64_t kw = 0; kw < c.kernel; ++kw) {
                const int64_t rx = x + c.pad - kw;
                if (rx < 0 || rx % c.stride != 0 || rx / c.stride >= out_w)
                  continue;
                const double t =
                    static_cast<double>(
                        wt[(oc * c.in_c + ci) * c.kernel * c.kernel +
                           kh * c.kernel + kw]) *
                    dy_.data()[((b * c.out_c + oc) * out_h + ry / c.stride) *
                                   out_w +
                               rx / c.stride];
                sum += t;
                mag += std::fabs(t);
              }
            }
          }
          const float got = dx_.data()[((b * c.in_c + ci) * c.h + y) * c.w + x];
          if (!(std::fabs(got - sum) <= 2e-5 * mag) && bad++ < 5) {
            ADD_FAILURE() << "dX[" << b << "," << ci << "," << y << "," << x
                          << "] = " << got << ", want " << sum;
          }
        }
      }
    }
  }
  EXPECT_EQ(bad, 0);
}

// <conv(x), dy> = <x, dX(dy)> (bias aside): the backward is the forward's
// adjoint. Within 1e-5 of the sums of the terms' magnitudes.
TEST_P(ConvBackwardTest, InputGradIsAdjointOfForward) {
  const float* bias = conv_->bias().value.data();
  const int64_t out_c = GetParam().out_c;
  const int64_t ohw = y_.numel() / (kBatch * out_c);
  double lhs = 0.0, lhs_mag = 0.0, rhs = 0.0, rhs_mag = 0.0;
  for (int64_t i = 0; i < y_.numel(); ++i) {
    const double t = (static_cast<double>(y_.at(i)) - bias[i / ohw % out_c]) *
                     dy_.at(i);
    lhs += t;
    lhs_mag += std::fabs(t);
  }
  for (int64_t i = 0; i < x_.numel(); ++i) {
    const double t = static_cast<double>(x_.at(i)) * dx_.at(i);
    rhs += t;
    rhs_mag += std::fabs(t);
  }
  EXPECT_NEAR(lhs, rhs, 1e-5 * (lhs_mag + rhs_mag));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvBackwardTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<BackwardCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace poe
