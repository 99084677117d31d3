// Property-style sweeps of BatchNorm2d behaviours that the WRN training
// pipeline depends on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "nn/batchnorm.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace poe {
namespace {

// (channels, batch, hw_side)
using BnCase = std::tuple<int, int, int>;

class BatchNormSweep : public ::testing::TestWithParam<BnCase> {};

TEST_P(BatchNormSweep, TrainingOutputIsStandardized) {
  const auto [channels, batch, side] = GetParam();
  BatchNorm2d bn(channels);
  Rng rng(channels * 7 + batch);
  Tensor x = Tensor::Randn({batch, channels, side, side}, rng, 2.5f);
  Tensor y = bn.Forward(x, true);
  const int64_t hw = side * side;
  for (int c = 0; c < channels; ++c) {
    double sum = 0, sq = 0;
    for (int b = 0; b < batch; ++b) {
      for (int64_t i = 0; i < hw; ++i) {
        const float v = y.at((b * channels + c) * hw + i);
        sum += v;
        sq += v * v;
      }
    }
    const double n = batch * hw;
    EXPECT_NEAR(sum / n, 0.0, 1e-3);
    EXPECT_NEAR(sq / n, 1.0, 2e-2);
  }
}

TEST_P(BatchNormSweep, EvalIsDeterministicAndBatchIndependent) {
  const auto [channels, batch, side] = GetParam();
  BatchNorm2d bn(channels);
  Rng rng(3);
  // Prime running stats.
  for (int i = 0; i < 20; ++i) {
    bn.Forward(Tensor::Randn({batch, channels, side, side}, rng), true);
  }
  // Eval output for a sample must not depend on its batch companions.
  Tensor single = Tensor::Randn({1, channels, side, side}, rng);
  Tensor alone = bn.Forward(single, false);

  Tensor batch2({2, channels, static_cast<int64_t>(side),
                 static_cast<int64_t>(side)});
  std::memcpy(batch2.data(), single.data(), sizeof(float) * single.numel());
  Tensor other = Tensor::Randn({1, channels, side, side}, rng);
  std::memcpy(batch2.data() + single.numel(), other.data(),
              sizeof(float) * other.numel());
  Tensor together = bn.Forward(batch2, false);
  Tensor first_row = SliceRows(together, 0, 1);
  EXPECT_LT(MaxAbsDiff(alone, first_row), 1e-6f);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BatchNormSweep,
                         ::testing::Values(BnCase{1, 4, 2}, BnCase{3, 8, 4},
                                           BnCase{8, 16, 2},
                                           BnCase{2, 32, 3}));

TEST(BatchNormPropertyTest, RunningStatsConvergeToDataMoments) {
  BatchNorm2d bn(1, 1e-5f, 0.1f);
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    Tensor x = Tensor::Randn({32, 1, 2, 2}, rng, 3.0f);
    for (int64_t j = 0; j < x.numel(); ++j) x.at(j) += 7.0f;
    bn.Forward(x, true);
  }
  EXPECT_NEAR(bn.running_mean().at(0), 7.0f, 0.2f);
  EXPECT_NEAR(bn.running_var().at(0), 9.0f, 0.8f);
}

TEST(BatchNormPropertyTest, EvalWithoutTrainingUsesInitStats) {
  // Fresh BN in eval mode: running mean 0, var 1 => near-identity.
  BatchNorm2d bn(2);
  Rng rng(6);
  Tensor x = Tensor::Randn({4, 2, 3, 3}, rng);
  Tensor y = bn.Forward(x, false);
  EXPECT_LT(MaxAbsDiff(x, y), 1e-4f);
}

// The single-threaded training forward and backward the per-channel
// parallel passes replaced, kept as the bitwise reference.
struct RefBn {
  std::vector<float> gamma, beta, running_mean, running_var, dgamma, dbeta;
  std::vector<float> xhat, inv_std;
  float eps = 1e-5f, momentum = 0.1f;
};

void RefBnForward(RefBn& bn, const Tensor& input, float* out) {
  const int64_t batch = input.dim(0), channels = input.dim(1);
  const int64_t hw = input.dim(2) * input.dim(3);
  const int64_t n = batch * hw;
  const float* in = input.data();
  const float* g = bn.gamma.data();
  const float* b = bn.beta.data();
  bn.xhat.assign(input.numel(), 0.0f);
  bn.inv_std.assign(channels, 0.0f);
  float* xh = bn.xhat.data();
  float* rm = bn.running_mean.data();
  float* rv = bn.running_var.data();
  for (int64_t c = 0; c < channels; ++c) {
    double sum = 0.0, sq = 0.0;
    for (int64_t bi = 0; bi < batch; ++bi) {
      const float* p = in + (bi * channels + c) * hw;
      for (int64_t i = 0; i < hw; ++i) {
        sum += p[i];
        sq += static_cast<double>(p[i]) * p[i];
      }
    }
    const double mean = sum / n;
    double var = sq / n - mean * mean;
    if (var < 0.0) var = 0.0;
    const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + bn.eps);
    bn.inv_std[c] = inv_std;
    const double unbiased = n > 1 ? var * n / (n - 1) : var;
    rm[c] = (1.0f - bn.momentum) * rm[c] +
            bn.momentum * static_cast<float>(mean);
    rv[c] = (1.0f - bn.momentum) * rv[c] +
            bn.momentum * static_cast<float>(unbiased);
    for (int64_t bi = 0; bi < batch; ++bi) {
      const float* p = in + (bi * channels + c) * hw;
      float* xhp = xh + (bi * channels + c) * hw;
      float* op = out + (bi * channels + c) * hw;
      for (int64_t i = 0; i < hw; ++i) {
        const float xhat = (p[i] - static_cast<float>(mean)) * inv_std;
        xhp[i] = xhat;
        op[i] = g[c] * xhat + b[c];
      }
    }
  }
}

void RefBnBackward(RefBn& bn, const Tensor& grad_output, float* gin) {
  const int64_t batch = grad_output.dim(0), channels = grad_output.dim(1);
  const int64_t hw = grad_output.dim(2) * grad_output.dim(3);
  const int64_t n = batch * hw;
  const float* gout = grad_output.data();
  const float* xh = bn.xhat.data();
  const float* g = bn.gamma.data();
  for (int64_t c = 0; c < channels; ++c) {
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (int64_t bi = 0; bi < batch; ++bi) {
      const float* dyp = gout + (bi * channels + c) * hw;
      const float* xhp = xh + (bi * channels + c) * hw;
      for (int64_t i = 0; i < hw; ++i) {
        sum_dy += dyp[i];
        sum_dy_xhat += static_cast<double>(dyp[i]) * xhp[i];
      }
    }
    bn.dgamma[c] += static_cast<float>(sum_dy_xhat);
    bn.dbeta[c] += static_cast<float>(sum_dy);
    const float k = g[c] * bn.inv_std[c] / static_cast<float>(n);
    const float s_dy = static_cast<float>(sum_dy);
    const float s_dy_xh = static_cast<float>(sum_dy_xhat);
    for (int64_t bi = 0; bi < batch; ++bi) {
      const float* dyp = gout + (bi * channels + c) * hw;
      const float* xhp = xh + (bi * channels + c) * hw;
      float* gp = gin + (bi * channels + c) * hw;
      for (int64_t i = 0; i < hw; ++i) {
        gp[i] = k * (static_cast<float>(n) * dyp[i] - s_dy -
                     xhp[i] * s_dy_xh);
      }
    }
  }
}

std::vector<float> ToVector(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

bool BytesEqual(const std::vector<float>& a, const float* b) {
  return std::memcmp(a.data(), b, a.size() * sizeof(float)) == 0;
}

// Seeds a module and its reference with the same non-trivial parameters,
// running statistics and accumulated gradients.
RefBn MatchedBn(BatchNorm2d& bn, Rng& rng) {
  for (Tensor* t : {&bn.gamma().value, &bn.beta().value, &bn.running_mean(),
                    &bn.gamma().grad, &bn.beta().grad}) {
    for (int64_t i = 0; i < t->numel(); ++i) t->at(i) = rng.Uniform(-1, 1);
  }
  for (int64_t i = 0; i < bn.channels(); ++i) {
    bn.running_var().at(i) = rng.Uniform(0.5f, 2.0f);
  }
  RefBn ref;
  ref.gamma = ToVector(bn.gamma().value);
  ref.beta = ToVector(bn.beta().value);
  ref.running_mean = ToVector(bn.running_mean());
  ref.running_var = ToVector(bn.running_var());
  ref.dgamma = ToVector(bn.gamma().grad);
  ref.dbeta = ToVector(bn.beta().grad);
  return ref;
}

// (channels, batch, hw_side): the large cases split over several chunks
// of a multi-worker pool. Channel counts 5 and 17 leave a remainder after
// the interleaved channel groups, and 17 also after a 4-worker chunk
// split; the b64 cases are WRN-16's training shapes.
class BatchNormBitwise : public ::testing::TestWithParam<BnCase> {};

TEST_P(BatchNormBitwise, TrainingForwardAndBackwardMatchReference) {
  const auto [channels, batch, side] = GetParam();
  Rng rng(channels * 31 + batch * 7 + side);
  BatchNorm2d bn(channels);
  RefBn ref = MatchedBn(bn, rng);
  Tensor x = Tensor::Randn({batch, channels, side, side}, rng, 1.7f);
  Tensor dy = Tensor::Randn(x.shape(), rng);

  Tensor y = bn.Forward(x, /*training=*/true);
  std::vector<float> want_y(x.numel());
  RefBnForward(ref, x, want_y.data());
  EXPECT_TRUE(BytesEqual(want_y, y.data())) << "output";
  EXPECT_TRUE(BytesEqual(ref.running_mean, bn.running_mean().data()));
  EXPECT_TRUE(BytesEqual(ref.running_var, bn.running_var().data()));

  Tensor dx = bn.Backward(dy);
  std::vector<float> want_dx(x.numel());
  RefBnBackward(ref, dy, want_dx.data());
  EXPECT_TRUE(BytesEqual(want_dx, dx.data())) << "dx";
  EXPECT_TRUE(BytesEqual(ref.dgamma, bn.gamma().grad.data())) << "dgamma";
  EXPECT_TRUE(BytesEqual(ref.dbeta, bn.beta().grad.data())) << "dbeta";
}

TEST_P(BatchNormBitwise, NormalizedValuesMatchReference) {
  // xhat is internal; with gamma = 1 and beta = 0 the output is xhat.
  const auto [channels, batch, side] = GetParam();
  Rng rng(channels + batch + side);
  BatchNorm2d bn(channels);
  Tensor x = Tensor::Randn({batch, channels, side, side}, rng, 0.9f);
  RefBn ref;
  ref.gamma.assign(channels, 1.0f);
  ref.beta.assign(channels, 0.0f);
  ref.running_mean.assign(channels, 0.0f);
  ref.running_var.assign(channels, 1.0f);
  std::vector<float> unused(x.numel());
  RefBnForward(ref, x, unused.data());
  Tensor y = bn.Forward(x, /*training=*/true);
  EXPECT_TRUE(BytesEqual(ref.xhat, y.data()));
}

TEST_P(BatchNormBitwise, FusedReluMatchesBnThenRelu) {
  const auto [channels, batch, side] = GetParam();
  Rng rng(channels * 5 + batch + side * 3);
  BatchNorm2d bn(channels);
  RefBn ref = MatchedBn(bn, rng);
  Tensor x = Tensor::Randn({batch, channels, side, side}, rng, 1.3f);
  Tensor dy = Tensor::Randn(x.shape(), rng);

  Tensor a = bn.ForwardTrainingFusedRelu(x);
  std::vector<float> pre(x.numel()), want_a(x.numel());
  RefBnForward(ref, x, pre.data());
  for (size_t i = 0; i < pre.size(); ++i)
    want_a[i] = pre[i] > 0.0f ? pre[i] : 0.0f;
  EXPECT_TRUE(BytesEqual(want_a, a.data())) << "output";
  EXPECT_TRUE(BytesEqual(ref.running_mean, bn.running_mean().data()));
  EXPECT_TRUE(BytesEqual(ref.running_var, bn.running_var().data()));

  Tensor dx = bn.BackwardFusedRelu(dy);
  Tensor gated(dy.shape());
  for (int64_t i = 0; i < dy.numel(); ++i)
    gated.at(i) = pre[i] > 0.0f ? dy.at(i) : 0.0f;
  std::vector<float> want_dx(x.numel());
  RefBnBackward(ref, gated, want_dx.data());
  EXPECT_TRUE(BytesEqual(want_dx, dx.data())) << "dx";
  EXPECT_TRUE(BytesEqual(ref.dgamma, bn.gamma().grad.data())) << "dgamma";
  EXPECT_TRUE(BytesEqual(ref.dbeta, bn.beta().grad.data())) << "dbeta";
}

// Plants, in every channel of `t`, a pair of +2^30 and -2^30 and a pair
// of +2^40 and -2^40 at random elements of the channel's (batch, pixel)
// sequence where open(element) holds. Each pair cancels exactly, so the
// small terms decide the sum, but a small term added while a large one
// sits in the partial sum rounds to its ulp: a channel summed in any
// order other than the sequential one lands on other bits. Sums of Randn
// data alone are exact in double whatever the order, so they cannot tell.
template <typename Open>
void PlantCancellingPairs(Tensor& t, Rng& rng, const Open& open) {
  const int64_t batch = t.dim(0), channels = t.dim(1);
  const int64_t hw = t.dim(2) * t.dim(3);
  for (int64_t c = 0; c < channels; ++c) {
    std::vector<int64_t> slots;
    for (int64_t bi = 0; bi < batch; ++bi) {
      for (int64_t i = 0; i < hw; ++i) {
        const int64_t e = (bi * channels + c) * hw + i;
        if (open(e)) slots.push_back(e);
      }
    }
    for (const float big : {0x1p30f, 0x1p40f}) {
      for (const float v : {big, -big}) {
        if (slots.empty()) break;
        const int64_t k = rng.NextInt(static_cast<int64_t>(slots.size()));
        t.at(slots[k]) = v;
        slots.erase(slots.begin() + k);
      }
    }
  }
}

TEST_P(BatchNormBitwise, OrderSensitiveSumsMatchReference) {
  const auto [channels, batch, side] = GetParam();
  for (const bool relu : {false, true}) {
    Rng rng(channels * 13 + batch * 3 + side + relu);
    BatchNorm2d bn(channels);
    RefBn ref = MatchedBn(bn, rng);
    Tensor x = Tensor::Randn({batch, channels, side, side}, rng);
    PlantCancellingPairs(x, rng, [](int64_t) { return true; });

    Tensor y = relu ? bn.ForwardTrainingFusedRelu(x) : bn.Forward(x, true);
    std::vector<float> want_y(x.numel());
    RefBnForward(ref, x, want_y.data());
    std::vector<bool> open(x.numel(), true);
    for (size_t i = 0; relu && i < want_y.size(); ++i) {
      open[i] = want_y[i] > 0.0f;
      if (!open[i]) want_y[i] = 0.0f;
    }
    EXPECT_TRUE(BytesEqual(want_y, y.data())) << "output, relu " << relu;
    EXPECT_TRUE(BytesEqual(ref.running_mean, bn.running_mean().data()));
    EXPECT_TRUE(BytesEqual(ref.running_var, bn.running_var().data()));

    Tensor dy = Tensor::Randn(x.shape(), rng);
    PlantCancellingPairs(dy, rng, [&](int64_t e) { return open[e]; });
    Tensor gated(dy.shape());
    for (int64_t i = 0; i < dy.numel(); ++i)
      gated.at(i) = open[i] ? dy.at(i) : 0.0f;
    Tensor dx = relu ? bn.BackwardFusedRelu(dy) : bn.Backward(dy);
    std::vector<float> want_dx(x.numel());
    RefBnBackward(ref, gated, want_dx.data());
    EXPECT_TRUE(BytesEqual(want_dx, dx.data())) << "dx, relu " << relu;
    EXPECT_TRUE(BytesEqual(ref.dgamma, bn.gamma().grad.data())) << "dgamma";
    EXPECT_TRUE(BytesEqual(ref.dbeta, bn.beta().grad.data())) << "dbeta";
  }
}

TEST(BatchNormPropertyTest, BackwardMustMatchForwardFusion) {
  BatchNorm2d bn(2);
  Rng rng(8);
  Tensor x = Tensor::Randn({2, 2, 3, 3}, rng);
  bn.ForwardTrainingFusedRelu(x);
  EXPECT_DEATH(bn.Backward(x), "ReLU fusion");
}

INSTANTIATE_TEST_SUITE_P(Shapes, BatchNormBitwise,
                         ::testing::Values(BnCase{1, 3, 5}, BnCase{3, 2, 7},
                                           BnCase{8, 16, 32},
                                           BnCase{16, 64, 16},
                                           BnCase{64, 8, 8}, BnCase{5, 3, 7},
                                           BnCase{5, 16, 32},
                                           BnCase{17, 8, 32},
                                           BnCase{16, 64, 32},
                                           BnCase{32, 64, 16},
                                           BnCase{64, 64, 8}));

// The fused backward gates dy by the cached output's sign. Where the
// pre-ReLU value is <= 0 (exactly +0.0 and -0.0 included) the gradient is
// dropped, even when it is NaN, an infinity or -0.0: dx, dgamma and dbeta
// must be the reference's for a dy zeroed there, and finite.
TEST(BatchNormPropertyTest, FusedReluGateDropsNonFiniteGradients) {
  constexpr int kChannels = 6, kBatch = 4, kSide = 5;
  Rng rng(9);
  BatchNorm2d bn(kChannels);
  RefBn ref = MatchedBn(bn, rng);
  // Channel 0: gamma 0, beta +0 -> every pre-ReLU value is +0.0.
  // Channel 1: gamma 0, beta -0 -> +0.0 or -0.0 by the sign of xhat.
  // Channel 2: beta far below zero -> every value negative.
  // Channels 3-5 keep their random parameters (mixed signs).
  const float gammas[3] = {0.0f, 0.0f, 0.5f};
  const float betas[3] = {0.0f, -0.0f, -50.0f};
  for (int c = 0; c < 3; ++c) {
    bn.gamma().value.at(c) = ref.gamma[c] = gammas[c];
    bn.beta().value.at(c) = ref.beta[c] = betas[c];
  }
  Tensor x = Tensor::Randn({kBatch, kChannels, kSide, kSide}, rng);
  std::vector<float> pre(x.numel());
  RefBnForward(ref, x, pre.data());
  int pos_zero = 0, neg_zero = 0;
  for (float v : pre) {
    if (v == 0.0f) ++(std::signbit(v) ? neg_zero : pos_zero);
  }
  ASSERT_GT(pos_zero, 0);
  ASSERT_GT(neg_zero, 0);

  const float kPoison[] = {std::nanf(""), INFINITY, -INFINITY, -0.0f};
  Tensor dy = Tensor::Randn(x.shape(), rng);
  Tensor gated(dy.shape());
  for (int64_t i = 0; i < dy.numel(); ++i) {
    if (!(pre[i] > 0.0f)) dy.at(i) = kPoison[i % 4];
    gated.at(i) = pre[i] > 0.0f ? dy.at(i) : 0.0f;
  }

  bn.ForwardTrainingFusedRelu(x);
  Tensor dx = bn.BackwardFusedRelu(dy);
  std::vector<float> want_dx(x.numel());
  RefBnBackward(ref, gated, want_dx.data());
  EXPECT_TRUE(BytesEqual(want_dx, dx.data())) << "dx";
  EXPECT_TRUE(BytesEqual(ref.dgamma, bn.gamma().grad.data())) << "dgamma";
  EXPECT_TRUE(BytesEqual(ref.dbeta, bn.beta().grad.data())) << "dbeta";
  for (int64_t i = 0; i < dx.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(dx.at(i))) << "dx[" << i << "]";
  }
}

}  // namespace
}  // namespace poe
