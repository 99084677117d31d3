#include "nn/batchnorm.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "util/parallel_for.h"

namespace poe {

namespace {

// Runs body(c_begin, c_end) over the channels on the worker pool. Every
// channel's reductions stay inside one chunk, in their sequential order,
// so the result does not depend on the thread count. Chunks hold at least
// ~32K elements: a batch-1 serving forward stays inline.
template <typename Body>
void ForEachChannel(int64_t channels, int64_t elems_per_channel,
                    const Body& body) {
  constexpr int64_t kMinChunkElems = 1 << 15;
  const int64_t min_chunk =
      std::max<int64_t>(1, kMinChunkElems / std::max<int64_t>(
                                                 1, elems_per_channel));
  ParallelFor(channels, body, min_chunk);
}

// Channels whose reductions run interleaved. One channel's sum is a single
// chain of dependent double adds, so a pass over it waits out the add
// latency on every element; kGroup channels walked side by side keep
// kGroup independent chains in flight. Each channel still adds its own
// elements in (batch, pixel) order with the same expression, so every sum
// has the bits of the one-channel loop.
constexpr int64_t kGroup = 4;

// ReLU's backward gate: dy where the post-ReLU output is positive, else
// +0.0f, exactly the values of `act > 0 ? dy : 0`. Written as a mask (the
// compare's all-ones or all-zeros lanes ANDed with dy's bits) because the
// ternary compiled to a compare and a branch, and that branch mispredicts
// on about half of the post-ReLU elements. A NaN or Inf dy under a closed
// gate still becomes +0.0f.
inline float ReluGate(float dy, float act) {
  uint32_t bits;
  std::memcpy(&bits, &dy, sizeof(bits));
  bits &= 0u - static_cast<uint32_t>(act > 0.0f);
  std::memcpy(&dy, &bits, sizeof(bits));
  return dy;
}

// sum(x) and sum(x^2) of the G channels from c0, each in its sequential
// (batch, pixel) order.
template <int64_t G>
void ChannelMoments(const float* in, int64_t channels, int64_t batch,
                    int64_t hw, int64_t c0, double* sum, double* sq) {
  double s[G] = {}, q[G] = {};
  for (int64_t bi = 0; bi < batch; ++bi) {
    const float* p = in + (bi * channels + c0) * hw;
    for (int64_t i = 0; i < hw; ++i) {
      for (int64_t j = 0; j < G; ++j) {
        const float v = p[j * hw + i];
        s[j] += v;
        q[j] += static_cast<double>(v) * v;
      }
    }
  }
  for (int64_t j = 0; j < G; ++j) {
    sum[j] = s[j];
    sq[j] = q[j];
  }
}

// sum(dy) and sum(dy * xhat) of the G channels from c0, each in its
// sequential (batch, pixel) order; with kRelu, dy is gated by the cached
// post-ReLU output `act`.
template <int64_t G, bool kRelu>
void ChannelGradSums(const float* gout, const float* xh, const float* act,
                     int64_t channels, int64_t batch, int64_t hw, int64_t c0,
                     double* sum_dy, double* sum_dy_xhat) {
  double s[G] = {}, q[G] = {};
  for (int64_t bi = 0; bi < batch; ++bi) {
    const int64_t off = (bi * channels + c0) * hw;
    const float* dyp = gout + off;
    const float* xhp = xh + off;
    const float* ap = kRelu ? act + off : nullptr;
    for (int64_t i = 0; i < hw; ++i) {
      for (int64_t j = 0; j < G; ++j) {
        const int64_t e = j * hw + i;
        const float dy = kRelu ? ReluGate(dyp[e], ap[e]) : dyp[e];
        s[j] += dy;
        q[j] += static_cast<double>(dy) * xhp[e];
      }
    }
  }
  for (int64_t j = 0; j < G; ++j) {
    sum_dy[j] = s[j];
    sum_dy_xhat[j] = q[j];
  }
}

// Runs body(c0, group) over channels [c_begin, c_end), where group is a
// std::integral_constant holding how many channels from c0 to take:
// kGroup at a time, then one at a time for the remainder.
template <typename Body>
void ForEachChannelGroup(int64_t c_begin, int64_t c_end, const Body& body) {
  int64_t c = c_begin;
  for (; c + kGroup <= c_end; c += kGroup) {
    body(c, std::integral_constant<int64_t, kGroup>());
  }
  for (; c < c_end; ++c) body(c, std::integral_constant<int64_t, 1>());
}

}  // namespace

BatchNorm2d::BatchNorm2d(int64_t channels, float eps, float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_(Parameter("bn.gamma", Tensor::Ones({channels}))),
      beta_(Parameter("bn.beta", Tensor::Zeros({channels}))),
      running_mean_(Tensor::Zeros({channels})),
      running_var_(Tensor::Ones({channels})) {}

Tensor BatchNorm2d::Forward(const Tensor& input, bool training) {
  if (training) return TrainingForward(input, /*relu=*/false);
  return InferenceNormalize(input, /*relu=*/false);
}

Tensor BatchNorm2d::ForwardTrainingFusedRelu(const Tensor& input) {
  return TrainingForward(input, /*relu=*/true);
}

Tensor BatchNorm2d::TrainingForward(const Tensor& input, bool relu) {
  POE_CHECK_EQ(input.ndim(), 4);
  POE_CHECK_EQ(input.dim(1), channels_);
  const int64_t batch = input.dim(0);
  const int64_t hw = input.dim(2) * input.dim(3);
  const int64_t n = batch * hw;
  POE_CHECK_GT(n, 0);

  Tensor output = Tensor::Uninitialized(input.shape());
  const float* in = input.data();
  float* out = output.data();
  const float* g = gamma_.value.data();
  const float* b = beta_.value.data();

  cached_xhat_ = Tensor::Uninitialized(input.shape());
  cached_inv_std_.assign(channels_, 0.0f);
  cached_batch_ = batch;
  cached_hw_ = hw;
  // The fused backward gates by this output's sign (> 0 exactly where the
  // pre-ReLU value was); it shares storage, so caching it is free.
  cached_relu_out_ = relu ? output : Tensor();
  float* xh = cached_xhat_.data();
  float* rm = running_mean_.data();
  float* rv = running_var_.data();
  // Statistics, running stats and the normalize pass of channel c, from
  // its sum(x) and sum(x^2).
  const auto finish_channel = [&](int64_t c, double sum, double sq) {
    const double mean = sum / n;
    double var = sq / n - mean * mean;
    if (var < 0.0) var = 0.0;  // numeric guard
    const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
    cached_inv_std_[c] = inv_std;
    // Update running stats with the unbiased variance (PyTorch semantics).
    const double unbiased = n > 1 ? var * n / (n - 1) : var;
    rm[c] = (1.0f - momentum_) * rm[c] + momentum_ * static_cast<float>(mean);
    rv[c] = (1.0f - momentum_) * rv[c] +
            momentum_ * static_cast<float>(unbiased);
    for (int64_t bi = 0; bi < batch; ++bi) {
      const float* p = in + (bi * channels_ + c) * hw;
      float* xhp = xh + (bi * channels_ + c) * hw;
      float* op = out + (bi * channels_ + c) * hw;
      for (int64_t i = 0; i < hw; ++i) {
        const float xhat = (p[i] - static_cast<float>(mean)) * inv_std;
        xhp[i] = xhat;
        const float y = g[c] * xhat + b[c];
        op[i] = relu && !(y > 0.0f) ? 0.0f : y;
      }
    }
  };
  ForEachChannel(channels_, n, [&](int64_t c_begin, int64_t c_end) {
    ForEachChannelGroup(c_begin, c_end, [&](int64_t c0, auto group) {
      constexpr int64_t kG = decltype(group)::value;
      double sum[kG], sq[kG];
      ChannelMoments<kG>(in, channels_, batch, hw, c0, sum, sq);
      for (int64_t j = 0; j < kG; ++j) finish_channel(c0 + j, sum[j], sq[j]);
    });
  });
  return output;
}

Tensor BatchNorm2d::ForwardFusedRelu(const Tensor& input) {
  return InferenceNormalize(input, /*relu=*/true);
}

void BatchNorm2d::ChannelAffine(int64_t c, float* scale, float* shift) const {
  const float inv_std = 1.0f / std::sqrt(running_var_.data()[c] + eps_);
  *scale = gamma_.value.data()[c] * inv_std;
  *shift = beta_.value.data()[c] - *scale * running_mean_.data()[c];
}

void BatchNorm2d::InferenceAffine(float* scale, float* shift) const {
  for (int64_t c = 0; c < channels_; ++c)
    ChannelAffine(c, scale + c, shift + c);
}

Tensor BatchNorm2d::InferenceNormalize(const Tensor& input, bool relu) {
  POE_CHECK_EQ(input.ndim(), 4);
  POE_CHECK_EQ(input.dim(1), channels_);
  const int64_t batch = input.dim(0);
  const int64_t hw = input.dim(2) * input.dim(3);

  Tensor output = Tensor::Uninitialized(input.shape());
  const float* in = input.data();
  float* out = output.data();
  ForEachChannel(channels_, batch * hw, [&](int64_t c_begin, int64_t c_end) {
    for (int64_t c = c_begin; c < c_end; ++c) {
      float scale, shift;
      ChannelAffine(c, &scale, &shift);
      for (int64_t bi = 0; bi < batch; ++bi) {
        const float* p = in + (bi * channels_ + c) * hw;
        float* op = out + (bi * channels_ + c) * hw;
        if (relu) {
          for (int64_t i = 0; i < hw; ++i)
            op[i] = BnAffineRelu(p[i], scale, shift);
        } else {
          for (int64_t i = 0; i < hw; ++i) op[i] = BnAffine(p[i], scale, shift);
        }
      }
    }
  });
  return output;
}

Tensor BatchNorm2d::Backward(const Tensor& grad_output) {
  return BackwardImpl(grad_output, /*relu=*/false);
}

Tensor BatchNorm2d::BackwardFusedRelu(const Tensor& grad_output) {
  return BackwardImpl(grad_output, /*relu=*/true);
}

Tensor BatchNorm2d::BackwardImpl(const Tensor& grad_output, bool relu) {
  POE_CHECK(cached_xhat_.defined()) << "Backward before training Forward";
  POE_CHECK_EQ(relu, cached_relu_out_.defined())
      << "BatchNorm2d backward must match the forward's ReLU fusion";
  const int64_t batch = cached_batch_;
  const int64_t hw = cached_hw_;
  const int64_t n = batch * hw;
  POE_CHECK_EQ(grad_output.dim(0), batch);
  POE_CHECK_EQ(grad_output.dim(1), channels_);

  Tensor grad_input = Tensor::Uninitialized(grad_output.shape());
  const float* gout = grad_output.data();
  const float* xh = cached_xhat_.data();
  const float* act = relu ? cached_relu_out_.data() : nullptr;
  const float* g = gamma_.value.data();
  float* dgamma = gamma_.grad.data();
  float* dbeta = beta_.grad.data();
  float* gin = grad_input.data();

  // dgamma, dbeta and dx of channel c from its sum(dy) and sum(dy * xhat);
  // under fusion dy is the ReLU-gated gradient, recomputed per pass.
  const auto finish_channel = [&](int64_t c, double sum_dy,
                                  double sum_dy_xhat) {
    dgamma[c] += static_cast<float>(sum_dy_xhat);
    dbeta[c] += static_cast<float>(sum_dy);
    // dx = gamma * inv_std / n * (n*dy - sum(dy) - xhat * sum(dy*xhat)).
    const float k = g[c] * cached_inv_std_[c] / static_cast<float>(n);
    const float s_dy = static_cast<float>(sum_dy);
    const float s_dy_xh = static_cast<float>(sum_dy_xhat);
    for (int64_t bi = 0; bi < batch; ++bi) {
      const int64_t off = (bi * channels_ + c) * hw;
      const float* dyp = gout + off;
      const float* xhp = xh + off;
      float* gp = gin + off;
      if (relu) {
        const float* ap = act + off;
        for (int64_t i = 0; i < hw; ++i) {
          const float dy = ReluGate(dyp[i], ap[i]);
          gp[i] = k * (static_cast<float>(n) * dy - s_dy - xhp[i] * s_dy_xh);
        }
      } else {
        for (int64_t i = 0; i < hw; ++i) {
          gp[i] = k * (static_cast<float>(n) * dyp[i] - s_dy -
                       xhp[i] * s_dy_xh);
        }
      }
    }
  };
  ForEachChannel(channels_, n, [&](int64_t c_begin, int64_t c_end) {
    ForEachChannelGroup(c_begin, c_end, [&](int64_t c0, auto group) {
      constexpr int64_t kG = decltype(group)::value;
      double sum_dy[kG], sum_dy_xhat[kG];
      if (relu) {
        ChannelGradSums<kG, true>(gout, xh, act, channels_, batch, hw, c0,
                                  sum_dy, sum_dy_xhat);
      } else {
        ChannelGradSums<kG, false>(gout, xh, act, channels_, batch, hw, c0,
                                   sum_dy, sum_dy_xhat);
      }
      for (int64_t j = 0; j < kG; ++j) {
        finish_channel(c0 + j, sum_dy[j], sum_dy_xhat[j]);
      }
    });
  });
  return grad_input;
}

void BatchNorm2d::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&gamma_);
  out->push_back(&beta_);
}

void BatchNorm2d::CollectBuffers(std::vector<Tensor*>* out) {
  out->push_back(&running_mean_);
  out->push_back(&running_var_);
}

}  // namespace poe
