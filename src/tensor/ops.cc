#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/logging.h"
#include "util/parallel_for.h"

namespace poe {

namespace {

// Elementwise passes split over the worker pool once a chunk holds at
// least this many elements (a batch-1 serving tensor stays inline).
constexpr int64_t kElementwiseMinChunk = 1 << 15;

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  POE_CHECK(SameShape(a, b)) << a.ShapeString() << " vs " << b.ShapeString();
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  ParallelFor(
      a.numel(),
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) po[i] = pa[i] + pb[i];
      },
      kElementwiseMinChunk);
  return out;
}

void AddInPlace(Tensor& a, const Tensor& b) {
  POE_CHECK_EQ(a.numel(), b.numel());
  float* pa = a.data();
  const float* pb = b.data();
  ParallelFor(
      a.numel(),
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) pa[i] += pb[i];
      },
      kElementwiseMinChunk);
}

void Axpy(float alpha, const Tensor& b, Tensor& a) {
  POE_CHECK_EQ(a.numel(), b.numel());
  float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i) pa[i] += alpha * pb[i];
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  POE_CHECK(SameShape(a, b));
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (int64_t i = 0; i < a.numel(); ++i) po[i] = pa[i] - pb[i];
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  POE_CHECK(SameShape(a, b));
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (int64_t i = 0; i < a.numel(); ++i) po[i] = pa[i] * pb[i];
  return out;
}

Tensor Scale(const Tensor& a, float scalar) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t i = 0; i < a.numel(); ++i) po[i] = pa[i] * scalar;
  return out;
}

void ScaleInPlace(Tensor& a, float scalar) {
  float* pa = a.data();
  for (int64_t i = 0; i < a.numel(); ++i) pa[i] *= scalar;
}

float Sum(const Tensor& a) {
  const float* p = a.data();
  double acc = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) acc += p[i];
  return static_cast<float>(acc);
}

float Mean(const Tensor& a) {
  POE_CHECK_GT(a.numel(), 0);
  return Sum(a) / static_cast<float>(a.numel());
}

float MaxValue(const Tensor& a) {
  POE_CHECK_GT(a.numel(), 0);
  const float* p = a.data();
  return *std::max_element(p, p + a.numel());
}

int64_t Argmax(const Tensor& a) {
  POE_CHECK_GT(a.numel(), 0);
  const float* p = a.data();
  return std::max_element(p, p + a.numel()) - p;
}

int64_t ArgmaxRow(const Tensor& a, int64_t row) {
  POE_CHECK_EQ(a.ndim(), 2);
  POE_CHECK_LT(row, a.dim(0));
  const int64_t n = a.dim(1);
  const float* p = a.data() + row * n;
  return std::max_element(p, p + n) - p;
}

float L1Norm(const Tensor& a) {
  const float* p = a.data();
  double acc = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) acc += std::fabs(p[i]);
  return static_cast<float>(acc);
}

float L2Norm(const Tensor& a) {
  const float* p = a.data();
  double acc = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i)
    acc += static_cast<double>(p[i]) * p[i];
  return static_cast<float>(std::sqrt(acc));
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  POE_CHECK_EQ(a.numel(), b.numel());
  const float* pa = a.data();
  const float* pb = b.data();
  float best = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i)
    best = std::max(best, std::fabs(pa[i] - pb[i]));
  return best;
}

Tensor Softmax2d(const Tensor& logits) {
  return SoftmaxWithTemperature(logits, 1.0f);
}

Tensor SoftmaxWithTemperature(const Tensor& logits, float temperature) {
  POE_CHECK_EQ(logits.ndim(), 2);
  POE_CHECK_GT(temperature, 0.0f);
  const int64_t rows = logits.dim(0);
  const int64_t cols = logits.dim(1);
  Tensor out(logits.shape());
  const float* pin = logits.data();
  float* pout = out.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* in = pin + r * cols;
    float* o = pout + r * cols;
    float mx = in[0];
    for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
    double denom = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      o[c] = std::exp((in[c] - mx) / temperature);
      denom += o[c];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (int64_t c = 0; c < cols; ++c) o[c] *= inv;
  }
  return out;
}

Tensor LogSoftmax2d(const Tensor& logits) {
  POE_CHECK_EQ(logits.ndim(), 2);
  const int64_t rows = logits.dim(0);
  const int64_t cols = logits.dim(1);
  Tensor out(logits.shape());
  const float* pin = logits.data();
  float* pout = out.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* in = pin + r * cols;
    float* o = pout + r * cols;
    float mx = in[0];
    for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
    double denom = 0.0;
    for (int64_t c = 0; c < cols; ++c) denom += std::exp(in[c] - mx);
    const float log_denom = static_cast<float>(std::log(denom)) + mx;
    for (int64_t c = 0; c < cols; ++c) o[c] = in[c] - log_denom;
  }
  return out;
}

Tensor GatherColumns(const Tensor& a, const std::vector<int>& cols) {
  POE_CHECK_EQ(a.ndim(), 2);
  const int64_t rows = a.dim(0);
  const int64_t in_cols = a.dim(1);
  Tensor out({rows, static_cast<int64_t>(cols.size())});
  const float* pin = a.data();
  float* pout = out.data();
  for (int64_t r = 0; r < rows; ++r) {
    for (size_t j = 0; j < cols.size(); ++j) {
      POE_CHECK_GE(cols[j], 0);
      POE_CHECK_LT(cols[j], in_cols);
      pout[r * cols.size() + j] = pin[r * in_cols + cols[j]];
    }
  }
  return out;
}

Tensor ConcatColumns(const std::vector<Tensor>& parts) {
  POE_CHECK(!parts.empty());
  const int64_t rows = parts[0].dim(0);
  int64_t total_cols = 0;
  for (const Tensor& t : parts) {
    POE_CHECK_EQ(t.ndim(), 2);
    POE_CHECK_EQ(t.dim(0), rows);
    total_cols += t.dim(1);
  }
  Tensor out({rows, total_cols});
  float* pout = out.data();
  for (int64_t r = 0; r < rows; ++r) {
    int64_t offset = 0;
    for (const Tensor& t : parts) {
      const int64_t c = t.dim(1);
      std::memcpy(pout + r * total_cols + offset, t.data() + r * c,
                  sizeof(float) * c);
      offset += c;
    }
  }
  return out;
}

Tensor SliceRows(const Tensor& a, int64_t begin, int64_t end) {
  POE_CHECK_GE(a.ndim(), 1);
  POE_CHECK_GE(begin, 0);
  POE_CHECK_LE(begin, end);
  POE_CHECK_LE(end, a.dim(0));
  std::vector<int64_t> out_shape = a.shape();
  out_shape[0] = end - begin;
  const int64_t row_size = a.numel() / std::max<int64_t>(1, a.dim(0));
  Tensor out = Tensor::Uninitialized(out_shape);
  std::memcpy(out.data(), a.data() + begin * row_size,
              sizeof(float) * (end - begin) * row_size);
  return out;
}

Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& indices) {
  POE_CHECK_GE(a.ndim(), 1);
  const int64_t rows = a.dim(0);
  const int64_t row_size = a.numel() / std::max<int64_t>(1, rows);
  std::vector<int64_t> out_shape = a.shape();
  out_shape[0] = static_cast<int64_t>(indices.size());
  Tensor out(out_shape);
  for (size_t i = 0; i < indices.size(); ++i) {
    POE_CHECK_GE(indices[i], 0);
    POE_CHECK_LT(indices[i], rows);
    std::memcpy(out.data() + static_cast<int64_t>(i) * row_size,
                a.data() + indices[i] * row_size, sizeof(float) * row_size);
  }
  return out;
}

}  // namespace poe
