#include "tensor/tensor.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <sstream>

namespace poe {

int64_t ShapeNumel(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    POE_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

bool SameShape(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape();
}

Tensor::Tensor(std::vector<int64_t> shape)
    : shape_(std::move(shape)), numel_(ShapeNumel(shape_)) {
  storage_ = std::make_shared<Storage>(numel_);
  // An empty tensor's storage may be null, which memset must not see.
  if (numel_ > 0) std::memset(storage_->data(), 0, sizeof(float) * numel_);
}

Tensor Tensor::Zeros(std::vector<int64_t> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::Uninitialized(std::vector<int64_t> shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.numel_ = ShapeNumel(t.shape_);
  t.storage_ = std::make_shared<Storage>(t.numel_);
#ifndef NDEBUG
  t.Fill(std::numeric_limits<float>::quiet_NaN());
#endif
  return t;
}

Tensor Tensor::Ones(std::vector<int64_t> shape) {
  Tensor t(std::move(shape));
  t.Fill(1.0f);
  return t;
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Randn(std::vector<int64_t> shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) p[i] = rng.Normal(0.0f, stddev);
  return t;
}

Tensor Tensor::Rand(std::vector<int64_t> shape, Rng& rng, float lo,
                    float hi) {
  Tensor t(std::move(shape));
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) p[i] = rng.Uniform(lo, hi);
  return t;
}

Tensor Tensor::FromVector(std::vector<int64_t> shape,
                          const std::vector<float>& values) {
  Tensor t(std::move(shape));
  POE_CHECK_EQ(t.numel(), static_cast<int64_t>(values.size()));
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

int64_t Tensor::dim(int i) const {
  if (i < 0) i += ndim();
  POE_CHECK_GE(i, 0);
  POE_CHECK_LT(i, ndim());
  return shape_[i];
}

Tensor Tensor::Reshape(std::vector<int64_t> new_shape) const {
  POE_CHECK(defined()) << "Reshape of undefined tensor";
  POE_CHECK_EQ(ShapeNumel(new_shape), numel_);
  Tensor out;
  out.storage_ = storage_;
  out.shape_ = std::move(new_shape);
  out.numel_ = numel_;
  return out;
}

Tensor Tensor::Clone() const {
  if (!defined()) return Tensor();
  Tensor out(shape_);
  std::memcpy(out.data(), data(), sizeof(float) * numel_);
  return out;
}

void Tensor::Fill(float value) {
  POE_CHECK(defined());
  std::fill(storage_->begin(), storage_->end(), value);
}

void Tensor::CopyDataFrom(const Tensor& src) {
  POE_CHECK(defined());
  POE_CHECK_EQ(numel_, src.numel());
  std::memcpy(data(), src.data(), sizeof(float) * numel_);
}

std::string Tensor::ShapeString() const {
  std::ostringstream os;
  os << "Tensor[";
  for (int i = 0; i < ndim(); ++i) {
    if (i) os << ", ";
    os << shape_[i];
  }
  os << "]";
  return os.str();
}

}  // namespace poe
