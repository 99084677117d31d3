// Contiguous float32 tensor with shared storage.
#ifndef POE_TENSOR_TENSOR_H_
#define POE_TENSOR_TENSOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace poe {

/// A dense, contiguous, row-major float32 tensor.
///
/// Storage is shared between copies (shallow copy semantics, like
/// torch.Tensor); use Clone() for a deep copy. All shapes use int64_t.
/// Tensors are never sparse and never strided: Reshape shares storage,
/// everything else materializes.
class Tensor {
 public:
  /// An empty 0-dim tensor with no storage.
  Tensor() = default;

  /// Allocates a zero-filled tensor of the given shape. The zero fill is
  /// part of the contract, so callers may accumulate into a fresh tensor
  /// without clearing it (see Uninitialized for the unfilled form).
  explicit Tensor(std::vector<int64_t> shape);

  /// Factory: zero-filled tensor (the constructor already zero-fills).
  static Tensor Zeros(std::vector<int64_t> shape);
  /// Factory: storage left unset, for outputs the caller overwrites in
  /// full before reading (it skips the zero fill's pass over memory).
  /// Debug builds fill it with quiet NaN, so a bitwise oracle catches any
  /// element left unwritten.
  static Tensor Uninitialized(std::vector<int64_t> shape);
  /// Factory: one-filled tensor.
  static Tensor Ones(std::vector<int64_t> shape);
  /// Factory: constant-filled tensor.
  static Tensor Full(std::vector<int64_t> shape, float value);
  /// Factory: i.i.d. N(0, stddev^2) entries.
  static Tensor Randn(std::vector<int64_t> shape, Rng& rng,
                      float stddev = 1.0f);
  /// Factory: i.i.d. U[lo, hi) entries.
  static Tensor Rand(std::vector<int64_t> shape, Rng& rng, float lo,
                     float hi);
  /// Factory: wraps an explicit value list (shape must match count).
  static Tensor FromVector(std::vector<int64_t> shape,
                           const std::vector<float>& values);

  bool defined() const { return storage_ != nullptr; }
  const std::vector<int64_t>& shape() const { return shape_; }
  int ndim() const { return static_cast<int>(shape_.size()); }
  int64_t dim(int i) const;
  int64_t numel() const { return numel_; }

  float* data() { return storage_ ? storage_->data() : nullptr; }
  const float* data() const { return storage_ ? storage_->data() : nullptr; }

  /// Element access for small-tensor tests; row-major offset.
  float& at(int64_t i) {
    POE_CHECK_LT(i, numel_);
    return (*storage_)[i];
  }
  float at(int64_t i) const {
    POE_CHECK_LT(i, numel_);
    return (*storage_)[i];
  }

  /// Returns a tensor sharing this storage with a different shape.
  /// The element count must match.
  Tensor Reshape(std::vector<int64_t> new_shape) const;

  /// Deep copy.
  Tensor Clone() const;

  /// Sets every element to `value`.
  void Fill(float value);

  /// Copies values from `src` (same numel required; shapes may differ).
  void CopyDataFrom(const Tensor& src);

  /// True when both tensors share the same underlying buffer.
  bool SharesStorageWith(const Tensor& other) const {
    return storage_ != nullptr && storage_ == other.storage_;
  }

  /// "Tensor[2, 3]" style debug string.
  std::string ShapeString() const;

  /// Total bytes of the underlying buffer.
  int64_t nbytes() const { return numel_ * static_cast<int64_t>(sizeof(float)); }

 private:
  // Default-initializes its elements, so a fresh float is left unset: the
  // constructor zero-fills the storage afterwards, Uninitialized does not.
  template <typename T>
  struct DefaultInitAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
      using other = DefaultInitAllocator<U>;
    };
    using std::allocator<T>::allocator;
    template <typename U>
    void construct(U* p) {
      ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  };
  using Storage = std::vector<float, DefaultInitAllocator<float>>;

  std::shared_ptr<Storage> storage_;
  std::vector<int64_t> shape_;
  int64_t numel_ = 0;
};

/// Product of dims; 1 for an empty shape.
int64_t ShapeNumel(const std::vector<int64_t>& shape);

/// True when shapes are identical.
bool SameShape(const Tensor& a, const Tensor& b);

}  // namespace poe

#endif  // POE_TENSOR_TENSOR_H_
