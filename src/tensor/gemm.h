// Blocked, packed, SIMD-dispatched single-precision GEMM used by conv
// (forward and backward read their image operands in place) and linear
// layers. See docs/PERF.md for the design.
#ifndef POE_TENSOR_GEMM_H_
#define POE_TENSOR_GEMM_H_

#include <cstdint>
#include <vector>

#include "tensor/conv_direct.h"

namespace poe {

/// A caller-supplied consumer of each finished tile of C. With a hook
/// set, the GEMM does not write a register tile's final values (after the
/// last k-block, bias, ReLU and dequantization) to C: it passes them in a
/// small staging `tile` holding rows [row0, row0 + rows) x columns
/// [col0, col0 + cols) of C, element (r, j) at tile[r * ld + j], or at
/// tile[j * ld + r] when `transposed`. The hook writes them wherever they
/// go, C at `c` (leading dimension `ldc`) included. Tiles are disjoint and
/// each is passed by exactly one task, so a hook that only writes what
/// derives from its own tile needs no synchronization. Conv layers use it
/// to run the next layer's elementwise work on the tile while it is hot.
struct GemmTileHook {
  using Fn = void (*)(const void* ctx, const float* tile, int64_t ld,
                      bool transposed, int64_t row0, int64_t rows,
                      int64_t col0, int64_t cols, float* c, int64_t ldc);
  Fn fn = nullptr;
  const void* ctx = nullptr;
  /// The hook takes transposed tiles too: a kernel whose accumulator is
  /// column-major (int8 VNNI) then skips its transpose.
  bool takes_transposed = false;

  explicit operator bool() const { return fn != nullptr; }
  void operator()(const float* tile, int64_t ld, bool transposed,
                  int64_t row0, int64_t rows, int64_t col0, int64_t cols,
                  float* c, int64_t ldc) const {
    fn(ctx, tile, ld, transposed, row0, rows, col0, cols, c, ldc);
  }
};

/// Optional fused output transform applied after the matrix product is
/// complete (on the final k-block, in the same pass that writes C), so
/// inference layers avoid separate bias/activation sweeps over the output.
struct GemmEpilogue {
  /// Added to every element of row i of C (length m). Conv layout:
  /// C is [out_channels x out_h*out_w], bias is per channel (= per row).
  const float* row_bias = nullptr;
  /// Added to every element of column j of C (length n). Linear layout:
  /// C is [batch x out_features], bias is per feature (= per column).
  const float* col_bias = nullptr;
  /// Applies max(0, x) after the bias terms.
  bool relu = false;
  /// Consumes each finished tile in place of the write to C.
  GemmTileHook tile_hook;

  bool empty() const {
    return row_bias == nullptr && col_bias == nullptr && !relu && !tile_hook;
  }
};

/// C = alpha * op(A) * op(B) + beta * C, row-major.
///
/// op(A) is A (m x k) when !trans_a, else A^T with A stored (k x m).
/// op(B) is B (k x n) when !trans_b, else B^T with B stored (n x k).
/// C is m x n. Parallelized over the NR-column micro-panels of C.
void Gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, const float* a, const float* b, float beta, float* c);

/// Gemm with a fused epilogue. `parallel` deals the micro-panels of C over
/// the worker pool; false runs them inline, for callers that parallelize
/// at an outer level. The product is bitwise identical for both settings:
/// every C micro-tile is produced by one task with a fixed k-accumulation
/// order.
void GemmEx(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
            float alpha, const float* a, const float* b, float beta, float* c,
            const GemmEpilogue& epilogue, bool parallel);

/// op(A) of an m x k product pre-packed ONCE into the dispatched kernel's
/// MR-row panel layout, covering every (row-tile, k-block) of the blocked
/// GEMM. Serving layers whose weight matrix is the A operand (Conv2d:
/// [out_channels x ckk]) build this at prepack time so steady-state
/// forwards skip the per-call PackA pass. The panel bytes are identical to
/// what the on-the-fly pack produces, so GemmPackedA is bitwise identical
/// to Gemm/GemmEx. Valid only within the process that packed it (the
/// layout depends on the dispatched kernel geometry).
class PackedAWeights {
 public:
  PackedAWeights() = default;
  static PackedAWeights Pack(bool trans_a, int64_t m, int64_t k,
                             const float* a);

  bool empty() const { return data_.empty(); }
  int64_t rows() const { return m_; }
  int64_t depth() const { return k_; }
  /// Bytes held by the packed panels.
  int64_t nbytes() const {
    return static_cast<int64_t>(data_.size() * sizeof(float));
  }

 private:
  friend void GemmPackedA(const PackedAWeights&, int64_t, const float*,
                          float alpha, float beta, float*,
                          const GemmEpilogue&, bool);
  friend void GemmConvPackedA(const PackedAWeights&, const ConvImageView&,
                              float alpha, float beta, float*,
                              const GemmEpilogue&, bool);
  std::vector<float> data_;  // per k-block: ceil(m/mr) panels of kc*mr
  int64_t m_ = 0, k_ = 0;
};

/// op(B) of a k x n product pre-packed ONCE into the dispatched kernel's
/// NR-column panel layout, covering every (column-tile, k-block). Serving
/// layers whose weight matrix is the B operand (Linear: y = x W^T, op(B) =
/// W^T) build this at prepack time. Bitwise identical to the on-the-fly
/// path; process-local like PackedAWeights.
class PackedBWeights {
 public:
  PackedBWeights() = default;
  static PackedBWeights Pack(bool trans_b, int64_t k, int64_t n,
                             const float* b);

  bool empty() const { return data_.empty(); }
  int64_t depth() const { return k_; }
  int64_t cols() const { return n_; }
  int64_t nbytes() const {
    return static_cast<int64_t>(data_.size() * sizeof(float));
  }

 private:
  friend void GemmPackedB(int64_t, const float*, bool,
                          const PackedBWeights&, float alpha, float beta,
                          float*, const GemmEpilogue&, bool);
  std::vector<float> data_;  // per column tile: k-blocks of panels
  int64_t k_ = 0, n_ = 0;
};

/// GemmEx with op(A) pre-packed: C (m x n) = alpha * packed_a * op(B) +
/// beta * C. Bitwise identical to the equivalent GemmEx call on the
/// unpacked operand, for every kernel tier and both parallel settings.
void GemmPackedA(const PackedAWeights& a, int64_t n, const float* b,
                 float alpha, float beta, float* c, const GemmEpilogue& ep,
                 bool parallel);
/// Convenience overload: trans_b variant is not needed by any layer (conv
/// consumes untransposed im2col columns), so op(B) = B (k x n).

/// GemmEx with op(B) pre-packed: C (m x n) = alpha * op(A) * packed_b +
/// beta * C, same bitwise guarantee. op(A) is A (m x k) when !trans_a.
void GemmPackedB(int64_t m, const float* a, bool trans_a,
                 const PackedBWeights& b, float alpha, float beta, float* c,
                 const GemmEpilogue& ep, bool parallel);

/// A k x n matrix read in place from an image through a tap-offset
/// table: V(p, j) = image[koff[p] + ColOffset(j)]. Row p is one tap's view
/// of an output grid `out_w` pixels wide whose rows lie `row_step` image
/// elements apart, so the run of one output row is contiguous. The
/// virtual im2col matrix of a ConvImageView is one (koff = TapOffsets);
/// conv backward builds others (a transposed conv's phase taps).
struct ImageMatrix {
  const float* image = nullptr;
  const int32_t* koff = nullptr;  ///< k entries
  int64_t k = 0, n = 0, out_w = 0, row_step = 0;

  int64_t ColOffset(int64_t j) const {
    return (j / out_w) * row_step + j % out_w;
  }
};

/// C (m x v.n) = alpha * A * V + beta * C, A the m x v.k row-major
/// matrix. The micro-kernel reads its B rows in place from the image; no
/// B panel is packed. Bitwise identical to GemmEx over the materialized V
/// on every kernel tier, because each output element runs the same FMA
/// chain over k (see conv_direct.h).
void GemmImageEx(int64_t m, const float* a, const ImageMatrix& v,
                 float alpha, float beta, float* c, const GemmEpilogue& ep,
                 bool parallel);

/// Direct (im2col-free) convolution as GEMM: C (m x img.cols()) =
/// alpha * A * vcol(img) + beta * C, where vcol(img) is the virtual
/// im2col matrix of the padded image (img.depth() x img.cols()), any
/// stride: GemmImageEx over the view's tap table. A is the m x
/// img.depth() row-major weight matrix.
void GemmConvEx(int64_t m, const float* a, const ConvImageView& img,
                float alpha, float beta, float* c, const GemmEpilogue& ep,
                bool parallel);

/// C (img.depth() x n) = alpha * vcol(img) * B^T + beta * C, B the
/// n x img.cols() row-major matrix, on GemmEx's sequential schedule. With
/// B = dY it is dW^T, the transposed weight gradient of a conv whose
/// padded input is `img`. vcol is an image A: the micro-kernel reads its
/// broadcast scalars in place from the image (no A panel is packed; B^T
/// is). Multiplication being commutative, each C element runs the chain
/// over k of GemmEx(false, true, n, img.depth(), img.cols(), B, vcol), so
/// C^T is bitwise that product on every kernel tier.
void GemmConvAEx(const ConvImageView& img, int64_t n, const float* b,
                 float alpha, float beta, float* c);

/// GemmConvEx with the weight operand pre-packed (the serving hot path:
/// prepacked weights x virtual im2col). Same bitwise guarantee.
void GemmConvPackedA(const PackedAWeights& a, const ConvImageView& img,
                     float alpha, float beta, float* c, const GemmEpilogue& ep,
                     bool parallel);

/// Number of independent tasks a parallel Gemm/GemmEx can distribute over
/// the worker pool for an m x n product: the NR-column micro-panel count
/// of one column stripe. Callers choosing between batch-level and
/// GEMM-level parallelism use this to pick the level that actually has
/// work to spread (1 means the GEMM runs sequentially regardless).
int64_t GemmParallelTiles(int64_t m, int64_t n);

/// Naive triple-loop reference implementation (double accumulator). The
/// test oracle for the optimized paths; never used on the hot path.
void GemmRef(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
             float alpha, const float* a, const float* b, float beta,
             float* c);

/// Name of the dispatched micro-kernel ("avx512", "avx2", "scalar") for
/// logging and benchmark labeling. Selection is automatic per CPU
/// features; the POE_GEMM_KERNEL environment variable forces a variant
/// (unsupported values fall back to auto-detection).
const char* GemmKernelName();

}  // namespace poe

#endif  // POE_TENSOR_GEMM_H_
