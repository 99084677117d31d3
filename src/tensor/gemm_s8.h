// Blocked, packed, SIMD-dispatched int8 x int8 -> int32 GEMM with a fused
// dequantizing epilogue: the quantized serving hot path. Shares the f32
// GEMM's MC/NC tiling and its one parallel schedule (docs/PERF.md) and adds
// a KR k-group interleave for the 8-bit dot-product instructions.
#ifndef POE_TENSOR_GEMM_S8_H_
#define POE_TENSOR_GEMM_S8_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tensor/conv_direct.h"
#include "tensor/gemm.h"

namespace poe {

/// Output transform applied in the int32 -> f32 store pass. The raw
/// product acc = sum_p op(A)(i,p) * op(B)(p,j) becomes
///
///   v = acc * scale * row_scale[i] * col_scale[j] + row_bias[i] + col_bias[j]
///   C(i,j) = relu ? max(0, v) : v
///
/// with absent pointers treated as 1 (scales) / 0 (biases), then runs
/// `tile_hook` on each finished register tile (see GemmTileHook). Quantized
/// layers put the activation scale in `scale` and the per-output-channel
/// weight scales in row_scale (conv layout: C rows are channels) or
/// col_scale (linear layout: C columns are features).
struct GemmS8Epilogue {
  float scale = 1.0f;
  const float* row_scale = nullptr;  ///< length m
  const float* col_scale = nullptr;  ///< length n
  const float* row_bias = nullptr;   ///< length m, f32, added after dequant
  const float* col_bias = nullptr;   ///< length n, f32, added after dequant
  bool relu = false;
  GemmTileHook tile_hook;
};

/// C (f32, m x n, row-major) = epilogue(op(A) * op(B)) where A and B are
/// int8 and the product accumulates exactly in int32 (no intermediate
/// rounding). Within a process results are bitwise identical across
/// thread counts and across the plain/prepacked entry points; different
/// kernels may differ by a few ulps in the f32 epilogue (the VNNI store
/// vectorizes it with a different operation order). op(A)/op(B) transpose
/// semantics match the f32 Gemm. k must be at most 1 << 16 so the
/// worst-case accumulator cannot overflow.
void GemmS8(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
            const int8_t* a, const int8_t* b, float* c,
            const GemmS8Epilogue& epilogue, bool parallel);

/// Conv weights pre-packed once into the dispatched kernel's op(A) panel
/// layout. Conv2d builds this at quantization time so per-query GEMMs skip
/// the A-packing pass and the f32 weights can be released. Valid only
/// within the process that packed it (the layout depends on the dispatched
/// kernel geometry). A plain m x k matrix packs as a 1x1 conv of k
/// channels: PackConv(m, k, 1, a), depth k rounded up to the k-group.
class PackedS8Weights {
 public:
  PackedS8Weights() = default;

  /// Packs conv weights (m x channels*kernel^2, row-major in im2col order
  /// (c, kh, kw)) for GemmS8ConvPackedA: k is reordered to
  /// (c / kr, kh, kw, c % kr) for the kernel's k-group kr, with zero
  /// weights for the channels that pad `channels` up to a multiple of kr,
  /// so each k-group matches one pixel of the channel-interleaved image.
  static PackedS8Weights PackConv(int64_t m, int64_t channels,
                                  int64_t kernel, const int8_t* a);

  /// Reconstructs the row-major int8 matrix PackConv was given into `out`
  /// (m x channels*kernel^2, im2col order) — the exact inverse for this
  /// process's kernel. Serialization exports
  /// through this, so persisted int8 pools stay kernel-layout independent
  /// without holding a second raw copy of the weights in memory.
  void Unpack(int8_t* out) const;

  bool empty() const { return data_.empty(); }
  int64_t rows() const { return m_; }
  /// Reduction depth of the panels: the padded channel count times
  /// kernel^2 (the rows of a k-group-ordered im2col).
  int64_t depth() const { return k_; }
  /// Bytes held by the packed panels (the serving footprint of the
  /// weight matrix).
  int64_t nbytes() const { return static_cast<int64_t>(data_.size()); }

 private:
  friend void GemmS8PackedA(const PackedS8Weights&, int64_t, const int8_t*,
                            float*, const GemmS8Epilogue&, bool);
  friend void GemmS8ConvPackedA(const PackedS8Weights&,
                                const ConvImageViewS8&, float*,
                                const GemmS8Epilogue&, bool);
  std::vector<uint8_t> data_;  // shift-applied panels, kpad*mr per panel
  int64_t m_ = 0, k_ = 0;
  int64_t conv_channels_ = 0, conv_kernel_ = 0;  // PackConv geometry
};

/// GemmS8 with op(A) pre-packed and op(B) = B (a.depth() x n,
/// untransposed): C (m x n) = epilogue(packed_a * B). The product of the
/// tests' im2col conv reference; serving convs run GemmS8ConvPackedA.
void GemmS8PackedA(const PackedS8Weights& a, int64_t n, const int8_t* b,
                   float* c, const GemmS8Epilogue& epilogue, bool parallel);

/// Direct (im2col-free) int8 convolution: C (m x img.cols()) =
/// epilogue(a * B) where B is the virtual im2col matrix of `img`, a
/// channel-interleaved image with img.group == GemmS8KGroup() (see
/// conv_direct.h), and `a` came from PackConv with img's channels and
/// kernel. It runs GemmS8's tiles and parallel split with B read in place
/// (no B panel is packed); the int32 accumulation is exact, so outputs are
/// bitwise identical to GemmS8PackedA over the im2col matrix on every tier.
void GemmS8ConvPackedA(const PackedS8Weights& a, const ConvImageViewS8& img,
                       float* c, const GemmS8Epilogue& epilogue,
                       bool parallel);

/// op(B) of a k x n int8 product pre-packed ONCE into the dispatched
/// kernel's NR-column / KR-group panel layout, column sums included (the
/// shift-compensation term the dequantizing store needs). Linear's int8
/// serving weight is op(B) = W^T — its per-call transposed PackBs8 was the
/// dominant cost at BM_LinearForwardInt8 geometry, and this form deletes
/// it. Panel bytes and colsums are identical to the on-the-fly pack, so
/// GemmS8PackedB is bitwise identical to GemmS8. Process-local (layout
/// depends on the dispatched kernel geometry).
class PackedS8BWeights {
 public:
  PackedS8BWeights() = default;
  static PackedS8BWeights Pack(bool trans_b, int64_t k, int64_t n,
                               const int8_t* b);

  /// Reconstructs the trans_b = true Pack source — the n x k row-major
  /// int8 matrix whose transpose the panels encode — into `out` (n*k
  /// entries); for a !trans_b source this is B^T. The exact inverse of
  /// Pack for this process's kernel, so int8 Linear can serve from the
  /// panels alone and still export a layout-independent raw weight copy
  /// for serialization.
  void Unpack(int8_t* out) const;

  bool empty() const { return data_.empty(); }
  int64_t depth() const { return k_; }
  int64_t cols() const { return n_; }
  /// Bytes held by the packed panels plus the column sums.
  int64_t nbytes() const {
    return static_cast<int64_t>(data_.size()) +
           static_cast<int64_t>(colsum_.size() * sizeof(int32_t));
  }

 private:
  friend void GemmS8PackedB(bool, int64_t, const int8_t*,
                            const PackedS8BWeights&, float*,
                            const GemmS8Epilogue&, bool);
  std::vector<int8_t> data_;     // per column tile: kpad*nr panels
  std::vector<int32_t> colsum_;  // per packed column (nr-padded per tile)
  int64_t k_ = 0, n_ = 0;
};

/// GemmS8 with op(B) pre-packed: C (m x n) = epilogue(op(A) * packed_b)
/// where op(A) is A (m x k) when !trans_a. The linear serving path
/// (activations are A, untransposed).
void GemmS8PackedB(bool trans_a, int64_t m, const int8_t* a,
                   const PackedS8BWeights& b, float* c,
                   const GemmS8Epilogue& epilogue, bool parallel);

/// Naive triple-loop reference with exact int32 accumulation and the same
/// epilogue arithmetic (bitwise-identical outputs), tile hook aside. The
/// test oracle.
void GemmS8Ref(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
               const int8_t* a, const int8_t* b, float* c,
               const GemmS8Epilogue& epilogue);

/// Name of the dispatched int8 micro-kernel ("avx512vnni", "avx2",
/// "scalar"). Selection is automatic per CPU features; POE_GEMM_KERNEL
/// forces a variant ("avx512" selects the VNNI kernel; unsupported values
/// fall back to auto-detection).
const char* GemmS8KernelName();

/// The dispatched int8 kernel's k-group (4 for VNNI and scalar, 2 for
/// AVX2): the channels per pixel of a direct conv image.
int64_t GemmS8KGroup();

/// The project-wide int8 rounding rule for one value: scale, clamp to
/// [-127, 127], round half away from zero. QuantizeBufferS8 applies
/// exactly this on every path, so its SIMD and scalar loops agree bitwise.
inline int8_t QuantizeOneS8(float v, float inv_scale) {
  v *= inv_scale;
  // min-first clamp order absorbs NaN to 127 (std::min(127, NaN) == 127),
  // matching the vectorized path's MINPS(x, 127) semantics — no UB cast,
  // no scalar/SIMD divergence on pathological inputs.
  v = std::max(-127.0f, std::min(127.0f, v));
  return static_cast<int8_t>(
      static_cast<int32_t>(v + (v >= 0.0f ? 0.5f : -0.5f)));
}

/// Quantizes `n` f32 values symmetrically to int8 with `inv_scale` =
/// 1 / SymmetricScaleS8(...) (round half away from zero, clamped to
/// [-127, 127]). The single rounding routine of the int8 serving layers:
/// their weights at conversion and their activations on every forward.
void QuantizeBufferS8(const float* src, int64_t n, float inv_scale,
                      int8_t* dst);

/// Symmetric max-abs int8 scale of `n` values: max|x| / 127, or 1 when
/// all values are zero (so zero tensors round-trip exactly).
float SymmetricScaleS8(const float* src, int64_t n);

/// Max |x| over `n` floats (0 for n == 0). NaNs are skipped — the scalar
/// `v > max` test is false for NaN — and the AVX2 path reproduces exactly
/// that (MAXPS keeps the running max on unordered compares), so like
/// QuantizeBufferS8 it is bitwise identical to the scalar loop and engages
/// on CPU capability alone. The scan behind every dynamic activation scale
/// and every per-channel weight scale.
float MaxAbs(const float* src, int64_t n);

}  // namespace poe

#endif  // POE_TENSOR_GEMM_S8_H_
