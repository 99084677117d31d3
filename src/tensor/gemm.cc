#include "tensor/gemm.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "tensor/arena.h"
#include "tensor/fp_contract.h"
#include "tensor/pack.h"
#include "util/logging.h"
#include "util/parallel_for.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define POE_GEMM_X86 1
#include <immintrin.h>
#endif

namespace poe {

namespace {

// Cache blocking (floats). One op(A) block (kMC x kKC, ~300 KB) lives in L2
// while a kKC x NR slice of packed op(B) (~40 KB) streams through L1.
constexpr int64_t kMC = 240;  // multiple of every kernel's MR (6 and 8)
constexpr int64_t kKC = 320;
constexpr int64_t kNC = 1024;

constexpr int64_t kMaxMR = 16;
constexpr int64_t kMaxNR = 64;

// A micro-kernel computes acc[r*nr + c] = sum_p a(r, p) * b(p, c) over
// one register tile (acc is overwritten, never read). Scaling by alpha,
// the beta-accumulate into C, and the epilogue all happen in StoreTile.
//
// Each tile shape comes in forms that differ only in where a k-step's
// operands are loaded from:
//   - packed: a(r, p) = a[p*mr + r] and b(p, c) = b[p*nr + c], panels
//     written by PackA and PackB;
//   - direct B: b(p, c) = seg[c / S][koff[p] + c % S], NR/S segments of S
//     contiguous floats read straight from a padded conv image (S is the
//     kernel's segment width; see ImageMatrix in gemm.h). No B panel is
//     written;
//   - image A: a(r, p) = arow[r][poff[p]], the broadcast scalars read
//     straight from the image rows of an ImageMatrix, B packed. No A
//     panel is written.
// All forms of a tier run the identical multiply-add chain per accumulator
// (explicit FMA intrinsics in the SIMD forms, a multiply and an add each
// rounded in the POE_NO_FP_CONTRACT scalar forms), so a product is bitwise
// the same whichever form computed a tile.
using MicroKernelFn = void (*)(int64_t kc, const float* a, const float* b,
                               float* acc);
using DirectKernelFn = void (*)(int64_t kc, const float* a,
                                const float* const* seg,
                                const int32_t* koff, float* acc);
using ImageAKernelFn = void (*)(int64_t kc, const float* const* arow,
                                const int32_t* poff, const float* b,
                                float* acc);

// A direct form and the segment width S it loads.
struct DirectForm {
  int64_t seg = 0;  // 0 ends a kernel's list
  DirectKernelFn fn = nullptr;
};

struct Kernel {
  int64_t mr, nr;
  MicroKernelFn fn;
  const char* name;
  DirectForm direct[2];  // widest segment first
  ImageAKernelFn image_a;
};

// Portable fallback: 6x16 accumulator block in plain C. The fixed trip
// counts let the compiler unroll and vectorize for whatever the build
// targets. kSeg == 0 reads packed B panels; kSeg == 1 reads each of the 16
// lanes through its own segment pointer, so the direct form covers any
// output width. kImageA reads A from its image rows.
template <int kSeg, bool kImageA>
POE_NO_FP_CONTRACT void MicroKernel6x16Scalar(
    int64_t kc, const float* a, const float* const* arow, const int32_t* poff,
    const float* b, const float* const* seg, const int32_t* koff,
    float* acc) {
  float c[6 * 16];
  std::memset(c, 0, sizeof(c));
  for (int64_t p = 0; p < kc; ++p) {
    float bv[16];
    if constexpr (kSeg == 0) {
      std::memcpy(bv, b, sizeof(bv));
      b += 16;
    } else {
      const int32_t off = koff[p];
      for (int j = 0; j < 16; ++j) bv[j] = seg[j][off];
    }
    for (int r = 0; r < 6; ++r) {
      const float av = kImageA ? arow[r][poff[p]] : a[r];
      for (int j = 0; j < 16; ++j) c[r * 16 + j] += av * bv[j];
    }
    if constexpr (!kImageA) a += 6;
  }
  std::memcpy(acc, c, sizeof(c));
}

void MicroKernel6x16ScalarPacked(int64_t kc, const float* a, const float* b,
                                 float* acc) {
  MicroKernel6x16Scalar<0, false>(kc, a, nullptr, nullptr, b, nullptr,
                                  nullptr, acc);
}

void MicroKernel6x16ScalarDirect(int64_t kc, const float* a,
                                 const float* const* seg,
                                 const int32_t* koff, float* acc) {
  MicroKernel6x16Scalar<1, false>(kc, a, nullptr, nullptr, nullptr, seg,
                                  koff, acc);
}

void MicroKernel6x16ScalarImageA(int64_t kc, const float* const* arow,
                                 const int32_t* poff, const float* b,
                                 float* acc) {
  MicroKernel6x16Scalar<0, true>(kc, nullptr, arow, poff, b, nullptr,
                                 nullptr, acc);
}

#ifdef POE_GEMM_X86

// 6x16 register tile: 12 fp32x8 accumulators + 2 B vectors + 1 broadcast
// fills 15 of the 16 ymm registers. Direct form: two 8-float segments.
template <int kSeg, bool kImageA>
__attribute__((target("avx2,fma"), always_inline)) inline void
MicroKernel6x16Avx2(int64_t kc, const float* a, const float* const* arow,
                    const int32_t* poff, const float* b,
                    const float* const* seg, const int32_t* koff,
                    float* acc) {
  __m256 c0[6], c1[6];
  for (int r = 0; r < 6; ++r) {
    c0[r] = _mm256_setzero_ps();
    c1[r] = _mm256_setzero_ps();
  }
  for (int64_t p = 0; p < kc; ++p) {
    __m256 b0, b1;
    if constexpr (kSeg == 0) {
      b0 = _mm256_loadu_ps(b);
      b1 = _mm256_loadu_ps(b + 8);
      b += 16;
    } else {
      static_assert(kSeg == 8, "avx2 direct form loads 8-float segments");
      const int32_t off = koff[p];
      b0 = _mm256_loadu_ps(seg[0] + off);
      b1 = _mm256_loadu_ps(seg[1] + off);
    }
    const int32_t aoff = kImageA ? poff[p] : 0;
#pragma GCC unroll 6
    for (int r = 0; r < 6; ++r) {
      const __m256 av = _mm256_set1_ps(kImageA ? arow[r][aoff] : a[r]);
      c0[r] = _mm256_fmadd_ps(av, b0, c0[r]);
      c1[r] = _mm256_fmadd_ps(av, b1, c1[r]);
    }
    if constexpr (!kImageA) a += 6;
  }
  for (int r = 0; r < 6; ++r) {
    _mm256_storeu_ps(acc + r * 16, c0[r]);
    _mm256_storeu_ps(acc + r * 16 + 8, c1[r]);
  }
}

__attribute__((target("avx2,fma"))) void MicroKernel6x16Avx2Packed(
    int64_t kc, const float* a, const float* b, float* acc) {
  MicroKernel6x16Avx2<0, false>(kc, a, nullptr, nullptr, b, nullptr, nullptr,
                                acc);
}

__attribute__((target("avx2,fma"))) void MicroKernel6x16Avx2Direct8(
    int64_t kc, const float* a, const float* const* seg, const int32_t* koff,
    float* acc) {
  MicroKernel6x16Avx2<8, false>(kc, a, nullptr, nullptr, nullptr, seg, koff,
                                acc);
}

__attribute__((target("avx2,fma"))) void MicroKernel6x16Avx2ImageA(
    int64_t kc, const float* const* arow, const int32_t* poff,
    const float* b, float* acc) {
  MicroKernel6x16Avx2<0, true>(kc, nullptr, arow, poff, b, nullptr, nullptr,
                               acc);
}

// One zmm from two 8-float loads: `lo` fills lanes 0-7, `hi` lanes 8-15.
__attribute__((target("avx512f"), always_inline)) inline __m512 LoadTwo8(
    const float* lo, const float* hi) {
  return _mm512_castpd_ps(_mm512_insertf64x4(
      _mm512_castps_pd(_mm512_castps256_ps512(_mm256_loadu_ps(lo))),
      _mm256_castps_pd(_mm256_loadu_ps(hi)), 1));
}

// 8x32 register tile: 16 fp32x16 accumulators + 2 B vectors + broadcasts.
// MR = 8 divides the 16-, 32- and 64-channel weights of WRN layers, so no
// padding rows are computed. Direct forms: two 16-float segments, or four
// 8-float segments joined pairwise (8-wide output rows).
template <int kSeg, bool kImageA>
__attribute__((target("avx512f"), always_inline)) inline void
MicroKernel8x32Avx512(int64_t kc, const float* a, const float* const* arow,
                      const int32_t* poff, const float* b,
                      const float* const* seg, const int32_t* koff,
                      float* acc) {
  __m512 c0[8], c1[8];
  for (int r = 0; r < 8; ++r) {
    c0[r] = _mm512_setzero_ps();
    c1[r] = _mm512_setzero_ps();
  }
  for (int64_t p = 0; p < kc; ++p) {
    __m512 b0, b1;
    if constexpr (kSeg == 0) {
      b0 = _mm512_loadu_ps(b);
      b1 = _mm512_loadu_ps(b + 16);
      b += 32;
    } else if constexpr (kSeg == 16) {
      const int32_t off = koff[p];
      b0 = _mm512_loadu_ps(seg[0] + off);
      b1 = _mm512_loadu_ps(seg[1] + off);
    } else {
      static_assert(kSeg == 8, "avx512 direct forms load 16 or 8 floats");
      const int32_t off = koff[p];
      b0 = LoadTwo8(seg[0] + off, seg[1] + off);
      b1 = LoadTwo8(seg[2] + off, seg[3] + off);
    }
    const int32_t aoff = kImageA ? poff[p] : 0;
#pragma GCC unroll 8
    for (int r = 0; r < 8; ++r) {
      const __m512 av = _mm512_set1_ps(kImageA ? arow[r][aoff] : a[r]);
      c0[r] = _mm512_fmadd_ps(av, b0, c0[r]);
      c1[r] = _mm512_fmadd_ps(av, b1, c1[r]);
    }
    if constexpr (!kImageA) a += 8;
  }
  for (int r = 0; r < 8; ++r) {
    _mm512_storeu_ps(acc + r * 32, c0[r]);
    _mm512_storeu_ps(acc + r * 32 + 16, c1[r]);
  }
}

__attribute__((target("avx512f"))) void MicroKernel8x32Avx512Packed(
    int64_t kc, const float* a, const float* b, float* acc) {
  MicroKernel8x32Avx512<0, false>(kc, a, nullptr, nullptr, b, nullptr,
                                  nullptr, acc);
}

__attribute__((target("avx512f"))) void MicroKernel8x32Avx512Direct16(
    int64_t kc, const float* a, const float* const* seg, const int32_t* koff,
    float* acc) {
  MicroKernel8x32Avx512<16, false>(kc, a, nullptr, nullptr, nullptr, seg,
                                   koff, acc);
}

__attribute__((target("avx512f"))) void MicroKernel8x32Avx512Direct8(
    int64_t kc, const float* a, const float* const* seg, const int32_t* koff,
    float* acc) {
  MicroKernel8x32Avx512<8, false>(kc, a, nullptr, nullptr, nullptr, seg,
                                  koff, acc);
}

__attribute__((target("avx512f"))) void MicroKernel8x32Avx512ImageA(
    int64_t kc, const float* const* arow, const int32_t* poff,
    const float* b, float* acc) {
  MicroKernel8x32Avx512<0, true>(kc, nullptr, arow, poff, b, nullptr,
                                 nullptr, acc);
}

#endif  // POE_GEMM_X86

const Kernel& PickKernel() {
  static const Kernel kernel = [] {
    // POE_GEMM_KERNEL=scalar|avx2|avx512 forces a variant (used by the
    // test suite to cover kernels the host wouldn't otherwise pick);
    // unsupported or unknown values fall back to auto-detection.
    const char* env = std::getenv("POE_GEMM_KERNEL");
    const std::string want = env ? env : "";
    const Kernel scalar{6, 16, MicroKernel6x16ScalarPacked, "scalar",
                        {{1, MicroKernel6x16ScalarDirect}},
                        MicroKernel6x16ScalarImageA};
    if (want == "scalar") return scalar;
#ifdef POE_GEMM_X86
    const bool has_avx512 = __builtin_cpu_supports("avx512f");
    const bool has_avx2 =
        __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    const Kernel avx512{8, 32, MicroKernel8x32Avx512Packed, "avx512",
                        {{16, MicroKernel8x32Avx512Direct16},
                         {8, MicroKernel8x32Avx512Direct8}},
                        MicroKernel8x32Avx512ImageA};
    const Kernel avx2{6, 16, MicroKernel6x16Avx2Packed, "avx2",
                      {{8, MicroKernel6x16Avx2Direct8}},
                      MicroKernel6x16Avx2ImageA};
    if (want == "avx512" && has_avx512) return avx512;
    if (want == "avx2" && has_avx2) return avx2;
    if (has_avx512) return avx512;
    if (has_avx2) return avx2;
#endif
    return scalar;
  }();
  return kernel;
}

// Writes one micro-tile of the product into C: C = blk_beta*C + alpha*acc
// over the valid rows x cols region, plus the fused epilogue when this is
// the final k-block. kStaged (a tile hook on the final k-block) writes the
// final values to a staging tile instead and hands it to the hook.
template <bool kStaged>
void StoreTileT(const float* acc, int64_t nr, int64_t rows, int64_t cols,
                float alpha, float blk_beta, bool apply_epilogue,
                const GemmEpilogue& ep, int64_t row0, int64_t col0, float* c,
                int64_t ldc) {
  float stage[kStaged ? kMaxMR * kMaxNR : 1];
  float* tile = kStaged ? stage : c + row0 * ldc + col0;
  const int64_t ld = kStaged ? nr : ldc;
  for (int64_t r = 0; r < rows; ++r) {
    const float* arow = acc + r * nr;
    const float* crow = c + (row0 + r) * ldc + col0;
    float* trow = tile + r * ld;
    if (blk_beta == 0.0f) {
      for (int64_t j = 0; j < cols; ++j) trow[j] = alpha * arow[j];
    } else if (blk_beta == 1.0f) {
      for (int64_t j = 0; j < cols; ++j) trow[j] = crow[j] + alpha * arow[j];
    } else {
      for (int64_t j = 0; j < cols; ++j)
        trow[j] = blk_beta * crow[j] + alpha * arow[j];
    }
  }
  if (!apply_epilogue) return;
  for (int64_t r = 0; r < rows; ++r) {
    float* trow = tile + r * ld;
    const float rb = ep.row_bias ? ep.row_bias[row0 + r] : 0.0f;
    if (ep.col_bias != nullptr) {
      const float* cb = ep.col_bias + col0;
      for (int64_t j = 0; j < cols; ++j) trow[j] += rb + cb[j];
    } else if (ep.row_bias != nullptr) {
      for (int64_t j = 0; j < cols; ++j) trow[j] += rb;
    }
    if (ep.relu) {
      for (int64_t j = 0; j < cols; ++j) trow[j] = std::max(0.0f, trow[j]);
    }
  }
  if constexpr (kStaged) {
    ep.tile_hook(stage, ld, /*transposed=*/false, row0, rows, col0, cols, c,
                 ldc);
  }
}

void StoreTile(const float* acc, int64_t nr, int64_t rows, int64_t cols,
               float alpha, float blk_beta, bool apply_epilogue,
               const GemmEpilogue& ep, int64_t row0, int64_t col0, float* c,
               int64_t ldc) {
  if (apply_epilogue && ep.tile_hook) {
    StoreTileT<true>(acc, nr, rows, cols, alpha, blk_beta, apply_epilogue, ep,
                     row0, col0, c, ldc);
  } else {
    StoreTileT<false>(acc, nr, rows, cols, alpha, blk_beta, apply_epilogue,
                      ep, row0, col0, c, ldc);
  }
}

// Offsets into the persistent packed buffers (see PackedAWeights /
// PackedBWeights::Pack below for the layouts). Both layouts place the
// panels of each (tile, k-block) region exactly as the per-call pack
// writes them, so the micro-kernel loops are oblivious to the source.
inline const float* PrepackedABlock(const float* packed, int64_t m,
                                    int64_t mr, int64_t i0, int64_t pc,
                                    int64_t kc) {
  const int64_t m_pad = (m + mr - 1) / mr * mr;
  return packed + m_pad * pc + (i0 / mr) * kc * mr;
}

inline const float* PrepackedBBlock(const float* packed, int64_t k,
                                    int64_t n, int64_t nr, int64_t j0,
                                    int64_t pc, int64_t kc) {
  const int64_t nc = std::min(kNC, n - j0);
  const int64_t nc_pad = (nc + nr - 1) / nr * nr;
  // Column tiles before j0 are all full (kNC wide, kNC a multiple of nr),
  // so they occupy exactly k * j0 floats.
  return packed + k * j0 + nc_pad * pc;
}

// Picks how the micro-panel of columns [j, j + nr) reads a direct B: the
// widest direct form whose segments each lie inside one output row (so
// their floats are contiguous in the image) and inside n, with seg[]
// pointing at each segment's first column. Null when no form fits (a row
// or N tail); the caller gathers that panel instead.
DirectKernelFn PickDirectForm(const Kernel& kn, const ImageMatrix& d,
                              int64_t j, const float** seg) {
  if (j + kn.nr > d.n) return nullptr;
  for (const DirectForm& form : kn.direct) {
    if (form.seg == 0) break;
    bool fits = true;
    for (int64_t s = 0; s < kn.nr && fits; s += form.seg) {
      fits = (j + s) % d.out_w + form.seg <= d.out_w;
    }
    if (!fits) continue;
    for (int64_t s = 0; s < kn.nr; s += form.seg) {
      seg[s / form.seg] = d.image + d.ColOffset(j + s);
    }
    return form.fn;
  }
  return nullptr;
}

// Gathers the kc x nr block of a micro-panel no direct form covers into
// `out` in the packed layout, zero past n: the same values a direct form
// would load, for the packed kernel to read.
void GatherPanel(const ImageMatrix& d, int64_t pc, int64_t kc, int64_t j,
                 int64_t nr, float* out) {
  const int64_t cols = std::min(nr, d.n - j);
  int64_t col_off[kMaxNR];
  for (int64_t c = 0; c < cols; ++c) col_off[c] = d.ColOffset(j + c);
  for (int64_t p = 0; p < kc; ++p) {
    const float* src = d.image + d.koff[pc + p];
    float* dst = out + p * nr;
    for (int64_t c = 0; c < cols; ++c) dst[c] = src[col_off[c]];
    for (int64_t c = cols; c < nr; ++c) dst[c] = 0.0f;
  }
}

// What StoreTile needs for every tile of one (row tile, k-block).
struct TileStore {
  float alpha, blk_beta;
  bool epilogue;
  const GemmEpilogue* ep;
  float* c;
  int64_t ldc;
};

// A read in place from an image (GemmConvAEx): a(i, p) = v->image[
// v->koff[i] + poff[p]], the rows of ImageMatrix v as A's rows and its
// pixels (poff[p] = v->ColOffset(p)) as A's columns. No A panel is packed.
struct ImageA {
  const ImageMatrix* v;
  const int32_t* poff;
};

// Runs the register tiles of one NR-column micro-panel (columns j ..
// j+cols-1) over the row tile [i0, i0+mc) and k-block [pc, pc+kc). A
// comes from the packed panels at `a_pack`, or in the kImageA form from
// `image_a` (picked once per micro-panel: a per-tile branch between the
// two cost the forward's large direct convs 3-10%). B comes from the
// packed panel `bp`, or, when `direct` is set, straight from the conv
// image; `gather` (kc x nr floats) backs the panels no direct form covers.
template <bool kImageA>
void RunMicroPanel(const Kernel& kn, int64_t pc, int64_t kc,
                   const float* a_pack, const ImageA* image_a, int64_t i0,
                   int64_t mc, const float* bp, const ImageMatrix* direct,
                   float* gather, int64_t j, int64_t cols,
                   const TileStore& st) {
  const float* seg[kMaxNR];
  DirectKernelFn direct_fn = nullptr;
  if (direct != nullptr) {
    direct_fn = PickDirectForm(kn, *direct, j, seg);
    if (direct_fn == nullptr) {
      GatherPanel(*direct, pc, kc, j, kn.nr, gather);
      bp = gather;
    }
  }
  float acc[kMaxMR * kMaxNR];
  for (int64_t ip = 0; ip < mc; ip += kn.mr) {
    if constexpr (kImageA) {
      const float* arow[kMaxMR];
      for (int64_t r = 0; r < kn.mr; ++r) {
        // Rows past the tile repeat its last row; StoreTile drops them.
        arow[r] = image_a->v->image +
                  image_a->v->koff[i0 + std::min(ip + r, mc - 1)];
      }
      kn.image_a(kc, arow, image_a->poff + pc, bp, acc);
    } else {
      const float* ap = a_pack + (ip / kn.mr) * kc * kn.mr;
      if (direct_fn != nullptr) {
        direct_fn(kc, ap, seg, direct->koff + pc, acc);
      } else {
        kn.fn(kc, ap, bp, acc);
      }
    }
    StoreTile(acc, kn.nr, std::min(kn.mr, mc - ip), cols, st.alpha,
              st.blk_beta, st.epilogue, *st.ep, i0 + ip, j, st.c, st.ldc);
  }
}

// Degenerate k == 0 product: C = beta*C plus the epilogue, the tile hook
// taking all of C as one tile, in place.
void ScaleOnly(int64_t m, int64_t n, float beta, float* c,
               const GemmEpilogue& ep) {
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    if (beta == 0.0f) {
      std::fill(crow, crow + n, 0.0f);
    } else if (beta != 1.0f) {
      for (int64_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    const float rb = ep.row_bias ? ep.row_bias[i] : 0.0f;
    if (ep.row_bias || ep.col_bias) {
      for (int64_t j = 0; j < n; ++j)
        crow[j] += rb + (ep.col_bias ? ep.col_bias[j] : 0.0f);
    }
    if (ep.relu) {
      for (int64_t j = 0; j < n; ++j) crow[j] = std::max(0.0f, crow[j]);
    }
  }
  if (ep.tile_hook) ep.tile_hook(c, n, /*transposed=*/false, 0, m, 0, n, c, n);
}

void GemmExImpl(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                float alpha, const float* a, const float* b, float beta,
                float* c, const GemmEpilogue& ep, bool parallel,
                const float* prepacked_a, const float* prepacked_b,
                const ImageMatrix* direct, const ImageA* image_a = nullptr) {
  POE_CHECK_GE(m, 0);
  POE_CHECK_GE(n, 0);
  POE_CHECK_GE(k, 0);
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0f) {
    ScaleOnly(m, n, beta, c, ep);
    return;
  }

  // B packing is hoisted out of the row-tile loop: each B k-block is
  // packed once per column stripe and reused by every row tile (a direct
  // conv B needs no packing at all, and an image A no A packing). With
  // workers > 1 the NR-column micro-panels of each (k-block, row-tile)
  // region are dealt over the pool. Each C micro-tile is written by
  // exactly one task and k-blocks accumulate in ascending order behind the
  // ParallelFor barrier, so the result is bitwise the same for any worker
  // count, and, because prepacked panels are byte-identical to per-call
  // packs and direct and image forms load the values a pack would hold,
  // for every entry point.
  const Kernel& kernel = PickKernel();
  const int64_t row_tiles = (m + kMC - 1) / kMC;
  const int64_t col_tiles = (n + kNC - 1) / kNC;
  const int64_t mr = kernel.mr;
  const int64_t nr = kernel.nr;
  const int64_t kc_max = std::min(k, kKC);
  const int64_t a_pad_max =
      std::min(kMC, (std::min(kMC, m) + mr - 1) / mr * mr);
  const auto run_panel = image_a ? RunMicroPanel<true> : RunMicroPanel<false>;
  for (int64_t ct = 0; ct < col_tiles; ++ct) {
    const int64_t j0 = ct * kNC;
    const int64_t nc = std::min(kNC, n - j0);
    const int64_t nc_pad = (nc + nr - 1) / nr * nr;
    ScratchScope scope;
    float* a_buf = prepacked_a || image_a ? nullptr
                                          : scope.Alloc(a_pad_max * kc_max);
    float* b_buf =
        prepacked_b || direct ? nullptr : scope.Alloc(kc_max * nc_pad);
    for (int64_t pc = 0; pc < k; pc += kKC) {
      const int64_t kc = std::min(kKC, k - pc);
      const float* b_pack = nullptr;
      if (prepacked_b != nullptr) {
        b_pack = PrepackedBBlock(prepacked_b, k, n, nr, j0, pc, kc);
      } else if (direct == nullptr) {
        PackB(trans_b, b, k, n, pc, kc, j0, nc, nr, b_buf);
        b_pack = b_buf;
      }
      const TileStore st{alpha, pc == 0 ? beta : 1.0f,
                         pc + kc >= k && !ep.empty(), &ep, c, n};
      for (int64_t rt = 0; rt < row_tiles; ++rt) {
        const int64_t i0 = rt * kMC;
        const int64_t mc = std::min(kMC, m - i0);
        const float* a_pack = nullptr;
        if (prepacked_a != nullptr) {
          a_pack = PrepackedABlock(prepacked_a, m, mr, i0, pc, kc);
        } else if (image_a == nullptr) {
          PackA(trans_a, a, m, k, i0, mc, pc, kc, mr, a_buf);
          a_pack = a_buf;
        }
        const auto micro_panels = [&](int64_t jb0, int64_t jb1) {
          ScratchScope panel_scope;
          float* gather = direct ? panel_scope.Alloc(kc * nr) : nullptr;
          for (int64_t jb = jb0; jb < jb1; ++jb) {
            const int64_t jp = jb * nr;
            run_panel(kernel, pc, kc, a_pack, image_a, i0, mc,
                      b_pack ? b_pack + jb * kc * nr : nullptr, direct,
                      gather, j0 + jp, std::min(nr, nc - jp), st);
          }
        };
        const int64_t jp_blocks = (nc + nr - 1) / nr;
        if (parallel) {
          ParallelFor(jp_blocks, micro_panels, /*min_chunk=*/1);
        } else {
          micro_panels(0, jp_blocks);
        }
      }
    }
  }
}

// The virtual im2col matrix of `img`, its k-row offset table built once
// per call into this thread's table (a GEMM never re-enters itself on one
// thread; ParallelFor workers only read the caller's table behind its
// barrier).
ImageMatrix ConvImageMatrix(const ConvImageView& img) {
  thread_local std::vector<int32_t> koff;
  POE_CHECK_LE(DirectImageElems(img), int64_t{INT32_MAX});
  koff.resize(static_cast<size_t>(img.depth()));
  TapOffsets(img, koff.data());
  ImageMatrix v;
  v.image = img.padded;
  v.koff = koff.data();
  v.k = img.depth();
  v.n = img.cols();
  v.out_w = img.out_w();
  v.row_step = img.stride * img.phase_w();
  return v;
}

}  // namespace

void GemmEx(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
            float alpha, const float* a, const float* b, float beta, float* c,
            const GemmEpilogue& ep, bool parallel) {
  GemmExImpl(trans_a, trans_b, m, n, k, alpha, a, b, beta, c, ep, parallel,
             /*prepacked_a=*/nullptr, /*prepacked_b=*/nullptr,
             /*direct=*/nullptr);
}

void GemmImageEx(int64_t m, const float* a, const ImageMatrix& v,
                 float alpha, float beta, float* c, const GemmEpilogue& ep,
                 bool parallel) {
  GemmExImpl(/*trans_a=*/false, /*trans_b=*/false, m, v.n, v.k, alpha, a,
             /*b=*/nullptr, beta, c, ep, parallel, /*prepacked_a=*/nullptr,
             /*prepacked_b=*/nullptr, &v);
}

void GemmConvEx(int64_t m, const float* a, const ConvImageView& img,
                float alpha, float beta, float* c, const GemmEpilogue& ep,
                bool parallel) {
  GemmImageEx(m, a, ConvImageMatrix(img), alpha, beta, c, ep, parallel);
}

void GemmConvAEx(const ConvImageView& img, int64_t n, const float* b,
                 float alpha, float beta, float* c) {
  // GemmExImpl's sequential schedule for C = alpha * V * B^T + beta * C
  // (V = vcol(img), m = v.k, k = v.n) with V as an image A: row i at
  // image + koff[i], column p at poff[p] past it.
  const ImageMatrix v = ConvImageMatrix(img);
  thread_local std::vector<int32_t> poff;
  poff.resize(static_cast<size_t>(v.n));
  for (int64_t p = 0; p < v.n; ++p) {
    poff[p] = static_cast<int32_t>(v.ColOffset(p));
  }
  const ImageA image_a{&v, poff.data()};
  GemmExImpl(/*trans_a=*/false, /*trans_b=*/true, v.k, n, v.n, alpha,
             /*a=*/nullptr, b, beta, c, GemmEpilogue{}, /*parallel=*/false,
             /*prepacked_a=*/nullptr, /*prepacked_b=*/nullptr,
             /*direct=*/nullptr, &image_a);
}

PackedAWeights PackedAWeights::Pack(bool trans_a, int64_t m, int64_t k,
                                    const float* a) {
  POE_CHECK_GT(m, 0);
  POE_CHECK_GT(k, 0);
  const Kernel& kernel = PickKernel();
  const int64_t mr = kernel.mr;
  const int64_t m_pad = (m + mr - 1) / mr * mr;
  PackedAWeights packed;
  packed.m_ = m;
  packed.k_ = k;
  packed.data_.resize(static_cast<size_t>(m_pad * k));
  // Layout: ascending k-blocks of kKC, each holding ceil(m/mr) panels of
  // kc*mr floats — byte-identical to the per-call PackA of every
  // (row-tile, k-block) the blocked GEMM visits.
  for (int64_t pc = 0; pc < k; pc += kKC) {
    const int64_t kc = std::min(kKC, k - pc);
    PackA(trans_a, a, m, k, /*i0=*/0, /*mc=*/m, pc, kc, mr,
          packed.data_.data() + m_pad * pc);
  }
  return packed;
}

PackedBWeights PackedBWeights::Pack(bool trans_b, int64_t k, int64_t n,
                                    const float* b) {
  POE_CHECK_GT(k, 0);
  POE_CHECK_GT(n, 0);
  const Kernel& kernel = PickKernel();
  const int64_t nr = kernel.nr;
  PackedBWeights packed;
  packed.k_ = k;
  packed.n_ = n;
  // Layout: per kNC column tile (all full tiles occupy exactly k * kNC
  // floats; kNC is a multiple of every kernel's NR), ascending k-blocks of
  // ceil(nc/nr) panels of kc*nr floats.
  int64_t total = 0;
  for (int64_t j0 = 0; j0 < n; j0 += kNC) {
    const int64_t nc = std::min(kNC, n - j0);
    total += k * ((nc + nr - 1) / nr * nr);
  }
  packed.data_.resize(static_cast<size_t>(total));
  for (int64_t j0 = 0; j0 < n; j0 += kNC) {
    const int64_t nc = std::min(kNC, n - j0);
    const int64_t nc_pad = (nc + nr - 1) / nr * nr;
    for (int64_t pc = 0; pc < k; pc += kKC) {
      const int64_t kc = std::min(kKC, k - pc);
      PackB(trans_b, b, k, n, pc, kc, j0, nc, nr,
            packed.data_.data() + k * j0 + nc_pad * pc);
    }
  }
  return packed;
}

void GemmPackedA(const PackedAWeights& a, int64_t n, const float* b,
                 float alpha, float beta, float* c, const GemmEpilogue& ep,
                 bool parallel) {
  POE_CHECK(!a.empty()) << "GemmPackedA on unpacked weights";
  GemmExImpl(/*trans_a=*/false, /*trans_b=*/false, a.m_, n, a.k_, alpha,
             /*a=*/nullptr, b, beta, c, ep, parallel, a.data_.data(),
             /*prepacked_b=*/nullptr, /*direct=*/nullptr);
}

void GemmConvPackedA(const PackedAWeights& a, const ConvImageView& img,
                     float alpha, float beta, float* c, const GemmEpilogue& ep,
                     bool parallel) {
  POE_CHECK(!a.empty()) << "GemmConvPackedA on unpacked weights";
  POE_CHECK_EQ(a.k_, img.depth());
  const ImageMatrix direct = ConvImageMatrix(img);
  GemmExImpl(/*trans_a=*/false, /*trans_b=*/false, a.m_, img.cols(), a.k_,
             alpha, /*a=*/nullptr, /*b=*/nullptr, beta, c, ep, parallel,
             a.data_.data(), /*prepacked_b=*/nullptr, &direct);
}

void GemmPackedB(int64_t m, const float* a, bool trans_a,
                 const PackedBWeights& b, float alpha, float beta, float* c,
                 const GemmEpilogue& ep, bool parallel) {
  POE_CHECK(!b.empty()) << "GemmPackedB on unpacked weights";
  GemmExImpl(trans_a, /*trans_b=*/false, m, b.n_, b.k_, alpha, a,
             /*b=*/nullptr, beta, c, ep, parallel,
             /*prepacked_a=*/nullptr, b.data_.data(), /*direct=*/nullptr);
}

void Gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, const float* a, const float* b, float beta, float* c) {
  GemmEx(trans_a, trans_b, m, n, k, alpha, a, b, beta, c, GemmEpilogue{},
         /*parallel=*/true);
}

void GemmRef(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
             float alpha, const float* a, const float* b, float beta,
             float* c) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * m + i] : a[i * k + p];
        const float bv = trans_b ? b[j * k + p] : b[p * n + j];
        acc += static_cast<double>(av) * bv;
      }
      const float prior = beta == 0.0f ? 0.0f : beta * c[i * n + j];
      c[i * n + j] = alpha * static_cast<float>(acc) + prior;
    }
  }
}

int64_t GemmParallelTiles(int64_t m, int64_t n) {
  if (m <= 0 || n <= 0) return 0;
  const int64_t nr = PickKernel().nr;
  return (std::min(n, kNC) + nr - 1) / nr;
}

const char* GemmKernelName() { return PickKernel().name; }

}  // namespace poe
