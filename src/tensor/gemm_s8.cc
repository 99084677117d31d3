#include "tensor/gemm_s8.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>

#include "tensor/arena.h"
#include "tensor/pack_s8.h"
#include "util/logging.h"
#include "util/parallel_for.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define POE_GEMM_S8_X86 1
#include <immintrin.h>
#endif

// Marks the functions that round through DequantOne: each of its multiplies and
// adds rounds on its own, as in the SIMD stores, which use explicit mul and add
// intrinsics. Without it GCC fuses a multiply and the following add into an FMA
// in some of the loop versions it emits for the scalar store and not in others,
// and runtime alias checks between the output and the epilogue arrays pick the
// version, so heap layout would pick the rounding. Clang contracts only within
// one expression, and DequantOne takes one statement per operation.
#if defined(__GNUC__) && !defined(__clang__)
#define POE_NO_FP_CONTRACT __attribute__((optimize("fp-contract=off")))
#else
#define POE_NO_FP_CONTRACT
#endif

namespace poe {

namespace {

// Row and column tiles (same MC/NC as the f32 GEMM, so conv/linear layers
// can reuse GemmParallelTiles for their parallelism decision). There is no
// k-blocking: int8 panels are 4x denser than f32, so whole-k panels stay
// cache-resident for every shape this system runs, and the register tile
// finishes its exact int32 accumulation in one kernel call.
constexpr int64_t kMC = 240;  // multiple of every kernel's MR (6 and 12)
constexpr int64_t kNC = 1024;

// k cap so the worst-case accumulator |sum_p (a+128)*b| <= k * 255 * 127
// stays far from int32 overflow.
constexpr int64_t kMaxK = 1 << 16;

constexpr int64_t kMaxMR = 16;
constexpr int64_t kMaxNR = 32;

// A micro-kernel computes acc[r*acc_rs + c*acc_cs] = sum_p a[...] * b[...]
// over whole packed panels (`groups` = kpad/KR k-groups; acc is
// overwritten). The A panel holds uint8 values pre-shifted by the kernel's
// `shift`; the dequantizing store subtracts shift * colsum to undo it.
using MicroKernelS8Fn = void (*)(int64_t groups, const uint8_t* a,
                                 const int8_t* b, int32_t* acc);

// The direct form of a micro-kernel reads each k-group's B in place from a
// channel-interleaved conv image (conv_direct.h): columns 0..NR/2-1 from
// b0 + koff[g], the rest from b1 + koff[g], each half a run of NR/2
// columns x KR bytes, the packed panel's layout. One form thus covers
// 16-wide runs of an output row (b1 = b0 + 8*KR) and 8-wide output rows.
// Same products in the same order as the packed form.
using DirectKernelS8Fn = void (*)(int64_t groups, const uint8_t* a,
                                  const int8_t* b0, const int8_t* b1,
                                  const int32_t* koff, int32_t* acc);

// Optional SIMD fast paths a kernel may plug in (null = generic loops):
// a B-panel packer for the kernel's (nr, kr) geometry (!trans_b only) and
// a vectorized dequantizing store for the kernel's accumulator tile shape.
// Kernels with a shift also supply per-pixel channel sums of a direct conv
// image (`planes` planes of `pixels` kr-channel pixels), from which
// GemmS8ConvPackedA builds the column sums.
using PackBFastFn = void (*)(const int8_t* b, int64_t k, int64_t n,
                             int64_t j0, int64_t nc, int8_t* out,
                             int32_t* colsum);
using PixelSumsFn = void (*)(const int8_t* planes, int64_t nplanes,
                             int64_t pixels, int32_t* sums);
using DequantStoreFn = void (*)(const int32_t* acc, int64_t rows,
                                int64_t cols, const int32_t* colsum,
                                const GemmS8Epilogue& ep, int64_t row0,
                                int64_t col0, float* tile, int64_t ld);

struct KernelS8 {
  int64_t mr, nr, kr;
  int64_t acc_rs, acc_cs;  // accumulator tile strides (row, column)
  uint8_t shift;  // 128 for u8 x s8 instruction kernels, else 0
  PackBFastFn pack_b_fast;    // nullable, !trans_b geometry only
  PixelSumsFn pixel_sums;     // non-null exactly when shift != 0
  DequantStoreFn store_fast;  // nullable
  DequantStoreFn store_cols;  // nullable: store_fast, transposed tile
  MicroKernelS8Fn fn;
  DirectKernelS8Fn direct;
  const char* name;
};

// Chunk-wise specialization of PackAs8 for the untransposed case: each
// source row contributes contiguous kr-byte runs, so the pack is a plain
// kr-byte copy with the +128 shift applied as a bytewise XOR of the top
// bit ((int8)v + 128 == (uint8)v ^ 0x80). ~4x the bytewise generic loop.
void PackAs8RowMajor(const int8_t* a, int64_t m, int64_t k, int64_t i0,
                     int64_t mc, int64_t mr, int64_t kr, uint8_t shift,
                     uint8_t* out) {
  (void)m;
  const int64_t kpad = (k + kr - 1) / kr * kr;
  const int64_t group = mr * kr;
  const int64_t kfull = k / kr * kr;
  const uint32_t mask = shift == 0 ? 0u : 0x80808080u;
  for (int64_t ip = 0; ip < mc; ip += mr) {
    const int64_t rows = (mc - ip < mr) ? mc - ip : mr;
    uint8_t* panel = out + (ip / mr) * kpad * mr;
    for (int64_t r = 0; r < rows; ++r) {
      const int8_t* src = a + (i0 + ip + r) * k;
      uint8_t* dst = panel + r * kr;
      if (kr == 4) {
        for (int64_t p = 0; p < kfull; p += 4, dst += group) {
          uint32_t w;
          std::memcpy(&w, src + p, 4);
          w ^= mask;
          std::memcpy(dst, &w, 4);
        }
      } else {
        for (int64_t p = 0; p < kfull; p += kr, dst += group) {
          for (int64_t q = 0; q < kr; ++q)
            dst[q] = static_cast<uint8_t>(src[p + q] + shift);
        }
      }
      if (kfull < k) {  // zero-padded (post-shift) trailing group
        for (int64_t q = 0; q < kr; ++q)
          dst[q] = kfull + q < k
                       ? static_cast<uint8_t>(src[kfull + q] + shift)
                       : shift;
      }
    }
    // Row padding is `shift` (zero after unshifting).
    for (int64_t r = rows; r < mr; ++r) {
      uint8_t* dst = panel + r * kr;
      for (int64_t g = 0; g < kpad / kr; ++g)
        for (int64_t q = 0; q < kr; ++q) dst[g * group + q] = shift;
    }
  }
}

// Portable fallback: 6x16 int32 accumulator block in plain C with the
// KR = 4 interleave. Fixed trip counts let the compiler unroll/vectorize.
// The direct form copies a k-group's two 32-byte halves into one run.
template <bool kDirect>
void MicroKernelS8Scalar6x16(int64_t groups, const uint8_t* a,
                             const int8_t* bp, const int8_t* b1,
                             const int32_t* koff, int32_t* acc) {
  int32_t c[6 * 16];
  std::memset(c, 0, sizeof(c));
  const int8_t* as = reinterpret_cast<const int8_t*>(a);  // shift == 0
  for (int64_t g = 0; g < groups; ++g, as += 6 * 4) {
    int8_t run[16 * 4];
    const int8_t* b = bp + g * 16 * 4;
    if constexpr (kDirect) {
      std::memcpy(run, bp + koff[g], 32);
      std::memcpy(run + 32, b1 + koff[g], 32);
      b = run;
    }
    for (int r = 0; r < 6; ++r) {
      const int32_t a0 = as[r * 4 + 0];
      const int32_t a1 = as[r * 4 + 1];
      const int32_t a2 = as[r * 4 + 2];
      const int32_t a3 = as[r * 4 + 3];
      int32_t* crow = c + r * 16;
      for (int j = 0; j < 16; ++j) {
        crow[j] += a0 * b[j * 4 + 0] + a1 * b[j * 4 + 1] +
                   a2 * b[j * 4 + 2] + a3 * b[j * 4 + 3];
      }
    }
  }
  std::memcpy(acc, c, sizeof(c));
}

void MicroKernelS8ScalarPacked(int64_t groups, const uint8_t* a,
                               const int8_t* b, int32_t* acc) {
  MicroKernelS8Scalar6x16<false>(groups, a, b, nullptr, nullptr, acc);
}

void MicroKernelS8ScalarDirect(int64_t groups, const uint8_t* a,
                               const int8_t* b0, const int8_t* b1,
                               const int32_t* koff, int32_t* acc) {
  MicroKernelS8Scalar6x16<true>(groups, a, b0, b1, koff, acc);
}

#ifdef POE_GEMM_S8_X86

// Exact 6x16 AVX2 kernel, KR = 2: both operands are sign-extended to int16
// and combined with vpmaddwd (a0*b0 + a1*b1 into int32, no saturation —
// |products| <= 2 * 127^2 so the pairwise int32 sum is exact). 12 ymm
// accumulators + 2 B vectors + 1 broadcast.
template <bool kDirect>
__attribute__((target("avx2"), always_inline)) inline void
MicroKernelS8Avx2_6x16(int64_t groups, const uint8_t* a, const int8_t* b,
                       const int8_t* b1, const int32_t* koff, int32_t* acc) {
  __m256i c0[6], c1[6];
  for (int r = 0; r < 6; ++r) {
    c0[r] = _mm256_setzero_si256();
    c1[r] = _mm256_setzero_si256();
  }
  const int8_t* as = reinterpret_cast<const int8_t*>(a);  // shift == 0
  for (int64_t g = 0; g < groups; ++g, as += 6 * 2) {
    // 32 B bytes = 16 columns x 2 k-values, sign-extended to int16 pairs.
    const int8_t* lo = kDirect ? b + koff[g] : b + g * 16 * 2;
    const int8_t* hi = kDirect ? b1 + koff[g] : lo + 16;
    const __m256i b0 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(lo)));
    const __m256i b1v = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(hi)));
#pragma GCC unroll 6
    for (int r = 0; r < 6; ++r) {
      const uint32_t pair =
          static_cast<uint16_t>(static_cast<int16_t>(as[r * 2])) |
          (static_cast<uint32_t>(
               static_cast<uint16_t>(static_cast<int16_t>(as[r * 2 + 1])))
           << 16);
      const __m256i va = _mm256_set1_epi32(static_cast<int32_t>(pair));
      c0[r] = _mm256_add_epi32(c0[r], _mm256_madd_epi16(va, b0));
      c1[r] = _mm256_add_epi32(c1[r], _mm256_madd_epi16(va, b1v));
    }
  }
  for (int r = 0; r < 6; ++r) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * 16), c0[r]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * 16 + 8),
                        c1[r]);
  }
}

__attribute__((target("avx2"))) void MicroKernelS8Avx2Packed(
    int64_t groups, const uint8_t* a, const int8_t* b, int32_t* acc) {
  MicroKernelS8Avx2_6x16<false>(groups, a, b, nullptr, nullptr, acc);
}

__attribute__((target("avx2"))) void MicroKernelS8Avx2Direct(
    int64_t groups, const uint8_t* a, const int8_t* b0, const int8_t* b1,
    const int32_t* koff, int32_t* acc) {
  MicroKernelS8Avx2_6x16<true>(groups, a, b0, b1, koff, acc);
}

// SIMD B packer for the AVX2 geometry (kr = 2, nr = 16, !trans_b),
// mirroring the VNNI one: each k-group of a panel is a 2x16 byte
// interleave (one unpacklo/unpackhi pair), and the column sums accumulate
// vectorized (sign-extend both rows to int16, add, widen to int32).
__attribute__((target("avx2"))) void PackBs8Avx2_16x2(
    const int8_t* b, int64_t k, int64_t n, int64_t j0, int64_t nc,
    int8_t* out, int32_t* colsum) {
  constexpr int64_t kNr = 16;
  constexpr int64_t kKr = 2;
  const int64_t kpad = (k + kKr - 1) / kKr * kKr;
  const int64_t kfull = k / kKr * kKr;
  for (int64_t jp = 0; jp < nc; jp += kNr) {
    const int64_t cols = (nc - jp < kNr) ? nc - jp : kNr;
    int8_t* panel = out + (jp / kNr) * kpad * kNr;
    if (cols == kNr) {
      __m256i sum_lo = _mm256_setzero_si256();  // columns 0..7, int32
      __m256i sum_hi = _mm256_setzero_si256();  // columns 8..15
      int8_t* dst = panel;
      const int8_t* src = b + j0 + jp;
      for (int64_t p = 0; p < kfull; p += 2, dst += 32) {
        const __m128i r0 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(src + (p + 0) * n));
        const __m128i r1 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(src + (p + 1) * n));
        // Interleave to the packed k-group order: dst[c*2 + q] = rq[c].
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                         _mm_unpacklo_epi8(r0, r1));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16),
                         _mm_unpackhi_epi8(r0, r1));
        const __m256i pair16 = _mm256_add_epi16(_mm256_cvtepi8_epi16(r0),
                                                _mm256_cvtepi8_epi16(r1));
        sum_lo = _mm256_add_epi32(
            sum_lo,
            _mm256_cvtepi16_epi32(_mm256_castsi256_si128(pair16)));
        sum_hi = _mm256_add_epi32(
            sum_hi,
            _mm256_cvtepi16_epi32(_mm256_extracti128_si256(pair16, 1)));
      }
      if (kfull < k) {  // odd k: trailing group is (value, 0) pairs
        const __m128i r0 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(src + kfull * n));
        const __m128i zero = _mm_setzero_si128();
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                         _mm_unpacklo_epi8(r0, zero));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16),
                         _mm_unpackhi_epi8(r0, zero));
        const __m256i last16 = _mm256_cvtepi8_epi16(r0);
        sum_lo = _mm256_add_epi32(
            sum_lo,
            _mm256_cvtepi16_epi32(_mm256_castsi256_si128(last16)));
        sum_hi = _mm256_add_epi32(
            sum_hi,
            _mm256_cvtepi16_epi32(_mm256_extracti128_si256(last16, 1)));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(colsum + jp), sum_lo);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(colsum + jp + 8),
                          sum_hi);
    } else {
      // Edge panel: generic bytewise pack of the partial column set.
      PackBs8(/*trans_b=*/false, b, k, n, j0 + jp, cols, kNr, kKr, panel,
              colsum + jp);
    }
  }
}

// Vectorized dequantizing store for the AVX2 tile (6x16, row-major
// accumulator, shift == 0 so there is no colsum compensation). Performs
// the exact elementwise operation sequence of DequantOne — mul scale, mul
// row_scale, mul col_scale, add row_bias, add col_bias, relu — with
// explicit intrinsics (no contraction), so its results are bitwise
// identical to the scalar store and therefore across every execution
// path of this kernel.
__attribute__((target("avx2"))) void DequantStoreAvx2_6x16(
    const int32_t* acc, int64_t rows, int64_t cols,
    const int32_t* /*colsum*/, const GemmS8Epilogue& ep, int64_t row0,
    int64_t col0, float* tile, int64_t ld) {
  const __m256i idx =
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i mask_lo = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(cols)), idx);
  const __m256i mask_hi = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(cols) - 8), idx);
  const __m256 col_scale_lo =
      ep.col_scale != nullptr
          ? _mm256_maskload_ps(ep.col_scale + col0, mask_lo)
          : _mm256_set1_ps(1.0f);
  const __m256 col_scale_hi =
      ep.col_scale != nullptr
          ? _mm256_maskload_ps(ep.col_scale + col0 + 8, mask_hi)
          : _mm256_set1_ps(1.0f);
  const __m256 col_bias_lo =
      ep.col_bias != nullptr
          ? _mm256_maskload_ps(ep.col_bias + col0, mask_lo)
          : _mm256_setzero_ps();
  const __m256 col_bias_hi =
      ep.col_bias != nullptr
          ? _mm256_maskload_ps(ep.col_bias + col0 + 8, mask_hi)
          : _mm256_setzero_ps();
  const __m256 scale = _mm256_set1_ps(ep.scale);
  const __m256 zero = _mm256_setzero_ps();
  for (int64_t r = 0; r < rows; ++r) {
    __m256 lo = _mm256_cvtepi32_ps(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(acc + r * 16)));
    __m256 hi = _mm256_cvtepi32_ps(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(acc + r * 16 + 8)));
    lo = _mm256_mul_ps(lo, scale);
    hi = _mm256_mul_ps(hi, scale);
    if (ep.row_scale != nullptr) {
      const __m256 rs = _mm256_set1_ps(ep.row_scale[row0 + r]);
      lo = _mm256_mul_ps(lo, rs);
      hi = _mm256_mul_ps(hi, rs);
    }
    if (ep.col_scale != nullptr) {
      lo = _mm256_mul_ps(lo, col_scale_lo);
      hi = _mm256_mul_ps(hi, col_scale_hi);
    }
    if (ep.row_bias != nullptr) {
      const __m256 rb = _mm256_set1_ps(ep.row_bias[row0 + r]);
      lo = _mm256_add_ps(lo, rb);
      hi = _mm256_add_ps(hi, rb);
    }
    if (ep.col_bias != nullptr) {
      lo = _mm256_add_ps(lo, col_bias_lo);
      hi = _mm256_add_ps(hi, col_bias_hi);
    }
    if (ep.relu) {
      lo = _mm256_max_ps(lo, zero);
      hi = _mm256_max_ps(hi, zero);
    }
    float* crow = tile + r * ld;
    _mm256_maskstore_ps(crow, mask_lo, lo);
    if (cols > 8) _mm256_maskstore_ps(crow + 8, mask_hi, hi);
  }
}

// 16x16 AVX-512 VNNI kernel, KR = 4. One zmm load covers a whole A
// k-group (16 rows x 4 k-bytes); each of the 16 accumulator columns is
// updated by one vpdpbusd whose signed operand is the column's 4-byte
// B run broadcast straight from the panel ({1to16} embedded broadcast:
// no shuffle uop, no register). Accumulator lanes are rows, so the tile
// is written column-major (acc_rs = 1, acc_cs = 16). Hand-written asm:
// GCC's allocator otherwise rotates the 16 tied vpdpbusd accumulators
// through spill slots, which halves throughput. Sustains ~2 vpdpbusd
// (128 MACs) per cycle — about 4x the f32 FMA peak.
// The target attribute only legalizes the zmm16-23 clobbers for a
// non-native (runtime-dispatch) build; the body is fixed asm either way
// and is reached only when dispatch selected the VNNI kernel.
#define POE_VNNI_ZERO(r) "vpxord %%zmm" #r ", %%zmm" #r ", %%zmm" #r "\n\t"
#define POE_VNNI_ZERO_ACC                                                   \
  POE_VNNI_ZERO(8) POE_VNNI_ZERO(9) POE_VNNI_ZERO(10) POE_VNNI_ZERO(11)     \
  POE_VNNI_ZERO(12) POE_VNNI_ZERO(13) POE_VNNI_ZERO(14) POE_VNNI_ZERO(15)   \
  POE_VNNI_ZERO(16) POE_VNNI_ZERO(17) POE_VNNI_ZERO(18) POE_VNNI_ZERO(19)   \
  POE_VNNI_ZERO(20) POE_VNNI_ZERO(21) POE_VNNI_ZERO(22) POE_VNNI_ZERO(23)
// Column c's update: its 4-byte run at `off`(base), into zmm(8 + c).
#define POE_VNNI_COL(off, base, r) \
  "vpdpbusd " #off "(%[" #base "])%{1to16%}, %%zmm0, %%zmm" #r "\n\t"
#define POE_VNNI_COLS8(base, r0, r1, r2, r3, r4, r5, r6, r7)               \
  POE_VNNI_COL(0, base, r0) POE_VNNI_COL(4, base, r1)                       \
  POE_VNNI_COL(8, base, r2) POE_VNNI_COL(12, base, r3)                      \
  POE_VNNI_COL(16, base, r4) POE_VNNI_COL(20, base, r5)                     \
  POE_VNNI_COL(24, base, r6) POE_VNNI_COL(28, base, r7)
#define POE_VNNI_STORE(r, off) "vmovdqu64 %%zmm" #r ", " #off "(%[acc])\n\t"
#define POE_VNNI_STORE_ACC                                                  \
  POE_VNNI_STORE(8, 0) POE_VNNI_STORE(9, 64) POE_VNNI_STORE(10, 128)        \
  POE_VNNI_STORE(11, 192) POE_VNNI_STORE(12, 256) POE_VNNI_STORE(13, 320)   \
  POE_VNNI_STORE(14, 384) POE_VNNI_STORE(15, 448) POE_VNNI_STORE(16, 512)   \
  POE_VNNI_STORE(17, 576) POE_VNNI_STORE(18, 640) POE_VNNI_STORE(19, 704)   \
  POE_VNNI_STORE(20, 768) POE_VNNI_STORE(21, 832) POE_VNNI_STORE(22, 896)   \
  POE_VNNI_STORE(23, 960)
#define POE_VNNI_CLOBBERS                                                   \
  "zmm0", "zmm8", "zmm9", "zmm10", "zmm11", "zmm12", "zmm13", "zmm14",      \
      "zmm15", "zmm16", "zmm17", "zmm18", "zmm19", "zmm20", "zmm21",        \
      "zmm22", "zmm23", "memory", "cc"

__attribute__((target("avx512f,avx512bw,avx512vnni"))) void
MicroKernelS8Vnni16x16(int64_t groups, const uint8_t* a, const int8_t* b,
                       int32_t* acc) {
  asm volatile(
      POE_VNNI_ZERO_ACC
      "1:\n\t"
      "vmovdqu64 (%[a]), %%zmm0\n\t"
      POE_VNNI_COLS8(b, 8, 9, 10, 11, 12, 13, 14, 15)
      POE_VNNI_COL(32, b, 16) POE_VNNI_COL(36, b, 17)
      POE_VNNI_COL(40, b, 18) POE_VNNI_COL(44, b, 19)
      POE_VNNI_COL(48, b, 20) POE_VNNI_COL(52, b, 21)
      POE_VNNI_COL(56, b, 22) POE_VNNI_COL(60, b, 23)
      "add $64, %[a]\n\t"
      "add $64, %[b]\n\t"
      "dec %[g]\n\t"
      "jne 1b\n\t"
      POE_VNNI_STORE_ACC
      : [a] "+r"(a), [b] "+r"(b), [g] "+r"(groups)
      : [acc] "r"(acc)
      : POE_VNNI_CLOBBERS);
}

// Direct form: the k-group's two 32-byte halves are addressed through the
// offset table (two lea per group, plain base + displacement operands).
__attribute__((target("avx512f,avx512bw,avx512vnni"))) void
MicroKernelS8Vnni16x16Direct(int64_t groups, const uint8_t* a,
                             const int8_t* b0, const int8_t* b1,
                             const int32_t* koff, int32_t* acc) {
  int64_t off;
  const int8_t* p0;
  const int8_t* p1;
  asm volatile(
      POE_VNNI_ZERO_ACC
      "1:\n\t"
      "movslq (%[koff]), %[off]\n\t"
      "lea (%[b0],%[off]), %[p0]\n\t"
      "lea (%[b1],%[off]), %[p1]\n\t"
      "vmovdqu64 (%[a]), %%zmm0\n\t"
      POE_VNNI_COLS8(p0, 8, 9, 10, 11, 12, 13, 14, 15)
      POE_VNNI_COLS8(p1, 16, 17, 18, 19, 20, 21, 22, 23)
      "add $64, %[a]\n\t"
      "add $4, %[koff]\n\t"
      "dec %[g]\n\t"
      "jne 1b\n\t"
      POE_VNNI_STORE_ACC
      : [a] "+r"(a), [koff] "+r"(koff), [g] "+r"(groups), [off] "=&r"(off),
        [p0] "=&r"(p0), [p1] "=&r"(p1)
      : [b0] "r"(b0), [b1] "r"(b1), [acc] "r"(acc)
      : POE_VNNI_CLOBBERS);
}

// Interleaves four 16-byte k rows into one 64-byte kr = 4 group (column
// c's four k bytes contiguous), stores it at `dst` and returns `sums` plus
// the group's column sums (one vpdpbusd of all-ones: u8 ones x s8 values
// accumulate each column's 4 bytes into its int32 lane). A static helper
// rather than a lambda so the intrinsics inherit this target attribute on
// every compiler (GCC 12 does not pass the enclosing function's target to
// a lambda body).
__attribute__((target("avx512f,avx512bw,avx512vnni"))) inline __m512i
TransposeStoreVnni16x4(__m128i r0, __m128i r1, __m128i r2, __m128i r3,
                       __m512i ones, int8_t* dst, __m512i sums) {
  const __m128i t0 = _mm_unpacklo_epi8(r0, r1);  // c0..c7 (r0,r1)
  const __m128i t1 = _mm_unpackhi_epi8(r0, r1);  // c8..c15
  const __m128i t2 = _mm_unpacklo_epi8(r2, r3);
  const __m128i t3 = _mm_unpackhi_epi8(r2, r3);
  __m512i block = _mm512_castsi128_si512(_mm_unpacklo_epi16(t0, t2));
  block = _mm512_inserti32x4(block, _mm_unpackhi_epi16(t0, t2), 1);
  block = _mm512_inserti32x4(block, _mm_unpacklo_epi16(t1, t3), 2);
  block = _mm512_inserti32x4(block, _mm_unpackhi_epi16(t1, t3), 3);
  _mm512_storeu_si512(dst, block);
  return _mm512_dpbusd_epi32(sums, ones, block);
}

// SIMD B packer for the VNNI geometry (kr = 4, nr = 16, !trans_b): each
// k-group of a panel is a 4x16 byte transpose (two punpck levels), with
// the column sums from TransposeStoreVnni16x4.
__attribute__((target("avx512f,avx512bw,avx512vnni"))) void
PackBs8Vnni16x4(const int8_t* b, int64_t k, int64_t n, int64_t j0,
                int64_t nc, int8_t* out, int32_t* colsum) {
  constexpr int64_t kNr = 16;
  constexpr int64_t kKr = 4;
  const int64_t kpad = (k + kKr - 1) / kKr * kKr;
  const int64_t kfull = k / kKr * kKr;
  const __m512i ones = _mm512_set1_epi8(1);
  for (int64_t jp = 0; jp < nc; jp += kNr) {
    const int64_t cols = (nc - jp < kNr) ? nc - jp : kNr;
    int8_t* panel = out + (jp / kNr) * kpad * kNr;
    if (cols == kNr) {
      __m512i sums = _mm512_setzero_si512();
      int8_t* dst = panel;
      const int8_t* src = b + j0 + jp;
      for (int64_t p = 0; p < kfull; p += 4, dst += 64) {
        const int8_t* row = src + p * n;
        sums = TransposeStoreVnni16x4(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(row)),
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + n)),
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + 2 * n)),
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + 3 * n)),
            ones, dst, sums);
      }
      if (kfull < k) {  // zero-padded trailing group
        alignas(64) int8_t tail[64] = {0};
        for (int64_t q = 0; kfull + q < k; ++q)
          for (int64_t c = 0; c < kNr; ++c)
            tail[c * 4 + q] = src[(kfull + q) * n + c];
        const __m512i block =
            _mm512_load_si512(reinterpret_cast<const __m512i*>(tail));
        _mm512_storeu_si512(dst, block);
        sums = _mm512_dpbusd_epi32(sums, ones, block);
      }
      _mm512_storeu_si512(colsum + jp, sums);
    } else {
      // Edge panel: generic bytewise pack of the partial column set.
      PackBs8(/*trans_b=*/false, b, k, n, j0 + jp, cols, kNr, kKr, panel,
              colsum + jp);
    }
  }
}

// Channel sums of `pixels` 4-channel pixels summed over `nplanes` planes
// (plane i at planes + i * pixels * 4) into sums[0, pixels): one vpdpbusd
// of all-ones per plane per 16 pixels, masked at the tail.
__attribute__((target("avx512f,avx512bw,avx512vnni"))) void PixelSumsVnni(
    const int8_t* planes, int64_t nplanes, int64_t pixels, int32_t* sums) {
  const __m512i ones = _mm512_set1_epi8(1);
  for (int64_t i = 0; i < pixels; i += 16) {
    const __mmask16 mask = static_cast<__mmask16>(
        pixels - i >= 16 ? 0xffffu : (1u << (pixels - i)) - 1u);
    __m512i acc = _mm512_setzero_si512();
    for (int64_t p = 0; p < nplanes; ++p) {
      acc = _mm512_dpbusd_epi32(
          acc, ones,
          _mm512_maskz_loadu_epi32(mask, planes + (p * pixels + i) * 4));
    }
    _mm512_mask_storeu_epi32(sums + i, mask, acc);
  }
}

// Vectorized dequantizing store for the VNNI tile (16x16, column-major
// accumulator): shift compensation is folded into the column loads, a
// 16x16 in-register int32 transpose turns columns into row vectors, and
// each row then converts + scales + biases + clamps + masked-stores as one
// 16-lane operation. Replaces ~256 branchy scalar conversions per tile.
__attribute__((target("avx512f"))) void DequantStoreVnni16x16(
    const int32_t* acc, int64_t rows, int64_t cols, const int32_t* colsum,
    const GemmS8Epilogue& ep, int64_t row0, int64_t col0, float* tile,
    int64_t ld) {
  __m512i r[16], t[16];
  for (int j = 0; j < 16; ++j) {
    r[j] = _mm512_sub_epi32(
        _mm512_loadu_si512(acc + j * 16),
        _mm512_set1_epi32(128 * colsum[j]));
  }
  // 16x16 transpose: 32-bit unpack, 64-bit unpack, two 128-bit shuffles.
  for (int i = 0; i < 8; ++i) {
    t[2 * i] = _mm512_unpacklo_epi32(r[2 * i], r[2 * i + 1]);
    t[2 * i + 1] = _mm512_unpackhi_epi32(r[2 * i], r[2 * i + 1]);
  }
  for (int g = 0; g < 4; ++g) {
    r[4 * g + 0] = _mm512_unpacklo_epi64(t[4 * g + 0], t[4 * g + 2]);
    r[4 * g + 1] = _mm512_unpackhi_epi64(t[4 * g + 0], t[4 * g + 2]);
    r[4 * g + 2] = _mm512_unpacklo_epi64(t[4 * g + 1], t[4 * g + 3]);
    r[4 * g + 3] = _mm512_unpackhi_epi64(t[4 * g + 1], t[4 * g + 3]);
  }
  for (int i = 0; i < 4; ++i) {
    t[i] = _mm512_shuffle_i32x4(r[i], r[i + 4], 0x88);
    t[i + 4] = _mm512_shuffle_i32x4(r[i], r[i + 4], 0xdd);
    t[i + 8] = _mm512_shuffle_i32x4(r[i + 8], r[i + 12], 0x88);
    t[i + 12] = _mm512_shuffle_i32x4(r[i + 8], r[i + 12], 0xdd);
  }
  for (int i = 0; i < 8; ++i) {
    r[i] = _mm512_shuffle_i32x4(t[i], t[i + 8], 0x88);
    r[i + 8] = _mm512_shuffle_i32x4(t[i], t[i + 8], 0xdd);
  }

  const __mmask16 mask =
      static_cast<__mmask16>((1u << cols) - 1u);  // cols <= 16
  const __m512 col_scale =
      ep.col_scale != nullptr
          ? _mm512_maskz_loadu_ps(mask, ep.col_scale + col0)
          : _mm512_set1_ps(1.0f);
  const __m512 col_bias =
      ep.col_bias != nullptr
          ? _mm512_maskz_loadu_ps(mask, ep.col_bias + col0)
          : _mm512_setzero_ps();
  const __m512 zero = _mm512_setzero_ps();
  for (int64_t i = 0; i < rows; ++i) {
    const float rs =
        ep.scale * (ep.row_scale != nullptr ? ep.row_scale[row0 + i] : 1.0f);
    __m512 v = _mm512_cvtepi32_ps(r[i]);
    v = _mm512_mul_ps(v, _mm512_mul_ps(_mm512_set1_ps(rs), col_scale));
    v = _mm512_add_ps(v, col_bias);
    if (ep.row_bias != nullptr) {
      v = _mm512_add_ps(v, _mm512_set1_ps(ep.row_bias[row0 + i]));
    }
    if (ep.relu) v = _mm512_max_ps(v, zero);
    _mm512_mask_storeu_ps(tile + i * ld, mask, v);
  }
}

// DequantStoreVnni16x16 without the transpose: writes the tile
// column-major (column j's rows at tile + j * ld), for tile hooks that
// take transposed tiles. Each element sees the row form's ops in order:
// the factor (scale * row_scale) * col_scale, its product with the
// value, then col_bias, row_bias and the ReLU.
__attribute__((target("avx512f"))) void DequantStoreVnni16x16Cols(
    const int32_t* acc, int64_t rows, int64_t cols, const int32_t* colsum,
    const GemmS8Epilogue& ep, int64_t row0, int64_t col0, float* tile,
    int64_t ld) {
  const __mmask16 mask =
      static_cast<__mmask16>((1u << rows) - 1u);  // rows <= 16
  const __m512 rs = _mm512_mul_ps(
      _mm512_set1_ps(ep.scale),
      ep.row_scale != nullptr
          ? _mm512_maskz_loadu_ps(mask, ep.row_scale + row0)
          : _mm512_set1_ps(1.0f));
  const __m512 rb = ep.row_bias != nullptr
                        ? _mm512_maskz_loadu_ps(mask, ep.row_bias + row0)
                        : _mm512_setzero_ps();
  const __m512 zero = _mm512_setzero_ps();
  for (int64_t j = 0; j < cols; ++j) {
    __m512 v = _mm512_cvtepi32_ps(
        _mm512_sub_epi32(_mm512_loadu_si512(acc + j * 16),
                         _mm512_set1_epi32(128 * colsum[j])));
    const float cs = ep.col_scale != nullptr ? ep.col_scale[col0 + j] : 1.0f;
    v = _mm512_mul_ps(v, _mm512_mul_ps(rs, _mm512_set1_ps(cs)));
    v = _mm512_add_ps(v, _mm512_set1_ps(ep.col_bias != nullptr
                                            ? ep.col_bias[col0 + j]
                                            : 0.0f));
    if (ep.row_bias != nullptr) v = _mm512_add_ps(v, rb);
    if (ep.relu) v = _mm512_max_ps(v, zero);
    _mm512_mask_storeu_ps(tile + j * ld, mask, v);
  }
}

#endif  // POE_GEMM_S8_X86

const KernelS8& PickKernelS8() {
  static const KernelS8 kernel = [] {
    // POE_GEMM_KERNEL=scalar|avx2|avx512 forces a variant ("avx512" maps
    // to the VNNI kernel); unsupported values fall back to detection.
    const char* env = std::getenv("POE_GEMM_KERNEL");
    const std::string want = env ? env : "";
    const KernelS8 scalar{6, 16, 4, 16, 1, 0, nullptr, nullptr, nullptr,
                          nullptr, MicroKernelS8ScalarPacked,
                          MicroKernelS8ScalarDirect, "scalar"};
    if (want == "scalar") return scalar;
#ifdef POE_GEMM_S8_X86
    const bool has_vnni = __builtin_cpu_supports("avx512vnni") &&
                          __builtin_cpu_supports("avx512bw");
    const bool has_avx2 = __builtin_cpu_supports("avx2");
    const KernelS8 vnni{16, 16, 4, 1, 16, 128,
                        PackBs8Vnni16x4, PixelSumsVnni,
                        DequantStoreVnni16x16, DequantStoreVnni16x16Cols,
                        MicroKernelS8Vnni16x16,
                        MicroKernelS8Vnni16x16Direct, "avx512vnni"};
    const KernelS8 avx2{6, 16, 2, 16, 1, 0,
                        PackBs8Avx2_16x2, nullptr,
                        DequantStoreAvx2_6x16, nullptr, MicroKernelS8Avx2Packed,
                        MicroKernelS8Avx2Direct, "avx2"};
    if (want == "avx512" && has_vnni) return vnni;
    if (want == "avx2" && has_avx2) return avx2;
    if (has_vnni) return vnni;
    if (has_avx2) return avx2;
#endif
    return scalar;
  }();
  return kernel;
}

// Kernel-aware packing dispatch: the untransposed A side always takes the
// chunk-wise row-major packer; the untransposed B side takes the SIMD
// transpose packer when the dispatched kernel uses the VNNI geometry.
void PackADispatch(const KernelS8& kn, bool trans_a, const int8_t* a,
                   int64_t m, int64_t k, int64_t i0, int64_t mc,
                   uint8_t* out) {
  if (!trans_a) {
    PackAs8RowMajor(a, m, k, i0, mc, kn.mr, kn.kr, kn.shift, out);
  } else {
    PackAs8(true, a, m, k, i0, mc, kn.mr, kn.kr, kn.shift, out);
  }
}

void PackBDispatch(const KernelS8& kn, bool trans_b, const int8_t* b,
                   int64_t k, int64_t n, int64_t j0, int64_t nc,
                   int8_t* out, int32_t* colsum) {
  if (!trans_b && kn.pack_b_fast != nullptr) {
    kn.pack_b_fast(b, k, n, j0, nc, out, colsum);
    return;
  }
  PackBs8(trans_b, b, k, n, j0, nc, kn.nr, kn.kr, out, colsum);
}

// Scalar int32 -> f32 conversion, shared by the scalar store path, GemmS8Ref,
// and the k == 0 epilogue-only path (where acc is 0, so every product is exact
// and contraction cannot change a bit). DequantStoreS8 and GemmS8Ref are
// POE_NO_FP_CONTRACT, so they match the AVX2 store bitwise. The vectorized VNNI
// store performs the same arithmetic with a different operation order, so it
// may differ from this by a few ulps (tests compare kernels to the reference
// with a tight relative tolerance, not bitwise).
inline float DequantOne(int64_t i, int64_t j, int32_t acc,
                        const GemmS8Epilogue& ep) {
  float v = static_cast<float>(acc) * ep.scale;
  if (ep.row_scale != nullptr) v *= ep.row_scale[i];
  if (ep.col_scale != nullptr) v *= ep.col_scale[j];
  if (ep.row_bias != nullptr) v += ep.row_bias[i];
  if (ep.col_bias != nullptr) v += ep.col_bias[j];
  if (ep.relu && v < 0.0f) v = 0.0f;
  return v;
}

// Writes one micro-tile: undoes the A shift via colsum (colsum points at
// this panel's columns) and applies the dequantizing epilogue. noinline:
// a single compiled instance (one call per register tile) serves every
// execution path (parallel, sequential, prepacked), and POE_NO_FP_CONTRACT
// keeps every loop version of that instance on the same separate
// multiplies and adds, so the paths agree bitwise with each other and
// with DequantStoreAvx2_6x16.
__attribute__((noinline)) POE_NO_FP_CONTRACT void DequantStoreS8(
    const int32_t* acc, int64_t acc_rs, int64_t acc_cs, int64_t rows,
    int64_t cols, const int32_t* colsum, int32_t shift,
    const GemmS8Epilogue& ep, int64_t row0, int64_t col0, float* tile,
    int64_t ld) {
  for (int64_t r = 0; r < rows; ++r) {
    const int32_t* arow = acc + r * acc_rs;
    float* crow = tile + r * ld;
    for (int64_t j = 0; j < cols; ++j) {
      crow[j] = DequantOne(row0 + r, col0 + j,
                           arow[j * acc_cs] - shift * colsum[j], ep);
    }
  }
}

// The dequantizing store of one register tile (colsum points at its
// columns), SIMD when the kernel has one, into C at (row0, col0) — or,
// with a tile hook, into a staging tile the hook then consumes
// (transposed when both the hook and the kernel's store can).
void StoreTileS8(const KernelS8& kn, const int32_t* acc, int64_t rows,
                 int64_t cols, const int32_t* colsum,
                 const GemmS8Epilogue& ep, int64_t row0, int64_t col0,
                 float* c, int64_t ldc) {
  if (ep.tile_hook) {
    float stage[kMaxMR * kMaxNR];
    if (ep.tile_hook.takes_transposed && kn.store_cols != nullptr) {
      kn.store_cols(acc, rows, cols, colsum, ep, row0, col0, stage, kn.mr);
      ep.tile_hook(stage, kn.mr, /*transposed=*/true, row0, rows, col0, cols,
                   c, ldc);
      return;
    }
    if (kn.store_fast != nullptr) {
      kn.store_fast(acc, rows, cols, colsum, ep, row0, col0, stage, kn.nr);
    } else {
      DequantStoreS8(acc, kn.acc_rs, kn.acc_cs, rows, cols, colsum,
                     kn.shift, ep, row0, col0, stage, kn.nr);
    }
    ep.tile_hook(stage, kn.nr, /*transposed=*/false, row0, rows, col0, cols,
                 c, ldc);
    return;
  }
  float* tile = c + row0 * ldc + col0;
  if (kn.store_fast != nullptr) {
    kn.store_fast(acc, rows, cols, colsum, ep, row0, col0, tile, ldc);
  } else {
    DequantStoreS8(acc, kn.acc_rs, kn.acc_cs, rows, cols, colsum, kn.shift,
                   ep, row0, col0, tile, ldc);
  }
}

// Register-tile loops over packed panels: rows [i0, i0+mc) x columns
// [j0, j0+nc).
void MicroLoopsS8(const KernelS8& kernel, const uint8_t* a_pack,
                  const int8_t* b_pack, const int32_t* colsum, int64_t kpad,
                  int64_t i0, int64_t mc, int64_t j0, int64_t nc,
                  const GemmS8Epilogue& ep, float* c, int64_t ldc) {
  const int64_t mr = kernel.mr;
  const int64_t nr = kernel.nr;
  const int64_t groups = kpad / kernel.kr;
  int32_t acc[kMaxMR * kMaxNR];
  for (int64_t jp = 0; jp < nc; jp += nr) {
    const int8_t* bp = b_pack + (jp / nr) * kpad * nr;
    const int64_t cols = std::min(nr, nc - jp);
    for (int64_t ip = 0; ip < mc; ip += mr) {
      kernel.fn(groups, a_pack + (ip / mr) * kpad * mr, bp, acc);
      StoreTileS8(kernel, acc, std::min(mr, mc - ip), cols, colsum + jp, ep,
                  i0 + ip, j0 + jp, c, ldc);
    }
  }
}

// Offsets into a persistent prepacked op(B): per column tile the panels
// occupy kpad * nc_pad bytes and the colsums nc_pad entries; every tile
// before j0 is full (kNC wide, kNC a multiple of every NR), so tile bases
// are kpad * j0 / j0 exactly.
struct PrepackedS8B {
  const int8_t* data;
  const int32_t* colsum;
};

void GemmS8Impl(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                const int8_t* a, const int8_t* b, float* c,
                const GemmS8Epilogue& ep, bool parallel,
                const uint8_t* prepacked_a,
                const PrepackedS8B* prepacked_b) {
  POE_CHECK_GE(m, 0);
  POE_CHECK_GE(n, 0);
  POE_CHECK_GE(k, 0);
  POE_CHECK_LE(k, kMaxK) << "int8 GEMM depth would risk int32 overflow";
  if (m == 0 || n == 0) return;
  if (k == 0) {
    for (int64_t i = 0; i < m; ++i)
      for (int64_t j = 0; j < n; ++j) c[i * n + j] = DequantOne(i, j, 0, ep);
    if (ep.tile_hook) {
      ep.tile_hook(c, n, /*transposed=*/false, 0, m, 0, n, c, n);
    }
    return;
  }

  // Each B stripe is packed once per column tile and reused by every row
  // tile (the f32 driver shares this structure). `prepacked_a` (panels for
  // the full m, from PackedS8Weights; i0 % mr == 0 because kMC is a
  // multiple of every MR) and `prepacked_b` (panels + colsums for the full
  // k x n, from PackedS8BWeights) skip their packs. With workers > 1 the
  // register-tile loops split over micro-panel column blocks. Every
  // register tile is computed by exactly one task with the same packed
  // panels and the same single dequantizing store, so C is bitwise the
  // same for any worker count.
  const KernelS8& kernel = PickKernelS8();
  const int64_t row_tiles = (m + kMC - 1) / kMC;
  const int64_t col_tiles = (n + kNC - 1) / kNC;
  const int64_t kpad = (k + kernel.kr - 1) / kernel.kr * kernel.kr;
  const int64_t mr = kernel.mr;
  const int64_t nr = kernel.nr;
  for (int64_t ct = 0; ct < col_tiles; ++ct) {
    const int64_t j0 = ct * kNC;
    const int64_t nc = std::min(kNC, n - j0);
    const int64_t nc_pad = (nc + nr - 1) / nr * nr;
    ScratchScope scope;
    const int8_t* b_pack;
    const int32_t* colsum;
    int32_t colsum_buf[kNC];
    if (prepacked_b != nullptr) {
      b_pack = prepacked_b->data + kpad * j0;
      colsum = prepacked_b->colsum + j0;
    } else {
      int8_t* buf = AllocS8(scope, nc_pad * kpad);
      PackBDispatch(kernel, trans_b, b, k, n, j0, nc, buf, colsum_buf);
      b_pack = buf;
      colsum = colsum_buf;
    }
    for (int64_t rt = 0; rt < row_tiles; ++rt) {
      const int64_t i0 = rt * kMC;
      const int64_t mc = std::min(kMC, m - i0);
      const uint8_t* a_pack;
      ScratchScope tile_scope;
      if (prepacked_a != nullptr) {
        a_pack = prepacked_a + (i0 / mr) * kpad * mr;
      } else {
        const int64_t mc_pad = (mc + mr - 1) / mr * mr;
        uint8_t* buf = AllocU8(tile_scope, mc_pad * kpad);
        PackADispatch(kernel, trans_a, a, m, k, i0, mc, buf);
        a_pack = buf;
      }
      // One block = [jb0, jb1) micro panels; pointers advance whole
      // panels, so each block runs MicroLoopsS8 on a disjoint C column
      // range with its own accumulator (no shared mutable state).
      const auto micro_panels = [&](int64_t jb0, int64_t jb1) {
        MicroLoopsS8(kernel, a_pack, b_pack + jb0 * kpad * nr,
                     colsum + jb0 * nr, kpad, i0, mc, j0 + jb0 * nr,
                     std::min(nc - jb0 * nr, (jb1 - jb0) * nr), ep, c, n);
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

// Where value (i, p) of a packed op(A) lives (see pack_s8.h): panel i/mr,
// k-group p/kr, row run i%mr, byte p%kr (kpad: the panels' depth).
int64_t PanelOffset(const KernelS8& kn, int64_t kpad, int64_t i, int64_t p) {
  return (i / kn.mr) * kpad * kn.mr + (p / kn.kr) * kn.mr * kn.kr +
         (i % kn.mr) * kn.kr + p % kn.kr;
}

// Column of PackConv's k-group order (c / kr, kh, kw, c % kr) that holds
// im2col column p = (c, kh, kw) of a conv weight (kk = kernel^2).
int64_t ConvPackedColumn(int64_t p, int64_t kk, int64_t kr) {
  const int64_t c = p / kk;
  return ((c / kr) * kk + p % kk) * kr + c % kr;
}

// Column sums of a direct conv B, the shift compensation of the VNNI
// store: column j sums every byte its output pixel's taps read. Each
// tapped pixel adds the sum of its channels, so per-pixel channel sums
// (phase plane by phase plane) and then a kernel x kernel box sum per
// output pixel give them as exact integers.
void ConvColumnSums(const KernelS8& kn, const ConvImageViewS8& img,
                    int32_t* colsum) {
  const int64_t ph = img.padded_h();
  const int64_t phw = img.phase_w();
  const int64_t pixels = ph * phw;
  const int64_t cgs = img.channel_groups();
  thread_local std::vector<int32_t> pix;
  pix.resize(static_cast<size_t>(img.phases() * pixels));
  for (int64_t q = 0; q < img.phases(); ++q) {
    kn.pixel_sums(img.padded + q * cgs * pixels * img.group, cgs, pixels,
                  pix.data() + q * pixels);
  }
  const int64_t s = img.stride;
  const int64_t out_w = img.out_w();
  for (int64_t oh = 0; oh < img.out_h(); ++oh) {
    int32_t* out = colsum + oh * out_w;
    std::fill(out, out + out_w, 0);
    for (int64_t kh = 0; kh < img.kernel; ++kh) {
      for (int64_t kw = 0; kw < img.kernel; ++kw) {
        const int32_t* in =
            pix.data() + ((kw % s) * ph + oh * s + kh) * phw + kw / s;
        for (int64_t ow = 0; ow < out_w; ++ow) out[ow] += in[ow];
      }
    }
  }
}

// Gathers the B panel of columns [j, j + cols) that no direct form covers
// (rows narrower than half a panel, N tails) into the packed layout, zero
// past cols: the bytes a direct form would have read.
void GatherConvPanel(const ConvImageViewS8& img, const int32_t* koff,
                     int64_t groups, int64_t j, int64_t cols, int64_t nr,
                     int8_t* out) {
  const int64_t kr = img.group;
  int64_t col_off[kMaxNR];
  for (int64_t c = 0; c < cols; ++c) col_off[c] = img.col_offset(j + c);
  for (int64_t g = 0; g < groups; ++g, out += nr * kr) {
    const int8_t* src = img.padded + koff[g];
    for (int64_t c = 0; c < cols; ++c)
      for (int64_t r = 0; r < kr; ++r) out[c * kr + r] = src[col_off[c] + r];
    std::fill(out + cols * kr, out + nr * kr, int8_t{0});
  }
}

}  // namespace

void GemmS8(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
            const int8_t* a, const int8_t* b, float* c,
            const GemmS8Epilogue& epilogue, bool parallel) {
  GemmS8Impl(trans_a, trans_b, m, n, k, a, b, c, epilogue, parallel,
             /*prepacked_a=*/nullptr, /*prepacked_b=*/nullptr);
}

void GemmS8PackedA(const PackedS8Weights& a, int64_t n, const int8_t* b,
                   float* c, const GemmS8Epilogue& epilogue, bool parallel) {
  POE_CHECK(!a.empty()) << "GemmS8PackedA on unpacked weights";
  GemmS8Impl(/*trans_a=*/false, /*trans_b=*/false, a.m_, n, a.k_,
             /*a=*/nullptr, b, c, epilogue, parallel, a.data_.data(),
             /*prepacked_b=*/nullptr);
}

PackedS8Weights PackedS8Weights::PackConv(int64_t m, int64_t channels,
                                          int64_t kernel, const int8_t* a) {
  const KernelS8& kn = PickKernelS8();
  const int64_t kk = kernel * kernel;
  PackedS8Weights packed;
  packed.m_ = m;
  packed.k_ = (channels + kn.kr - 1) / kn.kr * kn.kr * kk;
  packed.conv_channels_ = channels;
  packed.conv_kernel_ = kernel;
  POE_CHECK(m > 0 && packed.k_ > 0 && packed.k_ <= kMaxK);
  // Every byte starts as the shifted zero (padding rows and channels), and
  // each weight lands where Unpack reads it back.
  packed.data_.assign(
      static_cast<size_t>((m + kn.mr - 1) / kn.mr * kn.mr * packed.k_),
      kn.shift);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < channels * kk; ++p) {
      const int64_t col = ConvPackedColumn(p, kk, kn.kr);
      packed.data_[PanelOffset(kn, packed.k_, i, col)] =
          static_cast<uint8_t>(a[i * channels * kk + p] + kn.shift);
    }
  }
  return packed;
}

void GemmS8ConvPackedA(const PackedS8Weights& a, const ConvImageViewS8& img,
                       float* c, const GemmS8Epilogue& epilogue,
                       bool parallel) {
  POE_CHECK(!a.empty()) << "GemmS8ConvPackedA on unpacked weights";
  POE_CHECK(a.conv_channels_ == img.channels && a.conv_kernel_ == img.kernel)
      << "weights were not PackConv'd for this conv geometry";
  const KernelS8& kn = PickKernelS8();
  POE_CHECK_EQ(img.group, kn.kr);
  POE_CHECK_LE(DirectImageElems(img), int64_t{INT32_MAX});
  const int64_t m = a.m_;
  const int64_t n = img.cols();
  const int64_t mr = kn.mr;
  const int64_t nr = kn.nr;
  const int64_t half = nr / 2;
  const int64_t groups = a.k_ / kn.kr;
  const int64_t out_w = img.out_w();
  // The k-group offset table and the column sums, built once per call by
  // this thread; pool workers only read them behind ParallelFor's
  // barrier (through these pointers, not their own thread_locals).
  thread_local std::vector<int32_t> koff_buf, colsum_buf;
  koff_buf.resize(static_cast<size_t>(groups));
  const int32_t* koff = koff_buf.data();
  TapOffsets(img, koff_buf.data());
  colsum_buf.assign(static_cast<size_t>((n + nr - 1) / nr * nr), 0);
  const int32_t* colsum = colsum_buf.data();
  if (kn.pixel_sums != nullptr) ConvColumnSums(kn, img, colsum_buf.data());

  // A half panel can be read in place when its columns lie in one output
  // row; a panel is direct when both halves can.
  const auto in_row = [&](int64_t j) { return j % out_w + half <= out_w; };
  const auto panels = [&](int64_t jb0, int64_t jb1) {
    ScratchScope scope;
    int8_t* gather = nullptr;
    int32_t acc[kMaxMR * kMaxNR];
    for (int64_t jb = jb0; jb < jb1; ++jb) {
      const int64_t j = jb * nr;
      const int64_t cols = std::min(nr, n - j);
      const bool direct = cols == nr && in_row(j) && in_row(j + half);
      const int8_t* b0 = img.padded + img.col_offset(j);
      const int8_t* b1 = direct ? img.padded + img.col_offset(j + half) : b0;
      if (!direct) {
        if (gather == nullptr) gather = AllocS8(scope, groups * nr * kn.kr);
        GatherConvPanel(img, koff, groups, j, cols, nr, gather);
      }
      for (int64_t ip = 0; ip < m; ip += mr) {
        const uint8_t* ap = a.data_.data() + ip * a.k_;
        if (direct) {
          kn.direct(groups, ap, b0, b1, koff, acc);
        } else {
          kn.fn(groups, ap, gather, acc);
        }
        StoreTileS8(kn, acc, std::min(mr, m - ip), cols, colsum + j, epilogue,
                    ip, j, c, n);
      }
    }
  };
  const int64_t blocks = (n + nr - 1) / nr;
  if (parallel) {
    ParallelFor(blocks, panels, /*min_chunk=*/1);
  } else {
    panels(0, blocks);
  }
}

void PackedS8Weights::Unpack(int8_t* out) const {
  POE_CHECK(!empty()) << "Unpack on empty PackedS8Weights";
  const KernelS8& kernel = PickKernelS8();
  const int64_t kk = conv_kernel_ * conv_kernel_;
  const int64_t k_out = conv_channels_ * kk;
  // Column p first moves to its k-group order.
  for (int64_t i = 0; i < m_; ++i) {
    for (int64_t p = 0; p < k_out; ++p) {
      const int64_t col = ConvPackedColumn(p, kk, kernel.kr);
      out[i * k_out + p] = static_cast<int8_t>(
          data_[PanelOffset(kernel, k_, i, col)] - kernel.shift);
    }
  }
}

PackedS8BWeights PackedS8BWeights::Pack(bool trans_b, int64_t k, int64_t n,
                                        const int8_t* b) {
  POE_CHECK_GT(k, 0);
  POE_CHECK_GT(n, 0);
  POE_CHECK_LE(k, kMaxK);
  const KernelS8& kernel = PickKernelS8();
  const int64_t nr = kernel.nr;
  const int64_t kpad = (k + kernel.kr - 1) / kernel.kr * kernel.kr;
  PackedS8BWeights packed;
  packed.k_ = k;
  packed.n_ = n;
  // Layout: per kNC column tile (full tiles occupy exactly kpad * kNC
  // panel bytes and kNC colsums; kNC is a multiple of every kernel's NR),
  // panels + nr-padded column sums exactly as the per-call pack emits.
  int64_t pad_cols = 0;
  for (int64_t j0 = 0; j0 < n; j0 += kNC) {
    const int64_t nc = std::min(kNC, n - j0);
    pad_cols += (nc + nr - 1) / nr * nr;
  }
  packed.data_.resize(static_cast<size_t>(kpad * pad_cols));
  packed.colsum_.resize(static_cast<size_t>(pad_cols));
  for (int64_t j0 = 0; j0 < n; j0 += kNC) {
    const int64_t nc = std::min(kNC, n - j0);
    PackBDispatch(kernel, trans_b, b, k, n, j0, nc,
                  packed.data_.data() + kpad * j0,
                  packed.colsum_.data() + j0);
  }
  return packed;
}

void GemmS8PackedB(bool trans_a, int64_t m, const int8_t* a,
                   const PackedS8BWeights& b, float* c,
                   const GemmS8Epilogue& epilogue, bool parallel) {
  POE_CHECK(!b.empty()) << "GemmS8PackedB on unpacked weights";
  const PrepackedS8B pb{b.data_.data(), b.colsum_.data()};
  GemmS8Impl(trans_a, /*trans_b=*/false, m, b.n_, b.k_, a,
             /*b=*/nullptr, c, epilogue, parallel,
             /*prepacked_a=*/nullptr, &pb);
}

void PackedS8BWeights::Unpack(int8_t* out) const {
  POE_CHECK(!empty()) << "Unpack on empty PackedS8BWeights";
  const KernelS8& kernel = PickKernelS8();
  const int64_t nr = kernel.nr;
  const int64_t kr = kernel.kr;
  const int64_t kpad = (k_ + kr - 1) / kr * kr;
  // Inverse of the tile/panel layout: op(B) column j lives in column tile
  // j / kNC (every full tile occupies exactly kpad * kNC panel bytes, so
  // tile bases are kpad * tile0), panel (jt / nr) inside the tile, column
  // run jt % nr, k-group p / kr, byte p % kr. Emitted row-major as the
  // trans_b = true Pack source: out[j * k + p] = op(B)(p, j).
  for (int64_t j = 0; j < n_; ++j) {
    const int64_t tile0 = j / kNC * kNC;
    const int64_t jt = j - tile0;
    const int8_t* panel = data_.data() + kpad * tile0 +
                          (jt / nr) * kpad * nr + (jt % nr) * kr;
    int8_t* dst = out + j * k_;
    for (int64_t p = 0; p < k_; ++p) {
      dst[p] = panel[(p / kr) * nr * kr + (p % kr)];
    }
  }
}

POE_NO_FP_CONTRACT void GemmS8Ref(bool trans_a, bool trans_b, int64_t m,
                                  int64_t n, int64_t k, const int8_t* a,
                                  const int8_t* b, float* c,
                                  const GemmS8Epilogue& epilogue) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      int32_t acc = 0;
      for (int64_t p = 0; p < k; ++p) {
        const int32_t av = trans_a ? a[p * m + i] : a[i * k + p];
        const int32_t bv = trans_b ? b[j * k + p] : b[p * n + j];
        acc += av * bv;
      }
      c[i * n + j] = DequantOne(i, j, acc, epilogue);
    }
  }
}

const char* GemmS8KernelName() { return PickKernelS8().name; }

int64_t GemmS8KGroup() { return PickKernelS8().kr; }

namespace {

#ifdef POE_GEMM_S8_X86
// Vectorized activation quantization: 32 elements per iteration. Performs
// exactly QuantizeOneS8's operation sequence — scale, clamp to ±127, add
// sign(v)*0.5, truncate toward zero — so outputs are bitwise identical to
// the scalar loop (the saturating packs are no-ops on pre-clamped
// values; sign-select rounds -0.0 to 0 like the >= 0 test does). This
// pass runs over every activation element of every int8 forward, so it
// matters as soon as the per-call weight pack is gone.
__attribute__((target("avx2"))) void QuantizeBufferS8Avx2(
    const float* src, int64_t n, float inv_scale, int8_t* dst) {
  const __m256 inv = _mm256_set1_ps(inv_scale);
  const __m256 lo = _mm256_set1_ps(-127.0f);
  const __m256 hi = _mm256_set1_ps(127.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  const __m256i regroup = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i q[4];
    for (int v = 0; v < 4; ++v) {
      __m256 x = _mm256_loadu_ps(src + i + v * 8);
      x = _mm256_mul_ps(x, inv);
      // min(x, 127) first: MINPS returns the SECOND operand on NaN, so a
      // NaN clamps to 127 exactly like the scalar std::min(127, NaN).
      x = _mm256_max_ps(_mm256_min_ps(x, hi), lo);
      const __m256 rnd = _mm256_or_ps(_mm256_and_ps(x, sign_mask), half);
      q[v] = _mm256_cvttps_epi32(_mm256_add_ps(x, rnd));
    }
    // 4x8 int32 -> 32 int8; packs work lane-wise, the permute restores
    // element order (groups 0,4,1,5,... are q0[0:4), q0[4:8), q1[0:4)...).
    const __m256i p01 = _mm256_packs_epi32(q[0], q[1]);
    const __m256i p23 = _mm256_packs_epi32(q[2], q[3]);
    const __m256i packed = _mm256_permutevar8x32_epi32(
        _mm256_packs_epi16(p01, p23), regroup);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), packed);
  }
  // Eight at a time, the same ops: short rows (a conv epilogue's tiles)
  // stay vectorized.
  for (; i + 8 <= n; i += 8) {
    __m256 x = _mm256_mul_ps(_mm256_loadu_ps(src + i), inv);
    x = _mm256_max_ps(_mm256_min_ps(x, hi), lo);
    const __m256 rnd = _mm256_or_ps(_mm256_and_ps(x, sign_mask), half);
    const __m256i q = _mm256_cvttps_epi32(_mm256_add_ps(x, rnd));
    const __m128i p = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                      _mm256_extracti128_si256(q, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i),
                     _mm_packs_epi16(p, p));
  }
  for (; i < n; ++i) dst[i] = QuantizeOneS8(src[i], inv_scale);
}

// Vectorized max-|x| scan: |x| is the sign bit cleared (exactly the scalar
// negate for negatives), and the accumulate keeps the NEW value as MAXPS's
// first operand — the instruction returns its second operand on unordered
// compares, so a NaN input leaves the running max untouched, exactly like
// the scalar `v > max` test. The maximum of a set of non-negative floats
// is a unique value, so the 4-accumulator reassociation cannot change the
// result: bitwise identical to the scalar loop.
__attribute__((target("avx2"))) float MaxAbsAvx2(const float* src,
                                                 int64_t n) {
  const __m256 abs_mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 m0 = _mm256_setzero_ps();
  __m256 m1 = _mm256_setzero_ps();
  __m256 m2 = _mm256_setzero_ps();
  __m256 m3 = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    m0 = _mm256_max_ps(
        _mm256_and_ps(_mm256_loadu_ps(src + i), abs_mask), m0);
    m1 = _mm256_max_ps(
        _mm256_and_ps(_mm256_loadu_ps(src + i + 8), abs_mask), m1);
    m2 = _mm256_max_ps(
        _mm256_and_ps(_mm256_loadu_ps(src + i + 16), abs_mask), m2);
    m3 = _mm256_max_ps(
        _mm256_and_ps(_mm256_loadu_ps(src + i + 24), abs_mask), m3);
  }
  for (; i + 8 <= n; i += 8) {
    m0 = _mm256_max_ps(
        _mm256_and_ps(_mm256_loadu_ps(src + i), abs_mask), m0);
  }
  // Accumulators hold only non-NaN values, so the reduce order is free.
  m0 = _mm256_max_ps(_mm256_max_ps(m0, m1), _mm256_max_ps(m2, m3));
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(m0),
                        _mm256_extractf128_ps(m0, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  float max_abs = _mm_cvtss_f32(m);
  for (; i < n; ++i) {
    const float v = src[i] < 0.0f ? -src[i] : src[i];
    if (v > max_abs) max_abs = v;
  }
  return max_abs;
}
#endif  // POE_GEMM_S8_X86

}  // namespace

void QuantizeBufferS8(const float* src, int64_t n, float inv_scale,
                      int8_t* dst) {
  // One rounding rule for every int8 producer (see QuantizeOneS8). The
  // AVX2 path is bitwise identical, so it engages on CPU capability alone
  // (independent of the POE_GEMM_KERNEL override, which pins kernel
  // GEOMETRY, not elementwise arithmetic).
#ifdef POE_GEMM_S8_X86
  static const bool kHasAvx2 = __builtin_cpu_supports("avx2");
  if (kHasAvx2) {
    QuantizeBufferS8Avx2(src, n, inv_scale, dst);
    return;
  }
#endif
  for (int64_t i = 0; i < n; ++i) dst[i] = QuantizeOneS8(src[i], inv_scale);
}

float SymmetricScaleS8(const float* src, int64_t n) {
  const float max_abs = MaxAbs(src, n);
  return max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
}

float MaxAbs(const float* src, int64_t n) {
  // Like QuantizeBufferS8, the AVX2 path is bitwise identical to the
  // scalar loop and engages on CPU capability alone.
#ifdef POE_GEMM_S8_X86
  static const bool kHasAvx2 = __builtin_cpu_supports("avx2");
  if (kHasAvx2) return MaxAbsAvx2(src, n);
#endif
  float max_abs = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    const float v = src[i] < 0.0f ? -src[i] : src[i];
    if (v > max_abs) max_abs = v;
  }
  return max_abs;
}

}  // namespace poe
