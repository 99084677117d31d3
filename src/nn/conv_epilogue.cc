#include "nn/conv_epilogue.h"

#include <algorithm>
#include <cstring>

#include "nn/batchnorm.h"
#include "tensor/gemm_s8.h"
#include "util/logging.h"

// The fused epilogue's full-width tile rows in AVX2 with FMA when the
// build targets them (BnAffine is one FMA exactly there). Transposed
// int8 tiles take AVX-512 on any x86 build: only the VNNI kernel passes
// them, and it runs only where the CPU has AVX-512.
#if defined(__AVX2__) && defined(__FMA__)
#define POE_CONV_EPILOGUE_AVX2 1
#endif
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define POE_CONV_EPILOGUE_COLUMNS 1
#endif
#if defined(POE_CONV_EPILOGUE_AVX2) || defined(POE_CONV_EPILOGUE_COLUMNS)
#include <immintrin.h>
#endif

namespace poe {

namespace {

// The tile hook body's widest tile (wider ones go in column chunks).
constexpr int64_t kMaxCols = 64;

// The f32 steps of one tile row of n columns, from `in` to `out` (which
// may be `in` itself), per element BnAffineRelu then the add. kN > 0
// fixes n at compile time: a full register-tile row then runs as straight
// vector code, since a loop's overhead would dominate rows this short.
template <int64_t kN>
inline void TileRow(const ConvTileEpilogue& ep, int64_t ch, const float* in,
                    const float* res, int64_t n, float* out) {
  const bool bn = ep.bn_scale != nullptr;
  const float scale = bn ? ep.bn_scale[ch] : 0.0f;
  const float shift = bn ? ep.bn_shift[ch] : 0.0f;
#ifdef POE_CONV_EPILOGUE_AVX2
  if constexpr (kN > 0 && kN % 8 == 0) {
    const __m256 s = _mm256_set1_ps(scale);
    const __m256 t = _mm256_set1_ps(shift);
    for (int64_t j = 0; j < kN; j += 8) {
      __m256 v = _mm256_loadu_ps(in + j);
      if (bn) v = _mm256_max_ps(_mm256_fmadd_ps(s, v, t), _mm256_setzero_ps());
      if (res != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(res + j));
      _mm256_storeu_ps(out + j, v);
    }
    return;
  }
#endif
  if constexpr (kN > 0) n = kN;
  for (int64_t j = 0; j < n; ++j) {
    const float v = bn ? BnAffineRelu(in[j], scale, shift) : in[j];
    out[j] = res != nullptr ? v + res[j] : v;
  }
}

// The tile hook body for tiles kN columns wide (kN = 0: any width up to
// kMaxCols).
template <int64_t kN>
void RunFusion(const ConvImageFusion& f, const float* tile, int64_t ld,
               int64_t row0, int64_t rows, int64_t col0, int64_t cols,
               float* c, int64_t ldc) {
  const ConvTileEpilogue& ep = *f.ep;
  if (f.next_image == nullptr) {
    for (int64_t r = 0; r < rows; ++r) {
      const int64_t ch = row0 + r;
      TileRow<kN>(ep, ch, tile + r * ld,
                  f.residual != nullptr ? f.residual + ch * ldc + col0
                                        : nullptr,
                  cols, c + ch * ldc + col0);
    }
    return;
  }
  // Quantize into the next conv's image a channel group (one k-group of
  // lanes per pixel) at a time, interleaving its lanes one output row's
  // run of pixels at a time. Padding lanes read zeros. A group split
  // between two tiles (a kernel whose MR is not a multiple of the group)
  // writes its own lanes alone, byte by byte.
  const ConvImageViewS8& nv = ep.next->view;
  const int64_t g = nv.group;
  const int64_t row = nv.padded_w() * g;
  const int64_t n = kN > 0 ? kN : cols;
  static const int8_t kZeros[kMaxCols] = {};
  float v[kMaxCols];
  int8_t q[4][kMaxCols];
  for (int64_t cg = row0 / g; cg * g < row0 + rows; ++cg) {
    int8_t* interior =
        f.next_image + cg * nv.padded_h() * row + nv.pad * (row + g);
    const int8_t* lanes[4];
    bool whole = true;
    for (int64_t l = 0; l < g; ++l) {
      const int64_t ch = cg * g + l;
      lanes[l] = kZeros;
      if (ch >= nv.channels) continue;
      if (ch < row0 || ch >= row0 + rows) {
        whole = false;
        continue;
      }
      TileRow<kN>(ep, ch, tile + (ch - row0) * ld, nullptr, n, v);
      QuantizeBufferS8(v, n, ep.next->inv_scale, q[l]);
      lanes[l] = q[l];
    }
    // Column j is output pixel (j / out_w, j % out_w).
    int64_t oh = col0 / f.out_w;
    int64_t ow = col0 % f.out_w;
    for (int64_t j = 0; j < n; ow = 0, ++oh) {
      const int64_t run = std::min(n - j, f.out_w - ow);
      int8_t* dst = interior + oh * row + ow * g;
      if (whole) {
        const int8_t* src[4];
        for (int64_t l = 0; l < g; ++l) src[l] = lanes[l] + j;
        InterleaveChannelRows(src, g, run, dst);
      } else {
        for (int64_t l = 0; l < g; ++l) {
          if (lanes[l] == kZeros) continue;
          for (int64_t i = 0; i < run; ++i) dst[i * g + l] = lanes[l][j + i];
        }
      }
      j += run;
    }
  }
}

#ifdef POE_CONV_EPILOGUE_COLUMNS
// The quantizing hook on a transposed tile (column j's up to 16 rows at
// tile + j * ld), from the int8 VNNI kernel: each column is one output
// pixel's channels, so it quantizes as one vector and its k-groups go to
// their channel-group planes whole. That needs the groups to lie whole in
// the tile, which the kernel's MR of 16 and k-group of 4 give.
__attribute__((target("avx512f"))) void RunFusionColumns(
    const ConvImageFusion& f, const float* tile, int64_t ld, int64_t row0,
    int64_t rows, int64_t col0, int64_t cols) {
  const ConvTileEpilogue& ep = *f.ep;
  const ConvImageViewS8& nv = ep.next->view;
  const int64_t g = nv.group;
  POE_CHECK(rows <= 16 && row0 % g == 0 &&
            ((row0 + rows) % g == 0 || row0 + rows >= nv.channels));
  const int64_t row = nv.padded_w() * g;
  const int64_t plane = nv.padded_h() * row;
  const int64_t live = std::min(rows, nv.channels - row0);
  const __mmask16 mask = static_cast<__mmask16>((1u << live) - 1u);
  const bool bn = ep.bn_scale != nullptr;
  const __m512 scale =
      bn ? _mm512_maskz_loadu_ps(mask, ep.bn_scale + row0) : __m512();
  const __m512 shift =
      bn ? _mm512_maskz_loadu_ps(mask, ep.bn_shift + row0) : __m512();
  const __m512 zero = _mm512_setzero_ps();
  const __m512 inv = _mm512_set1_ps(ep.next->inv_scale);
  const __m512 lo = _mm512_set1_ps(-127.0f);
  const __m512 hi = _mm512_set1_ps(127.0f);
  const __m512i half = _mm512_castps_si512(_mm512_set1_ps(0.5f));
  const __m512i sign = _mm512_castps_si512(_mm512_set1_ps(-0.0f));
  const int64_t groups = (rows + g - 1) / g;
  int8_t* interior =
      f.next_image + (row0 / g) * plane + nv.pad * (row + g);
  int64_t oh = col0 / f.out_w;
  int64_t ow = col0 % f.out_w;
  alignas(16) int8_t bytes[16];
  for (int64_t j = 0; j < cols; ++j) {
    __m512 v = _mm512_maskz_loadu_ps(mask, tile + j * ld);
    if (bn) {
#ifdef __FMA__
      v = _mm512_fmadd_ps(scale, v, shift);
#else
      // BnAffine's separate multiply and add; the rounding forms keep
      // the compiler from contracting them into an FMA here.
      constexpr int kNearest = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
      v = _mm512_add_round_ps(_mm512_mul_round_ps(scale, v, kNearest),
                              shift, kNearest);
#endif
      v = _mm512_max_ps(v, zero);
    }
    // QuantizeBufferS8's vector rounding (see gemm_s8.cc).
    v = _mm512_max_ps(_mm512_min_ps(_mm512_mul_ps(v, inv), hi), lo);
    const __m512 rnd = _mm512_castsi512_ps(
        _mm512_or_si512(_mm512_and_si512(_mm512_castps_si512(v), sign), half));
    const __m128i b = _mm512_cvtepi32_epi8(_mm512_maskz_mov_epi32(
        mask, _mm512_cvttps_epi32(_mm512_add_ps(v, rnd))));
    int8_t* dst = interior + oh * row + ow * g;
    if (g == 4 && groups == 4) {  // a full VNNI tile: four planes
      const int32_t w[4] = {_mm_extract_epi32(b, 0), _mm_extract_epi32(b, 1),
                            _mm_extract_epi32(b, 2), _mm_extract_epi32(b, 3)};
      for (int64_t k = 0; k < 4; ++k) std::memcpy(dst + k * plane, &w[k], 4);
    } else {
      _mm_store_si128(reinterpret_cast<__m128i*>(bytes), b);
      for (int64_t k = 0; k < groups; ++k) {
        std::memcpy(dst + k * plane, bytes + k * g, static_cast<size_t>(g));
      }
    }
    if (++ow == f.out_w) {
      ow = 0;
      ++oh;
    }
  }
}
#endif

// The hook: transposed tiles take the column path, others the row path
// for their width.
void RunTileHook(const void* self, const float* tile, int64_t ld,
                 bool transposed, int64_t row0, int64_t rows, int64_t col0,
                 int64_t cols, float* c, int64_t ldc) {
  const ConvImageFusion& f = *static_cast<const ConvImageFusion*>(self);
#ifdef POE_CONV_EPILOGUE_COLUMNS
  if (transposed) return RunFusionColumns(f, tile, ld, row0, rows, col0, cols);
#endif
  POE_CHECK(!transposed) << "the hook takes transposed tiles only on x86";
  // Every kernel's NR: 16 (int8, f32 avx2 and scalar) or 32 (f32 avx512).
  if (cols == 16) {
    return RunFusion<16>(f, tile, ld, row0, rows, col0, cols, c, ldc);
  }
  if (cols == 32) {
    return RunFusion<32>(f, tile, ld, row0, rows, col0, cols, c, ldc);
  }
  // Narrower tails, and the k == 0 GEMM's one whole-matrix tile.
  for (int64_t j = 0; j < cols; j += kMaxCols) {
    RunFusion<0>(f, tile + j, ld, row0, rows, col0 + j,
                 std::min(kMaxCols, cols - j), c, ldc);
  }
}

}  // namespace

GemmTileHook ConvFusionHook(const ConvTileEpilogue* fused, int64_t b,
                            int64_t out_size, int64_t out_w,
                            ConvImageFusion* f) {
  if (fused == nullptr) return GemmTileHook{};
  f->ep = fused;
  f->residual =
      fused->residual ? fused->residual->data() + b * out_size : nullptr;
  f->next_image =
      fused->next ? fused->next->data + b * fused->next->elems : nullptr;
  f->out_w = out_w;
  GemmTileHook hook;
  hook.fn = &RunTileHook;
  hook.ctx = f;
#ifdef POE_CONV_EPILOGUE_COLUMNS
  hook.takes_transposed = fused->next != nullptr;
#endif
  return hook;
}

}  // namespace poe
