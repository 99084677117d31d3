#include "tensor/conv_direct.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "util/env.h"
#include "util/logging.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define POE_CONV_DIRECT_X86 1
#include <immintrin.h>
#endif

namespace poe {

namespace {

ConvPath ParseConvPathEnv() {
  const std::string value = GetEnvOr("POE_CONV_PATH", "auto");
  if (value == "im2col") return ConvPath::kIm2Col;
  if (value == "direct") return ConvPath::kDirect;
  if (value != "auto") {
    POE_LOG(Warning) << "POE_CONV_PATH=" << value
                     << " not recognized (auto|im2col|direct); using auto";
  }
  return ConvPath::kAuto;
}

// Mutable process-wide choice, seeded from the environment exactly once.
ConvPath& ConvPathState() {
  static ConvPath path = ParseConvPathEnv();
  return path;
}

// Writes the direct layout of `v`: zero everywhere, then copy_row(src, n,
// dst) for each interior row of each phase plane q. Positions [lo, hi) of
// plane q hold image columns t * stride + q - pad; src[r] points at lane
// r's image row at position lo (a zero row for the lanes past `channels`),
// and successive positions sit `stride` elements apart. Zeroing the whole
// buffer in one pass costs less than per-row border fills.
template <typename T, typename CopyRow>
void FillDirectImageT(const T* image, const ConvImageViewT<T>& v, T* buf,
                      CopyRow copy_row) {
  POE_CHECK(v.group >= 1 && v.group <= 4) << "group " << v.group;
  // Locals, not v's fields: stores through an int8 buffer may alias them.
  const int64_t g = v.group;
  const int64_t channels = v.channels;
  const int64_t height = v.height;
  const int64_t width = v.width;
  const int64_t s = v.stride;
  const int64_t pad = v.pad;
  const int64_t cgs = v.channel_groups();
  const int64_t row = v.phase_w() * g;  // elements per plane row
  const int64_t plane = v.padded_h() * row;
  thread_local std::vector<T> zeros;  // stands in for padding channels
  if (channels % g != 0 && static_cast<int64_t>(zeros.size()) < width) {
    zeros.assign(static_cast<size_t>(width), T(0));
  }
  std::fill(buf, buf + v.phases() * cgs * plane, T(0));
  for (int64_t q = 0; q < v.phases(); ++q) {
    const int64_t lo = (pad - q + s - 1) / s;  // q < s: never negative
    const int64_t hi = std::min(v.phase_w(), (width + pad - q + s - 1) / s);
    if (lo >= hi) continue;
    const int64_t x0 = lo * s + q - pad;  // image column of position lo
    T* first = buf + q * cgs * plane + pad * row + lo * g;
    for (int64_t cg = 0; cg < cgs; ++cg) {
      for (int64_t iy = 0; iy < height; ++iy) {
        const T* src[4];
        for (int64_t r = 0; r < g; ++r) {
          const int64_t c = cg * g + r;
          src[r] = c < channels ? image + (c * height + iy) * width + x0
                                : zeros.data();
        }
        copy_row(src, hi - lo, first + cg * plane + iy * row);
      }
    }
  }
}

#ifdef POE_CONV_DIRECT_X86
// dst[i] = src[2 * i] for i < n, eight at a time: two loads that end on
// the last element kept (the second starts one float early and keeps its
// odd lanes), one shuffle and one lane permute.
__attribute__((target("avx2"))) void CopyEvenF32Avx2(const float* src,
                                                      int64_t n, float* dst) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 a = _mm256_loadu_ps(src + 2 * i);      // src[2i, 2i+7]
    const __m256 b = _mm256_loadu_ps(src + 2 * i + 7);  // src[2i+7, 2i+14]
    const __m256 v = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 2, 0));
    _mm256_storeu_ps(dst + i,
                     _mm256_castpd_ps(_mm256_permute4x64_pd(
                         _mm256_castps_pd(v), _MM_SHUFFLE(3, 1, 2, 0))));
  }
  for (; i < n; ++i) dst[i] = src[2 * i];
}

// Bytes p[i * kStep], i < 8 (kStep 1 or 2), in the low half of a vector.
// Like CopyEvenF32Avx2, the stride-2 loads end on the last byte kept.
template <int kStep>
inline __m128i LoadPixels8(const int8_t* p) {
  const __m128i lo = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  if (kStep == 1) return lo;
  const __m128i hi = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p + 7));
  return _mm_packus_epi16(
      _mm_unpacklo_epi64(_mm_and_si128(lo, _mm_set1_epi16(0xff)),
                         _mm_srli_epi16(hi, 8)),
      _mm_setzero_si128());
}
#endif  // POE_CONV_DIRECT_X86

// dst[i * kG + r] = src[r][i * kStep] for i < n: one image row of each of
// the kG (2 or 4) lanes interleaved per pixel, by SSE2 byte unpacks eight
// pixels at a time.
template <int kG, int kStep>
void InterleaveRowS8(const int8_t* const* src, int64_t n, int8_t* dst) {
  int64_t i = 0;
#ifdef POE_CONV_DIRECT_X86
  for (; i + 8 <= n; i += 8, dst += 8 * kG) {
    const __m128i t0 =
        _mm_unpacklo_epi8(LoadPixels8<kStep>(src[0] + i * kStep),
                          LoadPixels8<kStep>(src[1] + i * kStep));
    if constexpr (kG == 2) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), t0);
    } else {
      const __m128i t1 =
          _mm_unpacklo_epi8(LoadPixels8<kStep>(src[2] + i * kStep),
                            LoadPixels8<kStep>(src[3] + i * kStep));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                       _mm_unpacklo_epi16(t0, t1));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16),
                       _mm_unpackhi_epi16(t0, t1));
    }
  }
#endif
  for (; i < n; ++i, dst += kG)
    for (int k = 0; k < kG; ++k) dst[k] = src[k][i * kStep];
}

}  // namespace

void FillDirectImage(const float* image, const ConvImageView& v,
                     float* buf) {
  POE_CHECK_EQ(v.group, 1);
  const int64_t s = v.stride;
  FillDirectImageT(image, v, buf, [s](const float* const* src, int64_t n,
                                      float* dst) {
    if (s == 1) {
      std::memcpy(dst, src[0], static_cast<size_t>(n) * sizeof(float));
      return;
    }
#ifdef POE_CONV_DIRECT_X86
    static const bool kHasAvx2 = __builtin_cpu_supports("avx2");
    if (s == 2 && kHasAvx2) return CopyEvenF32Avx2(src[0], n, dst);
#endif
    for (int64_t t = 0; t < n; ++t) dst[t] = src[0][t * s];
  });
}

void FillDirectImage(const int8_t* image, const ConvImageViewS8& v,
                     int8_t* buf) {
  using RowFn = void (*)(const int8_t* const*, int64_t, int8_t*);
  const int64_t s = v.stride;
  const int64_t g = v.group;
  RowFn simd = nullptr;  // the kernels' k-groups at strides 1 and 2
  if ((g == 2 || g == 4) && s <= 2) {
    simd = g == 2 ? (s == 1 ? InterleaveRowS8<2, 1> : InterleaveRowS8<2, 2>)
                  : (s == 1 ? InterleaveRowS8<4, 1> : InterleaveRowS8<4, 2>);
  }
  FillDirectImageT(image, v, buf, [&](const int8_t* const* src, int64_t n,
                                      int8_t* dst) {
    if (simd != nullptr) return simd(src, n, dst);
    for (int64_t i = 0; i < n; ++i)
      for (int64_t r = 0; r < g; ++r) dst[i * g + r] = src[r][i * s];
  });
}

void InterleaveChannelRows(const int8_t* const* src, int64_t group, int64_t n,
                           int8_t* dst) {
  if (group == 4) return InterleaveRowS8<4, 1>(src, n, dst);
  if (group == 2) return InterleaveRowS8<2, 1>(src, n, dst);
  for (int64_t i = 0; i < n; ++i)
    for (int64_t r = 0; r < group; ++r) dst[i * group + r] = src[r][i];
}

void ZeroDirectImageBorder(const ConvImageViewS8& v, int8_t* buf) {
  POE_CHECK_EQ(v.stride, 1);
  const int64_t row = v.padded_w() * v.group;
  const int64_t plane = v.padded_h() * row;
  const int64_t lead = v.pad * (row + v.group);  // top rows, first left
  const int64_t gap = 2 * v.pad * v.group;  // a right border + next left
  const int64_t width = v.width * v.group;
  for (int64_t cg = 0; cg < v.channel_groups(); ++cg) {
    int8_t* p = buf + cg * plane;
    if ((cg + 1) * v.group > v.channels) {
      std::memset(p, 0, static_cast<size_t>(plane));
      continue;
    }
    std::memset(p, 0, static_cast<size_t>(lead));
    int8_t* q = p + lead + width;
    for (int64_t y = 0; y + 1 < v.height; ++y, q += row) {
      if (gap == 8) {  // pad 1 at the VNNI and scalar k-group: one store
        std::memset(q, 0, 8);
      } else {
        std::memset(q, 0, static_cast<size_t>(gap));
      }
    }
    std::memset(q, 0, static_cast<size_t>(p + plane - q));
  }
}

ConvPath ConvPathChoice() { return ConvPathState(); }

void SetConvPath(ConvPath path) { ConvPathState() = path; }

}  // namespace poe
