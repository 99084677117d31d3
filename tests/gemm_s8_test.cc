#include "tensor/gemm_s8.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "util/rng.h"

namespace poe {
namespace {

// Int8 accumulation is exact (int32, no intermediate rounding), so
// threaded-vs-sequential and packed-vs-unpacked comparisons are bitwise.
// Oracle comparisons allow a few ulps: the fused dequantizing store and
// GemmS8Ref share the same arithmetic expression but the compiler may
// contract its mul/add chains differently per call site.
float RelTol(float ref) {
  return 1e-5f * (ref < 0.0f ? -ref : ref) + 1e-4f;
}

void FillInt8(std::vector<int8_t>* v, Rng& rng) {
  for (auto& x : *v)
    x = static_cast<int8_t>(static_cast<int64_t>(rng.NextInt(255)) - 127);
}

void FillUniform(std::vector<float>* v, Rng& rng, float lo = -1.0f,
                 float hi = 1.0f) {
  for (auto& x : *v) x = rng.Uniform(lo, hi);
}

// B (k x n, row-major) with zero rows appended up to `depth`: the operand
// of an m x k matrix packed as a 1x1 conv of k channels, whose depth
// rounds k up to the kernel's k-group.
std::vector<int8_t> ZeroRowsTo(const std::vector<int8_t>& b, int64_t n,
                               int64_t depth) {
  std::vector<int8_t> deep(b);
  deep.resize(static_cast<size_t>(depth * n), int8_t{0});
  return deep;
}

// (trans_a, trans_b, m, n, k)
using GemmS8Case = std::tuple<bool, bool, int, int, int>;

class GemmS8ParamTest : public ::testing::TestWithParam<GemmS8Case> {};

TEST_P(GemmS8ParamTest, MatchesReference) {
  const auto [ta, tb, m, n, k] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 10007 + n * 101 + k + ta * 2 + tb));
  std::vector<int8_t> a(static_cast<size_t>(m) * k);
  std::vector<int8_t> b(static_cast<size_t>(k) * n);
  FillInt8(&a, rng);
  FillInt8(&b, rng);
  std::vector<float> row_scale(m), col_scale(n), row_bias(m), col_bias(n);
  FillUniform(&row_scale, rng, 0.01f, 2.0f);
  FillUniform(&col_scale, rng, 0.01f, 2.0f);
  FillUniform(&row_bias, rng);
  FillUniform(&col_bias, rng);

  // Cover the epilogue shapes the serving layers use: bare dequant, conv
  // (row_scale + row_bias + relu), and linear (col_scale + col_bias).
  GemmS8Epilogue plain;
  plain.scale = 0.037f;
  GemmS8Epilogue conv;
  conv.scale = 0.02f;
  conv.row_scale = row_scale.data();
  conv.row_bias = row_bias.data();
  conv.relu = true;
  GemmS8Epilogue linear;
  linear.scale = 0.05f;
  linear.col_scale = col_scale.data();
  linear.col_bias = col_bias.data();
  for (const GemmS8Epilogue& ep : {plain, conv, linear}) {
    std::vector<float> c(static_cast<size_t>(m) * n, -1.0f);
    std::vector<float> c_ref = c;
    GemmS8(ta, tb, m, n, k, a.data(), b.data(), c.data(), ep,
           /*parallel=*/true);
    GemmS8Ref(ta, tb, m, n, k, a.data(), b.data(), c_ref.data(), ep);
    for (size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], c_ref[i], RelTol(c_ref[i]))
          << "at " << i << " m=" << m << " n=" << n << " k=" << k
          << " ta=" << ta << " tb=" << tb;
    }
  }
}

// Odd/prime sizes hit every panel-edge and KR-remainder case; the larger
// sizes cross the MC = 240 / NC = 1024 macro-tile boundaries.
std::vector<GemmS8Case> AllTransposeCases() {
  const int sizes[] = {1, 2, 3, 17, 63, 130};
  std::vector<GemmS8Case> cases;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (int m : sizes)
        for (int n : sizes)
          for (int k : sizes) {
            if (m * n * k > 17 * 130 * 130) continue;
            cases.push_back({ta, tb, m, n, k});
          }
      // Macro-tile boundary cases (MC = 240, NC = 1024) and a k deep
      // enough to stress long in-register accumulation.
      cases.push_back({ta, tb, 241, 65, 321});
      cases.push_back({ta, tb, 37, 1025, 11});
      cases.push_back({ta, tb, 13, 33, 1301});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllTransposeCombos, GemmS8ParamTest,
                         ::testing::ValuesIn(AllTransposeCases()));

// Saturated operands (every input at +-127) maximize every partial product;
// the accumulation must stay exact — this is where a saturating
// implementation (e.g. a bare maddubs path) would diverge.
TEST(GemmS8Test, SaturatedInputsStayExact) {
  const int m = 29, n = 47, k = 640;
  for (int sign_a : {-1, 1}) {
    for (int sign_b : {-1, 1}) {
      std::vector<int8_t> a(static_cast<size_t>(m) * k,
                            static_cast<int8_t>(sign_a * 127));
      std::vector<int8_t> b(static_cast<size_t>(k) * n,
                            static_cast<int8_t>(sign_b * 127));
      std::vector<float> c(static_cast<size_t>(m) * n, 0.0f);
      GemmS8Epilogue ep;
      ep.scale = 1.0f;
      GemmS8(false, false, m, n, k, a.data(), b.data(), c.data(), ep,
             /*parallel=*/false);
      const float want = static_cast<float>(sign_a * sign_b) * 127.0f *
                         127.0f * static_cast<float>(k);
      for (float v : c) ASSERT_EQ(v, want);
    }
  }
}

// Alternating +-127 catches pairwise-saturation bugs that same-sign
// saturation misses (adjacent products cancel to huge intermediate pairs).
TEST(GemmS8Test, AlternatingSaturatedInputsMatchReference) {
  const int m = 18, n = 35, k = 514;
  std::vector<int8_t> a(static_cast<size_t>(m) * k);
  std::vector<int8_t> b(static_cast<size_t>(k) * n);
  for (size_t i = 0; i < a.size(); ++i) a[i] = (i % 2) ? 127 : -127;
  for (size_t i = 0; i < b.size(); ++i) b[i] = (i % 3) ? -127 : 127;
  std::vector<float> c(static_cast<size_t>(m) * n, 0.0f), c_ref = c;
  GemmS8Epilogue ep;
  ep.scale = 0.25f;
  GemmS8(false, false, m, n, k, a.data(), b.data(), c.data(), ep, true);
  GemmS8Ref(false, false, m, n, k, a.data(), b.data(), c_ref.data(), ep);
  for (size_t i = 0; i < c.size(); ++i) ASSERT_EQ(c[i], c_ref[i]);
}

// Every register tile is computed by one task with the same panels and
// the same dequantizing store, so the threaded and sequential schedules
// must be bitwise identical through every entry point that takes
// `parallel`. 513x1100 spans 3 row tiles and 2 column tiles; CMake reruns
// this binary at POE_NUM_THREADS=4.
TEST(GemmS8Test, ThreadedMatchesSequentialBitwise) {
  Rng rng(77);
  for (const auto& [m, n, k] :
       {std::tuple<int, int, int>{64, 48, 32},
        std::tuple<int, int, int>{300, 130, 400},
        std::tuple<int, int, int>{513, 1100, 700}}) {
    std::vector<int8_t> a(static_cast<size_t>(m) * k);
    std::vector<int8_t> b(static_cast<size_t>(k) * n);
    FillInt8(&a, rng);
    FillInt8(&b, rng);
    std::vector<float> bias(m);
    FillUniform(&bias, rng);
    GemmS8Epilogue ep;
    ep.scale = 0.013f;
    ep.row_bias = bias.data();
    ep.relu = true;
    const PackedS8Weights pa =
        PackedS8Weights::PackConv(m, k, /*kernel=*/1, a.data());
    const std::vector<int8_t> b_deep = ZeroRowsTo(b, n, pa.depth());
    const PackedS8BWeights pb =
        PackedS8BWeights::Pack(/*trans_b=*/false, k, n, b.data());
    const size_t mn = static_cast<size_t>(m) * n;
    // GemmS8, GemmS8PackedA and GemmS8PackedB, one after another.
    const auto products = [&](bool parallel) {
      std::vector<float> c(3 * mn, 0.0f);
      GemmS8(false, false, m, n, k, a.data(), b.data(), c.data(), ep,
             parallel);
      GemmS8PackedA(pa, n, b_deep.data(), c.data() + mn, ep, parallel);
      GemmS8PackedB(false, m, a.data(), pb, c.data() + 2 * mn, ep, parallel);
      return c;
    };
    const std::vector<float> par = products(true), seq = products(false);
    for (size_t entry = 0; entry < 3; ++entry) {
      ASSERT_EQ(0, std::memcmp(par.data() + entry * mn,
                               seq.data() + entry * mn, mn * sizeof(float)))
          << "entry " << entry << " m=" << m << " n=" << n << " k=" << k;
    }
  }
}

TEST(GemmS8Test, PackedWeightsMatchUnpacked) {
  Rng rng(31);
  for (const auto& [m, n, k] :
       {std::tuple<int, int, int>{5, 9, 7},
        std::tuple<int, int, int>{64, 64, 576},
        std::tuple<int, int, int>{250, 1030, 130}}) {
    std::vector<int8_t> a(static_cast<size_t>(m) * k);
    std::vector<int8_t> b(static_cast<size_t>(k) * n);
    FillInt8(&a, rng);
    FillInt8(&b, rng);
    std::vector<float> scales(m);
    FillUniform(&scales, rng, 0.001f, 0.1f);
    GemmS8Epilogue ep;
    ep.scale = 0.07f;
    ep.row_scale = scales.data();
    PackedS8Weights packed =
        PackedS8Weights::PackConv(m, k, /*kernel=*/1, a.data());
    const int64_t kr = GemmS8KGroup();
    EXPECT_EQ(packed.rows(), m);
    EXPECT_EQ(packed.depth(), (k + kr - 1) / kr * kr);
    EXPECT_GE(packed.nbytes(), m * k);
    const std::vector<int8_t> b_deep = ZeroRowsTo(b, n, packed.depth());
    std::vector<float> c1(static_cast<size_t>(m) * n, 0.0f), c2 = c1;
    GemmS8PackedA(packed, n, b_deep.data(), c1.data(), ep,
                  /*parallel=*/true);
    GemmS8(false, false, m, n, k, a.data(), b.data(), c2.data(), ep, true);
    ASSERT_EQ(0, std::memcmp(c1.data(), c2.data(),
                             c1.size() * sizeof(float)));
  }
}

TEST(GemmS8Test, KZeroAppliesEpilogueOnly) {
  const int m = 3, n = 2;
  std::vector<float> bias = {1.5f, -2.0f, 0.25f};
  std::vector<float> c(m * n, -9.0f);
  GemmS8Epilogue ep;
  ep.row_bias = bias.data();
  ep.relu = true;
  GemmS8(false, false, m, n, 0, nullptr, nullptr, c.data(), ep, false);
  EXPECT_FLOAT_EQ(c[0], 1.5f);
  EXPECT_FLOAT_EQ(c[1], 1.5f);
  EXPECT_FLOAT_EQ(c[2], 0.0f);  // relu clamps the negative bias
  EXPECT_FLOAT_EQ(c[3], 0.0f);
  EXPECT_FLOAT_EQ(c[4], 0.25f);
  EXPECT_FLOAT_EQ(c[5], 0.25f);
}

// Independent check of the epilogue arithmetic (not via GemmS8Ref, which
// shares the implementation): one tiny product computed by hand.
TEST(GemmS8Test, EpilogueMatchesManualArithmetic) {
  // C = [2x2] from A = [2x1], B = [1x2].
  const std::vector<int8_t> a = {10, -20};
  const std::vector<int8_t> b = {3, -5};
  std::vector<float> row_scale = {0.5f, 2.0f};
  std::vector<float> col_bias = {1.0f, -1.0f};
  GemmS8Epilogue ep;
  ep.scale = 0.1f;
  ep.row_scale = row_scale.data();
  ep.col_bias = col_bias.data();
  std::vector<float> c(4, 0.0f);
  GemmS8(false, false, 2, 2, 1, a.data(), b.data(), c.data(), ep, false);
  EXPECT_FLOAT_EQ(c[0], 30.0f * 0.1f * 0.5f + 1.0f);
  EXPECT_FLOAT_EQ(c[1], -50.0f * 0.1f * 0.5f - 1.0f);
  EXPECT_FLOAT_EQ(c[2], -60.0f * 0.1f * 2.0f + 1.0f);
  EXPECT_FLOAT_EQ(c[3], 100.0f * 0.1f * 2.0f - 1.0f);
}

TEST(GemmS8Test, KernelNameIsKnown) {
  const std::string name = GemmS8KernelName();
  EXPECT_TRUE(name == "avx512vnni" || name == "avx2" || name == "scalar")
      << name;
}

TEST(QuantizeBufferS8Test, RoundsHalfAwayFromZeroAndClamps) {
  const std::vector<float> src = {0.0f,  1.4f,  1.5f,  -1.5f,
                                  -1.4f, 300.0f, -300.0f};
  std::vector<int8_t> dst(src.size());
  QuantizeBufferS8(src.data(), static_cast<int64_t>(src.size()), 1.0f,
                   dst.data());
  EXPECT_EQ(dst[0], 0);
  EXPECT_EQ(dst[1], 1);
  EXPECT_EQ(dst[2], 2);
  EXPECT_EQ(dst[3], -2);
  EXPECT_EQ(dst[4], -1);
  EXPECT_EQ(dst[5], 127);
  EXPECT_EQ(dst[6], -127);
}

TEST(QuantizeBufferS8Test, MaxAbsFindsExtremes) {
  const std::vector<float> src = {0.5f, -3.25f, 2.0f};
  EXPECT_FLOAT_EQ(MaxAbs(src.data(), 3), 3.25f);
  EXPECT_FLOAT_EQ(MaxAbs(src.data(), 0), 0.0f);
  // The symmetric scale maps the extreme to 127; all zeros get scale 1.
  EXPECT_FLOAT_EQ(SymmetricScaleS8(src.data(), 3), 3.25f / 127.0f);
  const std::vector<float> zeros(4, 0.0f);
  EXPECT_EQ(SymmetricScaleS8(zeros.data(), 4), 1.0f);
}

// Pins the vectorized MaxAbs to the scalar definition bit for bit: every
// length through the 32-wide main loop, 8-wide loop, and scalar tail, on
// data salted with -0.0, denormals, infinities, and NaN (which the scan
// skips — `v > max` is false for NaN, and MAXPS keeps the running max on
// unordered compares).
TEST(QuantizeBufferS8Test, MaxAbsMatchesScalarReferenceBitwise) {
  const auto scalar_ref = [](const float* src, int64_t n) {
    float max_abs = 0.0f;
    for (int64_t i = 0; i < n; ++i) {
      const float v = src[i] < 0.0f ? -src[i] : src[i];
      if (v > max_abs) max_abs = v;
    }
    return max_abs;
  };
  Rng rng(4242);
  const float specials[] = {-0.0f,
                            0.0f,
                            1e-42f,  // denormal
                            -1e-42f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  for (int64_t n = 0; n <= 67; ++n) {
    std::vector<float> src(static_cast<size_t>(n));
    FillUniform(&src, rng, -1000.0f, 1000.0f);
    // Sprinkle specials at positions covering vector lanes and the tail.
    for (int64_t i = 0; i < n; i += 5)
      src[i] = specials[(n + i / 5) % 7];
    const float got = MaxAbs(src.data(), n);
    const float want = scalar_ref(src.data(), n);
    ASSERT_EQ(0, std::memcmp(&got, &want, sizeof(float))) << "n=" << n;
  }
  // Large buffer: many full 32-wide iterations plus both tail loops.
  std::vector<float> big(100003);
  FillUniform(&big, rng, -3.0f, 3.0f);
  big[99990] = -12345.5f;  // extreme in the scalar tail
  const float got = MaxAbs(big.data(), static_cast<int64_t>(big.size()));
  const float want = scalar_ref(big.data(), static_cast<int64_t>(big.size()));
  ASSERT_EQ(0, std::memcmp(&got, &want, sizeof(float)));
}

// The op(B) panels are the only resident form of an int8 Linear weight;
// Unpack must reconstruct the exact row-major source (serialization
// depends on it), including across the kNC = 1024 column-tile boundary.
TEST(GemmS8Test, PackedBWeightsUnpackRoundTrips) {
  const int64_t cases[][2] = {{7, 33}, {64, 40}, {33, 16}, {96, 1100}};
  for (const auto& kn : cases) {
    const int64_t k = kn[0], n = kn[1];
    Rng rng(k * 1009 + n);
    std::vector<int8_t> w(static_cast<size_t>(n * k));  // n x k row-major
    FillInt8(&w, rng);
    const PackedS8BWeights packed =
        PackedS8BWeights::Pack(/*trans_b=*/true, k, n, w.data());
    std::vector<int8_t> out(w.size());
    packed.Unpack(out.data());
    ASSERT_EQ(0, std::memcmp(w.data(), out.data(), w.size()))
        << "k=" << k << " n=" << n;
  }
}

}  // namespace
}  // namespace poe
