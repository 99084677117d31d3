#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "tensor/pack.h"
#include "util/rng.h"

namespace poe {
namespace {

// Fills a vector with deterministic uniform values.
void FillUniform(std::vector<float>* v, Rng& rng, float lo = -1.0f,
                 float hi = 1.0f) {
  for (auto& x : *v) x = rng.Uniform(lo, hi);
}

// Tolerance scaled to the accumulation depth: the optimized kernel sums in
// fp32 while GemmRef uses a double accumulator.
float Tol(int64_t k) { return 1e-5f * static_cast<float>(k) + 1e-4f; }

// (trans_a, trans_b, m, n, k)
using GemmCase = std::tuple<bool, bool, int, int, int>;

class GemmParamTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParamTest, MatchesReference) {
  const auto [ta, tb, m, n, k] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 10007 + n * 101 + k + ta * 2 + tb));
  std::vector<float> a(static_cast<size_t>(m) * k);
  std::vector<float> b(static_cast<size_t>(k) * n);
  FillUniform(&a, rng);
  FillUniform(&b, rng);

  const float alphas[] = {1.0f, 0.7f, -0.3f, 0.0f};
  const float betas[] = {0.0f, 1.0f, 0.3f, -2.0f};
  for (float alpha : alphas) {
    for (float beta : betas) {
      std::vector<float> c(static_cast<size_t>(m) * n);
      FillUniform(&c, rng);
      std::vector<float> c_ref = c;
      Gemm(ta, tb, m, n, k, alpha, a.data(), b.data(), beta, c.data());
      GemmRef(ta, tb, m, n, k, alpha, a.data(), b.data(), beta,
              c_ref.data());
      for (size_t i = 0; i < c.size(); ++i) {
        ASSERT_NEAR(c[i], c_ref[i], Tol(k))
            << "at " << i << " alpha=" << alpha << " beta=" << beta;
      }
    }
  }
}

// Odd/prime sizes hit every panel-edge case of the packed kernels; the
// larger sizes cross the MC/KC/NC cache-blocking boundaries.
std::vector<GemmCase> AllTransposeCases() {
  const int sizes[] = {1, 3, 17, 63, 129};
  std::vector<GemmCase> cases;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (int m : sizes)
        for (int n : sizes)
          for (int k : sizes) {
            // Cap the raw work product to keep the grid fast; this drops
            // the largest combinations (e.g. {63,129,129}), whose
            // panel-edge interplay is instead covered by the explicit
            // blocking-boundary cases below.
            if (m * n * k > 17 * 129 * 129) continue;
            cases.push_back({ta, tb, m, n, k});
          }
      // Blocking-boundary cases: cross kMC=240, kKC=320, kNC=1024.
      cases.push_back({ta, tb, 241, 65, 321});
      cases.push_back({ta, tb, 256, 256, 72});
      cases.push_back({ta, tb, 37, 1025, 11});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllTransposeCombos, GemmParamTest,
                         ::testing::ValuesIn(AllTransposeCases()));

TEST(GemmTest, BetaZeroOverwritesGarbage) {
  std::vector<float> a = {1, 2};
  std::vector<float> b = {3, 4};
  std::vector<float> c = {std::nanf(""), std::nanf("")};
  // 2x1 times 1x1 -> 2x1
  Gemm(false, false, 2, 1, 1, 1.0f, a.data(), b.data(), 0.0f, c.data());
  EXPECT_FLOAT_EQ(c[0], 3.0f);
  EXPECT_FLOAT_EQ(c[1], 6.0f);
  (void)b;
}

TEST(GemmTest, KZeroScalesOnly) {
  std::vector<float> c = {2.0f, 4.0f};
  Gemm(false, false, 2, 1, 0, 1.0f, nullptr, nullptr, 0.5f, c.data());
  EXPECT_FLOAT_EQ(c[0], 1.0f);
  EXPECT_FLOAT_EQ(c[1], 2.0f);
}

// Every C micro-tile is written by one task with the k-blocks in
// ascending order, so the threaded and sequential schedules must be
// bitwise identical, not merely close, through every entry point that
// takes `parallel`. 513x1100x700 spans 3 row tiles, 2 column tiles and 3
// k-blocks; CMake reruns this binary at POE_NUM_THREADS=4.
TEST(GemmTest, ThreadedMatchesSequentialBitwise) {
  Rng rng(77);
  for (const auto& [m, n, k] :
       {std::tuple<int, int, int>{64, 48, 32},
        std::tuple<int, int, int>{300, 130, 400},
        std::tuple<int, int, int>{513, 1100, 700}}) {
    std::vector<float> a(static_cast<size_t>(m) * k);
    std::vector<float> b(static_cast<size_t>(k) * n);
    FillUniform(&a, rng);
    FillUniform(&b, rng);
    const PackedAWeights pa = PackedAWeights::Pack(false, m, k, a.data());
    const PackedBWeights pb = PackedBWeights::Pack(false, k, n, b.data());
    const size_t mn = static_cast<size_t>(m) * n;
    // GemmEx, GemmPackedA and GemmPackedB, one after another.
    const auto products = [&](bool parallel) {
      std::vector<float> c(3 * mn, 0.0f);
      GemmEx(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f,
             c.data(), GemmEpilogue{}, parallel);
      GemmPackedA(pa, n, b.data(), 1.0f, 0.0f, c.data() + mn,
                  GemmEpilogue{}, parallel);
      GemmPackedB(m, a.data(), false, pb, 1.0f, 0.0f, c.data() + 2 * mn,
                  GemmEpilogue{}, parallel);
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

TEST(GemmTest, IdentityMultiplication) {
  const int n = 8;
  std::vector<float> eye(n * n, 0.0f);
  for (int i = 0; i < n; ++i) eye[i * n + i] = 1.0f;
  Rng rng(3);
  std::vector<float> x(n * n);
  FillUniform(&x, rng);
  std::vector<float> y(n * n, 0.0f);
  Gemm(false, false, n, n, n, 1.0f, eye.data(), x.data(), 0.0f, y.data());
  for (int i = 0; i < n * n; ++i) ASSERT_NEAR(y[i], x[i], 1e-6f);
}

TEST(GemmEpilogueTest, RowBiasMatchesManual) {
  Rng rng(11);
  const int m = 29, n = 83, k = 47;
  std::vector<float> a(m * k), b(k * n), bias(m);
  FillUniform(&a, rng);
  FillUniform(&b, rng);
  FillUniform(&bias, rng);
  std::vector<float> c(m * n, 0.0f), c_ref(m * n, 0.0f);

  GemmEpilogue ep;
  ep.row_bias = bias.data();
  GemmEx(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data(),
         ep, /*parallel=*/false);

  GemmRef(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f,
          c_ref.data());
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) c_ref[i * n + j] += bias[i];
  for (int i = 0; i < m * n; ++i) ASSERT_NEAR(c[i], c_ref[i], Tol(k));
}

TEST(GemmEpilogueTest, ColBiasReluMatchesManual) {
  Rng rng(13);
  const int m = 65, n = 31, k = 129;
  std::vector<float> a(m * k), b(n * k), bias(n);
  FillUniform(&a, rng);
  FillUniform(&b, rng);
  FillUniform(&bias, rng);
  std::vector<float> c(m * n, 0.0f), c_ref(m * n, 0.0f);

  GemmEpilogue ep;
  ep.col_bias = bias.data();
  ep.relu = true;
  GemmEx(false, true, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data(), ep,
         /*parallel=*/true);

  GemmRef(false, true, m, n, k, 1.0f, a.data(), b.data(), 0.0f,
          c_ref.data());
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j)
      c_ref[i * n + j] = std::max(0.0f, c_ref[i * n + j] + bias[j]);
  for (int i = 0; i < m * n; ++i) ASSERT_NEAR(c[i], c_ref[i], Tol(k));
}

// The epilogue must fire exactly once (on the last k-block), even when k
// spans multiple KC blocks.
TEST(GemmEpilogueTest, MultiKBlockAppliesEpilogueOnce) {
  Rng rng(17);
  const int m = 13, n = 21, k = 700;  // k > 2 * kKC(320)
  std::vector<float> a(m * k), b(k * n), bias(m);
  FillUniform(&a, rng);
  FillUniform(&b, rng);
  FillUniform(&bias, rng, 5.0f, 6.0f);  // large bias exposes double-adds
  std::vector<float> c(m * n, 0.0f), c_ref(m * n, 0.0f);

  GemmEpilogue ep;
  ep.row_bias = bias.data();
  ep.relu = true;
  GemmEx(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data(),
         ep, /*parallel=*/false);

  GemmRef(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f,
          c_ref.data());
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j)
      c_ref[i * n + j] = std::max(0.0f, c_ref[i * n + j] + bias[i]);
  for (int i = 0; i < m * n; ++i) ASSERT_NEAR(c[i], c_ref[i], Tol(k));
}

// The column-scatter PackB(trans_b) the row-at-a-time packer replaced,
// kept as the bitwise reference.
void RefPackBTransposed(const float* b, int64_t k, int64_t p0, int64_t kc,
                        int64_t j0, int64_t nc, int64_t nr, float* out) {
  for (int64_t jp = 0; jp < nc; jp += nr) {
    const int64_t cols = (nc - jp < nr) ? nc - jp : nr;
    float* panel = out + (jp / nr) * kc * nr;
    for (int64_t c = 0; c < cols; ++c) {
      const float* src = b + (j0 + jp + c) * k + p0;
      for (int64_t p = 0; p < kc; ++p) panel[p * nr + c] = src[p];
    }
    if (cols < nr) {
      for (int64_t p = 0; p < kc; ++p)
        for (int64_t c = cols; c < nr; ++c) panel[p * nr + c] = 0.0f;
    }
  }
}

TEST(PackTest, TransposedPackBMatchesColumnScatterBytes) {
  // B is stored n x k (op(B) = its transpose); blocks start off the
  // origin and leave ragged last panels and odd k-depths.
  const int64_t n = 53, k = 37;
  Rng rng(29);
  std::vector<float> b(static_cast<size_t>(n * k));
  FillUniform(&b, rng);
  for (int64_t nr : {8, 16}) {
    for (int64_t nc : {1, 7, 16, 17, 45}) {
      for (int64_t kc : {1, 5, 16, 31}) {
        const int64_t j0 = n - nc - 1, p0 = k - kc - 2;
        const size_t len =
            static_cast<size_t>((nc + nr - 1) / nr * kc * nr);
        std::vector<float> got(len, -9.0f), want(len, 9.0f);
        PackB(/*trans_b=*/true, b.data(), k, n, p0, kc, j0, nc, nr,
              got.data());
        RefPackBTransposed(b.data(), k, p0, kc, j0, nc, nr, want.data());
        EXPECT_EQ(std::memcmp(got.data(), want.data(), len * sizeof(float)),
                  0)
            << "nr=" << nr << " nc=" << nc << " kc=" << kc;
      }
    }
  }
}

TEST(GemmTest, KernelNameIsKnown) {
  const std::string name = GemmKernelName();
  EXPECT_TRUE(name == "avx512" || name == "avx2" || name == "scalar")
      << name;
}

}  // namespace
}  // namespace poe
