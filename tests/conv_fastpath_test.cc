// Covers the conv pipeline's fast paths: the 1x1/stride-1 no-im2col route,
// the fused bias+ReLU epilogue, and the zero-scratch-allocation steady
// state backed by the per-thread arena.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/sequential.h"
#include "support/im2col.h"
#include "tensor/arena.h"
#include "tensor/gemm.h"
#include "util/rng.h"

// Global allocation counters for the zero-alloc steady-state checks. This
// test binary overrides operator new/delete; each tests/*_test.cc links
// into its own executable, so the override is local to this test.
namespace {
std::atomic<int64_t> g_alloc_count{0};
std::atomic<int64_t> g_alloc_bytes{0};
std::atomic<bool> g_tracking{false};

// Force single-threaded execution before the worker pool (and any
// thread-local arena) exists: the steady-state allocation counts are only
// deterministic when warmup and measurement run on the same thread.
// ParallelFor reads POE_NUM_THREADS lazily on first use, after this.
const bool g_single_thread = [] {
  setenv("POE_NUM_THREADS", "1", /*overwrite=*/1);
  return true;
}();
}  // namespace

void* operator new(std::size_t size) {
  if (g_tracking.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(static_cast<int64_t>(size),
                            std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace poe {
namespace {

// Reference conv forward via explicit im2col + the naive GEMM oracle.
Tensor ReferenceConvForward(Conv2d& conv, const Tensor& input) {
  const int64_t batch = input.dim(0);
  const int64_t h = input.dim(2);
  const int64_t w = input.dim(3);
  const int64_t out_h = ConvOutSize(h, conv.kernel(), conv.pad(),
                                    conv.stride());
  const int64_t out_w = ConvOutSize(w, conv.kernel(), conv.pad(),
                                    conv.stride());
  const int64_t ckk = conv.in_channels() * conv.kernel() * conv.kernel();
  const int64_t ohw = out_h * out_w;
  Tensor out({batch, conv.out_channels(), out_h, out_w});
  std::vector<float> cols(ckk * ohw);
  for (int64_t b = 0; b < batch; ++b) {
    Im2Col(input.data() + b * conv.in_channels() * h * w,
           conv.in_channels(), h, w, conv.kernel(), conv.kernel(),
           conv.pad(), conv.stride(), cols.data());
    GemmRef(false, false, conv.out_channels(), ohw, ckk, 1.0f,
            conv.weight().value.data(), cols.data(), 0.0f,
            out.data() + b * conv.out_channels() * ohw);
  }
  if (conv.has_bias()) {
    const float* bp = conv.bias().value.data();
    for (int64_t b = 0; b < batch; ++b)
      for (int64_t oc = 0; oc < conv.out_channels(); ++oc) {
        float* row = out.data() + (b * conv.out_channels() + oc) * ohw;
        for (int64_t i = 0; i < ohw; ++i) row[i] += bp[oc];
      }
  }
  return out;
}

TEST(ConvFastPathTest, PointwiseMatchesReference) {
  Rng rng(21);
  Conv2d conv(13, 7, /*kernel=*/1, /*stride=*/1, /*pad=*/0, rng,
              /*bias=*/true);
  Tensor x = Tensor::Randn({3, 13, 9, 11}, rng);
  Tensor got = conv.Forward(x, /*training=*/false);
  Tensor want = ReferenceConvForward(conv, x);
  ASSERT_EQ(got.numel(), want.numel());
  for (int64_t i = 0; i < got.numel(); ++i)
    ASSERT_NEAR(got.at(i), want.at(i), 1e-3f) << "at " << i;
}

TEST(ConvFastPathTest, PointwiseStride2TakesGeneralPathCorrectly) {
  Rng rng(22);
  // 1x1 at stride 2 reads a phase-split image copy; verify it still matches.
  Conv2d conv(6, 10, /*kernel=*/1, /*stride=*/2, /*pad=*/0, rng);
  Tensor x = Tensor::Randn({2, 6, 8, 8}, rng);
  Tensor got = conv.Forward(x, /*training=*/false);
  Tensor want = ReferenceConvForward(conv, x);
  for (int64_t i = 0; i < got.numel(); ++i)
    ASSERT_NEAR(got.at(i), want.at(i), 1e-3f) << "at " << i;
}

TEST(ConvFastPathTest, GeneralConvMatchesReference) {
  Rng rng(23);
  Conv2d conv(5, 9, /*kernel=*/3, /*stride=*/2, /*pad=*/1, rng,
              /*bias=*/true);
  Tensor x = Tensor::Randn({2, 5, 7, 7}, rng);
  Tensor got = conv.Forward(x, /*training=*/false);
  Tensor want = ReferenceConvForward(conv, x);
  for (int64_t i = 0; i < got.numel(); ++i)
    ASSERT_NEAR(got.at(i), want.at(i), 1e-3f) << "at " << i;
}

TEST(ConvFastPathTest, FusedReluMatchesSeparateRelu) {
  Rng rng(24);
  Conv2d conv(8, 8, /*kernel=*/3, /*stride=*/1, /*pad=*/1, rng,
              /*bias=*/true);
  Tensor x = Tensor::Randn({2, 8, 6, 6}, rng);

  Tensor fused = conv.ForwardFusedRelu(x);
  Tensor plain = conv.Forward(x, /*training=*/false);
  ReLU relu;
  Tensor want = relu.Forward(plain, /*training=*/false);
  for (int64_t i = 0; i < fused.numel(); ++i)
    ASSERT_FLOAT_EQ(fused.at(i), want.at(i)) << "at " << i;
}

TEST(ConvFastPathTest, SequentialFusesTrailingRelu) {
  Rng rng(25);
  Sequential fused_seq, plain_seq;
  {
    Rng r1(99), r2(99);
    fused_seq.Add(std::make_unique<Conv2d>(4, 6, 3, 1, 1, r1, true));
    fused_seq.Add(std::make_unique<ReLU>());
    plain_seq.Add(std::make_unique<Conv2d>(4, 6, 3, 1, 1, r2, true));
    plain_seq.Add(std::make_unique<ReLU>());
  }
  Tensor x = Tensor::Randn({2, 4, 5, 5}, rng);
  // The fused path (inference) and the module-by-module path (training
  // flag off only disables caching for ReLU) must agree exactly.
  Tensor got = fused_seq.Forward(x, /*training=*/false);
  Tensor p = plain_seq.at(0)->Forward(x, /*training=*/false);
  Tensor want = plain_seq.at(1)->Forward(p, /*training=*/false);
  for (int64_t i = 0; i < got.numel(); ++i)
    ASSERT_FLOAT_EQ(got.at(i), want.at(i)) << "at " << i;
}

TEST(ConvFastPathTest, LinearFusedReluMatches) {
  Rng rng(26);
  Linear lin(12, 7, rng);
  Tensor x = Tensor::Randn({5, 12}, rng);
  Tensor fused = lin.ForwardFusedRelu(x);
  ReLU relu;
  Tensor want = relu.Forward(lin.Forward(x, false), false);
  for (int64_t i = 0; i < fused.numel(); ++i)
    ASSERT_FLOAT_EQ(fused.at(i), want.at(i)) << "at " << i;
}

// After warmup, Conv2d::Forward must not allocate scratch: the only heap
// traffic allowed is the output tensor itself (storage + shared_ptr
// control block + shape bookkeeping) plus the ParallelFor closure — all
// O(1) and independent of the im2col size.
TEST(ConvFastPathTest, SteadyStateForwardMakesNoScratchAllocations) {
  Rng rng(27);
  Conv2d conv(32, 32, /*kernel=*/3, /*stride=*/1, /*pad=*/1, rng);
  Tensor x = Tensor::Randn({4, 32, 16, 16}, rng);
  const int64_t scratch_floats = 32 * 9 * 16 * 16;  // ckk * ohw per image

  // Warmup sizes the thread-local arena.
  for (int i = 0; i < 3; ++i) conv.Forward(x, false);

  const int64_t output_bytes = 4 * 32 * 16 * 16 * sizeof(float);
  int64_t counts[2], bytes[2];
  for (int round = 0; round < 2; ++round) {
    g_alloc_count = 0;
    g_alloc_bytes = 0;
    g_tracking = true;
    Tensor y = conv.Forward(x, false);
    g_tracking = false;
    counts[round] = g_alloc_count.load();
    bytes[round] = g_alloc_bytes.load();
    ASSERT_GT(y.numel(), 0);
  }

  // Steady state: identical allocation behavior every call...
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(bytes[0], bytes[1]);
  // ... a handful of bookkeeping allocations, not per-image scratch ...
  EXPECT_LE(counts[0], 12) << "unexpected per-call allocations";
  // ... and the bytes are the output tensor plus small constants — far
  // below what an im2col scratch buffer would add.
  EXPECT_LT(bytes[0], output_bytes + 4096);
  EXPECT_LT(bytes[0],
            output_bytes + scratch_floats * static_cast<int64_t>(
                               sizeof(float)));
}

// Same property for a 1x1/stride-1/pad-0 conv, whose direct view reads
// the input in place.
TEST(ConvFastPathTest, PointwiseSteadyStateMakesNoScratchAllocations) {
  Rng rng(28);
  Conv2d conv(64, 64, /*kernel=*/1, /*stride=*/1, /*pad=*/0, rng);
  Tensor x = Tensor::Randn({2, 64, 8, 8}, rng);
  for (int i = 0; i < 3; ++i) conv.Forward(x, false);

  g_alloc_count = 0;
  g_alloc_bytes = 0;
  g_tracking = true;
  Tensor y = conv.Forward(x, false);
  g_tracking = false;

  const int64_t output_bytes = 2 * 64 * 8 * 8 * sizeof(float);
  EXPECT_LE(g_alloc_count.load(), 12);
  EXPECT_LT(g_alloc_bytes.load(), output_bytes + 4096);
  ASSERT_GT(y.numel(), 0);
}

}  // namespace
}  // namespace poe
