#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nn/activations.h"
#include "nn/basic_block.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace poe {
namespace {

TEST(ReluTest, ForwardClampsNegatives) {
  ReLU relu;
  Tensor x = Tensor::FromVector({1, 4}, {-1, 0, 2, -3});
  Tensor y = relu.Forward(x, false);
  EXPECT_EQ(y.at(0), 0.0f);
  EXPECT_EQ(y.at(1), 0.0f);
  EXPECT_EQ(y.at(2), 2.0f);
  EXPECT_EQ(y.at(3), 0.0f);
}

TEST(ReluTest, BackwardMasksByInputSign) {
  ReLU relu;
  Tensor x = Tensor::FromVector({1, 3}, {-1, 1, 2});
  relu.Forward(x, true);
  Tensor g = relu.Backward(Tensor::Ones({1, 3}));
  EXPECT_EQ(g.at(0), 0.0f);
  EXPECT_EQ(g.at(1), 1.0f);
  EXPECT_EQ(g.at(2), 1.0f);
}

TEST(GlobalAvgPoolTest, AveragesSpatially) {
  GlobalAvgPool pool;
  Tensor x = Tensor::FromVector({1, 2, 2, 2}, {1, 2, 3, 4, 10, 10, 10, 10});
  Tensor y = pool.Forward(x, false);
  EXPECT_EQ(y.dim(0), 1);
  EXPECT_EQ(y.dim(1), 2);
  EXPECT_FLOAT_EQ(y.at(0), 2.5f);
  EXPECT_FLOAT_EQ(y.at(1), 10.0f);
}

TEST(GlobalAvgPoolTest, BackwardSpreadsUniformly) {
  GlobalAvgPool pool;
  Tensor x = Tensor::Zeros({1, 1, 2, 2});
  pool.Forward(x, true);
  Tensor g = pool.Backward(Tensor::FromVector({1, 1}, {8}));
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(g.at(i), 2.0f);
}

TEST(FlattenTest, RoundTripsShape) {
  Flatten flatten;
  Tensor x = Tensor::Zeros({2, 3, 4, 5});
  Tensor y = flatten.Forward(x, true);
  EXPECT_EQ(y.ndim(), 2);
  EXPECT_EQ(y.dim(1), 60);
  Tensor g = flatten.Backward(Tensor::Zeros({2, 60}));
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(LinearTest, KnownValues) {
  Rng rng(1);
  Linear lin(2, 2, rng, /*bias=*/true);
  lin.weight().value = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  lin.bias().value = Tensor::FromVector({2}, {10, 20});
  Tensor x = Tensor::FromVector({1, 2}, {1, 1});
  Tensor y = lin.Forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0), 13.0f);  // 1*1 + 2*1 + 10
  EXPECT_FLOAT_EQ(y.at(1), 27.0f);  // 3*1 + 4*1 + 20
}

TEST(LinearTest, ParameterCount) {
  Rng rng(1);
  Linear lin(8, 4, rng, true);
  EXPECT_EQ(lin.NumParams(), 8 * 4 + 4);
  Linear nobias(8, 4, rng, false);
  EXPECT_EQ(nobias.NumParams(), 8 * 4);
}

TEST(Conv2dTest, IdentityKernelPreservesImage) {
  Rng rng(1);
  Conv2d conv(1, 1, 3, 1, 1, rng);
  conv.weight().value.Fill(0.0f);
  conv.weight().value.at(4) = 1.0f;  // center tap
  Tensor x = Tensor::Randn({2, 1, 5, 5}, rng);
  Tensor y = conv.Forward(x, false);
  EXPECT_EQ(y.shape(), x.shape());
  EXPECT_LT(MaxAbsDiff(x, y), 1e-6f);
}

TEST(Conv2dTest, StrideHalvesResolution) {
  Rng rng(1);
  Conv2d conv(3, 8, 3, 2, 1, rng);
  Tensor x = Tensor::Randn({4, 3, 8, 8}, rng);
  Tensor y = conv.Forward(x, false);
  EXPECT_EQ(y.dim(0), 4);
  EXPECT_EQ(y.dim(1), 8);
  EXPECT_EQ(y.dim(2), 4);
  EXPECT_EQ(y.dim(3), 4);
}

TEST(Conv2dTest, SumKernelComputesLocalSums) {
  Rng rng(1);
  Conv2d conv(1, 1, 3, 1, 1, rng);
  conv.weight().value.Fill(1.0f);
  Tensor x = Tensor::Ones({1, 1, 3, 3});
  Tensor y = conv.Forward(x, false);
  // Center pixel sees all 9 ones; corners see 4.
  EXPECT_FLOAT_EQ(y.at(4), 9.0f);
  EXPECT_FLOAT_EQ(y.at(0), 4.0f);
}

TEST(Conv2dTest, BiasIsAdded) {
  Rng rng(1);
  Conv2d conv(1, 2, 1, 1, 0, rng, /*bias=*/true);
  conv.weight().value.Fill(0.0f);
  conv.bias().value = Tensor::FromVector({2}, {1.5f, -2.0f});
  Tensor x = Tensor::Zeros({1, 1, 2, 2});
  Tensor y = conv.Forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0), 1.5f);
  EXPECT_FLOAT_EQ(y.at(4), -2.0f);
}

TEST(BatchNormTest, TrainingNormalizesBatch) {
  BatchNorm2d bn(2);
  Rng rng(3);
  Tensor x = Tensor::Randn({8, 2, 4, 4}, rng, 3.0f);
  Tensor y = bn.Forward(x, true);
  // Per channel, output should have ~zero mean and ~unit variance.
  for (int c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    int n = 0;
    for (int b = 0; b < 8; ++b) {
      for (int i = 0; i < 16; ++i) {
        float v = y.at((b * 2 + c) * 16 + i);
        sum += v;
        sq += v * v;
        ++n;
      }
    }
    EXPECT_NEAR(sum / n, 0.0, 1e-4);
    EXPECT_NEAR(sq / n, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, EvalUsesRunningStats) {
  BatchNorm2d bn(1);
  Rng rng(4);
  // Feed several training batches so running stats adapt.
  for (int i = 0; i < 200; ++i) {
    Tensor x = Tensor::Randn({16, 1, 2, 2}, rng, 2.0f);
    ScaleInPlace(x, 1.0f);
    bn.Forward(x, true);
  }
  // Eval on data from the same distribution: output ~ standardized.
  Tensor x = Tensor::Randn({256, 1, 2, 2}, rng, 2.0f);
  Tensor y = bn.Forward(x, false);
  EXPECT_NEAR(Mean(y), 0.0f, 0.1f);
}

TEST(BatchNormTest, AffineParamsScaleAndShift) {
  BatchNorm2d bn(1);
  bn.gamma().value.Fill(2.0f);
  bn.beta().value.Fill(5.0f);
  Rng rng(5);
  Tensor x = Tensor::Randn({16, 1, 4, 4}, rng);
  Tensor y = bn.Forward(x, true);
  EXPECT_NEAR(Mean(y), 5.0f, 1e-3f);
}

TEST(SequentialTest, ChainsLayers) {
  Rng rng(1);
  Sequential seq;
  seq.Add(std::make_unique<Linear>(4, 8, rng));
  seq.Add(std::make_unique<ReLU>());
  seq.Add(std::make_unique<Linear>(8, 3, rng));
  EXPECT_EQ(seq.size(), 3u);
  Tensor x = Tensor::Randn({2, 4}, rng);
  Tensor y = seq.Forward(x, false);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 3);
}

TEST(SequentialTest, CollectsAllParameters) {
  Rng rng(1);
  Sequential seq;
  seq.Add(std::make_unique<Linear>(4, 8, rng));
  seq.Add(std::make_unique<Linear>(8, 3, rng));
  EXPECT_EQ(seq.Parameters().size(), 4u);  // two weights + two biases
  EXPECT_EQ(seq.NumParams(), 4 * 8 + 8 + 8 * 3 + 3);
}

TEST(ModuleTest, ZeroGradClearsGradients) {
  Rng rng(1);
  Linear lin(3, 2, rng);
  lin.weight().grad.Fill(5.0f);
  lin.ZeroGrad();
  EXPECT_EQ(Sum(lin.weight().grad), 0.0f);
}

TEST(ModuleTest, SetTrainableMarksAllParams) {
  Rng rng(1);
  Sequential seq;
  seq.Add(std::make_unique<Linear>(3, 2, rng));
  seq.SetTrainable(false);
  for (Parameter* p : seq.Parameters()) EXPECT_FALSE(p->trainable);
}

TEST(BatchNormTest, CollectBuffersExposesRunningStats) {
  BatchNorm2d bn(4);
  std::vector<Tensor*> buffers;
  bn.CollectBuffers(&buffers);
  ASSERT_EQ(buffers.size(), 2u);
  EXPECT_EQ(buffers[0]->numel(), 4);
}

// Seeded BN affine parameters and running statistics, so neither
// normalize in a block is the identity.
void RandomizeBatchNorms(BasicBlock& block, Rng& rng) {
  std::vector<Module*> children;
  block.CollectChildren(&children);
  for (Module* m : children) {
    auto* bn = dynamic_cast<BatchNorm2d*>(m);
    if (bn == nullptr) continue;
    const int64_t c = bn->channels();
    bn->gamma().value = Tensor::Rand({c}, rng, 0.5f, 1.5f);
    bn->beta().value = Tensor::Randn({c}, rng, 0.5f);
    bn->running_mean() = Tensor::Randn({c}, rng, 0.5f);
    bn->running_var() = Tensor::Rand({c}, rng, 0.5f, 2.0f);
  }
}

// The allocate-per-op inference composition the block's in-place forward
// must reproduce bitwise.
Tensor OutOfPlaceBlock(BasicBlock& block, const Tensor& x) {
  std::vector<Module*> c;  // bn1, conv1, bn2, conv2[, projection]
  block.CollectChildren(&c);
  Tensor a = c[0]->ForwardFusedRelu(x);
  Tensor h = c[1]->Forward(a, false);
  h = c[2]->ForwardFusedRelu(h);
  h = c[3]->Forward(h, false);
  Tensor shortcut = c.size() > 4 ? c[4]->Forward(a, false) : x;
  return Add(h, shortcut);
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

TEST(BasicBlockTest, InPlaceInferenceMatchesOutOfPlaceBitwise) {
  struct Geometry {
    int64_t in_c, out_c, stride;
  };
  // Identity, 1x1 projection, strided projection.
  for (const Geometry& g : {Geometry{4, 4, 1}, Geometry{4, 8, 1},
                            Geometry{4, 8, 2}}) {
    for (bool int8 : {false, true}) {
      Rng rng(40 + g.out_c + g.stride);
      BasicBlock block(g.in_c, g.out_c, g.stride, rng);
      ASSERT_EQ(block.has_projection(), g.in_c != g.out_c || g.stride != 1);
      RandomizeBatchNorms(block, rng);
      if (int8) block.PrepareInt8Serving();
      for (int64_t batch : {1, 5}) {
        SCOPED_TRACE(::testing::Message()
                     << g.in_c << "->" << g.out_c << " stride " << g.stride
                     << (int8 ? " int8" : " f32") << " batch " << batch);
        const Tensor x = Tensor::Randn({batch, g.in_c, 8, 8}, rng);
        const Tensor x_before = x.Clone();
        const Tensor expected = OutOfPlaceBlock(block, x);
        const Tensor got = block.Forward(x, /*training=*/false);
        EXPECT_TRUE(BitwiseEqual(got, expected));
        EXPECT_TRUE(BitwiseEqual(x, x_before));
      }
    }
  }
}

}  // namespace
}  // namespace poe
