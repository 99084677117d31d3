// Microbenchmarks of the tensor/NN substrate (google-benchmark).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "nn/basic_block.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "support/conv_reference.h"
#include "tensor/gemm.h"
#include "tensor/gemm_s8.h"
#include "tensor/ops.h"
#include "util/crc32c.h"
#include "util/rng.h"

namespace poe {
namespace {

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  Tensor c = Tensor::Zeros({n, n});
  for (auto _ : state) {
    Gemm(false, false, n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(GemmKernelName());
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

// Quantized GEMM with the serving-shaped epilogue (per-row dequant scales
// + bias + ReLU fused into the int32 -> f32 store). items_processed uses
// the same 2*n^3 op count as BM_Gemm, so the reported rate is effective
// FLOP-equivalent throughput — directly comparable against BM_Gemm rows.
void BM_GemmS8(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  std::vector<int8_t> a(n * n), b(n * n);
  for (auto& v : a)
    v = static_cast<int8_t>(static_cast<int64_t>(rng.NextInt(255)) - 127);
  for (auto& v : b)
    v = static_cast<int8_t>(static_cast<int64_t>(rng.NextInt(255)) - 127);
  std::vector<float> scales(n), bias(n), c(n * n);
  for (auto& v : scales) v = rng.Uniform(0.001f, 0.01f);
  for (auto& v : bias) v = rng.Uniform(-1.0f, 1.0f);
  GemmS8Epilogue ep;
  ep.scale = 0.02f;
  ep.row_scale = scales.data();
  ep.row_bias = bias.data();
  ep.relu = true;
  for (auto _ : state) {
    GemmS8(false, false, n, n, n, a.data(), b.data(), c.data(), ep,
           /*parallel=*/true);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(GemmS8KernelName());
}
BENCHMARK(BM_GemmS8)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

// Same product with the weights pre-packed once, as a 1x1 conv of n
// channels (packing cost amortized across every call). This is the GEMM
// of the im2col conv reference; serving convs run GemmS8ConvPackedA,
// which reads B in place from the padded image.
void BM_GemmS8Packed(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  std::vector<int8_t> a(n * n), b(n * n);
  for (auto& v : a)
    v = static_cast<int8_t>(static_cast<int64_t>(rng.NextInt(255)) - 127);
  for (auto& v : b)
    v = static_cast<int8_t>(static_cast<int64_t>(rng.NextInt(255)) - 127);
  std::vector<float> scales(n, 0.01f), c(n * n);
  PackedS8Weights packed =
      PackedS8Weights::PackConv(n, n, /*kernel=*/1, a.data());
  b.resize(static_cast<size_t>(packed.depth() * n), int8_t{0});
  GemmS8Epilogue ep;
  ep.scale = 0.02f;
  ep.row_scale = scales.data();
  for (auto _ : state) {
    GemmS8PackedA(packed, n, b.data(), c.data(), ep, /*parallel=*/true);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(GemmS8KernelName());
}
BENCHMARK(BM_GemmS8Packed)->Arg(256)->Arg(512)->Arg(1024);

void BM_Conv2dForward(benchmark::State& state) {
  const int64_t channels = state.range(0);
  const int64_t batch = 32, hw = 8, kernel = 3;
  Rng rng(2);
  Conv2d conv(channels, channels, kernel, 1, 1, rng);
  Tensor x = Tensor::Randn({batch, channels, hw, hw}, rng);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * batch * channels * channels *
                          kernel * kernel * hw * hw * 2);
}
BENCHMARK(BM_Conv2dForward)->Arg(8)->Arg(32)->Arg(64);

// WRN-shaped inference convolutions (CIFAR-style 32x32 inputs, batch 8):
// args are {in_channels, out_channels, spatial, stride, kernel}. The cases
// mirror the oracle WRN-40-(4,4) trunk: the stem, one 3x3 from each
// resolution group, a strided group transition, and the 1x1 projection
// (at stride 1 and pad 0 its direct view reads the input in place).
void BM_ConvWrn(benchmark::State& state) {
  const int64_t in_c = state.range(0);
  const int64_t out_c = state.range(1);
  const int64_t hw = state.range(2);
  const int64_t stride = state.range(3);
  const int64_t kernel = state.range(4);
  const int64_t pad = kernel / 2;
  const int64_t batch = 8;
  Rng rng(7);
  Conv2d conv(in_c, out_c, kernel, stride, pad, rng);
  Tensor x = Tensor::Randn({batch, in_c, hw, hw}, rng);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  const int64_t out_hw = (hw + 2 * pad - kernel) / stride + 1;
  state.SetItemsProcessed(state.iterations() * batch * out_c * out_hw *
                          out_hw * in_c * kernel * kernel * 2);
}
BENCHMARK(BM_ConvWrn)
    ->Args({3, 16, 32, 1, 3})     // stem
    ->Args({64, 64, 32, 1, 3})    // conv2 group body
    ->Args({64, 128, 32, 2, 3})   // conv3 transition (32x32 in -> 16x16)
    ->Args({128, 128, 16, 1, 3})  // conv3 group body
    ->Args({128, 256, 16, 2, 3})  // conv4 transition (16x16 in -> 8x8)
    ->Args({256, 256, 8, 1, 3})   // conv4 group body
    ->Args({256, 256, 8, 1, 1});  // 1x1 projection

// The same WRN-shaped convolutions served int8: per-channel-quantized
// pre-packed weights, dynamic activation quantization, fused dequant
// epilogue. Effective-FLOP rates compare row-for-row against BM_ConvWrn.
void BM_ConvWrnInt8(benchmark::State& state) {
  const int64_t in_c = state.range(0);
  const int64_t out_c = state.range(1);
  const int64_t hw = state.range(2);
  const int64_t stride = state.range(3);
  const int64_t kernel = state.range(4);
  const int64_t pad = kernel / 2;
  const int64_t batch = 8;
  Rng rng(7);
  Conv2d conv(in_c, out_c, kernel, stride, pad, rng);
  conv.PrepareInt8Serving();
  Tensor x = Tensor::Randn({batch, in_c, hw, hw}, rng);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  const int64_t out_hw = (hw + 2 * pad - kernel) / stride + 1;
  state.SetItemsProcessed(state.iterations() * batch * out_c * out_hw *
                          out_hw * in_c * kernel * kernel * 2);
  state.SetLabel(GemmS8KernelName());
}
BENCHMARK(BM_ConvWrnInt8)
    ->Args({3, 16, 32, 1, 3})     // stem
    ->Args({64, 64, 32, 1, 3})    // conv2 group body
    ->Args({64, 128, 32, 2, 3})   // conv3 transition (32x32 in -> 16x16)
    ->Args({128, 128, 16, 1, 3})  // conv3 group body
    ->Args({128, 256, 16, 2, 3})  // conv4 transition (16x16 in -> 8x8)
    ->Args({256, 256, 8, 1, 3})   // conv4 group body
    ->Args({256, 256, 8, 1, 1});  // 1x1 projection

// Int8 conv with a static calibrated activation scale, on the im2col
// reference lowering (support/conv_reference.h): weights exported and
// repacked once, then per image a quantize, an Im2Col in k-group order and
// GemmS8PackedA. The baseline BM_ConvWrnDirectInt8 is gated against.
void BM_ConvWrnInt8Calibrated(benchmark::State& state) {
  const int64_t in_c = state.range(0);
  const int64_t out_c = state.range(1);
  const int64_t hw = state.range(2);
  const int64_t stride = state.range(3);
  const int64_t kernel = state.range(4);
  const int64_t pad = kernel / 2;
  const int64_t batch = 8;
  Rng rng(7);
  Conv2d conv(in_c, out_c, kernel, stride, pad, rng);
  Tensor x = Tensor::Randn({batch, in_c, hw, hw}, rng);
  conv.BeginActivationCalibration();
  conv.Forward(x, false);
  conv.FinishActivationCalibration();
  conv.PrepareInt8Serving();
  const Im2ColConv reference(conv);
  for (auto _ : state) {
    Tensor y = reference.Forward(x, /*relu=*/false);
    benchmark::DoNotOptimize(y.data());
  }
  const int64_t out_hw = (hw + 2 * pad - kernel) / stride + 1;
  state.SetItemsProcessed(state.iterations() * batch * out_c * out_hw *
                          out_hw * in_c * kernel * kernel * 2);
  state.SetLabel(GemmS8KernelName());
}
BENCHMARK(BM_ConvWrnInt8Calibrated)
    ->Args({3, 16, 32, 1, 3})     // stem (activation-pass heavy)
    ->Args({64, 64, 32, 1, 3})    // conv2 group body
    ->Args({128, 128, 16, 1, 3})  // conv3 group body
    ->Args({256, 256, 8, 1, 3})   // conv4 group body
    ->Args({256, 256, 8, 1, 1})   // 1x1 projection
    ->Args({16, 16, 32, 1, 3})    // WRN-16-1 trunk: conv2 body
    ->Args({32, 32, 16, 1, 3})    // WRN-16-1 trunk: conv3 body
    ->Args({16, 32, 32, 2, 3})    // WRN-16-1 trunk: conv3 transition
    ->Args({32, 16, 16, 2, 3})    // expert head: first conv
    ->Args({16, 16, 8, 1, 3});    // expert head: 8x8 conv

// F32 conv with prepacked op(A) weight panels on the im2col reference
// lowering (support/conv_reference.h): weights packed once, then per image
// an Im2Col and GemmPackedA. Same rows as BM_ConvWrn, bitwise identical
// outputs; the baseline BM_ConvWrnDirect is gated against.
void BM_ConvWrnPrepacked(benchmark::State& state) {
  const int64_t in_c = state.range(0);
  const int64_t out_c = state.range(1);
  const int64_t hw = state.range(2);
  const int64_t stride = state.range(3);
  const int64_t kernel = state.range(4);
  const int64_t pad = kernel / 2;
  const int64_t batch = 8;
  Rng rng(7);
  Conv2d conv(in_c, out_c, kernel, stride, pad, rng);
  Tensor x = Tensor::Randn({batch, in_c, hw, hw}, rng);
  const Im2ColConv reference(conv, /*prepacked=*/true);
  for (auto _ : state) {
    Tensor y = reference.Forward(x, /*relu=*/false);
    benchmark::DoNotOptimize(y.data());
  }
  const int64_t out_hw = (hw + 2 * pad - kernel) / stride + 1;
  state.SetItemsProcessed(state.iterations() * batch * out_c * out_hw *
                          out_hw * in_c * kernel * kernel * 2);
  state.SetLabel(GemmKernelName());
}
BENCHMARK(BM_ConvWrnPrepacked)
    ->Args({3, 16, 32, 1, 3})     // stem
    ->Args({64, 64, 32, 1, 3})    // conv2 group body
    ->Args({128, 128, 16, 1, 3})  // conv3 group body
    ->Args({256, 256, 8, 1, 3})   // conv4 group body
    ->Args({256, 256, 8, 1, 1})   // 1x1 projection
    ->Args({16, 16, 32, 1, 3})    // WRN-16-1 trunk: conv2 body
    ->Args({32, 32, 16, 1, 3})    // WRN-16-1 trunk: conv3 body
    ->Args({16, 32, 32, 2, 3});   // WRN-16-1 trunk: conv3 transition

// Pack-free direct convolution: the micro-kernel reads B straight from
// the zero-padded image (column-phase split when strided), so neither an
// im2col matrix nor a B panel is written. Same prepacked weights and
// shapes as BM_ConvWrnPrepacked; outputs are bitwise identical
// (test-pinned), only the lowering differs.
void BM_ConvWrnDirect(benchmark::State& state) {
  const int64_t in_c = state.range(0);
  const int64_t out_c = state.range(1);
  const int64_t hw = state.range(2);
  const int64_t stride = state.range(3);
  const int64_t kernel = state.range(4);
  const int64_t pad = kernel / 2;
  const int64_t batch = 8;
  Rng rng(7);
  Conv2d conv(in_c, out_c, kernel, stride, pad, rng);
  conv.Prepack(ServingPrecision::kFloat32);
  Tensor x = Tensor::Randn({batch, in_c, hw, hw}, rng);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  const int64_t out_hw = (hw + 2 * pad - kernel) / stride + 1;
  state.SetItemsProcessed(state.iterations() * batch * out_c * out_hw *
                          out_hw * in_c * kernel * kernel * 2);
  state.SetLabel(GemmKernelName());
}
BENCHMARK(BM_ConvWrnDirect)
    ->Args({3, 16, 32, 1, 3})      // stem
    ->Args({64, 64, 32, 1, 3})     // conv2 group body
    ->Args({128, 128, 16, 1, 3})   // conv3 group body
    ->Args({256, 256, 8, 1, 3})    // conv4 group body
    ->Args({16, 16, 32, 1, 3})     // WRN-16-1 trunk: conv2 body
    ->Args({32, 32, 16, 1, 3})     // WRN-16-1 trunk: conv3 body
    ->Args({16, 32, 32, 2, 3});    // WRN-16-1 trunk: conv3 transition

// Int8 direct convolution with calibrated activations: each input byte is
// quantized exactly once and copied into the channel-interleaved padded
// image (column-phase split when strided), which the micro-kernels read
// in place — no im2col matrix, no B panel. Baseline:
// BM_ConvWrnInt8Calibrated (same rows, bitwise-identical outputs).
void BM_ConvWrnDirectInt8(benchmark::State& state) {
  const int64_t in_c = state.range(0);
  const int64_t out_c = state.range(1);
  const int64_t hw = state.range(2);
  const int64_t stride = state.range(3);
  const int64_t kernel = state.range(4);
  const int64_t pad = kernel / 2;
  const int64_t batch = 8;
  Rng rng(7);
  Conv2d conv(in_c, out_c, kernel, stride, pad, rng);
  Tensor x = Tensor::Randn({batch, in_c, hw, hw}, rng);
  conv.BeginActivationCalibration();
  conv.Forward(x, false);
  conv.FinishActivationCalibration();
  conv.PrepareInt8Serving();
  for (auto _ : state) {
    Tensor y = conv.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  const int64_t out_hw = (hw + 2 * pad - kernel) / stride + 1;
  state.SetItemsProcessed(state.iterations() * batch * out_c * out_hw *
                          out_hw * in_c * kernel * kernel * 2);
  state.SetLabel(GemmS8KernelName());
}
BENCHMARK(BM_ConvWrnDirectInt8)
    ->Args({3, 16, 32, 1, 3})      // stem
    ->Args({64, 64, 32, 1, 3})     // conv2 group body
    ->Args({128, 128, 16, 1, 3})   // conv3 group body
    ->Args({256, 256, 8, 1, 3})    // conv4 group body
    ->Args({16, 16, 32, 1, 3})     // WRN-16-1 trunk: conv2 body
    ->Args({32, 32, 16, 1, 3})     // WRN-16-1 trunk: conv3 body
    ->Args({16, 32, 32, 2, 3})     // WRN-16-1 trunk: conv3 transition
    ->Args({32, 16, 16, 2, 3})     // expert head: first conv
    ->Args({16, 16, 8, 1, 3});     // expert head: 8x8 conv

// One pre-activation WRN block at inference on a 2-row pass, the unit of
// depth-first serving (run with POE_NUM_THREADS=1 for the per-worker
// cost). Args: in channels, out channels, input side, stride. Items are
// the block's conv FLOPs (conv1, conv2 and any projection).
void RunBasicBlock(benchmark::State& state, bool int8) {
  const int64_t in_c = state.range(0);
  const int64_t out_c = state.range(1);
  const int64_t hw = state.range(2);
  const int64_t stride = state.range(3);
  const int64_t batch = 2;
  Rng rng(8);
  BasicBlock block(in_c, out_c, stride, rng);
  Tensor x = Tensor::Randn({batch, in_c, hw, hw}, rng);
  if (int8) {
    block.BeginActivationCalibration();
    block.Forward(Tensor::Randn({8, in_c, hw, hw}, rng), false);
    block.FinishActivationCalibration();
    block.PrepareInt8Serving();
  }
  for (auto _ : state) {
    Tensor y = block.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  const int64_t out_hw = (hw - 1) / stride + 1;
  int64_t macs = out_c * 9 * (in_c + out_c);
  if (block.has_projection()) macs += out_c * in_c;
  state.SetItemsProcessed(state.iterations() * batch * out_hw * out_hw *
                          macs * 2);
  state.SetLabel(int8 ? GemmS8KernelName() : GemmKernelName());
}

void BM_BasicBlock(benchmark::State& state) { RunBasicBlock(state, false); }
BENCHMARK(BM_BasicBlock)
    ->Args({16, 16, 32, 1})   // WRN-16-1 trunk: conv2 body
    ->Args({16, 32, 32, 2})   // WRN-16-1 trunk: conv3 transition
    ->Args({32, 32, 16, 1});  // WRN-16-1 trunk: conv3 body

void BM_BasicBlockInt8Calibrated(benchmark::State& state) {
  RunBasicBlock(state, true);
}
BENCHMARK(BM_BasicBlockInt8Calibrated)
    ->Args({16, 16, 32, 1})
    ->Args({16, 32, 32, 2})
    ->Args({32, 32, 16, 1});

// WRN-16 training convolutions at the training batch (64): the training
// forward and the backward (dX and dW) of each shape, so the two read as
// a ratio; args are {in_channels, out_channels, spatial, stride, kernel}.
// Items are FLOPs: 2 * MACs forward, 4 * MACs backward.
constexpr int64_t kTrainBatch = 64;

void RunConvTraining(benchmark::State& state, bool backward) {
  const int64_t in_c = state.range(0);
  const int64_t out_c = state.range(1);
  const int64_t hw = state.range(2);
  const int64_t stride = state.range(3);
  const int64_t kernel = state.range(4);
  const int64_t pad = kernel / 2;
  Rng rng(3);
  Conv2d conv(in_c, out_c, kernel, stride, pad, rng);
  Tensor x = Tensor::Randn({kTrainBatch, in_c, hw, hw}, rng);
  Tensor y = conv.Forward(x, true);
  for (auto _ : state) {
    if (backward) {
      conv.ZeroGrad();
      Tensor gx = conv.Backward(y);
      benchmark::DoNotOptimize(gx.data());
    } else {
      Tensor out = conv.Forward(x, true);
      benchmark::DoNotOptimize(out.data());
    }
  }
  const int64_t out_hw = (hw + 2 * pad - kernel) / stride + 1;
  state.SetItemsProcessed(state.iterations() * kTrainBatch * out_c * out_hw *
                          out_hw * in_c * kernel * kernel *
                          (backward ? 4 : 2));
  state.SetLabel(GemmKernelName());
}

void BM_Conv2dTrainForward(benchmark::State& state) {
  RunConvTraining(state, false);
}
void BM_Conv2dBackward(benchmark::State& state) {
  RunConvTraining(state, true);
}
void Wrn16TrainingShapes(benchmark::internal::Benchmark* b) {
  b->Args({3, 16, 32, 1, 3})     // stem
      ->Args({16, 16, 32, 1, 3})  // stage-1 body
      ->Args({16, 32, 32, 2, 3})  // stage-2 transition (32x32 in -> 16x16)
      ->Args({16, 32, 32, 2, 1})  // stage-2 projection
      ->Args({32, 32, 16, 1, 3})  // stage-2 body
      ->Args({32, 64, 16, 2, 3})  // stage-3 transition (16x16 in -> 8x8)
      ->Args({32, 64, 16, 2, 1})  // stage-3 projection
      ->Args({64, 64, 8, 1, 3})   // stage-3 body
      ->Args({16, 16, 8, 1, 3});  // expert 8x8 body
}
BENCHMARK(BM_Conv2dTrainForward)->Apply(Wrn16TrainingShapes);
BENCHMARK(BM_Conv2dBackward)->Apply(Wrn16TrainingShapes);

// One BN+ReLU training pair as BasicBlock runs it: the fused training
// forward, then its backward, at b64. Args: channels, spatial side. The
// shapes are WRN-16's (the three library stages and the ks=0.25 expert's
// 16-channel 8x8 stage). bytes_processed counts the floats the two passes
// must move at minimum: forward reads x and writes y and xhat, backward
// reads dy, xhat and y and writes dx.
void BM_BatchNormTraining(benchmark::State& state) {
  const int64_t channels = state.range(0);
  const int64_t side = state.range(1);
  Rng rng(4);
  BatchNorm2d bn(channels);
  Tensor x = Tensor::Randn({64, channels, side, side}, rng);
  Tensor dy = Tensor::Randn(x.shape(), rng);
  for (auto _ : state) {
    Tensor y = bn.ForwardTrainingFusedRelu(x);
    Tensor dx = bn.BackwardFusedRelu(dy);
    benchmark::DoNotOptimize(dx.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * 7 * x.numel() *
                          static_cast<int64_t>(sizeof(float)));
}
BENCHMARK(BM_BatchNormTraining)
    ->Args({16, 32})
    ->Args({32, 16})
    ->Args({64, 8})
    ->Args({16, 8});

void BM_Softmax(benchmark::State& state) {
  Rng rng(5);
  Tensor logits = Tensor::Randn({256, 100}, rng);
  for (auto _ : state) {
    Tensor p = Softmax2d(logits);
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_Softmax);

void BM_LinearForward(benchmark::State& state) {
  Rng rng(6);
  Linear lin(512, 100, rng);
  Tensor x = Tensor::Randn({256, 512}, rng);
  for (auto _ : state) {
    Tensor y = lin.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_LinearForward);

// Pack-once f32 serving: the persistent op(B) = W^T panels delete the
// per-call transposed PackB from every forward. Compare against
// BM_LinearForward (identical geometry and outputs, bitwise).
void BM_LinearForwardPrepacked(benchmark::State& state) {
  Rng rng(6);
  Linear lin(512, 100, rng);
  lin.Prepack(ServingPrecision::kFloat32);
  Tensor x = Tensor::Randn({256, 512}, rng);
  for (auto _ : state) {
    Tensor y = lin.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel(GemmKernelName());
}
BENCHMARK(BM_LinearForwardPrepacked);

// Per-call-pack int8 baseline: every forward re-packs W^T into the tiled
// int8 layout AND runs a max-abs pass for the dynamic activation scale —
// the two costs the ROADMAP flagged as eating the int8 win here.
void BM_LinearForwardInt8(benchmark::State& state) {
  Rng rng(6);
  Linear lin(512, 100, rng);
  lin.PrepareInt8Serving();
  Tensor x = Tensor::Randn({256, 512}, rng);
  for (auto _ : state) {
    Tensor y = lin.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel(GemmS8KernelName());
}
BENCHMARK(BM_LinearForwardInt8);

// The pack-once serving configuration: persistent int8 op(B) panels plus
// a static calibrated activation scale. Identical arithmetic per element;
// only the per-call pack and the max-abs pass are gone.
void BM_LinearForwardInt8Prepacked(benchmark::State& state) {
  Rng rng(6);
  Linear lin(512, 100, rng);
  Tensor x = Tensor::Randn({256, 512}, rng);
  lin.BeginActivationCalibration();
  lin.Forward(x, false);
  lin.FinishActivationCalibration();
  lin.PrepareInt8Serving();
  lin.Prepack(ServingPrecision::kInt8);
  for (auto _ : state) {
    Tensor y = lin.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel(GemmS8KernelName());
}
BENCHMARK(BM_LinearForwardInt8Prepacked);

// CRC32C over a 1-image f32 request payload (12,288 bytes) and a whole
// bulk_int8 request frame (393,292 bytes): the client seals each body and
// the server folds it in as chunks arrive. BM_Crc32cPortable is the byte
// table the dispatched path must match, for the rate ratio.
std::vector<uint8_t> CrcInput(int64_t n) {
  Rng rng(7);
  std::vector<uint8_t> bytes(static_cast<size_t>(n));
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextU64());
  return bytes;
}

void BM_Crc32c(benchmark::State& state) {
  const std::vector<uint8_t> bytes = CrcInput(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(12288)->Arg(393292);

void BM_Crc32cPortable(benchmark::State& state) {
  const std::vector<uint8_t> bytes = CrcInput(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Crc32cExtendPortable(0, bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32cPortable)->Arg(12288)->Arg(393292);

}  // namespace
}  // namespace poe

BENCHMARK_MAIN();
