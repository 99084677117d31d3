// Direct (im2col-free) convolution, the library's one conv lowering: the
// guarantee is bitwise identity with the im2col lowering on every kernel
// tier, plus sub-tile determinism (thread count never changes output
// bits). The GEMM-level tests compare GemmConvEx/GemmS8ConvPackedA against
// the same GEMM run over a materialized im2col matrix; the layer-level
// tests compare Conv2d's forwards against the im2col reference of
// support/conv_reference.h, and the model-level test checks that the
// whole-model reference runs every conv of a pool through it.
// CMake reruns this binary under POE_GEMM_KERNEL=scalar|avx2 and
// POE_NUM_THREADS=4 so every dispatch tier and the sub-tile parallel
// schedule are all covered.
#include "tensor/conv_direct.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "core/expert_pool.h"
#include "data/hierarchy.h"
#include "models/wrn.h"
#include "nn/basic_block.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "support/conv_reference.h"
#include "support/im2col.h"
#include "tensor/arena.h"
#include "tensor/gemm.h"
#include "tensor/gemm_s8.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace poe {
namespace {

void FillUniform(std::vector<float>* v, Rng& rng) {
  for (auto& x : *v) x = rng.Uniform(-1.0f, 1.0f);
}

void FillInt8(std::vector<int8_t>* v, Rng& rng) {
  for (auto& x : *v)
    x = static_cast<int8_t>(static_cast<int64_t>(rng.NextInt(255)) - 127);
}

template <typename T>
std::vector<T> PadImage(const std::vector<T>& img, int64_t c, int64_t h,
                        int64_t w, int64_t pad) {
  const int64_t ph = h + 2 * pad;
  const int64_t pw = w + 2 * pad;
  std::vector<T> padded(static_cast<size_t>(c * ph * pw), T(0));
  for (int64_t ch = 0; ch < c; ++ch)
    for (int64_t y = 0; y < h; ++y)
      std::memcpy(padded.data() + (ch * ph + y + pad) * pw + pad,
                  img.data() + (ch * h + y) * w,
                  static_cast<size_t>(w) * sizeof(T));
  return padded;
}

// Direct-conv geometry sweep shared by the f32 and int8 GEMM oracles.
struct Geometry {
  int64_t c, h, w, kernel, pad;
};

const Geometry kGeometries[] = {
    {1, 5, 5, 1, 0},  {1, 5, 5, 1, 1},  {3, 7, 7, 2, 0}, {3, 7, 7, 2, 1},
    {3, 8, 8, 3, 0},  {3, 8, 8, 3, 1},  {1, 5, 7, 3, 2}, {16, 8, 8, 3, 1},
    {3, 16, 16, 5, 2}, {4, 32, 32, 3, 1},
};

TEST(ConvDirectGemmTest, F32BitwiseMatchesIm2Col) {
  for (const auto& g : kGeometries) {
    Rng rng(g.c * 131 + g.h * 17 + g.kernel * 5 + g.pad);
    const int64_t m = 7;
    const int64_t depth = g.c * g.kernel * g.kernel;
    const int64_t out_h = g.h + 2 * g.pad - g.kernel + 1;
    const int64_t out_w = g.w + 2 * g.pad - g.kernel + 1;
    const int64_t cols_n = out_h * out_w;
    std::vector<float> img(static_cast<size_t>(g.c * g.h * g.w));
    std::vector<float> weight(static_cast<size_t>(m * depth));
    std::vector<float> bias(static_cast<size_t>(m));
    FillUniform(&img, rng);
    FillUniform(&weight, rng);
    FillUniform(&bias, rng);

    GemmEpilogue ep;
    ep.row_bias = bias.data();
    ep.relu = true;

    std::vector<float> cols(static_cast<size_t>(depth * cols_n));
    Im2Col(img.data(), g.c, g.h, g.w, g.kernel, g.kernel, g.pad,
           /*stride=*/1, cols.data());
    std::vector<float> c_ref(static_cast<size_t>(m * cols_n));
    GemmEx(false, false, m, cols_n, depth, 1.0f, weight.data(), cols.data(),
           0.0f, c_ref.data(), ep, /*parallel=*/false);

    const std::vector<float> padded = PadImage(img, g.c, g.h, g.w, g.pad);
    ConvImageView view;
    view.padded = g.pad == 0 ? img.data() : padded.data();
    view.channels = g.c;
    view.height = g.h;
    view.width = g.w;
    view.kernel = g.kernel;
    view.pad = g.pad;
    ASSERT_EQ(view.depth(), depth);
    ASSERT_EQ(view.cols(), cols_n);

    for (bool parallel : {false, true}) {
      std::vector<float> c_direct(static_cast<size_t>(m * cols_n), -7.0f);
      GemmConvEx(m, weight.data(), view, 1.0f, 0.0f, c_direct.data(), ep,
                 parallel);
      ASSERT_EQ(0, std::memcmp(c_ref.data(), c_direct.data(),
                               c_ref.size() * sizeof(float)))
          << "c=" << g.c << " h=" << g.h << " k=" << g.kernel
          << " pad=" << g.pad << " parallel=" << parallel;
    }

    // Prepacked weight operand: same bitwise guarantee.
    PackedAWeights packed =
        PackedAWeights::Pack(/*trans_a=*/false, m, depth, weight.data());
    std::vector<float> c_packed(static_cast<size_t>(m * cols_n));
    GemmConvPackedA(packed, view, 1.0f, 0.0f, c_packed.data(), ep,
                    /*parallel=*/true);
    ASSERT_EQ(0, std::memcmp(c_ref.data(), c_packed.data(),
                             c_ref.size() * sizeof(float)));
  }
}

TEST(ConvDirectGemmTest, Int8BitwiseMatchesIm2Col) {
  for (const auto& g : kGeometries) {
    Rng rng(g.c * 37 + g.h * 11 + g.kernel * 3 + g.pad + 1);
    const int64_t m = 9;
    const int64_t depth = g.c * g.kernel * g.kernel;
    const int64_t out_h = g.h + 2 * g.pad - g.kernel + 1;
    const int64_t out_w = g.w + 2 * g.pad - g.kernel + 1;
    const int64_t cols_n = out_h * out_w;
    std::vector<int8_t> img(static_cast<size_t>(g.c * g.h * g.w));
    std::vector<int8_t> weight(static_cast<size_t>(m * depth));
    std::vector<float> wscale(static_cast<size_t>(m));
    FillInt8(&img, rng);
    FillInt8(&weight, rng);
    FillUniform(&wscale, rng);

    GemmS8Epilogue ep;
    ep.scale = 0.03125f;
    ep.row_scale = wscale.data();
    ep.relu = true;

    std::vector<int8_t> cols(static_cast<size_t>(depth * cols_n));
    Im2Col(img.data(), g.c, g.h, g.w, g.kernel, g.kernel, g.pad,
           /*stride=*/1, cols.data());
    std::vector<float> c_ref(static_cast<size_t>(m * cols_n));
    GemmS8(false, false, m, cols_n, depth, weight.data(), cols.data(),
           c_ref.data(), ep, /*parallel=*/false);

    // The direct operand: the image in the kernel's channel-interleaved
    // layout, the weights in its k-group order.
    ConvImageViewS8 view;
    view.channels = g.c;
    view.height = g.h;
    view.width = g.w;
    view.kernel = g.kernel;
    view.pad = g.pad;
    view.group = GemmS8KGroup();
    std::vector<int8_t> layout(static_cast<size_t>(DirectImageElems(view)));
    FillDirectImage(img.data(), view, layout.data());
    view.padded = layout.data();
    PackedS8Weights packed =
        PackedS8Weights::PackConv(m, g.c, g.kernel, weight.data());
    std::vector<int8_t> unpacked(weight.size());
    packed.Unpack(unpacked.data());
    ASSERT_EQ(unpacked, weight) << "Unpack must return the im2col order";

    for (bool parallel : {false, true}) {
      std::vector<float> c_direct(static_cast<size_t>(m * cols_n), -7.0f);
      GemmS8ConvPackedA(packed, view, c_direct.data(), ep, parallel);
      ASSERT_EQ(0, std::memcmp(c_ref.data(), c_direct.data(),
                               c_ref.size() * sizeof(float)))
          << "c=" << g.c << " h=" << g.h << " k=" << g.kernel
          << " pad=" << g.pad << " parallel=" << parallel;
    }
  }
}

// Sub-tile parallelism inside a single row and column tile must not
// change output bits: every register tile is computed by exactly one task
// with the same packed panels and accumulation order (ParallelFor is a
// barrier).
TEST(ConvDirectGemmTest, SubTileParallelIsDeterministicF32) {
  Rng rng(91);
  // m=64 rows, ~900 columns: one row and column tile, many micro panels
  // (the shape that exercises the sub-tile ParallelFor schedule).
  const int64_t m = 64, k = 64 * 3 * 3, n = 30 * 30;
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  FillUniform(&a, rng);
  FillUniform(&b, rng);
  std::vector<float> c_seq(static_cast<size_t>(m * n));
  std::vector<float> c_par(static_cast<size_t>(m * n));
  GemmEx(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f,
         c_seq.data(), GemmEpilogue{}, /*parallel=*/false);
  GemmEx(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f,
         c_par.data(), GemmEpilogue{}, /*parallel=*/true);
  ASSERT_EQ(0,
            std::memcmp(c_seq.data(), c_par.data(), c_seq.size() * sizeof(float)));
}

TEST(ConvDirectGemmTest, SubTileParallelIsDeterministicInt8) {
  Rng rng(92);
  const int64_t m = 64, k = 64 * 3 * 3, n = 30 * 30;
  std::vector<int8_t> a(static_cast<size_t>(m * k));
  std::vector<int8_t> b(static_cast<size_t>(k * n));
  FillInt8(&a, rng);
  FillInt8(&b, rng);
  GemmS8Epilogue ep;
  ep.scale = 0.0625f;
  std::vector<float> c_seq(static_cast<size_t>(m * n));
  std::vector<float> c_par(static_cast<size_t>(m * n));
  GemmS8(false, false, m, n, k, a.data(), b.data(), c_seq.data(), ep,
         /*parallel=*/false);
  GemmS8(false, false, m, n, k, a.data(), b.data(), c_par.data(), ep,
         /*parallel=*/true);
  ASSERT_EQ(0,
            std::memcmp(c_seq.data(), c_par.data(), c_seq.size() * sizeof(float)));
}

// Several row and column tiles: micro-panels dealt over the pool must
// agree with the sequential schedule bit for bit too.
TEST(ConvDirectGemmTest, MultiTileParallelIsDeterministic) {
  Rng rng(93);
  const int64_t m = 300, k = 60, n = 1100;
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  FillUniform(&a, rng);
  FillUniform(&b, rng);
  std::vector<float> c_seq(static_cast<size_t>(m * n));
  std::vector<float> c_par(static_cast<size_t>(m * n));
  GemmEx(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f,
         c_seq.data(), GemmEpilogue{}, /*parallel=*/false);
  GemmEx(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f,
         c_par.data(), GemmEpilogue{}, /*parallel=*/true);
  ASSERT_EQ(0,
            std::memcmp(c_seq.data(), c_par.data(), c_seq.size() * sizeof(float)));
}

// Layer-level oracle: Conv2d's forward and the im2col reference over the
// same layer must agree bitwise — f32 plain, f32 prepacked, and both int8
// serving modes, across paddings, strides (stride 2 runs the f32
// phase-split path) and batch sizes.
TEST(ConvDirectLayerTest, ForwardF32BitwiseAcrossPaths) {
  for (int64_t kernel : {1, 3, 5}) {
    for (int64_t stride : {1, 2}) {
      for (int64_t pad : {int64_t{0}, kernel / 2}) {
        for (int64_t batch : {1, 3}) {
          Rng rng(55), rngx(56);
          Conv2d conv(3, 10, kernel, stride, pad, rng, /*bias=*/true);
          Tensor x = Tensor::Randn({batch, 3, 9, 9}, rngx);
          const Tensor y1 = conv.Forward(x, /*training=*/false);
          const Tensor y2 = Im2ColForward(conv, x);
          ASSERT_EQ(0, std::memcmp(y1.data(), y2.data(),
                                   y1.numel() * sizeof(float)))
              << "kernel=" << kernel << " stride=" << stride
              << " pad=" << pad << " batch=" << batch;
        }
      }
    }
  }
}

TEST(ConvDirectLayerTest, ForwardF32PrepackedBitwiseAcrossPaths) {
  Rng rng(57), rngx(58);
  Conv2d conv(6, 12, 3, 1, 1, rng, /*bias=*/true);
  conv.Prepack(ServingPrecision::kFloat32);
  Tensor x = Tensor::Randn({2, 6, 11, 11}, rngx);
  const Tensor y1 = conv.ForwardFusedRelu(x);
  const Tensor y2 = Im2ColConv(conv, /*prepacked=*/true).Forward(x, true);
  ASSERT_EQ(0,
            std::memcmp(y1.data(), y2.data(), y1.numel() * sizeof(float)));
}

TEST(ConvDirectLayerTest, ForwardInt8BitwiseAcrossPaths) {
  for (int64_t pad : {0, 1}) {
    for (int64_t batch : {1, 2}) {
      Rng rng1(59), rng2(59), rngx(60);
      Conv2d calibrated(5, 8, 3, 1, pad, rng1);
      Conv2d dynamic(5, 8, 3, 1, pad, rng2);
      Tensor x = Tensor::Randn({batch, 5, 8, 8}, rngx);
      // One layer calibrated on the probe batch, its twin left dynamic,
      // so both activation-scale paths cross the lowering boundary.
      calibrated.BeginActivationCalibration();
      calibrated.Forward(x, /*training=*/false);
      calibrated.FinishActivationCalibration();
      calibrated.PrepareInt8Serving();
      dynamic.PrepareInt8Serving();
      for (Conv2d* conv : {&calibrated, &dynamic}) {
        const Tensor y1 = conv->ForwardFusedRelu(x);
        const Tensor y2 = Im2ColForward(*conv, x, /*relu=*/true);
        ASSERT_EQ(0, std::memcmp(y1.data(), y2.data(),
                                 y1.numel() * sizeof(float)))
            << (conv == &calibrated ? "calibrated" : "dynamic")
            << " pad=" << pad << " batch=" << batch;
      }
    }
  }
}

// The batch-parallel schedule (ParallelFor over items, sequential GEMMs)
// and the GEMM-parallel schedule agree bitwise on the direct path; batch
// size only changes which one Conv2d picks, never the bits.
TEST(ConvDirectLayerTest, BatchSizeDoesNotChangeBits) {
  Rng rng1(61), rng2(61), rngx(62);
  Conv2d conv_a(4, 16, 3, 1, 1, rng1, /*bias=*/true);
  Conv2d conv_b(4, 16, 3, 1, 1, rng2, /*bias=*/true);
  Tensor big = Tensor::Randn({8, 4, 10, 10}, rngx);
  Tensor y_all = conv_a.Forward(big, /*training=*/false);
  const int64_t item = 16 * 10 * 10;
  for (int64_t b = 0; b < 8; ++b) {
    Tensor x({1, 4, 10, 10});
    std::memcpy(x.data(), big.data() + b * 4 * 10 * 10,
                sizeof(float) * 4 * 10 * 10);
    Tensor y = conv_b.Forward(x, /*training=*/false);
    ASSERT_EQ(0, std::memcmp(y.data(), y_all.data() + b * item,
                             sizeof(float) * item))
        << "item " << b;
  }
}

// The pack-free f32 path against the im2col lowering over the geometry
// grid the serving trunk and experts span, plus the edges each kernel tier
// must handle: stride 1 and 2, kernel 1 and 3, pad 0 and 1, output rows 32,
// 16 and 8 wide (whole SIMD segments) and 7 and 5 wide (gathered panels),
// output channels that do and do not fill a register tile, reduction
// depths of one and of two k-blocks, batches 1, 3 and 5, per-call and
// prepacked weights, inference (plain and fused-ReLU) and training
// forwards. The mt4 rerun covers the sub-tile parallel schedule.
TEST(ConvDirectLayerTest, PackFreeBitwiseMatchesIm2ColGrid) {
  const int64_t kBatches[] = {1, 3, 5};
  int64_t case_index = 0;
  for (int64_t stride : {1, 2}) {
    for (int64_t kernel : {1, 3}) {
      for (int64_t pad : {0, 1}) {
        for (int64_t out_w : {32, 16, 8, 7, 5}) {
          for (int64_t out_c : {3, 13, 16, 17, 32, 64}) {
            for (int64_t in_c : {3, 37}) {  // 37*9 > one 320-deep k-block
              const int64_t batch = kBatches[case_index++ % 3];
              // 9 output rows: every width has full micro-panels (direct
              // forms, or gathers where rows are narrower than a segment)
              // and, except width 32, an N tail.
              const int64_t out_h = 9;
              const int64_t in_w = (out_w - 1) * stride + kernel - 2 * pad;
              const int64_t in_h = (out_h - 1) * stride + kernel - 2 * pad;
              Rng rng(static_cast<uint64_t>(case_index));
              Conv2d conv(in_c, out_c, kernel, stride, pad, rng,
                          /*bias=*/true);
              Tensor x = Tensor::Randn({batch, in_c, in_h, in_w}, rng);
              const auto check = [&](const Tensor& got, const Tensor& want,
                                     const char* mode) {
                ASSERT_EQ(got.shape(), want.shape());
                ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                         got.numel() * sizeof(float)))
                    << mode << ": stride=" << stride << " kernel=" << kernel
                    << " pad=" << pad << " out_w=" << out_w
                    << " out_c=" << out_c << " in_c=" << in_c
                    << " batch=" << batch;
              };
              const Im2ColConv reference(conv);
              const Tensor want_train = reference.Forward(x, false);
              const Tensor want_infer = reference.Forward(x, true);
              check(conv.Forward(x, /*training=*/true), want_train,
                    "training");
              check(conv.ForwardFusedRelu(x), want_infer, "inference");
              conv.Prepack(ServingPrecision::kFloat32);
              check(conv.ForwardFusedRelu(x), want_infer, "prepacked");
            }
          }
        }
      }
    }
  }
}

// The filled int8 image against its definition: lane r of pixel
// (q, cg, y, t) holds channel cg * group + r at image row y - pad and
// column t * stride + q - pad, and zero outside the image or past the last
// channel. `buf` starts as garbage, so every byte must be written.
void ExpectDirectLayoutS8(const std::vector<int8_t>& img,
                          const ConvImageViewS8& v) {
  std::vector<int8_t> buf(static_cast<size_t>(DirectImageElems(v)),
                          int8_t{0x5a});
  FillDirectImage(img.data(), v, buf.data());
  size_t at = 0;
  for (int64_t q = 0; q < v.phases(); ++q)
    for (int64_t cg = 0; cg < v.channel_groups(); ++cg)
      for (int64_t y = 0; y < v.padded_h(); ++y)
        for (int64_t t = 0; t < v.phase_w(); ++t)
          for (int64_t r = 0; r < v.group; ++r, ++at) {
            const int64_t c = cg * v.group + r;
            const int64_t iy = y - v.pad;
            const int64_t ix = t * v.stride + q - v.pad;
            const bool inside = c < v.channels && iy >= 0 &&
                                iy < v.height && ix >= 0 && ix < v.width;
            const int8_t want =
                inside ? img[(c * v.height + iy) * v.width + ix] : 0;
            ASSERT_EQ(buf[at], want)
                << "q=" << q << " c=" << c << " y=" << y << " t=" << t;
          }
}

// The int8 twin of PackFreeBitwiseMatchesIm2ColGrid: the pack-free int8
// path (channel-interleaved image, k-group-ordered weights, in-place
// direct forms, gathered panels, box-summed column sums) against the
// im2col reference over stride 1 and 2, kernel 1 and 3, pad 0 and 1, output rows
// 32, 16 and 8 wide (direct forms) and 7 and 5 wide (gathered panels),
// input channels that do (16, 32) and do not (3, 13) fill the kernel's
// channel groups, output channels that do and do not fill a register tile,
// batches 1 and 3, calibrated and dynamic activation scales. Each case
// also checks the filled image of its first input byte for byte. CMake
// reruns it on every kernel tier and at 4 workers.
TEST(ConvDirectLayerTest, PackFreeInt8BitwiseMatchesIm2ColGrid) {
  int64_t case_index = 0;
  for (int64_t stride : {1, 2}) {
    for (int64_t kernel : {1, 3}) {
      for (int64_t pad : {0, 1}) {
        for (int64_t out_w : {32, 16, 8, 7, 5}) {
          for (int64_t in_c : {3, 13, 16, 32}) {
            for (int64_t out_c : {3, 16, 17, 32}) {
              const int64_t batch = case_index++ % 2 == 0 ? 1 : 3;
              const int64_t out_h = 9;  // full panels and an N tail
              const int64_t in_w = (out_w - 1) * stride + kernel - 2 * pad;
              const int64_t in_h = (out_h - 1) * stride + kernel - 2 * pad;
              Rng rng(static_cast<uint64_t>(case_index));
              Conv2d calibrated(in_c, out_c, kernel, stride, pad, rng,
                                /*bias=*/true);
              Conv2d dynamic(in_c, out_c, kernel, stride, pad, rng);
              Tensor x = Tensor::Randn({batch, in_c, in_h, in_w}, rng);
              calibrated.BeginActivationCalibration();
              calibrated.Forward(x, /*training=*/false);
              calibrated.FinishActivationCalibration();
              calibrated.PrepareInt8Serving();
              dynamic.PrepareInt8Serving();
              for (Conv2d* conv : {&calibrated, &dynamic}) {
                const Im2ColConv reference(*conv);
                const Tensor want = reference.Forward(x, false);
                const Tensor want_relu = reference.Forward(x, true);
                const Tensor got = conv->Forward(x, /*training=*/false);
                const Tensor got_relu = conv->ForwardFusedRelu(x);
                ASSERT_EQ(got.shape(), want.shape());
                ASSERT_TRUE(
                    std::memcmp(got.data(), want.data(),
                                got.numel() * sizeof(float)) == 0 &&
                    std::memcmp(got_relu.data(), want_relu.data(),
                                got.numel() * sizeof(float)) == 0)
                    << (conv == &calibrated ? "calibrated" : "dynamic")
                    << ": stride=" << stride << " kernel=" << kernel
                    << " pad=" << pad << " out_w=" << out_w
                    << " in_c=" << in_c << " out_c=" << out_c
                    << " batch=" << batch;
              }
              if (kernel == 1 && stride == 1 && pad == 0) continue;
              ConvImageViewS8 view;
              view.channels = in_c;
              view.height = in_h;
              view.width = in_w;
              view.kernel = kernel;
              view.pad = pad;
              view.stride = stride;
              view.group = GemmS8KGroup();
              std::vector<int8_t> img(static_cast<size_t>(in_c * in_h * in_w));
              QuantizeBufferS8(x.data(), static_cast<int64_t>(img.size()),
                               32.0f, img.data());
              ExpectDirectLayoutS8(img, view);
            }
          }
        }
      }
    }
  }
}

// Row r of a fused batch equals that row's solo forward bit for bit at
// the serving geometries (trunk body, trunk transition, 1x1 projection,
// expert block at 8x8), so fusing requests never changes an answer. At
// more than one worker the batch runs batch-parallel and each solo row
// GEMM-parallel, two different schedules.
TEST(ConvDirectLayerTest, BatchRowsMatchSoloForwards) {
  struct Shape {
    int64_t in_c, out_c, in_hw, stride, kernel;
  };
  const Shape kShapes[] = {
      {16, 16, 32, 1, 3}, {32, 32, 16, 1, 3}, {16, 32, 32, 2, 3},
      {32, 64, 16, 2, 1}, {32, 16, 16, 2, 3}, {16, 16, 8, 1, 3},
  };
  for (const Shape& sh : kShapes) {
    Rng rng(sh.in_c * 7 + sh.out_c + sh.stride);
    Conv2d conv(sh.in_c, sh.out_c, sh.kernel, sh.stride, sh.kernel / 2, rng);
    conv.Prepack(ServingPrecision::kFloat32);
    const int64_t batch = 5;
    Tensor x = Tensor::Randn({batch, sh.in_c, sh.in_hw, sh.in_hw}, rng);
    Tensor y_all = conv.ForwardFusedRelu(x);
    const int64_t in_item = sh.in_c * sh.in_hw * sh.in_hw;
    const int64_t out_item = y_all.numel() / batch;
    for (int64_t r = 0; r < batch; ++r) {
      Tensor xr({1, sh.in_c, sh.in_hw, sh.in_hw});
      std::memcpy(xr.data(), x.data() + r * in_item, sizeof(float) * in_item);
      Tensor yr = conv.ForwardFusedRelu(xr);
      ASSERT_EQ(yr.numel(), out_item);
      ASSERT_EQ(0, std::memcmp(yr.data(), y_all.data() + r * out_item,
                               sizeof(float) * out_item))
          << "in_c=" << sh.in_c << " out_c=" << sh.out_c
          << " stride=" << sh.stride << " kernel=" << sh.kernel << " row "
          << r;
    }
  }
}

// BasicBlock inference fuses BN2+ReLU into conv1's GEMM epilogue (and, at
// calibrated int8, the quantize into conv2's padded image) and the
// shortcut add into conv2's. It must be bitwise the explicit chain of
// public forwards. The grid covers every serving mode, identity and
// projection blocks at strides 1 and 2, channel counts that are not
// multiples of the k-group (padding lanes), sub-vector rows and N tails,
// 1-3 rows, and one block deep enough (9 * 40 > 320) that the f32 GEMM
// runs two k-blocks. Mutants it catches: conv1's activation
// scale used in place of conv2's, the epilogue run before the last
// k-block, and a conv2 image border left unzeroed.
enum class BlockMode { kF32, kF32Prepacked, kInt8Calibrated, kInt8Dynamic };

void RandomizeBatchNorm(BatchNorm2d* bn, Rng& rng) {
  for (Tensor* t :
       {&bn->gamma().value, &bn->beta().value, &bn->running_mean()}) {
    for (int64_t c = 0; c < t->numel(); ++c) {
      t->at(c) = rng.Uniform(-1.0f, 1.0f);
    }
  }
  for (int64_t c = 0; c < bn->channels(); ++c) {
    bn->running_var().at(c) = rng.Uniform(0.2f, 2.0f);
  }
}

// Each conv of the unfused chain runs its own (direct) forward.
Tensor ConvOwnForward(Conv2d& conv, const Tensor& x) {
  return conv.Forward(x, /*training=*/false);
}

TEST(BasicBlockFusionTest, FusedMatchesUnfusedChainGrid) {
  struct Shape {
    int64_t in, out, stride;
  };
  const Shape shapes[] = {{3, 3, 1},  {6, 6, 1},  {10, 10, 1}, {3, 6, 1},
                          {10, 6, 1}, {6, 10, 2}, {10, 10, 2}, {3, 6, 2},
                          {40, 40, 1}};
  const BlockMode modes[] = {BlockMode::kF32, BlockMode::kF32Prepacked,
                             BlockMode::kInt8Calibrated,
                             BlockMode::kInt8Dynamic};
  uint64_t seed = 1;
  for (const Shape& sh : shapes) {
    for (int64_t hw : {4, 7, 8, 32}) {
      if (sh.in == 40 && hw > 8) continue;  // the k-block case stays small
      for (BlockMode mode : modes) {
        Rng rng(seed++);
        BasicBlock block(sh.in, sh.out, sh.stride, rng);
        std::vector<Module*> parts;
        block.CollectChildren(&parts);
        RandomizeBatchNorm(static_cast<BatchNorm2d*>(parts[0]), rng);
        RandomizeBatchNorm(static_cast<BatchNorm2d*>(parts[2]), rng);
        if (mode == BlockMode::kF32Prepacked) {
          block.Prepack(ServingPrecision::kFloat32);
        } else if (mode == BlockMode::kInt8Calibrated) {
          block.BeginActivationCalibration();
          block.Forward(Tensor::Randn({4, sh.in, hw, hw}, rng), false);
          block.FinishActivationCalibration();
          block.PrepareInt8Serving();
          ASSERT_FALSE(block.CouplesRows());
        } else if (mode == BlockMode::kInt8Dynamic) {
          block.PrepareInt8Serving();
        }
        for (int64_t rows : {1, 2, 3}) {
          const Tensor x = Tensor::Randn({rows, sh.in, hw, hw}, rng);
          const Tensor want = UnfusedBlock(block, x, ConvOwnForward);
          const Tensor got = block.Forward(x, /*training=*/false);
          ASSERT_EQ(want.shape(), got.shape());
          EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                                   sizeof(float) * want.numel()))
              << sh.in << "->" << sh.out << " stride " << sh.stride << " "
              << hw << "x" << hw << " mode " << static_cast<int>(mode)
              << " rows " << rows;
        }
      }
    }
  }
}

// conv1's fused int8 images must hold QuantizeBufferS8(BnAffineRelu(y))
// of conv1's own output y, on every row and column path. Random data
// rarely lands within an ulp of a quantization boundary, where an FMA and
// a separate multiply and add part ways, so each channel's BN is placed
// to put one pixel there: with P = fl(scale * y) and shift = 10.5 - P,
// the multiply and add give exactly 10.5 (quantized 11 at scale 1), while
// an FMA keeps the product's rounding error e < 0 and gives 10.5 + e
// (quantized 10). BnAffine is an FMA in builds that target FMA and a
// multiply and add otherwise, so an epilogue doing the other fails: an
// FMA in the int8 column epilogue of a POE_NATIVE=OFF build, say.
TEST(BasicBlockFusionTest, Int8ImagesHoldQuantizedBnOnRoundingBoundaries) {
  const int64_t in_c = 16, out_c = 32, hw = 8, batch = 2;
  Rng rng(29);
  Conv2d producer(in_c, out_c, /*kernel=*/3, /*stride=*/1, /*pad=*/1, rng);
  Conv2d consumer(out_c, out_c, /*kernel=*/3, /*stride=*/1, /*pad=*/1, rng);
  const Tensor x = Tensor::Randn({batch, in_c, hw, hw}, rng);
  producer.BeginActivationCalibration();
  producer.Forward(x, false);
  producer.FinishActivationCalibration();
  producer.PrepareInt8Serving();
  consumer.PrepareInt8Serving();
  consumer.set_static_act_scale(1.0f);  // quantization boundaries at k + .5
  ASSERT_TRUE(consumer.TakesInt8Images());
  const Tensor y = producer.Forward(x, false);

  constexpr float kBoundary = 10.5f;
  const int64_t plane = hw * hw;
  std::vector<float> scale(out_c), shift(out_c);
  std::vector<int64_t> target(out_c, -1);
  for (int64_t c = 0; c < out_c; ++c) {
    const float* yc = y.data() + c * plane;  // image 0
    for (int64_t i = 0; i < plane && target[c] < 0; ++i) {
      if (std::fabs(yc[i]) < 1e-3f) continue;
      const float s = 100.0f / yc[i];
      const float product = s * yc[i];
      const double e = static_cast<double>(s) * yc[i] - product;
      // |e| past half an ulp of the boundary, so the FMA's sum rounds
      // below it.
      if (e < -std::ldexp(1.0, -21)) {
        scale[c] = s;
        shift[c] = kBoundary - product;
        target[c] = i;
      }
    }
    ASSERT_GE(target[c], 0) << "channel " << c;
  }

  ScratchScope scope;
  const ConvInputImages images =
      consumer.AllocInputImages(scope, batch, hw, hw);
  ConvTileEpilogue epilogue;
  epilogue.bn_scale = scale.data();
  epilogue.bn_shift = shift.data();
  epilogue.next = &images;
  EXPECT_FALSE(producer.ForwardFused(x, epilogue).defined());

  const ConvImageViewS8& v = images.view;
  std::vector<float> bn(plane);
  std::vector<int8_t> want(plane);
  int64_t mismatches = 0;
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t c = 0; c < out_c; ++c) {
      const float* yc = y.data() + (b * out_c + c) * plane;
      for (int64_t i = 0; i < plane; ++i) {
        bn[i] = BnAffineRelu(yc[i], scale[c], shift[c]);
      }
      QuantizeBufferS8(bn.data(), plane, images.inv_scale, want.data());
      if (b == 0) {  // the target pixel tells the two apart
        const float fused = std::fma(scale[c], yc[target[c]], shift[c]);
        ASSERT_EQ(QuantizeOneS8(fused, images.inv_scale), 10);
        ASSERT_EQ(QuantizeOneS8(kBoundary, images.inv_scale), 11);
      }
      const int8_t* image = images.data + b * images.elems;
      for (int64_t i = 0; i < plane; ++i) {
        const int64_t py = i / hw + v.pad, px = i % hw + v.pad;
        const int8_t got =
            image[(((c / v.group) * v.padded_h() + py) * v.padded_w() + px) *
                      v.group +
                  c % v.group];
        if (got != want[i] && mismatches++ < 5) {
          ADD_FAILURE() << "image " << b << " channel " << c << " pixel "
                        << i << ": " << int{got} << ", want "
                        << int{want[i]};
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// Quantizing into a next conv's images is an int8 conv's job: an f32
// conv refuses that epilogue rather than run its GEMM into a scratch C
// that nothing reads.
TEST(BasicBlockFusionTest, F32ConvRefusesNextImages) {
  Rng rng(3);
  Conv2d producer(4, 4, /*kernel=*/3, /*stride=*/1, /*pad=*/1, rng);
  Conv2d consumer(4, 4, /*kernel=*/3, /*stride=*/1, /*pad=*/1, rng);
  consumer.BeginActivationCalibration();
  consumer.Forward(Tensor::Randn({2, 4, 6, 6}, rng), false);
  consumer.FinishActivationCalibration();
  consumer.PrepareInt8Serving();
  ASSERT_TRUE(consumer.TakesInt8Images());
  ScratchScope scope;
  const ConvInputImages images = consumer.AllocInputImages(scope, 1, 6, 6);
  ConvTileEpilogue epilogue;
  epilogue.next = &images;
  const Tensor x = Tensor::Randn({1, 4, 6, 6}, rng);
  EXPECT_DEATH(producer.ForwardFused(x, epilogue), "only an int8 conv");
}

// A WRN-16 pool at library widening `kc` over 8x8x3 inputs: 3 tasks of 2
// classes, experts at ks 0.25.
ExpertPool SmallWrnPool(double kc, uint64_t seed) {
  Rng rng(seed);
  WrnConfig lib;
  lib.depth = 16;
  lib.base_channels = 16;
  lib.kc = kc;
  lib.num_classes = 6;
  auto library = BuildLibraryPart(lib, rng);
  std::vector<std::shared_ptr<Sequential>> experts;
  for (int t = 0; t < 3; ++t) {
    WrnConfig e = lib;
    e.ks = 0.25;
    e.num_classes = 2;
    experts.push_back(BuildExpertPart(e, lib.conv3_channels(), rng));
  }
  return ExpertPool(lib, 0.25, ClassHierarchy::Uniform(3, 2),
                    std::move(library), std::move(experts));
}

// Conv2d layers in `m`'s whole module tree.
int64_t CountConvs(Module& m) {
  std::vector<Module*> children;
  m.CollectChildren(&children);
  int64_t n = dynamic_cast<Conv2d*>(&m) != nullptr ? 1 : 0;
  for (Module* child : children) n += CountConvs(*child);
  return n;
}

// The whole-model reference must run every conv of the trunk and of each
// head through the im2col lowering: a walk that let a conv-holding module
// fall back to its own (direct) forward would hold that part of the model
// to itself. Checked on a kc=1 pool (identity shortcuts in the first
// group) and a kc=2 one (a stride-1 1x1 projection there), at f32,
// calibrated int8 and dynamic int8, where the reference's logits must
// also be the served ones bit for bit.
TEST(Im2ColLogitsTest, ReachesEveryConvOfTrunkAndHeads) {
  enum Mode { kF32, kInt8Calibrated, kInt8Dynamic };
  for (double kc : {1.0, 2.0}) {
    for (Mode mode : {kF32, kInt8Calibrated, kInt8Dynamic}) {
      ExpertPool pool = SmallWrnPool(kc, /*seed=*/11);
      Rng rng(12);
      if (mode == kInt8Calibrated) {
        ASSERT_TRUE(
            pool.CalibrateActivations(Tensor::Randn({8, 3, 8, 8}, rng)).ok());
      }
      if (mode != kF32) {
        ASSERT_TRUE(pool.SetServingPrecision(ServingPrecision::kInt8).ok());
      }
      auto queried = pool.Query({0, 2});
      ASSERT_TRUE(queried.ok()) << queried.status().ToString();
      TaskModel model = std::move(queried).ValueOrDie();
      int64_t want_convs = CountConvs(*model.trunk());
      for (int i = 0; i < model.num_branches(); ++i) {
        want_convs += CountConvs(*model.branch(i).head);
      }
      const Tensor x = Tensor::Randn({3, 3, 8, 8}, rng);
      int64_t convs = 0;
      const Tensor want = Im2ColLogits(model, x, &convs);
      EXPECT_EQ(convs, want_convs) << "kc=" << kc << " mode " << mode;
      const Tensor got = model.Logits(x);
      ASSERT_EQ(got.shape(), want.shape());
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                               sizeof(float) * got.numel()))
          << "kc=" << kc << " mode " << mode;
    }
  }
}

}  // namespace
}  // namespace poe
