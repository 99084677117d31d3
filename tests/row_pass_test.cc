// Depth-first inference: Sequential::Forward at inference carries a batch
// through all of its modules in row passes. Its output must be bitwise
// the whole-batch, module-by-module chain's, for the library trunk and an
// expert head, at f32 (per-call and prepacked packing) and calibrated
// int8, at batch sizes below, at and above one pass and with a tail pass.
// CMake reruns the suite on 4 workers (passes dealt to the pool) and on
// each forced GEMM kernel tier.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "test_util.h"
#include "util/rng.h"

namespace poe {
namespace {

using testutil::WholeBatchChain;

// WRN-16 shapes at base 8 on 12x12 images: two blocks per group, so the
// trunk holds the stem, identity blocks and a strided projection block,
// and the head a strided group plus BN-ReLU-pool-Linear.
WrnConfig Config() {
  WrnConfig cfg;
  cfg.depth = 16;
  cfg.num_classes = 5;
  return cfg;
}
constexpr int64_t kImage = 12;

enum class Mode { kF32, kF32Prepacked, kInt8Calibrated };

std::string ModeName(Mode mode) {
  switch (mode) {
    case Mode::kF32:
      return "f32";
    case Mode::kF32Prepacked:
      return "f32_prepacked";
    case Mode::kInt8Calibrated:
      return "int8_calibrated";
  }
  return "?";
}

// Puts `seq` into `mode`, calibrating int8 on `calibration`.
void Prepare(Sequential& seq, Mode mode, const Tensor& calibration) {
  switch (mode) {
    case Mode::kF32:
      return;
    case Mode::kF32Prepacked:
      seq.Prepack(ServingPrecision::kFloat32);
      return;
    case Mode::kInt8Calibrated:
      seq.BeginActivationCalibration();
      WholeBatchChain(seq, calibration);
      seq.FinishActivationCalibration();
      seq.PrepareInt8Serving();
      ASSERT_FALSE(seq.CouplesRows());
      return;
  }
}

void ExpectRowPassesMatchWholeBatch(Sequential& seq, int64_t channels,
                                    int64_t size, uint64_t seed,
                                    const std::string& what) {
  for (int64_t batch : {1, 2, 3, 5, 32, 33}) {
    Rng rng(seed + batch);
    const Tensor x = Tensor::Randn({batch, channels, size, size}, rng);
    const Tensor want = WholeBatchChain(seq, x);
    const Tensor got = seq.Forward(x, /*training=*/false);
    ASSERT_EQ(want.shape(), got.shape()) << what << " batch=" << batch;
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                             sizeof(float) * want.numel()))
        << what << " batch=" << batch;
  }
}

class RowPassTest : public ::testing::TestWithParam<Mode> {};

TEST_P(RowPassTest, TrunkMatchesWholeBatchChain) {
  const WrnConfig cfg = Config();
  Rng rng(41);
  std::shared_ptr<Sequential> trunk = BuildLibraryPart(cfg, rng);
  const Tensor calibration =
      Tensor::Randn({16, cfg.in_channels, kImage, kImage}, rng);
  Prepare(*trunk, GetParam(), calibration);
  ExpectRowPassesMatchWholeBatch(*trunk, cfg.in_channels, kImage, 100,
                                 "trunk " + ModeName(GetParam()));
}

TEST_P(RowPassTest, ExpertHeadMatchesWholeBatchChain) {
  const WrnConfig cfg = Config();
  Rng rng(42);
  const int64_t channels = cfg.conv3_channels();
  const int64_t size = kImage / 2;  // the trunk's output resolution
  std::shared_ptr<Sequential> head = BuildExpertPart(cfg, channels, rng);
  const Tensor calibration = Tensor::Randn({16, channels, size, size}, rng);
  Prepare(*head, GetParam(), calibration);
  ExpectRowPassesMatchWholeBatch(*head, channels, size, 200,
                                 "head " + ModeName(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Modes, RowPassTest,
                         ::testing::Values(Mode::kF32, Mode::kF32Prepacked,
                                           Mode::kInt8Calibrated),
                         [](const ::testing::TestParamInfo<Mode>& info) {
                           return ModeName(info.param);
                         });

}  // namespace
}  // namespace poe
