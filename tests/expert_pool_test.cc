#include "core/expert_pool.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "core/volume.h"
#include "eval/metrics.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace poe {
namespace {

using testutil::FastTrainOptions;
using testutil::TinyDataConfig;
using testutil::TinyLibraryConfig;
using testutil::TinyOracleConfig;

class ExpertPoolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new SyntheticDataset(GenerateSyntheticDataset(TinyDataConfig()));
    rng_ = new Rng(777);
    oracle_ = new Wrn(TinyOracleConfig(), *rng_);
    TrainScratch(*oracle_, data_->train, FastTrainOptions(10));

    PoeBuildConfig cfg;
    cfg.library_config = TinyLibraryConfig();
    cfg.expert_ks = 0.5;
    cfg.library_options = FastTrainOptions(6);
    cfg.expert_options = FastTrainOptions(8);
    stats_ = new PoeBuildStats();
    pool_ = new ExpertPool(ExpertPool::Preprocess(
        ModelLogits(*oracle_), *data_, cfg, *rng_, stats_));
  }
  static void TearDownTestSuite() {
    delete pool_;
    delete stats_;
    delete oracle_;
    delete rng_;
    delete data_;
    pool_ = nullptr;
    stats_ = nullptr;
    oracle_ = nullptr;
    rng_ = nullptr;
    data_ = nullptr;
  }

  static SyntheticDataset* data_;
  static Rng* rng_;
  static Wrn* oracle_;
  static ExpertPool* pool_;
  static PoeBuildStats* stats_;
};

SyntheticDataset* ExpertPoolTest::data_ = nullptr;
Rng* ExpertPoolTest::rng_ = nullptr;
Wrn* ExpertPoolTest::oracle_ = nullptr;
ExpertPool* ExpertPoolTest::pool_ = nullptr;
PoeBuildStats* ExpertPoolTest::stats_ = nullptr;

TEST_F(ExpertPoolTest, HasOneExpertPerPrimitiveTask) {
  EXPECT_EQ(pool_->num_experts(), 3);
  EXPECT_EQ(pool_->hierarchy().num_tasks(), 3);
}

TEST_F(ExpertPoolTest, BuildStatsRecorded) {
  EXPECT_GT(stats_->library_seconds, 0.0);
  EXPECT_GT(stats_->experts_seconds, 0.0);
  EXPECT_EQ(stats_->per_expert_seconds.size(), 3u);
}

TEST_F(ExpertPoolTest, LibraryIsFrozen) {
  for (Parameter* p : pool_->library()->Parameters()) {
    EXPECT_FALSE(p->trainable);
  }
}

TEST_F(ExpertPoolTest, QueryBuildsWorkingTaskModel) {
  auto result = pool_->Query({0, 2});
  ASSERT_TRUE(result.ok()) << result.status();
  TaskModel model = std::move(result).ValueOrDie();
  EXPECT_EQ(model.num_branches(), 2);
  EXPECT_EQ(model.global_classes(),
            pool_->hierarchy().CompositeClasses({0, 2}));

  Dataset test = FilterClasses(
      data_->test, pool_->hierarchy().CompositeClasses({0, 2}), true);
  LogitFn fn = [&](const Tensor& x) { return model.Logits(x); };
  EXPECT_GT(EvaluateAccuracy(fn, test), 0.4f);  // chance = 0.25
}

TEST_F(ExpertPoolTest, QueryRejectsBadInput) {
  EXPECT_EQ(pool_->Query({}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pool_->Query({0, 0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pool_->Query({99}).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(pool_->Query({-1}).status().code(), StatusCode::kOutOfRange);
}

TEST_F(ExpertPoolTest, QueryIsTrainFree) {
  // Snapshot expert weights, query, verify nothing changed.
  Tensor before = pool_->expert(0)->Parameters()[0]->value.Clone();
  auto model = pool_->Query({0, 1}).ValueOrDie();
  Rng rng(1);
  Tensor x = Tensor::Randn({2, 3, 6, 6}, rng);
  model.Logits(x);
  EXPECT_EQ(MaxAbsDiff(before, pool_->expert(0)->Parameters()[0]->value),
            0.0f);
}

TEST_F(ExpertPoolTest, ExpertConfigReflectsTask) {
  WrnConfig cfg = pool_->ExpertConfig(1);
  EXPECT_EQ(cfg.num_classes, 2);
  EXPECT_DOUBLE_EQ(cfg.ks, 0.5);
  EXPECT_DOUBLE_EQ(cfg.kc, TinyLibraryConfig().kc);
}

TEST_F(ExpertPoolTest, ExpertsAreProperlyConfident) {
  // CKD experts should be less confident on OOD than a scratch model - the
  // Figure 5 property, asserted here as a testable invariant.
  const auto& classes = data_->hierarchy.task_classes(0);
  Dataset ood = ExcludeClasses(data_->test, classes);
  LogitFn expert_fn =
      LibraryHeadLogits(*pool_->library(), *pool_->expert(0));

  WrnConfig scfg = TinyLibraryConfig();
  scfg.ks = 0.5;
  scfg.num_classes = 2;
  Rng rng(3);
  Wrn scratch(scfg, rng);
  Dataset task_train = FilterClasses(data_->train, classes, true);
  TrainScratch(scratch, task_train, FastTrainOptions(8));

  Tensor e_probs = Softmax2d(expert_fn(ood.images));
  Tensor s_probs = Softmax2d(ModelLogits(scratch)(ood.images));
  double e_conf = 0, s_conf = 0;
  for (int64_t r = 0; r < ood.size(); ++r) {
    e_conf += e_probs.at(r * 2 + ArgmaxRow(e_probs, r));
    s_conf += s_probs.at(r * 2 + ArgmaxRow(s_probs, r));
  }
  EXPECT_LT(e_conf, s_conf);
}

TEST_F(ExpertPoolTest, VolumeReportIsConsistent) {
  VolumeReport report = ComputeVolumeReport(*oracle_, *pool_);
  EXPECT_GT(report.oracle_bytes, report.pool_total_bytes);
  EXPECT_EQ(report.pool_total_bytes,
            report.library_bytes + report.experts_total_bytes);
  EXPECT_EQ(report.num_primitive_tasks, 3);
  // 2^3 * avg expert bytes.
  EXPECT_DOUBLE_EQ(report.all_specialized_estimate_bytes,
                   8.0 * report.avg_expert_bytes);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Sequential's row passes must leave batch-coupled trees whole. A dynamic
// int8 activation scale is the max-abs of the whole input: per-pass
// scales would change the logits.
TEST(RowPassGuardTest, DynamicScaleInt8MatchesWholeBatchChain) {
  Rng rng(71);
  std::shared_ptr<Sequential> trunk =
      BuildLibraryPart(TinyLibraryConfig(), rng);
  trunk->PrepareInt8Serving();
  ASSERT_TRUE(trunk->CouplesRows());
  const Tensor x = Tensor::Randn({32, 3, 8, 8}, rng);
  const Tensor want = testutil::WholeBatchChain(*trunk, x);
  const Tensor got = trunk->Forward(x, /*training=*/false);
  ASSERT_EQ(want.shape(), got.shape());
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                           sizeof(float) * want.numel()));
}

std::vector<float> StaticScales(Module& module) {
  std::vector<Module*> leaves;
  module.CollectQuantizable(&leaves);
  std::vector<float> scales;
  for (Module* leaf : leaves) scales.push_back(leaf->static_act_scale());
  return scales;
}

// Calibration observes every layer's input max-abs in a plain member, so
// the observing forwards must stay whole-batch: row passes dealt to the
// pool would race on it (the _mt4 twin runs under TSan in CI). The scales
// and the saved int8 pool must equal those of a whole-batch calibration,
// which no thread count changes.
TEST_F(ExpertPoolTest, CalibrationMatchesWholeBatchChain) {
  const std::string stem = ::testing::TempDir() + "/calibrate_" +
                           std::to_string(::getpid());
  const std::string f32_path = stem + "_f32.poe";
  ASSERT_TRUE(pool_->Save(f32_path).ok());
  auto loaded_a = ExpertPool::Load(f32_path);
  auto loaded_b = ExpertPool::Load(f32_path);
  ASSERT_TRUE(loaded_a.ok() && loaded_b.ok());
  ExpertPool a = std::move(loaded_a).ValueOrDie();
  ExpertPool b = std::move(loaded_b).ValueOrDie();

  Rng rng(72);
  const Tensor samples = Tensor::Randn({32, 3, 6, 6}, rng);
  ASSERT_TRUE(a.CalibrateActivations(samples).ok());

  b.library()->BeginActivationCalibration();
  for (int t = 0; t < b.num_experts(); ++t) {
    b.expert(t)->BeginActivationCalibration();
  }
  const Tensor features = testutil::WholeBatchChain(*b.library(), samples);
  for (int t = 0; t < b.num_experts(); ++t) {
    testutil::WholeBatchChain(*b.expert(t), features);
  }
  b.library()->FinishActivationCalibration();
  for (int t = 0; t < b.num_experts(); ++t) {
    b.expert(t)->FinishActivationCalibration();
  }

  EXPECT_EQ(StaticScales(*a.library()), StaticScales(*b.library()));
  for (int t = 0; t < a.num_experts(); ++t) {
    EXPECT_EQ(StaticScales(*a.expert(t)), StaticScales(*b.expert(t)))
        << "expert " << t;
  }
  ASSERT_TRUE(a.SetServingPrecision(ServingPrecision::kInt8).ok());
  ASSERT_TRUE(b.SetServingPrecision(ServingPrecision::kInt8).ok());
  const std::string a_path = stem + "_a.poe";
  const std::string b_path = stem + "_b.poe";
  ASSERT_TRUE(a.Save(a_path).ok());
  ASSERT_TRUE(b.Save(b_path).ok());
  const std::string bytes_a = ReadFileBytes(a_path);
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_TRUE(bytes_a == ReadFileBytes(b_path))
      << "calibrated int8 pools differ";
  std::remove(f32_path.c_str());
  std::remove(a_path.c_str());
  std::remove(b_path.c_str());
}

// Preprocess at a size where every training pass has work for several
// workers: 300 images of 16x16 (more than one 256-row oracle batch) in
// batches of 64, so BN channels, conv backward parts and elementwise adds
// split across the pool when POE_NUM_THREADS > 1.
class ExtractionTest : public ::testing::Test {
 protected:
  static SyntheticDataConfig DataConfig() {
    SyntheticDataConfig cfg = TinyDataConfig();
    cfg.height = 16;
    cfg.width = 16;
    cfg.train_per_class = 50;
    return cfg;
  }

  ExtractionTest()
      : data_(GenerateSyntheticDataset(DataConfig())), oracle_rng_(61) {
    oracle_ = std::make_unique<Wrn>(TinyOracleConfig(), oracle_rng_);
    cfg_.library_config = TinyLibraryConfig();
    cfg_.expert_ks = 0.5;
    cfg_.library_options = FastTrainOptions(1);
    cfg_.library_options.batch_size = 64;
    cfg_.expert_options = cfg_.library_options;
  }

  ExpertPool Extract(int* oracle_calls) {
    const LogitFn logits = ModelLogits(*oracle_);
    const LogitFn counted = [&](const Tensor& x) {
      ++*oracle_calls;
      return logits(x);
    };
    Rng rng(62);
    return ExpertPool::Preprocess(counted, data_, cfg_, rng);
  }

  SyntheticDataset data_;
  Rng oracle_rng_;
  std::unique_ptr<Wrn> oracle_;
  PoeBuildConfig cfg_;
};

TEST_F(ExtractionTest, RepeatedPreprocessSavesByteIdenticalPools) {
  int calls = 0;
  // Per-process names: the _mt4 ctest entry runs this binary concurrently.
  const std::string stem =
      ::testing::TempDir() + "/extract_" + std::to_string(::getpid());
  const std::string a = stem + "_a.poe";
  const std::string b = stem + "_b.poe";
  ASSERT_TRUE(Extract(&calls).Save(a).ok());
  ASSERT_TRUE(Extract(&calls).Save(b).ok());
  const std::string bytes_a = ReadFileBytes(a);
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_TRUE(bytes_a == ReadFileBytes(b))
      << "two seeded extractions saved different pools";
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST_F(ExtractionTest, OracleRunsOverTrainingSetOnce) {
  // Library KD and the CKD tables share one pass of 256-row batches.
  int calls = 0;
  Extract(&calls);
  const int64_t n = data_.train.size();
  ASSERT_GT(n, 256);
  EXPECT_EQ(calls, (n + 255) / 256);
}

}  // namespace
}  // namespace poe
