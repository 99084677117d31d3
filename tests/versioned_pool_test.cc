// Pool generations and live upgrade: content diffing, selective cache
// invalidation, adoption (memory sharing across generations), precision
// policy, upgrade-under-load, and the generation counters.
#include "core/versioned_pool.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/query_service.h"
#include "core/request.h"
#include "distill/specialize.h"
#include "eval/metrics.h"
#include "net/wire.h"
#include "serve/inference_server.h"
#include "test_util.h"

namespace poe {
namespace {

using testutil::FastTrainOptions;
using testutil::TinyDataConfig;
using testutil::TinyLibraryConfig;
using testutil::TinyOracleConfig;

// Per-process names: the _mt4 ctest entry runs this binary concurrently,
// and at another thread count it saves different pool bytes.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" +
         name;
}

// Builds a small pool once for all generation tests (training is the slow
// part; every test then works on Save/Load deep copies).
ExpertPool BuildPool() {
  static SyntheticDataset* data =
      new SyntheticDataset(GenerateSyntheticDataset(TinyDataConfig()));
  static Wrn* oracle = [] {
    Rng rng(41);
    Wrn* w = new Wrn(TinyOracleConfig(), rng);
    TrainScratch(*w, data->train, FastTrainOptions(4));
    return w;
  }();
  PoeBuildConfig cfg;
  cfg.library_config = TinyLibraryConfig();
  cfg.expert_ks = 0.5;
  cfg.library_options = FastTrainOptions(2);
  cfg.expert_options = FastTrainOptions(2);
  Rng rng(42);
  return ExpertPool::Preprocess(ModelLogits(*oracle), *data, cfg, rng);
}

/// A DEEP copy of the seed pool: the copy constructor shares masters (by
/// design), so content-independent generations go through Save/Load.
ExpertPool DeepCopy(const std::string& tag) {
  const std::string path = TempPath("versioned_" + tag + ".poe");
  ExpertPool pool = BuildPool();
  EXPECT_TRUE(pool.Save(path).ok());
  auto loaded = ExpertPool::Load(path);
  EXPECT_TRUE(loaded.ok());
  std::remove(path.c_str());
  return std::move(loaded).ValueOrDie();
}

/// Perturbs one weight of expert `task_id` so its content CRC changes.
void PerturbExpert(ExpertPool& pool, int task_id) {
  auto params = pool.expert(task_id)->Parameters();
  ASSERT_FALSE(params.empty());
  params.front()->value.data()[0] += 1.0f;
}

TEST(GenerationCoversKeyTest, AppliesTheChangeTableRule) {
  PoolGeneration gen(3, BuildPool());
  gen.last_changed = {1, 3, 2};
  // Unversioned models never validate.
  EXPECT_FALSE(GenerationCoversKey(gen, {0}, 0));
  // Covered: every key expert last changed at or before the model's gen.
  EXPECT_TRUE(GenerationCoversKey(gen, {0, 2}, 2));
  EXPECT_TRUE(GenerationCoversKey(gen, {0, 1, 2}, 3));
  // Expert 1 changed in gen 3: models from gen 2 are stale for it.
  EXPECT_FALSE(GenerationCoversKey(gen, {1}, 2));
  // Removed / never-existed experts are never covered.
  EXPECT_FALSE(GenerationCoversKey(gen, {7}, 3));
  EXPECT_FALSE(GenerationCoversKey(gen, {-1}, 3));
}

TEST(VersionedPoolTest, NoopSwapDiffsAsNoopAndAdvancesGeneration) {
  VersionedPool versioned(DeepCopy("noop_a"));
  EXPECT_EQ(versioned.generation(), 1u);
  auto diff = versioned.Swap(DeepCopy("noop_b"));
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff.ValueOrDie().noop());
  EXPECT_EQ(diff.ValueOrDie().unchanged, 3);
  EXPECT_EQ(versioned.generation(), 2u);
  EXPECT_EQ(versioned.generations_swapped(), 1);
  // A faithful reload carries every last_changed forward: gen-1 models
  // still cover every key.
  EXPECT_TRUE(GenerationCoversKey(*versioned.Current(), {0, 1, 2}, 1));
}

TEST(VersionedPoolTest, ChangedExpertIsDiffedAndChangeTableBumped) {
  VersionedPool versioned(DeepCopy("chg_a"));
  ExpertPool next = DeepCopy("chg_b");
  PerturbExpert(next, 1);
  auto diff_result = versioned.Swap(std::move(next));
  ASSERT_TRUE(diff_result.ok());
  const GenerationDiff diff = diff_result.ValueOrDie();
  EXPECT_EQ(diff.changed, (std::vector<int>{1}));
  EXPECT_EQ(diff.unchanged, 2);
  EXPECT_FALSE(diff.library_changed);
  EXPECT_FALSE(diff.noop());
  const PoolGenerationHandle gen = versioned.Current();
  EXPECT_TRUE(GenerationCoversKey(*gen, {0, 2}, 1));
  EXPECT_FALSE(GenerationCoversKey(*gen, {1}, 1));
  EXPECT_TRUE(GenerationCoversKey(*gen, {1}, 2));
}

TEST(VersionedPoolTest, UnchangedMastersAreAdoptedByPointer) {
  ExpertPool first = DeepCopy("adopt_a");
  const std::shared_ptr<Sequential> e0 = first.expert(0);
  const std::shared_ptr<Sequential> trunk = first.library();
  VersionedPool versioned(std::move(first));
  ExpertPool next = DeepCopy("adopt_b");
  PerturbExpert(next, 1);
  ASSERT_TRUE(versioned.Swap(std::move(next)).ok());
  const PoolGenerationHandle gen = versioned.Current();
  // Unchanged expert and trunk keep POINTER identity across the swap (no
  // byte duplication; serving-layer trunk fusion keeps working).
  EXPECT_EQ(gen->pool.expert(0).get(), e0.get());
  EXPECT_EQ(gen->pool.library().get(), trunk.get());
  // The changed expert is the new generation's own module.
  EXPECT_NE(gen->pool.expert(1).get(), nullptr);
}

TEST(VersionedPoolTest, Int8NextIntoF32FacadeIsRejected) {
  VersionedPool versioned(DeepCopy("prec_a"));
  ExpertPool next = DeepCopy("prec_b");
  ASSERT_TRUE(next.SetServingPrecision(ServingPrecision::kInt8).ok());
  auto diff = versioned.Swap(std::move(next));
  ASSERT_FALSE(diff.ok());
  EXPECT_EQ(diff.status().code(), StatusCode::kFailedPrecondition);
  // The failed swap published nothing.
  EXPECT_EQ(versioned.generation(), 1u);
  EXPECT_EQ(versioned.generations_swapped(), 0);
}

TEST(QueryServiceUpgradeTest, InvalidatesOnlyChangedKeys) {
  ModelQueryService service(DeepCopy("sel_a"), /*cache_capacity=*/8);
  auto m0 = service.Query({0}).ValueOrDie();
  service.Query({1}).ValueOrDie();
  auto m02 = service.Query({0, 2}).ValueOrDie();
  service.Query({1, 2}).ValueOrDie();
  EXPECT_EQ(service.cache_size(), 4u);

  ExpertPool next = DeepCopy("sel_b");
  PerturbExpert(next, 1);
  auto diff = service.UpgradePool(std::move(next));
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff.ValueOrDie().changed, (std::vector<int>{1}));

  // Exactly the keys naming expert 1 were dropped.
  ServeStats stats = service.serve_stats();
  EXPECT_EQ(stats.cache_keys_invalidated, 2);
  EXPECT_EQ(service.cache_size(), 2u);
  EXPECT_EQ(stats.generation, 2u);
  EXPECT_EQ(stats.generations_swapped, 1);

  // Unchanged composites keep hitting — the SAME cached objects.
  const int64_t hits_before = service.serve_stats().cache_hits;
  EXPECT_EQ(service.Query({0}).ValueOrDie().get(), m0.get());
  EXPECT_EQ(service.Query({0, 2}).ValueOrDie().get(), m02.get());
  EXPECT_EQ(service.serve_stats().cache_hits, hits_before + 2);

  // Changed keys miss exactly once, then hit again.
  const int64_t misses_before = service.serve_stats().cache_misses;
  auto fresh = service.Query({1}).ValueOrDie();
  EXPECT_EQ(fresh->generation(), 2u);
  EXPECT_EQ(service.serve_stats().cache_misses, misses_before + 1);
  EXPECT_EQ(service.Query({1}).ValueOrDie().get(), fresh.get());
  EXPECT_EQ(service.serve_stats().cache_misses, misses_before + 1);
}

TEST(QueryServiceUpgradeTest, NoopUpgradeKeepsWholeCacheAndBytes) {
  ModelQueryService service(DeepCopy("noop_svc_a"), 8);
  auto before = service.Query({0, 1}).ValueOrDie();
  const int64_t pool_bytes = service.serve_stats().pool_bytes;
  auto diff = service.UpgradePool(DeepCopy("noop_svc_b"));
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff.ValueOrDie().noop());
  EXPECT_EQ(service.serve_stats().cache_keys_invalidated, 0);
  EXPECT_EQ(service.cache_size(), 1u);
  EXPECT_EQ(service.Query({0, 1}).ValueOrDie().get(), before.get());
  // Every master was adopted: the generation's footprint is unchanged.
  EXPECT_EQ(service.serve_stats().pool_bytes, pool_bytes);
}

TEST(QueryServiceUpgradeTest, NoopUpgradeIsBitwiseIdenticalF32) {
  ModelQueryService service(DeepCopy("bit_a"), 8);
  Rng rng(7);
  Tensor probe = Tensor::Randn({2, 3, 6, 6}, rng);
  Tensor logits_before = service.Query({0, 2}).ValueOrDie()->Logits(probe);
  ASSERT_TRUE(service.UpgradePool(DeepCopy("bit_b")).ok());
  // Fresh assembly against the NEW generation, same probe.
  TaskModel fresh =
      service.PinGeneration()->pool.Query({0, 2}).ValueOrDie();
  Tensor logits_after = fresh.Logits(probe);
  ASSERT_EQ(logits_before.numel(), logits_after.numel());
  EXPECT_EQ(std::memcmp(logits_before.data(), logits_after.data(),
                        sizeof(float) * logits_before.numel()),
            0);
}

TEST(QueryServiceUpgradeTest, NoopUpgradeIsBitwiseIdenticalInt8) {
  // Calibrate once, save, and serve two loads of the SAME file through an
  // int8 facade: the deterministic conversion must make the reload diff
  // as a no-op and serve bit-identical int8 logits.
  const std::string path = TempPath("versioned_int8.poe");
  {
    ExpertPool pool = BuildPool();
    Rng rng(13);
    Tensor samples = Tensor::Randn({4, 3, 6, 6}, rng);
    ASSERT_TRUE(pool.CalibrateActivations(samples).ok());
    ASSERT_TRUE(pool.Save(path).ok());
  }
  auto first = ExpertPool::Load(path);
  ASSERT_TRUE(first.ok());
  ExpertPool first_pool = std::move(first).ValueOrDie();
  ASSERT_TRUE(first_pool.SetServingPrecision(ServingPrecision::kInt8).ok());
  ModelQueryService service(std::move(first_pool), 8);
  Rng rng(7);
  Tensor probe = Tensor::Randn({2, 3, 6, 6}, rng);
  Tensor logits_before = service.Query({0, 1}).ValueOrDie()->Logits(probe);

  auto second = ExpertPool::Load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(second.ok());
  auto diff = service.UpgradePool(std::move(second).ValueOrDie());
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff.ValueOrDie().noop());

  TaskModel fresh =
      service.PinGeneration()->pool.Query({0, 1}).ValueOrDie();
  EXPECT_EQ(fresh.serving_precision(), ServingPrecision::kInt8);
  Tensor logits_after = fresh.Logits(probe);
  ASSERT_EQ(logits_before.numel(), logits_after.numel());
  EXPECT_EQ(std::memcmp(logits_before.data(), logits_after.data(),
                        sizeof(float) * logits_before.numel()),
            0);
}

TEST(QueryServiceUpgradeTest, OldGenerationMemoryIsReleased) {
  ModelQueryService service(DeepCopy("mem_a"), 8);
  std::weak_ptr<Sequential> old_e0;
  std::weak_ptr<Sequential> old_e1;
  {
    const PoolGenerationHandle gen = service.PinGeneration();
    old_e0 = gen->pool.expert(0);
    old_e1 = gen->pool.expert(1);
  }
  {
    // Populate the cache, then drop our client handles.
    auto a = service.Query({0});
    ASSERT_TRUE(a.ok());
    auto b = service.Query({1});
    ASSERT_TRUE(b.ok());
  }
  ExpertPool next = DeepCopy("mem_b");
  PerturbExpert(next, 1);
  ASSERT_TRUE(service.UpgradePool(std::move(next)).ok());
  // The changed expert's old master had three possible owners: the old
  // generation (destroyed at swap), the invalidated cache entry (swept at
  // swap), and client models (dropped above) — so it is gone.
  EXPECT_TRUE(old_e1.expired());
  // The unchanged master was adopted into the new generation: still live.
  EXPECT_FALSE(old_e0.expired());
}

TEST(QueryServiceUpgradeTest, UpgradeUnderConcurrentLoadNeverFailsAQuery) {
  ModelQueryService service(DeepCopy("load_a"), 16);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> ok_queries{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&service, &stop, &ok_queries, t] {
      Rng rng(60 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const int a = static_cast<int>(rng.NextInt(3));
        const int b = static_cast<int>(rng.NextInt(3));
        auto r = service.Query(a == b ? std::vector<int>{a}
                                      : std::vector<int>{a, b});
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        ok_queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Several upgrades while the clients hammer the service: alternating
  // changed and no-op generations.
  for (int i = 0; i < 3; ++i) {
    ExpertPool next = DeepCopy("load_next_" + std::to_string(i));
    if (i % 2 == 0) PerturbExpert(next, i % 3);
    auto diff = service.UpgradePool(std::move(next));
    ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  }
  stop.store(true);
  for (auto& c : clients) c.join();

  EXPECT_GT(ok_queries.load(), 0);
  ServeStats stats = service.serve_stats();
  EXPECT_EQ(stats.generation, 4u);
  EXPECT_EQ(stats.generations_swapped, 3);
  EXPECT_EQ(stats.generation,
            static_cast<uint64_t>(1 + stats.generations_swapped));
  // Shard invalidations are exactly the service-level counter.
  int64_t shard_invalidated = 0;
  for (const auto& s : stats.shards) shard_invalidated += s.invalidated;
  EXPECT_EQ(stats.cache_keys_invalidated, shard_invalidated);
}

TEST(PoolRequestTest, ValidationIsTheSingleAdmissionCheck) {
  Rng rng(3);
  PoolRequest ok = PoolRequestBuilder()
                       .Tasks({0})
                       .Input(Tensor::Randn({1, 3, 6, 6}, rng))
                       .DeadlineMs(50.0)
                       .Generation(1)
                       .Build();
  EXPECT_TRUE(ValidatePoolRequest(ok).ok());
  EXPECT_EQ(ok.deadline_ms, 50.0);
  EXPECT_EQ(ok.generation, 1u);

  PoolRequest no_tasks;
  no_tasks.input = Tensor::Randn({1, 3, 6, 6}, rng);
  EXPECT_EQ(ValidatePoolRequest(no_tasks).code(),
            StatusCode::kInvalidArgument);

  PoolRequest bad_input;
  bad_input.task_ids = {0};
  bad_input.input = Tensor::Randn({3, 6, 6}, rng);  // 3-dim, not [n,c,h,w]
  EXPECT_EQ(ValidatePoolRequest(bad_input).code(),
            StatusCode::kInvalidArgument);
}

TEST(ServerUpgradeTest, ResponsesReportServingGenerationAcrossSwap) {
  ModelQueryService service(DeepCopy("srv_a"), 8);
  InferenceServer::Options opts;
  opts.num_workers = 1;
  InferenceServer server(&service, opts);
  Rng rng(5);
  Tensor probe = Tensor::Randn({1, 3, 6, 6}, rng);

  InferenceRequest req;
  req.task_ids = {0, 1};
  req.input = probe;
  InferenceResponse before = server.Submit(req).get();
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(before.generation, 1u);

  ExpertPool next = DeepCopy("srv_b");
  PerturbExpert(next, 0);
  ASSERT_TRUE(service.UpgradePool(std::move(next)).ok());

  // Pin the old generation: answered by the new one, counted as stale.
  req.generation = 1;
  InferenceResponse after = server.Submit(req).get();
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.generation, 2u);
  server.Shutdown();
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.stale_generation_queries, 1);
  EXPECT_EQ(stats.generation, 2u);
  EXPECT_EQ(stats.generations_swapped, 1);
}

TEST(WireGenerationTest, ResponseCarriesGenerationOnTheWire) {
  InferenceResponse response;
  response.status = Status::OK();
  response.logits = Tensor({1, 2});
  response.logits.data()[0] = 0.25f;
  response.logits.data()[1] = 0.75f;
  response.global_classes = {0, 1};
  response.predictions = {1};
  response.generation = 7;
  const std::vector<uint8_t> frame = EncodeResponseFrame(99, response);

  WireHeader header;
  ASSERT_TRUE(DecodeHeader(frame.data(), frame.size(), kWireTypeResponse,
                           kDefaultMaxBodyBytes, &header)
                  .ok());
  EXPECT_EQ(header.version, kWireVersion);
  WireResponse decoded;
  ASSERT_TRUE(DecodeResponseBody(frame.data() + kWireHeaderBytes,
                                 frame.size() - kWireHeaderBytes, header,
                                 &decoded)
                  .ok());
  EXPECT_EQ(decoded.generation, 7u);
  EXPECT_EQ(decoded.request_id, 99u);
  EXPECT_EQ(decoded.predictions, (std::vector<int>{1}));
}

}  // namespace
}  // namespace poe
