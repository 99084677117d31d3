#include "core/query_service.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "distill/specialize.h"
#include "eval/metrics.h"
#include "test_util.h"

namespace poe {
namespace {

using testutil::FastTrainOptions;
using testutil::TinyDataConfig;
using testutil::TinyLibraryConfig;
using testutil::TinyOracleConfig;

// Builds a small pool once for all service tests.
ExpertPool BuildPool() {
  static SyntheticDataset* data =
      new SyntheticDataset(GenerateSyntheticDataset(TinyDataConfig()));
  static Wrn* oracle = [] {
    Rng rng(31);
    Wrn* w = new Wrn(TinyOracleConfig(), rng);
    TrainScratch(*w, data->train, FastTrainOptions(4));
    return w;
  }();
  PoeBuildConfig cfg;
  cfg.library_config = TinyLibraryConfig();
  cfg.expert_ks = 0.5;
  cfg.library_options = FastTrainOptions(2);
  cfg.expert_options = FastTrainOptions(2);
  Rng rng(32);
  return ExpertPool::Preprocess(ModelLogits(*oracle), *data, cfg, rng);
}

TEST(QueryServiceTest, ServesModelsAndCountsQueries) {
  ModelQueryService service(BuildPool());
  auto m1 = service.Query({0, 1});
  ASSERT_TRUE(m1.ok());
  EXPECT_EQ(m1.ValueOrDie()->num_branches(), 2);
  auto m2 = service.Query({2});
  ASSERT_TRUE(m2.ok());
  ServeStats stats = service.serve_stats();
  EXPECT_EQ(stats.queries, 2);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_GE(stats.avg_ms, 0.0);
  EXPECT_GE(stats.max_ms, 0.0);
}

TEST(QueryServiceTest, PropagatesQueryErrors) {
  ModelQueryService service(BuildPool());
  EXPECT_FALSE(service.Query({42}).ok());
  EXPECT_FALSE(service.Query(std::vector<int>{}).ok());
}

TEST(QueryServiceTest, CacheHitsOnRepeatedQueries) {
  ModelQueryService service(BuildPool(), /*cache_capacity=*/4);
  auto a = service.Query({0, 1}).ValueOrDie();
  auto b = service.Query({0, 1}).ValueOrDie();
  EXPECT_EQ(a.get(), b.get());  // same cached object
  EXPECT_EQ(service.serve_stats().cache_hits, 1);
}

TEST(QueryServiceTest, CacheKeyIsOrderInsensitive) {
  ModelQueryService service(BuildPool(), 4);
  service.Query({0, 1}).ValueOrDie();
  service.Query({1, 0}).ValueOrDie();
  EXPECT_EQ(service.serve_stats().cache_hits, 1);
}

TEST(QueryServiceTest, DuplicateTaskIdsShareOneCacheEntry) {
  // {1,1,2}, {1,2} and {2,1,1} are the same composite task: the key is
  // canonicalized (sorted + deduplicated), so all spellings hit one entry
  // and the assembled model has one branch per distinct task.
  ModelQueryService service(BuildPool(), 4);
  auto a = service.Query({1, 1, 2});
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.ValueOrDie()->num_branches(), 2);
  auto b = service.Query({1, 2});
  ASSERT_TRUE(b.ok());
  auto c = service.Query({2, 1, 1});
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a.ValueOrDie().get(), b.ValueOrDie().get());
  EXPECT_EQ(a.ValueOrDie().get(), c.ValueOrDie().get());
  EXPECT_EQ(service.serve_stats().cache_hits, 2);
  EXPECT_EQ(service.cache_size(), 1u);
}

TEST(QueryServiceTest, CacheHitLogitsMatchFreshAssemblyBitwise) {
  ModelQueryService service(BuildPool(), 4);
  Rng rng(7);
  Tensor probe = Tensor::Randn({2, 3, 6, 6}, rng);
  auto cached = service.Query({0, 2}).ValueOrDie();
  service.Query({0, 2}).ValueOrDie();  // now served from cache
  Tensor hit_logits = cached->Logits(probe);

  // Fresh assembly straight off the pool: same aliased weights, so the
  // forward must be bitwise identical to the cached model's.
  TaskModel fresh = service.PinGeneration()->pool.Query({0, 2}).ValueOrDie();
  Tensor fresh_logits = fresh.Logits(probe);
  ASSERT_EQ(hit_logits.numel(), fresh_logits.numel());
  EXPECT_EQ(std::memcmp(hit_logits.data(), fresh_logits.data(),
                        sizeof(float) * hit_logits.numel()),
            0);
}

TEST(QueryServiceTest, ServeStatsExposeShardsAndReconcile) {
  ModelQueryService service(BuildPool(), 4);
  service.Query({0}).ValueOrDie();
  service.Query({0}).ValueOrDie();
  service.Query({1}).ValueOrDie();
  ServeStats stats = service.serve_stats();
  EXPECT_EQ(stats.queries, 3);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 2);
  EXPECT_EQ(stats.coalesced, 0);
  EXPECT_EQ(static_cast<int>(stats.shards.size()),
            ModelQueryService::kCacheShards);
  int64_t shard_hits = 0, shard_misses = 0, shard_size = 0;
  for (const auto& s : stats.shards) {
    shard_hits += s.hits;
    shard_misses += s.misses;
    shard_size += s.size;
  }
  EXPECT_EQ(shard_hits, 1);
  EXPECT_EQ(shard_misses, 2);
  EXPECT_EQ(shard_size, static_cast<int64_t>(service.cache_size()));
  EXPECT_GE(stats.p99_ms, stats.p50_ms);
  EXPECT_GE(stats.max_ms, stats.p99_ms);
  EXPECT_GT(stats.qps, 0.0);
}

TEST(QueryServiceTest, LruEvictsOldest) {
  ModelQueryService service(BuildPool(), /*cache_capacity=*/2);
  service.Query({0}).ValueOrDie();
  service.Query({1}).ValueOrDie();
  service.Query({2}).ValueOrDie();  // evicts {0}
  EXPECT_EQ(service.cache_size(), 2u);
  service.Query({0}).ValueOrDie();  // miss again
  EXPECT_EQ(service.serve_stats().cache_hits, 0);
  service.Query({0}).ValueOrDie();  // now a hit
  EXPECT_EQ(service.serve_stats().cache_hits, 1);
}

TEST(QueryServiceTest, ZeroCapacityDisablesCache) {
  ModelQueryService service(BuildPool(), 0);
  service.Query({0}).ValueOrDie();
  service.Query({0}).ValueOrDie();
  EXPECT_EQ(service.serve_stats().cache_hits, 0);
  EXPECT_EQ(service.cache_size(), 0u);
}

TEST(QueryServiceTest, ConcurrentQueriesAreSafe) {
  ModelQueryService service(BuildPool(), 8);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&service, i] {
      for (int j = 0; j < 25; ++j) {
        auto r = service.Query({i % 3});
        ASSERT_TRUE(r.ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(service.serve_stats().queries, 100);
}

TEST(QueryServiceTest, AssemblyIsFasterThanAnyTraining) {
  // The train-free property: queries assemble in well under a second.
  ModelQueryService service(BuildPool());
  for (int t = 0; t < 3; ++t) service.Query({t}).ValueOrDie();
  EXPECT_LT(service.serve_stats().max_ms, 1000.0);
}

}  // namespace
}  // namespace poe
