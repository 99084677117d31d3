// Concurrent serving stress: many client threads over mixed composite
// tasks against a small (churning) cache, checking the three serving
// invariants end to end:
//   1. the cache never serves the wrong model for a key,
//   2. cache-hit logits are bitwise identical to a fresh assembly,
//   3. counters reconcile exactly and no LRU entry is lost or duplicated.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "core/query_service.h"
#include "distill/specialize.h"
#include "eval/metrics.h"
#include "serve/inference_server.h"
#include "test_util.h"

namespace poe {
namespace {

using testutil::FastTrainOptions;
using testutil::TinyDataConfig;
using testutil::TinyLibraryConfig;
using testutil::TinyOracleConfig;

ExpertPool BuildPool() {
  static SyntheticDataset* data =
      new SyntheticDataset(GenerateSyntheticDataset(TinyDataConfig()));
  static Wrn* oracle = [] {
    Rng rng(51);
    Wrn* w = new Wrn(TinyOracleConfig(), rng);
    TrainScratch(*w, data->train, FastTrainOptions(4));
    return w;
  }();
  PoeBuildConfig cfg;
  cfg.library_config = TinyLibraryConfig();
  cfg.expert_ks = 0.5;
  cfg.library_options = FastTrainOptions(2);
  cfg.expert_options = FastTrainOptions(2);
  Rng rng(52);
  return ExpertPool::Preprocess(ModelLogits(*oracle), *data, cfg, rng);
}

// All 7 non-empty subsets of {0,1,2}, in assorted spellings (order and
// duplicates must not matter for correctness).
const std::vector<std::vector<int>>& MixedTaskSets() {
  static const std::vector<std::vector<int>>* sets =
      new std::vector<std::vector<int>>{
          {0},       {1},    {2},       {0, 1},    {1, 0, 0}, {0, 2},
          {2, 0},    {1, 2}, {2, 1, 1}, {0, 1, 2}, {2, 1, 0}, {1, 1, 2, 0},
      };
  return *sets;
}

std::vector<int> SortedClasses(const std::vector<int>& classes) {
  std::vector<int> sorted = classes;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

// The class set M(Q) must predict, independent of spelling.
std::vector<int> ExpectedClasses(const ClassHierarchy& hierarchy,
                                 const std::vector<int>& tasks) {
  std::vector<int> ids = tasks;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<int> classes;
  for (int t : ids) {
    const auto& task_classes = hierarchy.task_classes(t);
    classes.insert(classes.end(), task_classes.begin(), task_classes.end());
  }
  std::sort(classes.begin(), classes.end());
  return classes;
}

TEST(ServingStressTest, ConcurrentMixedWorkloadKeepsEveryInvariant) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  constexpr size_t kCapacity = 3;  // well under the 7 distinct keys: churn

  ModelQueryService service(BuildPool(), kCapacity);
  const PoolGenerationHandle gen = service.PinGeneration();
  const ClassHierarchy& hierarchy = gen->pool.hierarchy();
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      unsigned state = 99u + 7u * t;
      Rng rng(1000 + t);
      for (int i = 0; i < kPerThread; ++i) {
        state = state * 1664525u + 1013904223u;
        const auto& tasks = MixedTaskSets()[state % MixedTaskSets().size()];
        auto result = service.Query(tasks);
        if (!result.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // Invariant 1: the served model predicts exactly the classes of
        // this composite task - never another key's model.
        if (SortedClasses(result.ValueOrDie()->global_classes()) !=
            ExpectedClasses(hierarchy, tasks)) {
          failures.fetch_add(1);
        }
        // Occasionally run the model to shake out lifetime bugs (a model
        // evicted while a client still holds it must stay usable).
        if (i % 25 == 0) {
          Tensor probe = Tensor::Randn({1, 3, 6, 6}, rng);
          result.ValueOrDie()->Predict(probe);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // Invariant 3: exact counter reconciliation.
  ServeStats stats = service.serve_stats();
  EXPECT_EQ(stats.queries, kThreads * kPerThread);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses + stats.coalesced,
            stats.queries);

  int64_t shard_hits = 0, shard_misses = 0, shard_coalesced = 0,
          shard_evictions = 0, shard_size = 0;
  for (const auto& shard : stats.shards) {
    shard_hits += shard.hits;
    shard_misses += shard.misses;
    shard_coalesced += shard.coalesced;
    shard_evictions += shard.evictions;
    shard_size += shard.size;
  }
  EXPECT_EQ(shard_hits, stats.cache_hits);
  EXPECT_EQ(shard_misses, stats.cache_misses);
  EXPECT_EQ(shard_coalesced, stats.coalesced);
  // No lost LRU entries after eviction churn: resident entries equal
  // successful assemblies minus evictions, and fill the global bound.
  EXPECT_EQ(shard_size, stats.cache_misses - shard_evictions);
  EXPECT_EQ(static_cast<int64_t>(service.cache_size()), shard_size);
  EXPECT_EQ(service.cache_size(), kCapacity);

  // Invariant 2: whatever is cached now serves logits bitwise identical
  // to a fresh pool assembly of the same key.
  Rng rng(5);
  Tensor probe = Tensor::Randn({2, 3, 6, 6}, rng);
  for (const auto& tasks : {std::vector<int>{0, 1, 2}, std::vector<int>{1}}) {
    auto cached = service.Query(tasks).ValueOrDie();
    Tensor hit_logits = cached->Logits(probe);
    TaskModel fresh = service.PinGeneration()->pool.Query(tasks).ValueOrDie();
    Tensor fresh_logits = fresh.Logits(probe);
    ASSERT_EQ(hit_logits.numel(), fresh_logits.numel());
    EXPECT_EQ(std::memcmp(hit_logits.data(), fresh_logits.data(),
                          sizeof(float) * hit_logits.numel()),
              0);
  }
}

// Four clients against a server of `num_workers` workers: every request
// resolves exactly once, the counters reconcile, and every OK response is
// bitwise the solo forward of a fresh assembly of its task set.
void RunServerUnderConcurrentClients(int num_workers) {
  ModelQueryService service(BuildPool(), 4);
  InferenceServer::Options opts;
  opts.num_workers = num_workers;
  opts.queue_capacity = 16;
  InferenceServer server(&service, opts);

  constexpr int kClients = 4;
  constexpr int kPerClient = 50;
  struct Served {
    size_t set;  // index into MixedTaskSets()
    Tensor input;
    Tensor logits;
  };
  std::vector<std::vector<Served>> served(kClients);
  std::atomic<int> ok{0}, rejected{0}, failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      unsigned state = 7u + 13u * c;
      Rng rng(3000 + c);
      for (int i = 0; i < kPerClient; ++i) {
        state = state * 1664525u + 1013904223u;
        const size_t set = state % MixedTaskSets().size();
        InferenceRequest req;
        req.task_ids = MixedTaskSets()[set];
        req.input = Tensor::Randn({1, 3, 6, 6}, rng);
        Tensor input = req.input.Clone();
        InferenceResponse res = server.Submit(std::move(req)).get();
        if (res.status.ok()) {
          ok.fetch_add(1);
          if (res.predictions.size() != 1) failed.fetch_add(1);
          served[c].push_back({set, std::move(input), res.logits});
        } else if (res.status.code() == StatusCode::kResourceExhausted) {
          rejected.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  server.Shutdown();

  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(ok.load() + rejected.load(), kClients * kPerClient);
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kClients * kPerClient);
  EXPECT_EQ(stats.completed, ok.load());
  EXPECT_EQ(stats.rejected, rejected.load());
  EXPECT_EQ(stats.completed + stats.rejected, stats.submitted);
  EXPECT_EQ(stats.queue_depth, 0);
  // The service underneath saw one Query per fused batch, and its own
  // counters reconcile too.
  EXPECT_EQ(stats.cache_hits + stats.cache_misses + stats.coalesced,
            stats.queries);

  // Batched, trunk-fused and cached serving changes no f32 bit.
  const PoolGenerationHandle gen = service.PinGeneration();
  std::vector<TaskModel> solo;
  for (std::vector<int> tasks : MixedTaskSets()) {
    std::sort(tasks.begin(), tasks.end());
    tasks.erase(std::unique(tasks.begin(), tasks.end()), tasks.end());
    solo.push_back(gen->pool.Query(tasks).ValueOrDie());
  }
  for (const auto& client : served) {
    for (const Served& s : client) {
      Tensor expected = solo[s.set].Logits(s.input);
      ASSERT_EQ(s.logits.numel(), expected.numel());
      EXPECT_EQ(std::memcmp(s.logits.data(), expected.data(),
                            sizeof(float) * expected.numel()),
                0);
    }
  }
}

TEST(ServingStressTest, ServerUnderConcurrentClientsReconciles) {
  RunServerUnderConcurrentClients(/*num_workers=*/2);
}

// One worker per client: every client's request can be in a forward at
// once, so the worker pool and the intra-op pool are raced hardest.
TEST(ServingStressTest, ServerUnderConcurrentClientsReconcilesAtFourWorkers) {
  RunServerUnderConcurrentClients(/*num_workers=*/4);
}

}  // namespace
}  // namespace poe
