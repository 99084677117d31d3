#include "core/expert_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/query_service.h"
#include "distill/specialize.h"
#include "models/wrn.h"
#include "test_util.h"
#include "util/rng.h"

namespace poe {
namespace {

using testutil::FastTrainOptions;
using testutil::TinyDataConfig;
using testutil::TinyLibraryConfig;
using testutil::TinyOracleConfig;

WrnConfig SmallExpertConfig() {
  WrnConfig cfg;
  cfg.depth = 10;
  cfg.kc = 1.0;
  cfg.ks = 0.5;
  cfg.num_classes = 2;
  cfg.base_channels = 4;
  return cfg;
}

/// A store over `n` freshly initialized (untrained) expert heads — the
/// sharing machinery does not care how well the experts learned.
std::unique_ptr<ExpertStore> MakeStore(int n, Rng& rng) {
  auto store = std::make_unique<ExpertStore>();
  WrnConfig ecfg = SmallExpertConfig();
  for (int t = 0; t < n; ++t) {
    auto head = BuildExpertPart(ecfg, ecfg.conv3_channels(), rng);
    store->AddExpert(std::move(head), {2 * t, 2 * t + 1}, ecfg);
  }
  return store;
}

TEST(ExpertStoreTest, AcquireSharesLiveBranchByPointerIdentity) {
  Rng rng(1);
  auto store = MakeStore(3, rng);

  // "Composite {0,1}" then "composite {0,1,2}": the overlap must be the
  // SAME branch objects, and only expert 2 newly materializes.
  std::vector<ExpertBranchHandle> first = {
      store->Acquire(0).ValueOrDie(), store->Acquire(1).ValueOrDie()};
  std::vector<ExpertBranchHandle> second = {store->Acquire(0).ValueOrDie(),
                                            store->Acquire(1).ValueOrDie(),
                                            store->Acquire(2).ValueOrDie()};
  EXPECT_EQ(first[0].get(), second[0].get());
  EXPECT_EQ(first[1].get(), second[1].get());

  ExpertStoreStats stats = store->stats();
  EXPECT_EQ(stats.expert_misses, 3);  // 0, 1, 2 each materialized once
  EXPECT_EQ(stats.expert_hits, 2);    // 0 and 1 reused by the second set
  EXPECT_EQ(stats.experts_referenced, 3);
}

TEST(ExpertStoreTest, SharedBytesSavedIsExactlyTheHitBytes) {
  Rng rng(2);
  auto store = MakeStore(2, rng);

  auto a = store->Acquire(0).ValueOrDie();
  const int64_t bytes0 = HeldStateBytes(*a->head);
  ASSERT_GT(bytes0, 0);
  EXPECT_EQ(store->stats().shared_bytes_saved, 0);  // no sharing yet

  auto b = store->Acquire(0).ValueOrDie();  // hit
  auto c = store->Acquire(1).ValueOrDie();  // miss
  auto d = store->Acquire(0).ValueOrDie();  // hit
  ExpertStoreStats stats = store->stats();
  EXPECT_EQ(stats.expert_hits + stats.expert_misses, 4);
  EXPECT_EQ(stats.shared_bytes_saved, 2 * bytes0);
}

// Pack-once serving: materialization builds the expert's persistent
// packed GEMM panels exactly once, composites sharing the expert share
// ONE packed form (by module pointer identity), and the byte counters
// account the packed bytes without double-counting.
TEST(ExpertStoreTest, MaterializationPrepacksOnceAndSharesPackedBytes) {
  Rng rng(7);
  auto store = MakeStore(2, rng);

  auto a = store->Acquire(0).ValueOrDie();
  const int64_t packed = a->head->PackedWeightBytes();
  EXPECT_GT(packed, 0);  // Acquire materialization prepacked the branch
  const int64_t bytes0 = HeldStateBytes(*a->head);
  EXPECT_GT(bytes0, packed);
  EXPECT_EQ(store->stats().referenced_bytes, bytes0);

  // A second composite acquiring the same expert shares the same packed
  // form — no re-pack, and shared_bytes_saved charges the full held bytes
  // (packed form included) exactly once.
  auto b = store->Acquire(0).ValueOrDie();
  EXPECT_EQ(a->head.get(), b->head.get());
  EXPECT_EQ(a->head->PackedWeightBytes(), packed);
  ExpertStoreStats stats = store->stats();
  EXPECT_EQ(stats.shared_bytes_saved, bytes0);
  EXPECT_EQ(stats.referenced_bytes, bytes0);  // one packed copy resident

  // Releasing everything and re-acquiring finds the panels already built:
  // byte accounting is stable across re-materialization.
  a.reset();
  b.reset();
  auto c = store->Acquire(0).ValueOrDie();
  EXPECT_EQ(c->head->PackedWeightBytes(), packed);
  EXPECT_EQ(store->stats().referenced_bytes, bytes0);
}

TEST(ExpertStoreTest, ReleasingLastHandleDropsTheReference) {
  Rng rng(3);
  auto store = MakeStore(2, rng);

  const ExpertBranch* raw = nullptr;
  {
    auto handle = store->Acquire(0).ValueOrDie();
    raw = handle.get();
    EXPECT_EQ(store->stats().experts_referenced, 1);
    EXPECT_GT(store->ReferencedBytes(), 0);
  }
  // Last composite gone: the branch is released (masters stay).
  EXPECT_EQ(store->stats().experts_referenced, 0);
  EXPECT_EQ(store->ReferencedBytes(), 0);

  // A fresh acquire re-materializes (a new object; counted as a miss).
  auto again = store->Acquire(0).ValueOrDie();
  ExpertStoreStats stats = store->stats();
  EXPECT_EQ(stats.expert_misses, 2);
  EXPECT_EQ(stats.expert_hits, 0);
  (void)raw;  // the old pointer value may even be reused; no aliasing claim
}

TEST(ExpertStoreTest, ReferencedBytesScaleWithDistinctExpertsNotAcquires) {
  Rng rng(4);
  auto store = MakeStore(4, rng);

  std::vector<ExpertBranchHandle> held;
  for (int round = 0; round < 5; ++round) {
    for (int t = 0; t < 2; ++t) held.push_back(store->Acquire(t).ValueOrDie());
  }
  // 10 acquires over 2 distinct experts: footprint is 2 experts' bytes.
  const int64_t two = store->ReferencedBytes();
  held.push_back(store->Acquire(2).ValueOrDie());
  const int64_t three = store->ReferencedBytes();
  EXPECT_GT(two, 0);
  EXPECT_GT(three, two);
  EXPECT_EQ(store->stats().experts_referenced, 3);
}

TEST(ExpertStoreTest, UnknownIdIsOutOfRange) {
  Rng rng(5);
  auto store = MakeStore(2, rng);
  EXPECT_EQ(store->Acquire(-1).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(store->Acquire(2).status().code(), StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------- service
// Service-level behavior over a real (trained) pool: the cache, the pool
// and the store must compose so that overlapping composites share branch
// objects and eviction never frees a still-referenced expert.

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

TEST(ExpertStoreServiceTest, OverlappingCompositesShareBranchObjects) {
  ModelQueryService service(BuildPool(), /*cache_capacity=*/8);
  auto m12 = service.Query({0, 1}).ValueOrDie();
  auto m123 = service.Query({0, 1, 2}).ValueOrDie();

  ASSERT_EQ(m12->num_branches(), 2);
  ASSERT_EQ(m123->num_branches(), 3);
  // Branch order is sorted task ids, so the overlap lines up pairwise.
  EXPECT_EQ(m12->branch_handle(0).get(), m123->branch_handle(0).get());
  EXPECT_EQ(m12->branch_handle(1).get(), m123->branch_handle(1).get());

  ServeStats stats = service.serve_stats();
  EXPECT_EQ(stats.expert_misses, 3);
  EXPECT_EQ(stats.expert_hits, 2);
  EXPECT_GT(stats.shared_bytes_saved, 0);
  // Model-granularity accounting double-charges the trunk and the shared
  // experts; the deduplicated footprint is strictly smaller.
  EXPECT_GT(stats.resident_model_bytes,
            stats.trunk_bytes + stats.referenced_expert_bytes);
  EXPECT_GT(stats.resident_dedup_saved_bytes(), 0);
}

TEST(ExpertStoreServiceTest, EvictingACompositeKeepsSharedExpertsAlive) {
  // Capacity 1: the second query evicts the first composite.
  ModelQueryService service(BuildPool(), /*cache_capacity=*/1);
  auto m01 = service.Query({0, 1}).ValueOrDie();
  auto m12 = service.Query({1, 2}).ValueOrDie();
  EXPECT_EQ(service.cache_size(), 1u);

  // The evicted composite still serves (clients may hold it), and its
  // expert-1 branch is the one the resident composite shares.
  Rng rng(7);
  Tensor x = Tensor::Randn({2, 3, 6, 6}, rng);
  Tensor logits = m01->Logits(x);
  EXPECT_EQ(logits.dim(1), 4);
  EXPECT_EQ(m01->branch_handle(1).get(), m12->branch_handle(0).get());

  // Drop the evicted model: expert 0 loses its last reference, experts 1
  // and 2 stay referenced through the resident composite.
  m01.reset();
  ServeStats stats = service.serve_stats();
  EXPECT_EQ(stats.experts_referenced, 2);
}

TEST(ExpertStoreServiceTest, PoolCopiesGetIndependentStoresOverSharedMasters) {
  ExpertPool pool = BuildPool();
  ExpertPool copy = pool;
  // Distinct stores (per-copy accounting) over the same master modules
  // (weights never duplicated).
  EXPECT_NE(pool.expert_store().get(), copy.expert_store().get());
  EXPECT_EQ(pool.expert(0).get(), copy.expert(0).get());

  TaskModel model = pool.Query({0, 1}).ValueOrDie();
  EXPECT_EQ(pool.expert_store()->stats().expert_misses, 2);
  EXPECT_EQ(copy.expert_store()->stats().expert_misses, 0);
  (void)model;
}

TEST(ExpertStoreServiceTest, Int8PoolReportsInt8ExpertBytes) {
  ModelQueryService f32(BuildPool(), 4);
  ExpertPool i8_pool = BuildPool();
  ASSERT_TRUE(i8_pool.SetServingPrecision(ServingPrecision::kInt8).ok());
  ModelQueryService i8(std::move(i8_pool), 4);
  auto mf = f32.Query({0, 1}).ValueOrDie();
  auto mi = i8.Query({0, 1}).ValueOrDie();
  ServeStats sf = f32.serve_stats();
  ServeStats si = i8.serve_stats();
  ASSERT_GT(sf.referenced_expert_bytes, 0);
  ASSERT_GT(si.referenced_expert_bytes, 0);
  // Packed int8 weights (plus scales) are well under the f32 footprint.
  EXPECT_LT(si.referenced_expert_bytes, sf.referenced_expert_bytes);
  EXPECT_EQ(mi->serving_precision(), ServingPrecision::kInt8);
  (void)mf;
}

}  // namespace
}  // namespace poe
