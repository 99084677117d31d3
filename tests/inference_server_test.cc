#include "serve/inference_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "distill/specialize.h"
#include "eval/metrics.h"
#include "test_util.h"
#include "util/fault.h"

// A one-shot allocation failure for the exception-guard test: setting
// t_fail_next_alloc makes the NEXT operator new on that thread throw
// std::bad_alloc. Each tests/*_test.cc links into its own executable, so
// the override is local to this test.
namespace {
thread_local bool t_fail_next_alloc = false;
}  // namespace

void* operator new(std::size_t size) {
  if (t_fail_next_alloc) {
    t_fail_next_alloc = false;
    throw std::bad_alloc();
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

using testutil::FastTrainOptions;
using testutil::TinyDataConfig;
using testutil::TinyLibraryConfig;
using testutil::TinyOracleConfig;

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

InferenceRequest MakeRequest(std::vector<int> tasks, int rows, int seed) {
  Rng rng(seed);
  InferenceRequest req;
  req.task_ids = std::move(tasks);
  req.input = Tensor::Randn({rows, 3, 6, 6}, rng);
  return req;
}

TEST(InferenceServerTest, WorkersFillTheCoresTheNetLoopsLeave) {
  EXPECT_EQ(InferenceWorkersFor(/*cores=*/1, /*net_loops=*/0), 1);
  EXPECT_EQ(InferenceWorkersFor(1, 1), 1);
  EXPECT_EQ(InferenceWorkersFor(4, 1), 3);
  EXPECT_EQ(InferenceWorkersFor(4, 2), 2);
  EXPECT_EQ(InferenceWorkersFor(4, 0), 4);
  // Loops at or above the core count still leave one worker.
  EXPECT_EQ(InferenceWorkersFor(4, 4), 1);
  EXPECT_EQ(InferenceWorkersFor(2, 8), 1);
  // hardware_concurrency() returns 0 when it cannot tell.
  EXPECT_EQ(InferenceWorkersFor(0, 2), 1);
}

TEST(InferenceServerTest, ServesLogitsMatchingDirectForward) {
  ModelQueryService service(BuildPool(), /*cache_capacity=*/8);
  InferenceServer::Options opts;
  opts.num_workers = 2;
  InferenceServer server(&service, opts);

  InferenceRequest req = MakeRequest({0, 1}, 3, 11);
  Tensor input_copy = req.input.Clone();
  InferenceResponse res = server.Submit(std::move(req)).get();
  ASSERT_TRUE(res.status.ok()) << res.status.ToString();

  auto model = service.Query({0, 1}).ValueOrDie();
  Tensor direct = model->Logits(input_copy);
  ASSERT_EQ(res.logits.numel(), direct.numel());
  EXPECT_EQ(std::memcmp(res.logits.data(), direct.data(),
                        sizeof(float) * direct.numel()),
            0);
  EXPECT_EQ(res.global_classes, model->global_classes());
  ASSERT_EQ(static_cast<int>(res.predictions.size()), 3);
  std::vector<int> direct_pred = model->Predict(input_copy);
  EXPECT_EQ(res.predictions, direct_pred);
  EXPECT_GE(res.total_ms, res.queue_ms);
}

TEST(InferenceServerTest, ErrorsPropagateThroughTheFuture) {
  ModelQueryService service(BuildPool(), 8);
  InferenceServer server(&service, InferenceServer::Options{});
  // Unknown task id: assembly fails, the future carries the status.
  InferenceResponse res = server.Submit(MakeRequest({42}, 1, 1)).get();
  EXPECT_FALSE(res.status.ok());

  // Malformed input shape is rejected at submission.
  InferenceRequest bad;
  bad.task_ids = {0};
  bad.input = Tensor::Zeros({3, 6, 6});  // not [n,c,h,w]
  res = server.Submit(std::move(bad)).get();
  EXPECT_FALSE(res.status.ok());
}

TEST(InferenceServerTest, BatchesSameModelRequestsIntoOneForward) {
  ModelQueryService service(BuildPool(), 8);
  // One worker: submissions during the first forward pile up and must be
  // coalesced into a fused pass ({1,0} spells the same model as {0,1}).
  // The first batch is held for 300 ms, so the pile-up does not depend on
  // the forward being slower than the submissions.
  ScopedFaultInjection hold_first_batch("server.forward=delay:300:once:1");
  InferenceServer::Options opts;
  opts.num_workers = 1;
  opts.max_batch_rows = 64;
  InferenceServer server(&service, opts);

  std::vector<std::future<InferenceResponse>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(
        server.Submit(MakeRequest(i % 2 == 0 ? std::vector<int>{0, 1}
                                             : std::vector<int>{1, 0},
                                  1, 100 + i)));
  }
  int64_t max_batch_rows = 0;
  for (auto& f : futures) {
    InferenceResponse res = f.get();
    ASSERT_TRUE(res.status.ok()) << res.status.ToString();
    max_batch_rows = std::max(max_batch_rows, res.batch_rows);
  }
  // At least one fused pass served multiple requests (the first may run
  // alone, but the 11 queued behind it cannot all have).
  EXPECT_GT(max_batch_rows, 1);
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.completed, 12);
  EXPECT_LT(stats.batches, 12);
  EXPECT_GT(stats.avg_batch(), 1.0);
}

TEST(InferenceServerTest, WorkerTakesItsShareOfTheQueue) {
  ModelQueryService service(BuildPool(), 8);
  // Every forward is held 200 ms. Two requests occupy both workers, then
  // a burst of 12 queues behind them; the first worker released sees 12
  // pending rows and takes ceil(12 / 2) = 6, leaving the rest to the
  // other worker instead of taking the whole queue.
  ScopedFaultInjection hold_every_batch("server.forward=delay:200:always");
  InferenceServer::Options opts;
  opts.num_workers = 2;
  opts.max_batch_rows = 64;
  InferenceServer server(&service, opts);

  std::vector<std::future<InferenceResponse>> busy;
  for (int i = 0; i < 2; ++i) {
    busy.push_back(server.Submit(MakeRequest({0, 1}, 1, 200 + i)));
  }
  for (int spin = 0; spin < 500 && server.queue_depth() > 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.queue_depth(), 0u) << "both workers should be busy";

  std::vector<std::future<InferenceResponse>> burst;
  for (int i = 0; i < 12; ++i) {
    burst.push_back(server.Submit(MakeRequest({0, 1}, 1, 300 + i)));
  }
  int64_t max_batch_rows = 0;
  for (auto& f : burst) {
    InferenceResponse res = f.get();
    ASSERT_TRUE(res.status.ok()) << res.status.ToString();
    max_batch_rows = std::max(max_batch_rows, res.batch_rows);
  }
  for (auto& f : busy) EXPECT_TRUE(f.get().status.ok());
  EXPECT_EQ(max_batch_rows, 6);
  EXPECT_EQ(server.stats().completed, 14);
}

TEST(InferenceServerTest, BatchedLogitsMatchUnbatchedBitwise) {
  ModelQueryService service(BuildPool(), 8);
  InferenceServer::Options opts;
  opts.num_workers = 1;
  InferenceServer server(&service, opts);

  // Same inputs submitted twice: once in a coalescing burst, once alone.
  std::vector<Tensor> inputs;
  for (int i = 0; i < 4; ++i) {
    Rng rng(500 + i);
    inputs.push_back(Tensor::Randn({1, 3, 6, 6}, rng));
  }
  std::vector<std::future<InferenceResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    InferenceRequest req;
    req.task_ids = {0, 2};
    req.input = inputs[i].Clone();
    futures.push_back(server.Submit(std::move(req)));
  }
  std::vector<InferenceResponse> burst;
  for (auto& f : futures) burst.push_back(f.get());

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(burst[i].status.ok());
    InferenceRequest req;
    req.task_ids = {0, 2};
    req.input = inputs[i].Clone();
    InferenceResponse solo = server.Submit(std::move(req)).get();
    ASSERT_TRUE(solo.status.ok());
    ASSERT_EQ(solo.logits.numel(), burst[i].logits.numel());
    // f32 conv/linear rows accumulate independently of the surrounding
    // batch, so fused and solo forwards agree bitwise.
    EXPECT_EQ(std::memcmp(solo.logits.data(), burst[i].logits.data(),
                          sizeof(float) * solo.logits.numel()),
              0)
        << "request " << i;
  }
}

TEST(InferenceServerTest, TrunkFusedCrossModelLogitsAreBitwiseF32) {
  ModelQueryService service(BuildPool(), 8);
  // One worker: the burst piles up behind the first forward and the
  // worker absorbs requests for DIFFERENT models into one trunk pass.
  InferenceServer::Options opts;
  opts.num_workers = 1;
  opts.max_batch_rows = 64;
  InferenceServer server(&service, opts);

  const std::vector<std::vector<int>> keys = {{0}, {1}, {2}, {0, 1}, {1, 2}};
  // Whether a burst actually coalesces is a race against the worker
  // draining it, so retry bursts until fusion is observed (the bitwise
  // checks hold on every round, fused or not). One round nearly always
  // suffices; the bound is for pathological schedulers (e.g. TSan).
  for (int round = 0; round < 20; ++round) {
    std::vector<Tensor> inputs;
    std::vector<std::future<InferenceResponse>> futures;
    for (int i = 0; i < 10; ++i) {
      Rng rng(800 + 100 * round + i);
      inputs.push_back(Tensor::Randn({2, 3, 6, 6}, rng));
      InferenceRequest req;
      req.task_ids = keys[i % keys.size()];
      req.input = inputs.back().Clone();
      futures.push_back(server.Submit(std::move(req)));
    }
    std::vector<InferenceResponse> fused;
    for (auto& f : futures) fused.push_back(f.get());

    // Every response must be bitwise identical to a solo forward of its
    // own model: the shared trunk computes rows independently, so fusing
    // rows across models cannot change the f32 numbers.
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(fused[i].status.ok()) << fused[i].status.ToString();
      auto model = service.Query(keys[i % keys.size()]).ValueOrDie();
      Tensor direct = model->Logits(inputs[i]);
      ASSERT_EQ(fused[i].logits.numel(), direct.numel());
      EXPECT_EQ(std::memcmp(fused[i].logits.data(), direct.data(),
                            sizeof(float) * direct.numel()),
                0)
          << "round " << round << " request " << i;
    }
    if (server.stats().trunk_fused_batches > 0) break;
  }
  ServeStats stats = server.stats();
  EXPECT_GT(stats.trunk_fused_batches, 0);
  EXPECT_GT(stats.trunk_fused_rows, 0);
}

/// Spins until `site` has been reached `hits` times (10 s cap).
bool AwaitFaultHits(const std::string& site, int64_t hits) {
  for (int spin = 0; spin < 10000; ++spin) {
    if (FaultInjector::Global().SiteStats(site).hits >= hits) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(InferenceServerTest, BatchSpanningTwoTrunksAnswersFromEachGeneration) {
  // A library-changing upgrade that lands between two groups' assemblies
  // gives one batch two trunks. The only worker is held on a first
  // request while A and B queue behind it and are dequeued together; A's
  // assembly then sleeps after pinning generation 1, the upgrade
  // publishes generation 2 with different library weights, and B
  // assembles against it.
  ExpertPool next = BuildPool();
  next.library()->Parameters().front()->value.data()[0] += 1.0f;
  ModelQueryService service(BuildPool(), 8);
  const PoolGenerationHandle first = service.PinGeneration();
  ScopedFaultInjection faults(
      "server.forward=delay:300:once:1;service.assemble=delay:1000:once:2");
  InferenceServer::Options opts;
  opts.num_workers = 1;
  InferenceServer server(&service, opts);

  std::future<InferenceResponse> held = server.Submit(MakeRequest({0}, 1, 40));
  ASSERT_TRUE(AwaitFaultHits("server.forward", 1));
  const InferenceRequest a = MakeRequest({1}, 2, 41);
  const InferenceRequest b = MakeRequest({2}, 1, 42);
  InferenceRequest a_copy = a;
  a_copy.input = a.input.Clone();
  InferenceRequest b_copy = b;
  b_copy.input = b.input.Clone();
  std::future<InferenceResponse> fa = server.Submit(std::move(a_copy));
  std::future<InferenceResponse> fb = server.Submit(std::move(b_copy));

  // Hit 1 is the held request's assembly; hit 2 is A's, asleep.
  ASSERT_TRUE(AwaitFaultHits("service.assemble", 2));
  auto diff = service.UpgradePool(std::move(next));
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  ASSERT_TRUE(diff.ValueOrDie().library_changed);
  const PoolGenerationHandle second = service.PinGeneration();

  ASSERT_TRUE(held.get().status.ok());
  const InferenceResponse ra = fa.get();
  const InferenceResponse rb = fb.get();
  ASSERT_TRUE(ra.status.ok()) << ra.status.ToString();
  ASSERT_TRUE(rb.status.ok()) << rb.status.ToString();
  // A and B shared the second batch: one forward-site hit each batch.
  EXPECT_EQ(FaultInjector::Global().SiteStats("server.forward").hits, 2);
  EXPECT_EQ(ra.generation, 1u);
  EXPECT_EQ(rb.generation, 2u);

  // Each answer is bitwise the solo forward of its own generation's model.
  auto expect_solo = [](const PoolGenerationHandle& gen,
                        const InferenceRequest& req,
                        const InferenceResponse& res) {
    TaskModel model = gen->pool.Query(req.task_ids).ValueOrDie();
    Tensor direct = model.Logits(req.input);
    ASSERT_EQ(res.logits.numel(), direct.numel());
    EXPECT_EQ(std::memcmp(res.logits.data(), direct.data(),
                          sizeof(float) * direct.numel()),
              0)
        << "generation " << gen->id;
  };
  expect_solo(first, a, ra);
  expect_solo(second, b, rb);
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, stats.completed);
}

TEST(InferenceServerTest, BatchThatThrowsCountsEachRequestOnce) {
  ModelQueryService service(BuildPool(), 8);
  InferenceServer::Options opts;
  opts.num_workers = 1;
  InferenceServer server(&service, opts);

  // Hold the only worker inside the first request's callback, so the next
  // two requests queue up behind it and are dequeued as one batch.
  std::promise<void> holding;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  server.SubmitAsync(MakeRequest({0}, 1, 1), [&](InferenceResponse) {
    holding.set_value();
    released.wait();
  });
  holding.get_future().wait();

  // The first member's budget lapses in the queue, so the worker sheds it
  // at dequeue. Its callback then arms the one-shot failure: the batch
  // body throws at its next allocation, before the second member is
  // served, and the exception guard resolves the batch.
  std::promise<InferenceResponse> expired;
  int expired_calls = 0;
  InferenceRequest short_budget = MakeRequest({0}, 1, 2);
  short_budget.deadline_ms = 20;
  server.SubmitAsync(std::move(short_budget), [&](InferenceResponse res) {
    ++expired_calls;
    expired.set_value(std::move(res));
    t_fail_next_alloc = true;
  });
  std::future<InferenceResponse> live = server.Submit(MakeRequest({1}, 1, 3));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  release.set_value();

  EXPECT_EQ(expired.get_future().get().status.code(),
            StatusCode::kDeadlineExceeded);
  const InferenceResponse res = live.get();
  EXPECT_EQ(res.status.code(), StatusCode::kInternal)
      << res.status.ToString();
  server.Shutdown();
  EXPECT_EQ(expired_calls, 1);
  // The shed member was already resolved when the batch threw: the guard
  // must not count it again as completed.
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 3);
  EXPECT_EQ(stats.deadline_expired, 1);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.rejected + stats.deadline_expired);
}

TEST(InferenceServerTest, BadKeyInABatchFailsOnlyItsOwnRequests) {
  ModelQueryService service(BuildPool(), 8);
  InferenceServer::Options opts;
  opts.num_workers = 1;
  InferenceServer server(&service, opts);

  std::vector<std::future<InferenceResponse>> futures;
  std::vector<Tensor> inputs;
  for (int i = 0; i < 8; ++i) {
    Rng rng(900 + i);
    inputs.push_back(Tensor::Randn({1, 3, 6, 6}, rng));
    InferenceRequest req;
    // Every third request names an unknown task; it must fail without
    // poisoning the valid requests co-batched around it.
    req.task_ids = (i % 3 == 2) ? std::vector<int>{42}
                                : std::vector<int>{i % 2};
    req.input = inputs.back().Clone();
    futures.push_back(server.Submit(std::move(req)));
  }
  for (int i = 0; i < 8; ++i) {
    InferenceResponse res = futures[i].get();
    if (i % 3 == 2) {
      EXPECT_FALSE(res.status.ok()) << "request " << i;
    } else {
      ASSERT_TRUE(res.status.ok()) << res.status.ToString();
      auto model = service.Query({i % 2}).ValueOrDie();
      Tensor direct = model->Logits(inputs[i]);
      EXPECT_EQ(std::memcmp(res.logits.data(), direct.data(),
                            sizeof(float) * direct.numel()),
                0)
          << "request " << i;
    }
  }
}

TEST(InferenceServerTest, TrunkFusedInt8MatchesSoloWhenScalesAgree) {
  // Int8 activation quantization is per-tensor dynamic (max-abs), so
  // fused and solo forwards only agree bitwise when their max-abs does.
  // Identical input rows across requests for different models pin exactly
  // that: same trunk input scale, and each head sees the same feature
  // rows solo as fused.
  ExpertPool pool = BuildPool();
  ASSERT_TRUE(pool.SetServingPrecision(ServingPrecision::kInt8).ok());
  ModelQueryService service(std::move(pool), 8);
  InferenceServer::Options opts;
  opts.num_workers = 1;
  InferenceServer server(&service, opts);

  Rng rng(321);
  Tensor probe = Tensor::Randn({2, 3, 6, 6}, rng);
  const std::vector<std::vector<int>> keys = {{0}, {1}, {2}, {0, 2}};
  std::vector<std::future<InferenceResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    InferenceRequest req;
    req.task_ids = keys[i % keys.size()];
    req.input = probe.Clone();
    futures.push_back(server.Submit(std::move(req)));
  }
  for (int i = 0; i < 8; ++i) {
    InferenceResponse res = futures[i].get();
    ASSERT_TRUE(res.status.ok()) << res.status.ToString();
    auto model = service.Query(keys[i % keys.size()]).ValueOrDie();
    Tensor direct = model->Logits(probe);
    ASSERT_EQ(res.logits.numel(), direct.numel());
    EXPECT_EQ(std::memcmp(res.logits.data(), direct.data(),
                          sizeof(float) * direct.numel()),
              0)
        << "request " << i;
  }
}

TEST(InferenceServerTest, BackpressureRejectsWhenQueueIsFull) {
  ModelQueryService service(BuildPool(), 8);
  InferenceServer::Options opts;
  opts.num_workers = 1;
  opts.queue_capacity = 2;
  opts.max_batch_rows = 1;  // no coalescing: drain slowly
  InferenceServer server(&service, opts);

  std::vector<std::future<InferenceResponse>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(server.Submit(MakeRequest({i % 3}, 1, 900 + i)));
  }
  int ok = 0, exhausted = 0;
  for (auto& f : futures) {
    InferenceResponse res = f.get();
    if (res.status.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(res.status.code(), StatusCode::kResourceExhausted)
          << res.status.ToString();
      ++exhausted;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(exhausted, 0) << "64 instant submissions into a 2-deep queue "
                             "must trip backpressure";
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 64);
  EXPECT_EQ(stats.completed + stats.rejected, 64);
}

TEST(InferenceServerTest, ShutdownDrainsPendingAndRejectsNew) {
  ModelQueryService service(BuildPool(), 8);
  InferenceServer::Options opts;
  opts.num_workers = 1;
  InferenceServer server(&service, opts);

  std::vector<std::future<InferenceResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(server.Submit(MakeRequest({i % 3}, 1, 700 + i)));
  }
  server.Shutdown();
  // Everything accepted before shutdown completes (graceful drain)...
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().status.ok());
  }
  EXPECT_EQ(server.queue_depth(), 0u);
  // ...and new work is refused.
  InferenceResponse res = server.Submit(MakeRequest({0}, 1, 1)).get();
  EXPECT_EQ(res.status.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace poe
