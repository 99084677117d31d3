// Loopback end-to-end tests of the network front-end: a NetServer over
// 127.0.0.1 must be a transparent transport - logits bitwise-identical
// to in-process Submit (f32 AND int8), deadlines and backpressure
// observable through wire status codes, and transport counters
// reconciling with the serving counters.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "eval/metrics.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "serve/inference_server.h"
#include "test_util.h"
#include "util/fault.h"

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

Tensor MakeInput(int rows, int seed) {
  Rng rng(seed);
  return Tensor::Randn({rows, 3, 6, 6}, rng);
}

/// Starts a NetServer over `server` and returns it running.
std::unique_ptr<NetServer> StartNet(InferenceServer* server,
                                    NetServer::Options opts = {}) {
  auto net = std::make_unique<NetServer>(server, opts);
  Status s = net->Start();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(net->port(), 0);
  return net;
}

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.defined());
  ASSERT_TRUE(b.defined());
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           sizeof(float) * static_cast<size_t>(a.numel())));
}

TEST(NetLoopbackTest, F32LogitsBitwiseIdenticalToInProcessSubmit) {
  ModelQueryService service(BuildPool(), /*cache_capacity=*/8);
  InferenceServer server(&service, {});
  auto net = StartNet(&server);

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net->port()).ok());

  for (int i = 0; i < 3; ++i) {
    const std::vector<int> tasks = i == 0 ? std::vector<int>{0, 1}
                                          : std::vector<int>{0, 1, 2};
    const Tensor input = MakeInput(2 + i, 100 + i);

    InferenceRequest direct;
    direct.task_ids = tasks;
    direct.input = input;
    InferenceResponse in_process = server.Submit(std::move(direct)).get();
    ASSERT_TRUE(in_process.status.ok()) << in_process.status.ToString();

    auto wire = client.Query(tasks, input);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    const WireResponse& resp = wire.ValueOrDie();
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    ExpectBitwiseEqual(in_process.logits, resp.logits);
    EXPECT_EQ(in_process.predictions, resp.predictions);
    EXPECT_EQ(in_process.global_classes, resp.global_classes);
    EXPECT_EQ(ServingPrecision::kFloat32, resp.precision);
  }
}

TEST(NetLoopbackTest, Int8LogitsBitwiseIdenticalToInProcessSubmit) {
  ExpertPool pool = BuildPool();
  ASSERT_TRUE(pool.SetServingPrecision(ServingPrecision::kInt8).ok());
  ModelQueryService service(std::move(pool), /*cache_capacity=*/8);
  InferenceServer server(&service, {});
  auto net = StartNet(&server);

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net->port()).ok());

  // Serial requests: each is served as a batch-of-one on both paths, so
  // the dynamic activation quantization sees the identical batch and the
  // int8 logits must match bit for bit.
  for (int i = 0; i < 3; ++i) {
    const std::vector<int> tasks{0, 2};
    const Tensor input = MakeInput(3, 200 + i);

    InferenceRequest direct;
    direct.task_ids = tasks;
    direct.input = input;
    InferenceResponse in_process = server.Submit(std::move(direct)).get();
    ASSERT_TRUE(in_process.status.ok()) << in_process.status.ToString();
    ASSERT_EQ(ServingPrecision::kInt8, in_process.precision);

    auto wire = client.Query(tasks, input, /*deadline_ms=*/0.0,
                             WirePrecision::kInt8);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    const WireResponse& resp = wire.ValueOrDie();
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    ExpectBitwiseEqual(in_process.logits, resp.logits);
    EXPECT_EQ(in_process.predictions, resp.predictions);
    EXPECT_EQ(ServingPrecision::kInt8, resp.precision);
  }
}

TEST(NetLoopbackTest, DeadlineStatusesPropagateOverTheWire) {
  ModelQueryService service(BuildPool(), 8);
  InferenceServer server(&service, {});
  auto net = StartNet(&server);

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net->port()).ok());

  // A microscopic budget expires at submission; the shed must arrive as
  // a kDeadlineExceeded response frame, not a closed connection.
  auto expired = client.Query({0, 1}, MakeInput(1, 7), /*deadline_ms=*/1e-6);
  ASSERT_TRUE(expired.ok()) << expired.status().ToString();
  EXPECT_EQ(StatusCode::kDeadlineExceeded,
            expired.ValueOrDie().status.code());

  // A generous budget sails through on the SAME connection (the shed did
  // not poison it).
  auto served = client.Query({0, 1}, MakeInput(1, 8), /*deadline_ms=*/60000);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served.ValueOrDie().status.ok());

  EXPECT_GE(server.stats().deadline_expired, 1);
}

TEST(NetLoopbackTest, QueueBackpressureArrivesAsResourceExhausted) {
  ModelQueryService service(BuildPool(), 8);
  InferenceServer::Options opts;
  opts.num_workers = 1;
  opts.queue_capacity = 1;
  InferenceServer server(&service, opts);
  auto net = StartNet(&server);

  // A slow forward keeps the single worker busy so pipelined requests
  // pile onto the 1-deep queue and overflow it.
  ScopedFaultInjection slow("server.forward=delay:30:always");

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net->port()).ok());
  constexpr int kPipelined = 12;
  const Tensor input = MakeInput(1, 9);
  for (int i = 0; i < kPipelined; ++i) {
    ASSERT_TRUE(client.Send({0, 1}, input).ok());
  }
  int ok = 0, exhausted = 0;
  for (int i = 0; i < kPipelined; ++i) {
    auto r = client.Receive();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const Status& s = r.ValueOrDie().status;
    if (s.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(StatusCode::kResourceExhausted, s.code()) << s.ToString();
      ++exhausted;
    }
  }
  // Every pipelined request got exactly one answer; under a 1-deep queue
  // and a 30 ms forward at least one overflowed.
  EXPECT_EQ(kPipelined, ok + exhausted);
  EXPECT_GE(exhausted, 1);
  EXPECT_GE(ok, 1);
  EXPECT_GE(server.stats().rejected, exhausted);
}

TEST(NetLoopbackTest, PerConnectionWindowStillAnswersEverything) {
  ModelQueryService service(BuildPool(), 8);
  InferenceServer server(&service, {});
  NetServer::Options nopts;
  nopts.max_inflight_per_conn = 2;  // tiny window: reads must pause/resume
  auto net = StartNet(&server, nopts);

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net->port()).ok());
  constexpr int kPipelined = 10;
  const Tensor input = MakeInput(1, 10);
  for (int i = 0; i < kPipelined; ++i) {
    ASSERT_TRUE(client.Send({0}, input).ok());
  }
  for (int i = 0; i < kPipelined; ++i) {
    auto r = client.Receive();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.ValueOrDie().status.ok())
        << r.ValueOrDie().status.ToString();
  }
  EXPECT_EQ(kPipelined, net->stats().frames_decoded);
}

TEST(NetLoopbackTest, PrecisionDemandMismatchIsRejectedWithoutSubmission) {
  ModelQueryService service(BuildPool(), 8);  // f32 pool
  InferenceServer server(&service, {});
  auto net = StartNet(&server);

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net->port()).ok());
  auto r = client.Query({0, 1}, MakeInput(1, 11), 0.0, WirePrecision::kInt8);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(StatusCode::kFailedPrecondition, r.ValueOrDie().status.code());

  const NetStats stats = net->stats();
  EXPECT_EQ(1, stats.precision_rejects);
  EXPECT_EQ(1, stats.frames_decoded);
  EXPECT_EQ(0, server.stats().submitted);  // never reached the queue
}

TEST(NetLoopbackTest, CountersReconcileAcrossTransportAndServing) {
  ModelQueryService service(BuildPool(), 8);
  InferenceServer server(&service, {});
  auto net = StartNet(&server);

  constexpr int kConns = 3;
  constexpr int kPerConn = 5;
  for (int c = 0; c < kConns; ++c) {
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", net->port()).ok());
    for (int i = 0; i < kPerConn; ++i) {
      auto r = client.Query({0, 1}, MakeInput(1, 300 + c * kPerConn + i));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r.ValueOrDie().status.ok());
    }
    client.Close();
  }
  net->Stop();

  const NetStats n = net->stats();
  const ServeStats s = server.stats();
  EXPECT_EQ(kConns * kPerConn, n.frames_decoded);
  EXPECT_EQ(kConns * kPerConn, n.responses_sent);
  EXPECT_EQ(0, n.protocol_errors);
  // Transport identity: every accepted connection is open or dropped.
  EXPECT_EQ(kConns, n.conns_accepted);
  EXPECT_EQ(0, n.conns_open);
  EXPECT_EQ(n.conns_accepted, n.conns_open + n.conns_dropped);
  // Cross-layer identity: every decoded frame became exactly one
  // submitted request (no precision rejects here), and the drained
  // serve-side buckets partition them.
  EXPECT_EQ(n.frames_decoded, s.submitted + n.precision_rejects);
  EXPECT_EQ(s.submitted, s.completed + s.rejected + s.deadline_expired);
  EXPECT_GT(n.bytes_in, 0);
  EXPECT_GT(n.bytes_out, 0);
}

TEST(NetLoopbackTest, StopIsGracefulAndIdempotent) {
  ModelQueryService service(BuildPool(), 8);
  InferenceServer server(&service, {});
  auto net = StartNet(&server);

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net->port()).ok());
  auto r = client.Query({0}, MakeInput(1, 12));
  ASSERT_TRUE(r.ok());

  net->Stop();
  net->Stop();  // idempotent
  EXPECT_FALSE(net->running());

  // A connection attempt after Stop must fail, not hang.
  NetClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", net->port()).ok());
}

}  // namespace
}  // namespace poe
