// Multi-node expert pool over the in-process loopback transport: remote
// fetch + install-once caching, replica fallback, drain semantics,
// kill-a-node failure detection and reintegration, and the seeded fault
// matrix (every future resolves, statuses stay inside the whitelist,
// counters reconcile).
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <memory>
#include <vector>

#include "cluster/cluster_node.h"
#include "cluster/placement.h"
#include "eval/metrics.h"
#include "test_util.h"
#include "util/fault.h"

namespace poe {
namespace {

using testutil::FastTrainOptions;
using testutil::TinyDataConfig;
using testutil::TinyLibraryConfig;
using testutil::TinyOracleConfig;

constexpr int kNumTasks = 3;

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
  ExpertPool pool = ExpertPool::Preprocess(ModelLogits(*oracle), *data, cfg, rng);
  // Tight, fast retries so dead-peer failures resolve in milliseconds.
  pool.set_retry_policy({2, 0.1, 2.0, 0.5});
  return pool;
}

Tensor MakeInput(int rows, int seed) {
  Rng rng(seed);
  return Tensor::Randn({rows, 3, 6, 6}, rng);
}

MembershipView ViewOf(int num_nodes) {
  MembershipView view;
  for (int id = 0; id < num_nodes; ++id) {
    view.nodes.push_back({id, "127.0.0.1", 9100 + id, NodeState::kOnline});
  }
  return view;
}

/// BuildPool() with static activation scales, converted to int8 serving.
ExpertPool BuildInt8Pool() {
  ExpertPool pool = BuildPool();
  EXPECT_TRUE(pool.CalibrateActivations(MakeInput(8, 23)).ok());
  EXPECT_TRUE(pool.SetServingPrecision(ServingPrecision::kInt8).ok());
  return pool;
}

std::unique_ptr<ClusterNode> MakeNode(int id, int num_nodes, int replication,
                                      LoopbackTransport& transport,
                                      ExpertPool pool = BuildPool()) {
  ClusterNodeOptions options;
  options.node_id = id;
  options.placement.replication = replication;
  options.serve.num_workers = 2;
  auto node = std::make_unique<ClusterNode>(std::move(pool), ViewOf(num_nodes),
                                            std::move(options));
  node->SetTransport(&transport);
  transport.Register(id, node.get());
  EXPECT_TRUE(node->Start().ok());
  return node;
}

bool Whitelisted(const Status& s) {
  return s.ok() || s.code() == StatusCode::kUnavailable ||
         s.code() == StatusCode::kDeadlineExceeded ||
         s.code() == StatusCode::kResourceExhausted;
}

void ExpectFetchIdentities(ClusterNode& node) {
  const ServeStats s = node.stats();
  EXPECT_EQ(s.remote_fetch_requests,
            s.remote_fetch_ok + s.remote_fetch_failed);
  EXPECT_LE(s.remote_fetch_replica, s.remote_fetch_ok);
  EXPECT_LE(s.ping_failures, s.pings_sent);
}

TEST(ClusterTest, QueriesFetchMissingExpertsFromPeersAndCacheThem) {
  LoopbackTransport transport;
  auto node0 = MakeNode(0, 2, /*replication=*/1, transport);
  auto node1 = MakeNode(1, 2, /*replication=*/1, transport);

  // Replication 1 over 2 nodes: each node shed the experts the other
  // owns, so between them exactly kNumTasks masters are non-resident.
  EXPECT_EQ(node0->stats().experts_nonresident +
                node1->stats().experts_nonresident,
            kNumTasks);

  const std::vector<int> all = {0, 1, 2};
  ASSERT_TRUE(node0->service().Query(all).ok());
  ASSERT_TRUE(node1->service().Query(all).ok());

  // Every shed expert was fetched exactly once and installed as a local
  // master — both nodes now hold the full pool.
  EXPECT_EQ(node0->stats().experts_nonresident, 0);
  EXPECT_EQ(node1->stats().experts_nonresident, 0);
  const ServeStats s0 = node0->stats();
  const ServeStats s1 = node1->stats();
  EXPECT_EQ(s0.remote_fetch_ok + s1.remote_fetch_ok, kNumTasks);
  EXPECT_EQ(s0.peer_fetches_served + s1.peer_fetches_served, kNumTasks);
  ExpectFetchIdentities(*node0);
  ExpectFetchIdentities(*node1);

  // Loopback fetches rebuild each master from its serialized sections,
  // as wire fetches do: distinct objects holding the owner's weights, so
  // both nodes answer bitwise alike.
  for (int t = 0; t < kNumTasks; ++t) {
    EXPECT_NE(node0->service().PinGeneration()->pool.expert(t).get(),
              node1->service().PinGeneration()->pool.expert(t).get());
  }
  const Tensor probe = MakeInput(2, 19);
  const Tensor l0 = node0->service().Query(all).ValueOrDie()->Logits(probe);
  const Tensor l1 = node1->service().Query(all).ValueOrDie()->Logits(probe);
  ASSERT_EQ(l0.numel(), l1.numel());
  EXPECT_EQ(std::memcmp(l0.data(), l1.data(), sizeof(float) * l0.numel()), 0);

  // Re-querying hits the flight cache: no new fetch traffic.
  ASSERT_TRUE(node0->service().Query(all).ok());
  EXPECT_EQ(node0->stats().remote_fetch_requests, s0.remote_fetch_requests);
}

// A node serves at its pool's precision, so an int8 cluster is a cluster
// over an int8 pool: experts fetched from a peer arrive as int8 sections
// and answer int8, bitwise as one process over the same pool does.
TEST(ClusterTest, Int8PoolServesFetchedExpertsAsOneProcessDoes) {
  LoopbackTransport transport;
  auto node0 = MakeNode(0, 2, /*replication=*/1, transport, BuildInt8Pool());
  auto node1 = MakeNode(1, 2, /*replication=*/1, transport, BuildInt8Pool());
  ModelQueryService reference_service(BuildInt8Pool(), 8);
  InferenceServer reference(&reference_service, {});

  const std::vector<std::vector<int>> composites = {{0, 1, 2}, {0}, {1, 2}};
  int i = 0;
  for (ClusterNode* node : {node0.get(), node1.get()}) {
    ASSERT_GT(node->stats().experts_nonresident, 0);
    for (const std::vector<int>& tasks : composites) {
      // Solo requests: each is its own batch on both sides.
      const Tensor input = MakeInput(2, 700 + i++);
      PoolRequest request;
      request.task_ids = tasks;
      request.input = input.Clone();
      const InferenceResponse got =
          node->server().Submit(std::move(request)).get();
      PoolRequest solo;
      solo.task_ids = tasks;
      solo.input = input.Clone();
      const InferenceResponse want = reference.Submit(std::move(solo)).get();
      ASSERT_TRUE(got.status.ok()) << got.status.ToString();
      ASSERT_TRUE(want.status.ok()) << want.status.ToString();
      EXPECT_EQ(got.precision, ServingPrecision::kInt8);
      EXPECT_EQ(got.degraded_branches, 0);
      EXPECT_FALSE(got.trunk_degraded);
      EXPECT_EQ(got.global_classes, want.global_classes);
      ASSERT_EQ(got.logits.numel(), want.logits.numel());
      EXPECT_EQ(std::memcmp(got.logits.data(), want.logits.data(),
                            sizeof(float) * got.logits.numel()),
                0);
    }
    EXPECT_GT(node->stats().remote_fetch_ok, 0);
    EXPECT_EQ(node->stats().experts_nonresident, 0);
    ExpectFetchIdentities(*node);
  }
}

TEST(ClusterTest, FetchFallsBackToTheReplicaOwnerWhenThePrimaryIsDown) {
  LoopbackTransport transport;
  auto node0 = MakeNode(0, 3, /*replication=*/2, transport);
  auto node1 = MakeNode(1, 3, /*replication=*/2, transport);
  auto node2 = MakeNode(2, 3, /*replication=*/2, transport);
  ClusterNode* nodes[] = {node0.get(), node1.get(), node2.get()};

  // With 2 owners among 3 nodes, every expert has exactly one non-owner;
  // pick any (expert, non-owner) pair and kill the expert's PRIMARY.
  PlacementConfig placement;
  const int expert = 0;
  const std::vector<int> owners = ExpertOwners(expert, {0, 1, 2}, placement);
  ASSERT_EQ(owners.size(), 2u);
  int querier = 0;
  for (int id = 0; id < 3; ++id) {
    if (id != owners[0] && id != owners[1]) querier = id;
  }
  transport.Crash(owners[0]);

  ASSERT_TRUE(nodes[querier]->service().Query({expert}).ok());
  const ServeStats s = nodes[querier]->stats();
  EXPECT_EQ(s.remote_fetch_ok, 1);
  EXPECT_EQ(s.remote_fetch_replica, 1);
  ExpectFetchIdentities(*nodes[querier]);
}

TEST(ClusterTest, DrainingNodeStillAnswersFetches) {
  LoopbackTransport transport;
  auto node0 = MakeNode(0, 2, /*replication=*/1, transport);
  auto node1 = MakeNode(1, 2, /*replication=*/1, transport);

  // Admin drains node 1 on node 0's view; one gossip round spreads it.
  ASSERT_TRUE(node0->RequestTransition(1, NodeState::kDraining).ok());
  node0->GossipOnce();
  EXPECT_EQ(node1->SelfState(), NodeState::kDraining);

  // DRAINING serves fetches: its experts are still the owned copies.
  ASSERT_TRUE(node0->service().Query({0, 1, 2}).ok());
  EXPECT_EQ(node0->stats().remote_fetch_failed, 0);
  EXPECT_EQ(node0->stats().experts_nonresident, 0);
}

TEST(ClusterTest, KilledNodeIsDetectedAndReintegratesCleanly) {
  LoopbackTransport transport;
  auto node0 = MakeNode(0, 2, /*replication=*/1, transport);
  auto node1 = MakeNode(1, 2, /*replication=*/1, transport);
  const uint64_t epoch0 = node0->membership().epoch();

  transport.Crash(1);

  // Queries needing node 1's experts resolve inside the whitelist (no
  // owner reachable -> kUnavailable through the retry stack, or a
  // deadline expiry - never a hang, never a foreign status).
  int failed = 0;
  for (int t = 0; t < kNumTasks; ++t) {
    if (node0->OwnsExpert(t)) continue;
    auto result =
        node0->service().Query({t}, Deadline::AfterMillis(500));
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(Whitelisted(result.status()))
        << result.status().ToString();
    ++failed;
  }
  ASSERT_GT(failed, 0) << "placement left node 0 owning every expert";
  EXPECT_GT(node0->stats().remote_fetch_failed, 0);

  // Failure detection: consecutive failed pings mark the peer OFFLINE
  // and burn an epoch.
  for (int round = 0; round < 2; ++round) node0->GossipOnce();
  EXPECT_EQ(node0->view().Find(1)->state, NodeState::kOffline);
  EXPECT_GT(node0->membership().epoch(), epoch0);
  EXPECT_GE(node0->stats().ping_failures, 2);

  // The node comes back: its own gossip pulls the view that declared it
  // dead, and self-defense walks it OFFLINE -> REINTEGRATING -> ONLINE at
  // fresh epochs that win the next exchange.
  transport.Revive(1);
  node1->GossipOnce();
  EXPECT_EQ(node1->SelfState(), NodeState::kOnline);
  node0->GossipOnce();
  EXPECT_EQ(node0->view().Find(1)->state, NodeState::kOnline);
  EXPECT_EQ(node0->view().Fingerprint(), node1->view().Fingerprint());

  // Fully healed: the failed composites now assemble.
  for (int t = 0; t < kNumTasks; ++t) {
    EXPECT_TRUE(node0->service().Query({t}).ok());
  }
  ExpectFetchIdentities(*node0);
  ExpectFetchIdentities(*node1);
}

TEST(ClusterTest, SeededFaultMatrixKeepsEveryFutureInsideTheWhitelist) {
  LoopbackTransport transport;
  auto node0 = MakeNode(0, 2, /*replication=*/1, transport);
  auto node1 = MakeNode(1, 2, /*replication=*/1, transport);
  ClusterNode* nodes[] = {node0.get(), node1.get()};

  const std::vector<std::vector<int>> composites = {
      {0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2}};
  {
    ScopedFaultInjection faults(
        "cluster.fetch=unavail:prob:0.4;cluster.gossip=unavail:prob:0.5",
        /*seed=*/7);
    std::vector<std::future<InferenceResponse>> futures;
    for (int i = 0; i < 48; ++i) {
      ClusterNode* node = nodes[i % 2];
      PoolRequest request;
      request.task_ids = composites[i % composites.size()];
      request.input = MakeInput(1, 900 + i);
      request.deadline_ms = 1000;
      futures.push_back(node->server().Submit(std::move(request)));
      if (i % 8 == 7) {
        node0->GossipOnce();
        node1->GossipOnce();
      }
    }
    for (auto& f : futures) {
      const InferenceResponse response = f.get();  // must resolve
      EXPECT_TRUE(Whitelisted(response.status))
          << response.status.ToString();
    }
    EXPECT_GT(
        FaultInjector::Global().SiteStats("cluster.fetch").hits +
            FaultInjector::Global().SiteStats("cluster.gossip").hits,
        0);
  }

  // Post-fault convergence: bounded gossip rounds bring both nodes back
  // ONLINE on one fingerprint (self-defense undoes spurious OFFLINEs).
  for (int round = 0; round < 6; ++round) {
    node0->GossipOnce();
    node1->GossipOnce();
  }
  EXPECT_EQ(node0->view().Find(0)->state, NodeState::kOnline);
  EXPECT_EQ(node0->view().Find(1)->state, NodeState::kOnline);
  EXPECT_EQ(node0->view().Fingerprint(), node1->view().Fingerprint());

  // Clean air: every composite assembles on both nodes.
  for (ClusterNode* node : nodes) {
    for (const auto& q : composites) {
      EXPECT_TRUE(node->service().Query(q).ok());
    }
  }

  // Reconciliation after drain: terminal buckets partition submissions,
  // fetch attempts partition into ok/failed.
  for (ClusterNode* node : nodes) {
    node->Stop();
    const ServeStats s = node->stats();
    EXPECT_EQ(s.submitted, s.completed + s.rejected + s.deadline_expired);
    ExpectFetchIdentities(*node);
  }
}

}  // namespace
}  // namespace poe
