// The cluster layer over real sockets: peer-RPC codec round trips, 2-node
// serving with wire fetches (serialized expert sections, rebuilt masters)
// through each node's one NetServer port, and abrupt peer death mid-load
// — connection-refused maps to transient kUnavailable, every future
// resolves inside the whitelist, the dead node is detected, and a
// restarted peer reintegrates with a clean epoch handoff.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_node.h"
#include "cluster/peer_rpc.h"
#include "eval/metrics.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "test_util.h"

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
  pool.set_retry_policy({2, 0.1, 2.0, 0.5});
  return pool;
}

Tensor MakeInput(int rows, int seed) {
  Rng rng(seed);
  return Tensor::Randn({rows, 3, 6, 6}, rng);
}

TEST(PeerRpcCodecTest, ViewFramesRoundTrip) {
  MembershipView view;
  view.epoch = 42;
  view.nodes.push_back({0, "127.0.0.1", 9100, NodeState::kDraining});
  view.nodes.push_back({5, "10.0.0.7", 9105, NodeState::kOffline});

  const std::vector<uint8_t> frame = EncodeViewFrame(7, kWireTypePing, view);
  WireHeader header;
  ASSERT_TRUE(DecodeHeader(frame.data(), kWireHeaderBytes, kWireTypePing,
                           kDefaultMaxBodyBytes, &header)
                  .ok());
  EXPECT_EQ(header.request_id, 7u);
  MembershipView decoded;
  ASSERT_TRUE(DecodeViewBody(frame.data() + kWireHeaderBytes,
                             frame.size() - kWireHeaderBytes, &decoded)
                  .ok());
  EXPECT_EQ(decoded.epoch, 42u);
  ASSERT_EQ(decoded.nodes.size(), 2u);
  EXPECT_EQ(decoded.nodes[1].host, "10.0.0.7");
  EXPECT_EQ(decoded.nodes[1].port, 9105);
  EXPECT_EQ(decoded.nodes[1].state, NodeState::kOffline);
  EXPECT_EQ(decoded.Fingerprint(), view.Fingerprint());

  // Truncated bodies are rejected, not misread.
  EXPECT_FALSE(DecodeViewBody(frame.data() + kWireHeaderBytes,
                              frame.size() - kWireHeaderBytes - 1, &decoded)
                   .ok());
}

TEST(PeerRpcCodecTest, NodeCountBeyondTheBodyIsInvalidArgument) {
  // 12 bytes: epoch, then a node count no body could hold. Decoding must
  // refuse it before sizing anything by it.
  std::vector<uint8_t> body(12);
  const uint64_t epoch = 1;
  const uint32_t num_nodes = 0xFFFFFFFFu;
  std::memcpy(body.data(), &epoch, sizeof(epoch));
  std::memcpy(body.data() + 8, &num_nodes, sizeof(num_nodes));
  MembershipView view;
  EXPECT_EQ(DecodeViewBody(body.data(), body.size(), &view).code(),
            StatusCode::kInvalidArgument);
}

TEST(PeerRpcCodecTest, NodePortOutsideTcpRangeIsInvalidArgument) {
  // A gossiped port is dialed as given: one that does not fit 16 bits
  // would reach some other port, so the whole view is refused.
  for (int port : {70000, -1}) {
    MembershipView view;
    view.epoch = 3;
    view.nodes.push_back({0, "127.0.0.1", 9100, NodeState::kOnline});
    view.nodes.push_back({1, "127.0.0.1", port, NodeState::kOnline});
    const std::vector<uint8_t> frame = EncodeViewFrame(1, kWireTypePing, view);
    MembershipView decoded;
    EXPECT_EQ(DecodeViewBody(frame.data() + kWireHeaderBytes,
                             frame.size() - kWireHeaderBytes, &decoded)
                  .code(),
              StatusCode::kInvalidArgument)
        << port;
  }
}

TEST(PeerRpcCodecTest, FetchReplyCarriesStatusAndPayload) {
  const std::vector<uint8_t> ok_frame =
      EncodeFetchExpertReplyFrame(9, Status::OK(), "payload-bytes");
  Status remote;
  std::string payload;
  ASSERT_TRUE(DecodeFetchExpertReplyBody(ok_frame.data() + kWireHeaderBytes,
                                         ok_frame.size() - kWireHeaderBytes,
                                         &remote, &payload)
                  .ok());
  EXPECT_TRUE(remote.ok());
  EXPECT_EQ(payload, "payload-bytes");

  // An error reply drops the payload and survives the round trip intact.
  const std::vector<uint8_t> err_frame = EncodeFetchExpertReplyFrame(
      10, Status::Unavailable("not resident"), "ignored");
  ASSERT_TRUE(DecodeFetchExpertReplyBody(err_frame.data() + kWireHeaderBytes,
                                         err_frame.size() - kWireHeaderBytes,
                                         &remote, &payload)
                  .ok());
  EXPECT_EQ(remote.code(), StatusCode::kUnavailable);
  EXPECT_EQ(remote.message(), "not resident");
  EXPECT_TRUE(payload.empty());
}

/// One wire-connected node, served as `poectl cluster serve` serves it:
/// one NetServer answers clients and peers on one port. The port is
/// ephemeral, so the node is built from a view of ids with port 0, its
/// NetServer binds, and Wire() merges the real-port view at a higher
/// epoch before Start().
struct WireNode {
  std::unique_ptr<WireTransport> transport;
  std::unique_ptr<ClusterNode> node;
  std::unique_ptr<NetServer> net;

  static std::unique_ptr<WireNode> Bind(int id, int num_nodes) {
    MembershipView ids;
    for (int i = 0; i < num_nodes; ++i) {
      ids.nodes.push_back({i, "127.0.0.1", 0, NodeState::kOnline});
    }
    ClusterNodeOptions options;
    options.node_id = id;
    options.placement.replication = 1;
    options.serve.num_workers = 2;
    auto wn = std::make_unique<WireNode>();
    wn->node = std::make_unique<ClusterNode>(BuildPool(), std::move(ids),
                                             std::move(options));
    ClusterNode* node = wn->node.get();
    wn->transport = std::make_unique<WireTransport>(
        [node] { return node->view(); });
    node->SetTransport(wn->transport.get());
    wn->net = std::make_unique<NetServer>(&node->server(),
                                          NetServer::Options{});
    EXPECT_TRUE(wn->net->Start().ok());
    return wn;
  }

  void Wire(const MembershipView& view) {
    ASSERT_TRUE(node->membership().MergeView(view));
    net->SetPeerEndpoint(node.get());
    ASSERT_TRUE(node->Start().ok());
  }
};

MembershipView ViewFor(const std::vector<WireNode*>& nodes) {
  MembershipView view;
  view.epoch = 2;  // newer than the port-0 views the nodes were built from
  for (size_t id = 0; id < nodes.size(); ++id) {
    view.nodes.push_back({static_cast<int>(id), "127.0.0.1",
                          nodes[id]->net->port(), NodeState::kOnline});
  }
  return view;
}

/// Lines of /proc/self/maps: every thread stack left mapped shows here.
int64_t MappedRegions() {
  std::ifstream maps("/proc/self/maps");
  int64_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

/// The Threads: field of /proc/self/status.
int LiveThreads() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(ClusterWireTest, FetchesTravelSerializedAndRebuildIdenticalMasters) {
  auto wn0 = WireNode::Bind(0, 2);
  auto wn1 = WireNode::Bind(1, 2);
  const MembershipView view = ViewFor({wn0.get(), wn1.get()});
  wn0->Wire(view);
  wn1->Wire(view);

  // Both nodes serve the full composite through wire fetches.
  for (WireNode* wn : {wn0.get(), wn1.get()}) {
    PoolRequest request;
    request.task_ids = {0, 1, 2};
    request.input = MakeInput(2, 31);
    const InferenceResponse response =
        wn->node->server().Submit(std::move(request)).get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.logits.dim(1), 6);
  }

  const ServeStats s0 = wn0->node->stats();
  const ServeStats s1 = wn1->node->stats();
  EXPECT_EQ(s0.remote_fetch_ok + s1.remote_fetch_ok, kNumTasks);
  EXPECT_EQ(s0.peer_fetches_served + s1.peer_fetches_served, kNumTasks);
  EXPECT_EQ(s0.remote_fetch_requests, s0.remote_fetch_ok);
  EXPECT_EQ(s1.remote_fetch_requests, s1.remote_fetch_ok);
  // Each fetch was one peer frame on the owner's port, and none counted
  // as a request frame (the queries above were submitted in-process).
  const NetStats n0 = wn0->net->stats();
  const NetStats n1 = wn1->net->stats();
  EXPECT_EQ(n0.peer_frames + n1.peer_frames, kNumTasks);
  EXPECT_EQ(n0.frames_decoded + n1.frames_decoded, 0);

  // Wire fetches REBUILD masters from serialized sections — same weights,
  // distinct objects.
  for (int t = 0; t < kNumTasks; ++t) {
    EXPECT_NE(wn0->node->service().PinGeneration()->pool.expert(t).get(),
              wn1->node->service().PinGeneration()->pool.expert(t).get());
  }

  // ...and identical weights really means identical serving: the same
  // input produces the same predictions on both nodes.
  const Tensor probe = MakeInput(3, 77);
  auto m0 = wn0->node->service().Query({0, 1, 2});
  auto m1 = wn1->node->service().Query({0, 1, 2});
  ASSERT_TRUE(m0.ok() && m1.ok());
  const Tensor l0 = m0.ValueOrDie()->Logits(probe);
  const Tensor l1 = m1.ValueOrDie()->Logits(probe);
  ASSERT_EQ(l0.numel(), l1.numel());
  for (int64_t i = 0; i < l0.numel(); ++i) {
    EXPECT_FLOAT_EQ(l0.data()[i], l1.data()[i]);
  }
}

TEST(ClusterWireTest, AbruptPeerDeathIsDetectedAndSurvivedThenHealed) {
  auto wn0 = WireNode::Bind(0, 2);
  auto wn1 = WireNode::Bind(1, 2);
  const MembershipView view = ViewFor({wn0.get(), wn1.get()});
  const int node1_port = wn1->net->port();
  wn0->Wire(view);
  wn1->Wire(view);

  // Close node 1's port abruptly: in-flight and future fetches see
  // connection-refused / reset, which the client maps to transient
  // kUnavailable (the reconnect-uniformity contract).
  wn1->net->Stop();

  std::vector<std::future<InferenceResponse>> futures;
  for (int i = 0; i < 12; ++i) {
    PoolRequest request;
    request.task_ids = {i % kNumTasks};
    request.input = MakeInput(1, 400 + i);
    request.deadline_ms = 800;
    futures.push_back(wn0->node->server().Submit(std::move(request)));
  }
  int failed = 0;
  for (auto& f : futures) {
    const InferenceResponse response = f.get();
    EXPECT_TRUE(response.status.ok() ||
                response.status.code() == StatusCode::kUnavailable ||
                response.status.code() == StatusCode::kDeadlineExceeded ||
                response.status.code() == StatusCode::kResourceExhausted)
        << response.status.ToString();
    if (!response.status.ok()) ++failed;
  }
  ASSERT_GT(failed, 0) << "every request succeeded - node 0 owned all "
                          "experts and the kill exercised nothing";

  // Failure detection over the wire: pings fail, node 1 goes OFFLINE.
  wn0->node->GossipOnce();
  wn0->node->GossipOnce();
  EXPECT_EQ(wn0->node->view().Find(1)->state, NodeState::kOffline);

  // "Restart" node 1's NetServer on the SAME port and let gossip
  // reintegrate it: self-defense promotes it back to ONLINE at fresh
  // epochs, node 0 adopts, and the failed composites now assemble.
  NetServer::Options options;
  options.port = node1_port;
  wn1->net = std::make_unique<NetServer>(&wn1->node->server(), options);
  ASSERT_TRUE(wn1->net->Start().ok());
  wn1->net->SetPeerEndpoint(wn1->node.get());
  wn1->node->GossipOnce();
  EXPECT_EQ(wn1->node->SelfState(), NodeState::kOnline);
  wn0->node->GossipOnce();
  EXPECT_EQ(wn0->node->view().Find(1)->state, NodeState::kOnline);

  for (int t = 0; t < kNumTasks; ++t) {
    EXPECT_TRUE(wn0->node->service().Query({t}).ok());
  }

  // Reconciliation after drain: terminal buckets partition submissions.
  wn0->node->Stop();
  const ServeStats s = wn0->node->stats();
  EXPECT_EQ(s.submitted, s.completed + s.rejected + s.deadline_expired);
  EXPECT_EQ(s.remote_fetch_requests,
            s.remote_fetch_ok + s.remote_fetch_failed);
}

TEST(ClusterWireTest, MalformedPeerFramesCloseWithoutAReply) {
  auto wn = WireNode::Bind(0, 1);
  wn->Wire(ViewFor({wn.get()}));

  const std::vector<uint8_t> ping =
      EncodeViewFrame(5, kWireTypePing, wn->node->view());
  std::vector<uint8_t> empty(ping.begin(), ping.begin() + kWireHeaderBytes);
  const uint32_t zero = 0;
  std::memcpy(empty.data() + 8, &zero, sizeof(zero));  // body_len 0
  std::vector<uint8_t> flipped = ping;
  flipped.back() ^= 0x01;  // body no longer matches its CRC
  std::vector<uint8_t> huge_count = ping;
  const uint32_t num_nodes = 0xFFFFFFFFu;
  std::memcpy(huge_count.data() + kWireHeaderBytes + 8, &num_nodes,
              sizeof(num_nodes));
  SealWireFrame(huge_count, kWireTypePing, 6);  // CRC passes, body lies

  int64_t expected_errors = 0;
  for (const std::vector<uint8_t>& frame : {empty, flipped, huge_count}) {
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", wn->net->port()).ok());
    ASSERT_TRUE(client.SetIoTimeout(2000.0).ok());
    ASSERT_TRUE(client.SendRaw(frame.data(), frame.size()).ok());
    // The server closed the connection as a protocol error (counted
    // before the close), not the client's timeout.
    EXPECT_FALSE(client.Receive().ok());
    EXPECT_EQ(wn->net->stats().protocol_errors, ++expected_errors);
  }
  // The node still answers a well-formed ping on the same port.
  EXPECT_TRUE(wn->transport->Ping(0, wn->node->view()).ok());
  EXPECT_EQ(wn->net->stats().peer_frames, 2);  // huge_count, then the ping
}

TEST(ClusterWireTest, RepeatedPingsLeakNeitherThreadsNorMappings) {
  // Every wire ping is a fresh connection. Answered on the NetServer's
  // event loop, 2000 of them leave no thread and no mapped stack behind.
  auto wn = WireNode::Bind(0, 1);
  wn->Wire(ViewFor({wn.get()}));
  ASSERT_TRUE(wn->transport->Ping(0, wn->node->view()).ok());
  const int64_t regions_before = MappedRegions();
  const int threads_before = LiveThreads();
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(wn->transport->Ping(0, wn->node->view()).ok()) << i;
  }
  EXPECT_LT(MappedRegions() - regions_before, 100);
  EXPECT_EQ(LiveThreads(), threads_before);
  const NetStats n = wn->net->stats();
  EXPECT_EQ(n.peer_frames, 2001);
  EXPECT_EQ(n.frames_decoded, 0);
}

}  // namespace
}  // namespace poe
