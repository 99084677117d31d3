// Protocol-robustness tests: a NetServer fed truncated, oversized,
// bit-flipped, and garbage frames must answer with a clean protocol
// error (or silently close when the header is not even ours), never
// corrupt state, hang a request, or stop serving other connections.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iterator>
#include <thread>
#include <vector>

#include "cluster/peer_rpc.h"
#include "eval/metrics.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "serve/inference_server.h"
#include "test_util.h"
#include "util/crc32c.h"

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

std::vector<uint8_t> ValidFrame(uint64_t id = 1) {
  return EncodeRequestFrame(id, {0, 1}, MakeInput(2, 55), /*deadline_ms=*/0.0,
                            WirePrecision::kAny);
}

/// Polls until the server's protocol_errors counter reaches `want`
/// (connection teardown is asynchronous).
void WaitForProtocolErrors(const NetServer& net, int64_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (net.stats().protocol_errors < want &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(want, net.stats().protocol_errors);
}

/// The server must still serve a well-formed request after whatever a
/// test just threw at it.
void ExpectStillHealthy(const NetServer& net) {
  NetClient probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", net.port()).ok());
  auto r = probe.Query({0, 1}, MakeInput(1, 56));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie().status.ok())
      << r.ValueOrDie().status.ToString();
}

class NetProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<ModelQueryService>(BuildPool(), 8);
    server_ = std::make_unique<InferenceServer>(service_.get(),
                                                InferenceServer::Options{});
    net_ = std::make_unique<NetServer>(server_.get(), NetServer::Options{});
    ASSERT_TRUE(net_->Start().ok());
  }

  std::unique_ptr<ModelQueryService> service_;
  std::unique_ptr<InferenceServer> server_;
  std::unique_ptr<NetServer> net_;
};

TEST_F(NetProtocolTest, TruncationAtEveryBoundaryIsACleanError) {
  const std::vector<uint8_t> frame = ValidFrame();
  const size_t tasks_end = kWireHeaderBytes + kWireRequestMetaBytes + 4 * 2;

  // Every byte position through header+meta+tasks, then a stride through
  // the payload, plus the exact stage boundaries and full-1.
  std::vector<size_t> cuts;
  for (size_t cut = 1; cut <= tasks_end; ++cut) cuts.push_back(cut);
  for (size_t cut = tasks_end + 13; cut < frame.size(); cut += 97) {
    cuts.push_back(cut);
  }
  cuts.push_back(frame.size() - 1);

  int64_t expected_errors = 0;
  for (size_t cut : cuts) {
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", net_->port()).ok());
    ASSERT_TRUE(client.SendRaw(frame.data(), cut).ok());
    client.Close();  // EOF mid-frame: a truncated frame
    ++expected_errors;
  }
  WaitForProtocolErrors(*net_, expected_errors);
  // Nothing reached the inference queue and nothing hangs.
  EXPECT_EQ(0, server_->stats().submitted);
  ExpectStillHealthy(*net_);
}

TEST_F(NetProtocolTest, CleanEofAtFrameBoundaryIsNotAnError) {
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net_->port()).ok());
  auto r = client.Query({0, 1}, MakeInput(1, 57));
  ASSERT_TRUE(r.ok());
  client.Close();  // EOF exactly between frames

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (net_->stats().conns_dropped < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(0, net_->stats().protocol_errors);
}

TEST_F(NetProtocolTest, OversizedLengthHeaderGetsErrorReplyThenClose) {
  // Sound prefix (magic/version/type), absurd body_len: the server can
  // trust request_id, so it must answer before closing.
  std::vector<uint8_t> frame = ValidFrame(/*id=*/42);
  const uint32_t huge = kDefaultMaxBodyBytes + 1;
  std::memcpy(frame.data() + 8, &huge, sizeof(huge));

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net_->port()).ok());
  ASSERT_TRUE(client.SendRaw(frame.data(), kWireHeaderBytes).ok());
  auto r = client.Receive();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(42u, r.ValueOrDie().request_id);
  EXPECT_EQ(StatusCode::kInvalidArgument, r.ValueOrDie().status.code());
  // ... and then the connection is gone.
  EXPECT_FALSE(client.Receive().ok());
  WaitForProtocolErrors(*net_, 1);
  ExpectStillHealthy(*net_);
}

TEST_F(NetProtocolTest, BitFlippedPayloadIsCorruptionNotLogits) {
  std::vector<uint8_t> frame = ValidFrame(/*id=*/7);
  frame[frame.size() - 5] ^= 0x10;  // flip one payload bit

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net_->port()).ok());
  ASSERT_TRUE(client.SendRaw(frame.data(), frame.size()).ok());
  auto r = client.Receive();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(7u, r.ValueOrDie().request_id);
  EXPECT_EQ(StatusCode::kCorruption, r.ValueOrDie().status.code());
  EXPECT_FALSE(client.Receive().ok());
  WaitForProtocolErrors(*net_, 1);
  EXPECT_EQ(0, server_->stats().submitted);
  ExpectStillHealthy(*net_);
}

TEST_F(NetProtocolTest, BitFlippedTaskIdsAreCaughtByTheCrcToo) {
  std::vector<uint8_t> frame = ValidFrame(/*id=*/8);
  frame[kWireHeaderBytes + kWireRequestMetaBytes + 1] ^= 0x01;

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net_->port()).ok());
  ASSERT_TRUE(client.SendRaw(frame.data(), frame.size()).ok());
  auto r = client.Receive();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(StatusCode::kCorruption, r.ValueOrDie().status.code());
  WaitForProtocolErrors(*net_, 1);
  ExpectStillHealthy(*net_);
}

TEST_F(NetProtocolTest, MalformedMagicClosesWithoutReply) {
  std::vector<uint8_t> frame = ValidFrame();
  frame[0] ^= 0xFF;

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net_->port()).ok());
  ASSERT_TRUE(client.SendRaw(frame.data(), frame.size()).ok());
  // Not our protocol: no reply can be trusted, so the server just
  // closes. The client sees EOF, not a frame.
  auto r = client.Receive();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(StatusCode::kUnavailable, r.status().code());
  WaitForProtocolErrors(*net_, 1);
  ExpectStillHealthy(*net_);
}

TEST_F(NetProtocolTest, ResponseTypeFrameToServerCloses) {
  std::vector<uint8_t> response = ValidFrame();
  response[5] = kWireTypeResponse;  // wrong direction
  // A well-formed membership ping, to a server no peer endpoint was
  // wired into: just as unexpected.
  MembershipView view;
  view.epoch = 3;
  view.nodes.push_back({0, "127.0.0.1", 9100, NodeState::kOnline});
  const std::vector<uint8_t> ping = EncodeViewFrame(2, kWireTypePing, view);

  int64_t expected_errors = 0;
  for (const std::vector<uint8_t>& frame : {response, ping}) {
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", net_->port()).ok());
    ASSERT_TRUE(client.SendRaw(frame.data(), frame.size()).ok());
    EXPECT_FALSE(client.Receive().ok());
    WaitForProtocolErrors(*net_, ++expected_errors);
  }
  EXPECT_EQ(0, net_->stats().peer_frames);
  ExpectStillHealthy(*net_);
}

TEST_F(NetProtocolTest, MalformedMetaGetsInvalidArgumentReply) {
  std::vector<uint8_t> frame = ValidFrame(/*id=*/9);
  frame[kWireHeaderBytes + 9] = 3;  // ndim must be 4
  // Re-seal the CRC so the error is attributed to the meta, not the CRC.
  const uint32_t crc = Crc32c(frame.data() + kWireHeaderBytes,
                              frame.size() - kWireHeaderBytes);
  std::memcpy(frame.data() + 12, &crc, sizeof(crc));

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net_->port()).ok());
  ASSERT_TRUE(client.SendRaw(frame.data(), frame.size()).ok());
  auto r = client.Receive();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(StatusCode::kInvalidArgument, r.ValueOrDie().status.code());
  WaitForProtocolErrors(*net_, 1);
  ExpectStillHealthy(*net_);
}

TEST_F(NetProtocolTest, GarbageFloodNeverWedgesTheServer) {
  Rng rng(99);
  std::vector<uint8_t> garbage(4096);
  for (uint8_t& b : garbage) {
    b = static_cast<uint8_t>(rng.NextInt(256));
  }
  for (int i = 0; i < 4; ++i) {
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", net_->port()).ok());
    ASSERT_TRUE(client.SendRaw(garbage.data(), garbage.size()).ok());
    client.Close();
  }
  WaitForProtocolErrors(*net_, 4);
  EXPECT_EQ(0, server_->stats().submitted);
  ExpectStillHealthy(*net_);
}

// Writes `frame` in pieces of 1, 3, 7, 13 and 4093 bytes, repeated until
// it is all sent, pausing after each so the server's recv() sees each
// piece as its own chunk: payload chunks then start and end off the
// 8-byte steps of the hardware CRC.
void SendDribbled(NetClient& client, const std::vector<uint8_t>& frame) {
  static constexpr size_t kPieces[] = {1, 3, 7, 13, 4093};
  size_t pos = 0;
  for (size_t i = 0; pos < frame.size(); ++i) {
    const size_t len =
        std::min(kPieces[i % std::size(kPieces)], frame.size() - pos);
    ASSERT_TRUE(client.SendRaw(frame.data() + pos, len).ok());
    pos += len;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

TEST_F(NetProtocolTest, DribbledFrameServesTheSameLogitsAsWhole) {
  // 16 rows: a 7 KB frame, so the payload takes small pieces after the
  // 4093-byte one.
  const Tensor input = MakeInput(16, 63);
  const auto frame = [&](uint64_t id) {
    return EncodeRequestFrame(id, {0, 1}, input, /*deadline_ms=*/0.0,
                              WirePrecision::kAny);
  };
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net_->port()).ok());
  const std::vector<uint8_t> first = frame(1);
  ASSERT_TRUE(client.SendRaw(first.data(), first.size()).ok());
  auto whole = client.Receive();
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  ASSERT_TRUE(whole.ValueOrDie().status.ok());

  SendDribbled(client, frame(2));
  auto dribbled = client.Receive();
  ASSERT_TRUE(dribbled.ok()) << dribbled.status().ToString();
  ASSERT_TRUE(dribbled.ValueOrDie().status.ok())
      << dribbled.ValueOrDie().status.ToString();
  EXPECT_EQ(2u, dribbled.ValueOrDie().request_id);
  const Tensor& a = whole.ValueOrDie().logits;
  const Tensor& b = dribbled.ValueOrDie().logits;
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)));
  EXPECT_EQ(0, net_->stats().protocol_errors);

  // The same pieces with one payload bit flipped must fail the folded CRC.
  std::vector<uint8_t> flipped = frame(3);
  flipped[flipped.size() - 1000] ^= 0x04;
  SendDribbled(client, flipped);
  auto r = client.Receive();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(3u, r.ValueOrDie().request_id);
  EXPECT_EQ(StatusCode::kCorruption, r.ValueOrDie().status.code());
  WaitForProtocolErrors(*net_, 1);
  ExpectStillHealthy(*net_);
}

// A bad response header leaves the stream unaligned, so Receive must drop
// the connection rather than read the next frame's body as a header.
TEST(NetClientTest, ReceiveClosesOnABadResponseHeader) {
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(0, ::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)));
  ASSERT_EQ(0, ::listen(listener, 1));
  ASSERT_EQ(0, ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                             &addr_len));

  // A header with a bad magic, then a well-formed response frame.
  const std::vector<uint8_t> valid =
      EncodeErrorFrame(5, Status::Unavailable("busy"));
  std::vector<uint8_t> bad_header(valid.begin(),
                                  valid.begin() + kWireHeaderBytes);
  bad_header[0] ^= 0xFF;
  std::thread server([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    ::send(fd, bad_header.data(), bad_header.size(), MSG_NOSIGNAL);
    ::send(fd, valid.data(), valid.size(), MSG_NOSIGNAL);
    char sink = 0;
    ::recv(fd, &sink, 1, 0);  // until the client hangs up
    ::close(fd);
  });

  // No ASSERT until the server thread is joined.
  NetClient client;
  const Status connected = client.Connect("127.0.0.1", ntohs(addr.sin_port));
  EXPECT_TRUE(connected.ok()) << connected.ToString();
  if (connected.ok()) {
    EXPECT_FALSE(client.Receive().ok());
    EXPECT_FALSE(client.connected());
    EXPECT_EQ(StatusCode::kFailedPrecondition,
              client.Receive().status().code());
  }
  client.Close();
  ::shutdown(listener, SHUT_RDWR);  // wakes accept() if nobody connected
  server.join();
  ::close(listener);
}

// A port is dialed or bound as given, never cut to 16 bits: the
// fixture's port plus 65536 must not reach the fixture's server.
TEST_F(NetProtocolTest, OutOfRangePortsAreInvalidArgument) {
  for (int port : {net_->port() + 65536, 70000, -1, 0}) {
    NetClient client;
    EXPECT_EQ(StatusCode::kInvalidArgument,
              client.Connect("127.0.0.1", port).code())
        << port;
    EXPECT_FALSE(client.connected());
  }
  for (int port : {70000, -1}) {
    NetServer::Options options;
    options.port = port;
    NetServer net(server_.get(), options);
    EXPECT_EQ(StatusCode::kInvalidArgument, net.Start().code()) << port;
  }
  ExpectStillHealthy(*net_);
}

// --- deadline edge cases on the wire ---

TEST_F(NetProtocolTest, WireDeadlineZeroMeansNoDeadlineNotBornExpired) {
  // deadline_ms = 0.0 crosses the wire as "no budget" (the <= 0 contract
  // in the frame spec), NOT as a deadline that expired at birth - the
  // request must be served.
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net_->port()).ok());
  auto r = client.Query({0, 1}, MakeInput(1, 60), /*deadline_ms=*/0.0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie().status.ok())
      << r.ValueOrDie().status.ToString();
  EXPECT_EQ(0, server_->stats().deadline_expired);
}

TEST_F(NetProtocolTest, WireDeadlineTinyPositiveIsShedAsExpired) {
  // The smallest representable positive budget IS a real deadline and has
  // long passed by the time the frame crosses the socket: the request is
  // shed with a well-formed kDeadlineExceeded response (never executed,
  // never a protocol error).
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net_->port()).ok());
  auto r = client.Query({0, 1}, MakeInput(1, 61), /*deadline_ms=*/1e-6);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(StatusCode::kDeadlineExceeded, r.ValueOrDie().status.code());
  EXPECT_EQ(0, net_->stats().protocol_errors);
  EXPECT_EQ(1, server_->stats().deadline_expired);
  ExpectStillHealthy(*net_);
}

TEST_F(NetProtocolTest, DeadlineLongerThanTheConnectionIsHarmless) {
  // A client that sets an hour-long budget and hangs up right after
  // sending must not leave the server holding anything: the request
  // resolves (the response is written to a dead socket and dropped with
  // the connection), counters reconcile, and the next connection serves.
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net_->port()).ok());
  ASSERT_TRUE(
      client.Send({0, 1}, MakeInput(1, 62), /*deadline_ms=*/3.6e6).ok());
  client.Close();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const ServeStats s = server_->stats();
    if (s.submitted >= 1 &&
        s.submitted == s.completed + s.rejected + s.deadline_expired) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const ServeStats s = server_->stats();
  EXPECT_GE(s.submitted, 1);
  EXPECT_EQ(s.submitted, s.completed + s.rejected + s.deadline_expired);
  ExpectStillHealthy(*net_);
}

}  // namespace
}  // namespace poe
