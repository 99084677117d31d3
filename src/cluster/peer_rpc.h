// Peer RPC: the wire half of the cluster layer.
//
// Rides the client protocol's 24-byte header + CRC32C framing (SealWireFrame)
// with its own frame types — 3/4 fetch-expert, 5/6 membership-ping — on
// the node's one NetServer port: a NetServer wired to a PeerEndpoint
// (NetServer::SetPeerEndpoint) answers types 3 and 5 with
// AnswerPeerFrame, inline on its event loop; one without an endpoint
// closes the connection on them as an unexpected type.
//
// Body layouts (little-endian, like the client frames):
//
//   fetch-expert (3):        [0] i32 expert_id
//   fetch-expert-reply (4):  [0] i32 status_code | [4] u32 msg_len |
//                            msg | u64 payload_len | payload
//                            (payload = v3 expert-section bytes; empty on
//                            a non-OK status)
//   membership-ping (5) and ping-reply (6): one MembershipView —
//                            u64 epoch | u32 num_nodes | per node:
//                            i32 node_id | u8 state | i32 port |
//                            u16 host_len | host bytes
//                            (epoch 0 on a ping = status probe: the
//                            receiver answers with its view but adopts
//                            nothing)
#ifndef POE_CLUSTER_PEER_RPC_H_
#define POE_CLUSTER_PEER_RPC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/membership.h"
#include "cluster/transport.h"
#include "net/wire.h"
#include "util/result.h"
#include "util/status.h"

namespace poe {

// ------------------------------------------------------------ codecs

std::vector<uint8_t> EncodeFetchExpertFrame(uint64_t request_id,
                                            int expert_id);
Status DecodeFetchExpertBody(const uint8_t* data, size_t len,
                             int* expert_id);

std::vector<uint8_t> EncodeFetchExpertReplyFrame(uint64_t request_id,
                                                 const Status& status,
                                                 const std::string& payload);
Status DecodeFetchExpertReplyBody(const uint8_t* data, size_t len,
                                  Status* status, std::string* payload);

/// Encodes a view as a ping (type 5) or ping-reply (type 6) frame.
std::vector<uint8_t> EncodeViewFrame(uint64_t request_id, uint8_t type,
                                     const MembershipView& view);
Status DecodeViewBody(const uint8_t* data, size_t len, MembershipView* view);

// ------------------------------------------------------------ server

/// Answers one peer request frame (type 3 or 5) whose body CRC the
/// caller has verified: dispatches the body to `endpoint` and returns the
/// sealed reply frame (type 4 or 6). A malformed body, or a ping the
/// endpoint refuses, is an error — the caller closes the connection
/// without a reply, since framing is never re-synced mid-stream.
Result<std::vector<uint8_t>> AnswerPeerFrame(PeerEndpoint& endpoint,
                                             const WireHeader& header,
                                             const uint8_t* body,
                                             size_t len);

// ------------------------------------------------------------ client

/// I/O budget of one peer exchange (fetch or ping).
inline constexpr double kPeerRpcTimeoutMs = 2000.0;

/// TCP transport: one fresh connection per exchange. Peer RPCs are rare
/// (one fetch per expert ever, one ping per peer per gossip round — 4 Hz
/// at the default 250 ms), so connection reuse would buy little and
/// per-call connections make the transport trivially thread-safe —
/// concurrent Acquires can fetch from different peers at once with no
/// shared client state.
class WireTransport : public PeerTransport {
 public:
  /// `view_provider` returns the current view, where a node id resolves
  /// to its host + port; ClusterNode passes a closure over its membership
  /// view. kPeerRpcTimeoutMs caps each exchange's I/O so a hung peer
  /// surfaces as a transient kUnavailable, not a stuck thread.
  explicit WireTransport(std::function<MembershipView()> view_provider);

  Result<std::string> FetchExpert(int node_id, int expert_id) override;
  Result<MembershipView> Ping(int node_id,
                              const MembershipView& view) override;

 private:
  Result<NodeInfo> Resolve(int node_id);

  std::function<MembershipView()> view_provider_;
  std::atomic<uint64_t> next_id_{1};
};

}  // namespace poe

#endif  // POE_CLUSTER_PEER_RPC_H_
