// PeerTransport: how a ClusterNode talks to its peers.
//
// Two implementations with one contract:
//   - LoopbackTransport (here): in-process pool of nodes; calls the
//     peer's endpoint directly, with no sockets or framing.
//   - WireTransport (peer_rpc.h): TCP via the wire protocol's framing
//     (frame types 3-6) to the peer's NetServer port.
//
// Both carry a fetched expert the same way: as its serialized v3 section
// bytes, which the requester rebuilds into a fresh master. Loopback thus
// pays one serialization per fetch (one per expert, ever) and runs the
// same rebuild the wire path does.
//
// Error contract shared by both: a dead/refusing/crashed peer is
// kUnavailable (transient — the fetch path tries the next owner and the
// pool-level RetryWithBackoff re-enters); a malformed payload is
// kCorruption (permanent — poisons the local slot).
#ifndef POE_CLUSTER_TRANSPORT_H_
#define POE_CLUSTER_TRANSPORT_H_

#include <map>
#include <mutex>
#include <set>
#include <string>

#include "cluster/membership.h"
#include "util/result.h"

namespace poe {

/// The server half a node exposes to transports. ClusterNode implements
/// this; LoopbackTransport dispatches to it directly, and a NetServer
/// wired in with SetPeerEndpoint dispatches decoded peer frames to it
/// (AnswerPeerFrame, peer_rpc.h).
class PeerEndpoint {
 public:
  virtual ~PeerEndpoint() = default;
  /// Answers a fetch with the expert's v3 section bytes: kUnavailable
  /// when the expert is not resident here (or the node cannot serve
  /// fetches in its current state).
  virtual Result<std::string> ServeFetchExpert(int expert_id) = 0;
  /// Membership ping: merges the sender's view (epoch 0 = pure probe) and
  /// returns this node's (possibly updated) view.
  virtual Result<MembershipView> ServePing(const MembershipView& view) = 0;
};

class PeerTransport {
 public:
  virtual ~PeerTransport() = default;
  /// The expert's v3 section bytes, from node `node_id`.
  virtual Result<std::string> FetchExpert(int node_id, int expert_id) = 0;
  virtual Result<MembershipView> Ping(int node_id,
                                      const MembershipView& view) = 0;
};

/// In-process transport: a registry of endpoints keyed by node id.
/// Crash(id) makes a node unreachable (every call kUnavailable) without
/// destroying it — the test-side stand-in for SIGKILL; Revive(id) brings
/// it back, modeling a restart.
class LoopbackTransport : public PeerTransport {
 public:
  void Register(int node_id, PeerEndpoint* endpoint);
  void Unregister(int node_id);
  void Crash(int node_id);
  void Revive(int node_id);

  Result<std::string> FetchExpert(int node_id, int expert_id) override;
  Result<MembershipView> Ping(int node_id,
                              const MembershipView& view) override;

 private:
  /// nullptr when crashed/unknown; kUnavailable either way (a crashed
  /// node and a never-started one look identical from outside).
  PeerEndpoint* Resolve(int node_id);

  std::mutex mu_;
  std::map<int, PeerEndpoint*> endpoints_;
  std::set<int> crashed_;
};

}  // namespace poe

#endif  // POE_CLUSTER_TRANSPORT_H_
