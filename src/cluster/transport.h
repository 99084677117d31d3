// PeerTransport: how a ClusterNode talks to its peers.
//
// Two implementations with one contract:
//   - LoopbackTransport (here): in-process pool of nodes. FetchExpert
//     hands over the peer's master module SHARED POINTER — zero
//     serialization, zero copies — so single-process multi-node tests and
//     the in-process demo pay nothing for the abstraction.
//   - WireTransport (peer_rpc.h): TCP via the wire protocol's framing
//     (frame types 3-6) to the peer's NetServer port. The fetched expert
//     arrives as its v3 section payload and is rebuilt into a fresh
//     master.
//
// Error contract shared by both: a dead/refusing/crashed peer is
// kUnavailable (transient — the fetch path tries the next owner and the
// pool-level RetryWithBackoff re-enters); a malformed payload is
// kCorruption (permanent — poisons the local slot).
#ifndef POE_CLUSTER_TRANSPORT_H_
#define POE_CLUSTER_TRANSPORT_H_

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "cluster/membership.h"
#include "nn/sequential.h"
#include "util/result.h"

namespace poe {

/// What a fetch-expert exchange yields. Exactly one of `module` (loopback:
/// the peer's master, aliased) or `payload` (wire: v3 section bytes to
/// rebuild from) is filled.
struct FetchExpertResult {
  int expert_id = -1;
  std::shared_ptr<Sequential> module;  ///< loopback path
  std::string payload;                 ///< wire path (v3 section bytes)
};

/// The server half a node exposes to transports. ClusterNode implements
/// this; LoopbackTransport dispatches to it directly, and a NetServer
/// wired in with SetPeerEndpoint dispatches decoded peer frames to it
/// (AnswerPeerFrame, peer_rpc.h).
class PeerEndpoint {
 public:
  virtual ~PeerEndpoint() = default;
  /// Answers a fetch: kUnavailable when the expert is not resident here
  /// (or the node cannot serve fetches in its current state).
  /// `want_payload` selects serialized bytes (wire) over the module
  /// pointer (loopback).
  virtual Result<FetchExpertResult> ServeFetchExpert(int expert_id,
                                                     bool want_payload) = 0;
  /// Membership ping: merges the sender's view (epoch 0 = pure probe) and
  /// returns this node's (possibly updated) view.
  virtual Result<MembershipView> ServePing(const MembershipView& view) = 0;
};

class PeerTransport {
 public:
  virtual ~PeerTransport() = default;
  virtual Result<FetchExpertResult> FetchExpert(int node_id,
                                                int expert_id) = 0;
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

  Result<FetchExpertResult> FetchExpert(int node_id, int expert_id) override;
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
