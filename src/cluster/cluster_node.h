// ClusterNode: one member of the distributed expert pool.
//
// Composition: a full single-node serving stack (ModelQueryService +
// InferenceServer) plus the cluster layer around it — a PoolMembership
// view, consistent-hash placement, and a PeerTransport to the other
// nodes. At Start() the node SHEDS every expert master it does not own
// (placement decides; the slot stays, the weights go) and installs a
// remote materializer in its ExpertStore: the first local query that
// needs a non-resident expert fetches it from an owner, installs it as a
// permanent local master (fetch-once caching), and serves. All the
// robustness machinery below the store — per-expert RetryWithBackoff,
// deadlines, degraded assembly, poisoned slots — applies to remote
// fetches exactly as it does to injected local faults, because the fetch
// IS the materialization step.
//
// Failure semantics:
//   - A dead owner is kUnavailable; the fetch tries the replica owner
//     (remote_fetch_replica counts those) and only fails when every
//     owner is exhausted. The pool's retry loop then re-enters with
//     backoff, up to its attempt limit and the deadline; a query that
//     still cannot get the expert serves degraded or fails inside the
//     status whitelist {OK, Unavailable, DeadlineExceeded,
//     ResourceExhausted}.
//   - Gossip failure detection: kPingFailuresBeforeOffline (2)
//     consecutive failed pings mark a peer OFFLINE (epoch bump, gossiped
//     outward).
//   - Self-defense: a node that finds ITSELF OFFLINE in a merged view is
//     alive by construction, so it promotes itself REINTEGRATING -> ONLINE
//     with fresh epochs — a wrongly-declared-dead node reinstates itself
//     through the same gossip that condemned it.
//
// Counter identities (asserted by the cluster tests):
//   remote_fetch_requests == remote_fetch_ok + remote_fetch_failed
//   remote_fetch_replica <= remote_fetch_ok
#ifndef POE_CLUSTER_CLUSTER_NODE_H_
#define POE_CLUSTER_CLUSTER_NODE_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cluster/membership.h"
#include "cluster/placement.h"
#include "cluster/transport.h"
#include "core/query_service.h"
#include "serve/inference_server.h"

namespace poe {

/// Consecutive failed pings before a peer is declared OFFLINE.
inline constexpr int kPingFailuresBeforeOffline = 2;
/// Assembled-model cache entries per node.
inline constexpr size_t kClusterCacheCapacity = 64;

struct ClusterNodeOptions {
  int node_id = 0;
  PlacementConfig placement;
  /// Background gossip period; start_gossip=false (tests, poectl's
  /// explicit loop) leaves gossip to manual GossipOnce() calls.
  double gossip_interval_ms = 250.0;
  bool start_gossip = false;
  /// Inference-server knobs, passed through unchanged.
  InferenceServer::Options serve;
};

class ClusterNode : public PeerEndpoint {
 public:
  /// `initial` must list this node (options.node_id) among its members.
  /// The node serves at `pool`'s precision: an int8 node is one over an
  /// int8 pool.
  ClusterNode(ExpertPool pool, MembershipView initial,
              ClusterNodeOptions options);
  ~ClusterNode() override;

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  /// Must be called before Start(). Not owned; must outlive the node.
  void SetTransport(PeerTransport* transport);

  /// Sheds non-owned masters, installs the remote materializer, starts
  /// gossip (when configured). FailedPrecondition without a transport.
  Status Start();

  /// Stops gossip and drains the inference server. Idempotent.
  void Stop();

  // --- PeerEndpoint (the server half peers see) ---
  Result<std::string> ServeFetchExpert(int expert_id) override;
  Result<MembershipView> ServePing(const MembershipView& view) override;

  /// One gossip round: ping every peer in the view (OFFLINE included —
  /// that is how a returned node is re-discovered), merge replies, run
  /// failure detection. Safe from any thread.
  void GossipOnce();

  /// Applies a membership transition locally (epoch bump); gossip spreads
  /// it. This is the admin path poectl drives.
  Status RequestTransition(int node_id, NodeState to);

  bool OwnsExpert(int expert_id) const;
  std::vector<int> OwnedExperts() const;
  NodeState SelfState() const;

  int node_id() const { return options_.node_id; }
  MembershipView view() const { return membership_.View(); }
  PoolMembership& membership() { return membership_; }
  ModelQueryService& service() { return service_; }
  InferenceServer& server() { return server_; }

  /// Full ServeStats with the cluster block filled in.
  ServeStats stats() const;

 private:
  /// The ExpertStore's remote materializer: walk the owner list, fetch,
  /// rebuild. kUnavailable (transient, all owners down) feeds the pool's
  /// retry loop; kCorruption (bad payload) poisons the slot.
  Result<std::shared_ptr<Sequential>> FetchExpertModule(int task_id);

  /// Promotes this node out of OFFLINE/REINTEGRATING after a merge that
  /// (wrongly, since we are executing) declared it dead.
  void DefendSelf();

  void GossipLoop();

  ClusterNodeOptions options_;
  PoolMembership membership_;
  ModelQueryService service_;
  InferenceServer server_;
  PeerTransport* transport_ = nullptr;
  std::atomic<bool> started_{false};

  std::thread gossip_thread_;
  std::mutex gossip_mu_;  ///< guards stop flag + per-peer failure counts
  std::condition_variable gossip_cv_;
  bool stop_gossip_ = false;
  std::map<int, int> consecutive_ping_failures_;

  std::atomic<int64_t> remote_fetch_requests_{0};
  std::atomic<int64_t> remote_fetch_ok_{0};
  std::atomic<int64_t> remote_fetch_replica_{0};
  std::atomic<int64_t> remote_fetch_failed_{0};
  std::atomic<int64_t> peer_fetches_served_{0};
  std::atomic<int64_t> gossip_merges_{0};
  std::atomic<int64_t> pings_sent_{0};
  std::atomic<int64_t> ping_failures_{0};
};

}  // namespace poe

#endif  // POE_CLUSTER_CLUSTER_NODE_H_
