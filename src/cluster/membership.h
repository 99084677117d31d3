// PoolMembership: the explicit node-lifecycle state machine of the
// distributed expert pool, following the persistent pool-machine pattern
// (every state change is an explicit, versioned transition; observers
// converge on the highest-epoch view) adapted to the epoll/wire stack.
//
// Node states and legal transitions:
//
//     ONLINE ──drain──> DRAINING ──complete/crash──> OFFLINE
//       │                                               │
//       └────────────crash detected──────> OFFLINE      │ join
//                                                       v
//     ONLINE <──recovered── REINTEGRATING <─────────────┘
//                    │
//                    └──failed──> OFFLINE
//
// Semantics per state:
//   ONLINE        serves queries and answers peer fetches.
//   DRAINING      answers peer fetches (its experts are still the owned
//                 copies) but operators route new traffic elsewhere; the
//                 admin took it down on purpose and will mark it OFFLINE
//                 when its queues are empty.
//   OFFLINE       unreachable (crashed or drained out). Placement skips
//                 it; fetches go to the replica owner or fail degraded.
//   REINTEGRATING back in the pool but warming up (reloading its pool
//                 file). It is NOT yet fetched from; the node itself
//                 promotes to ONLINE once it serves again.
//
// Epochs: every accepted transition (and every AddNode) bumps a uint64
// epoch. Views gossip whole: a receiver adopts a strictly newer view
// wholesale and ignores older ones — there is no per-field merge, so two
// nodes can never splice incompatible views together. Equal-epoch
// divergence (two nodes transitioned concurrently) is resolved by a
// deterministic fingerprint tie-break so the pool still converges.
#ifndef POE_CLUSTER_MEMBERSHIP_H_
#define POE_CLUSTER_MEMBERSHIP_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace poe {

enum class NodeState : uint8_t {
  kOnline = 0,
  kDraining = 1,
  kOffline = 2,
  kReintegrating = 3,
};

const char* NodeStateName(NodeState state);

/// True when the pool state machine allows `from` -> `to` (see the
/// diagram above). Self-transitions are not legal: an accepted transition
/// must change the view, because it burns an epoch.
bool ValidTransition(NodeState from, NodeState to);

/// A node can answer fetch-expert RPCs in these states. REINTEGRATING is
/// deliberately excluded: the node is warming up and its store may not be
/// loaded yet.
inline bool CanServeFetches(NodeState state) {
  return state == NodeState::kOnline || state == NodeState::kDraining;
}

struct NodeInfo {
  int node_id = -1;
  std::string host;  ///< the node's address (the demo uses 127.0.0.1)
  int port = 0;      ///< its NetServer: client queries and peer frames
  NodeState state = NodeState::kOnline;
};

/// A versioned snapshot of the whole pool. Views are gossiped and adopted
/// wholesale; `epoch` totally orders them (ties broken by Fingerprint).
struct MembershipView {
  uint64_t epoch = 0;
  std::vector<NodeInfo> nodes;  ///< sorted by node_id, unique ids

  const NodeInfo* Find(int node_id) const;
  /// Node ids in view order (the stable input of placement).
  std::vector<int> NodeIds() const;
  /// Deterministic content hash (ports, states, epoch, hosts). Equal-epoch
  /// divergent views adopt the SMALLER fingerprint on both sides, so
  /// concurrent transitions cannot leave the pool split forever.
  uint64_t Fingerprint() const;
  std::string ToString() const;
};

/// Thread-safe holder of this node's view plus the transition rules.
class PoolMembership {
 public:
  /// `initial.epoch` is forced to at least 1 (epoch 0 means "no view" on
  /// the wire and is never adopted).
  explicit PoolMembership(MembershipView initial);

  MembershipView View() const;
  uint64_t epoch() const;

  /// Applies one state transition and bumps the epoch. InvalidArgument on
  /// an unknown node, FailedPrecondition on an illegal transition.
  Status Transition(int node_id, NodeState to);

  /// Adds a node (any state) and bumps the epoch; AlreadyExists if the id
  /// is taken.
  Status AddNode(NodeInfo node);

  /// Gossip merge: adopts `remote` when it is strictly newer, or when
  /// epochs are equal but `remote`'s fingerprint is smaller (the
  /// deterministic tie-break). Returns true when the local view changed.
  /// Epoch-0 views are status probes and never adopted.
  bool MergeView(const MembershipView& remote);

  /// Local transitions applied (not counting merges) — telemetry.
  int64_t transitions() const;

 private:
  mutable std::mutex mu_;
  MembershipView view_;
  int64_t transitions_ = 0;
};

}  // namespace poe

#endif  // POE_CLUSTER_MEMBERSHIP_H_
