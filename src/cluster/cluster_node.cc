#include "cluster/cluster_node.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/serialization.h"
#include "models/wrn.h"
#include "util/fault.h"
#include "util/rng.h"

namespace poe {

ClusterNode::ClusterNode(ExpertPool pool, MembershipView initial,
                         ClusterNodeOptions options)
    : options_(std::move(options)),
      membership_(std::move(initial)),
      // The service is constructed on the FULL pool — its generation
      // fingerprints every master — and only Start() sheds non-owned
      // masters afterwards. Shedding first would fingerprint null modules.
      service_(std::move(pool), kClusterCacheCapacity),
      server_(&service_, options_.serve) {}

ClusterNode::~ClusterNode() { Stop(); }

void ClusterNode::SetTransport(PeerTransport* transport) {
  transport_ = transport;
}

Status ClusterNode::Start() {
  if (transport_ == nullptr) {
    return Status::FailedPrecondition("no peer transport installed");
  }
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("already started");
  }
  if (membership_.View().Find(options_.node_id) == nullptr) {
    return Status::InvalidArgument("node " + std::to_string(options_.node_id) +
                                   " is not in its own membership view");
  }
  const PoolGenerationHandle gen = service_.PinGeneration();
  const std::shared_ptr<ExpertStore>& store = gen->pool.expert_store();
  store->SetRemoteMaterializer(
      [this](int task_id) { return FetchExpertModule(task_id); });
  const int num_experts = gen->pool.num_experts();
  for (int t = 0; t < num_experts; ++t) {
    if (!OwnsExpert(t)) POE_RETURN_NOT_OK(store->ReleaseMaster(t));
  }
  if (options_.start_gossip && options_.gossip_interval_ms > 0) {
    std::lock_guard<std::mutex> lock(gossip_mu_);
    stop_gossip_ = false;
    gossip_thread_ = std::thread([this] { GossipLoop(); });
  }
  return Status::OK();
}

void ClusterNode::Stop() {
  {
    std::lock_guard<std::mutex> lock(gossip_mu_);
    stop_gossip_ = true;
  }
  gossip_cv_.notify_all();
  if (gossip_thread_.joinable()) gossip_thread_.join();
  server_.Shutdown();
}

bool ClusterNode::OwnsExpert(int expert_id) const {
  const std::vector<int> owners = ExpertOwners(
      expert_id, membership_.View().NodeIds(), options_.placement);
  return std::find(owners.begin(), owners.end(), options_.node_id) !=
         owners.end();
}

std::vector<int> ClusterNode::OwnedExperts() const {
  std::vector<int> owned;
  const int num_experts = service_.PinGeneration()->pool.num_experts();
  for (int t = 0; t < num_experts; ++t) {
    if (OwnsExpert(t)) owned.push_back(t);
  }
  return owned;
}

NodeState ClusterNode::SelfState() const {
  const MembershipView view = membership_.View();
  const NodeInfo* self = view.Find(options_.node_id);
  return self != nullptr ? self->state : NodeState::kOffline;
}

Status ClusterNode::RequestTransition(int node_id, NodeState to) {
  return membership_.Transition(node_id, to);
}

Result<std::string> ClusterNode::ServeFetchExpert(int expert_id) {
  if (!CanServeFetches(SelfState())) {
    return Status::Unavailable(
        "node " + std::to_string(options_.node_id) +
        " cannot serve fetches in state " + NodeStateName(SelfState()));
  }
  const PoolGenerationHandle gen = service_.PinGeneration();
  const ExpertPool& pool = gen->pool;
  if (expert_id < 0 || expert_id >= pool.num_experts()) {
    return Status::InvalidArgument("no such expert: " +
                                   std::to_string(expert_id));
  }
  if (!pool.expert_store()->resident(expert_id)) {
    return Status::Unavailable("expert " + std::to_string(expert_id) +
                               " is not resident on node " +
                               std::to_string(options_.node_id));
  }
  const std::shared_ptr<Sequential> master = pool.expert(expert_id);
  if (master == nullptr) {
    return Status::Unavailable("expert " + std::to_string(expert_id) +
                               " was shed concurrently");
  }
  std::string payload;
  POE_ASSIGN_OR_RETURN(payload, SerializeModulePayload(*master));
  peer_fetches_served_.fetch_add(1, std::memory_order_relaxed);
  return payload;
}

Result<MembershipView> ClusterNode::ServePing(const MembershipView& view) {
  if (membership_.MergeView(view)) {
    gossip_merges_.fetch_add(1, std::memory_order_relaxed);
    DefendSelf();
  }
  return membership_.View();
}

Result<std::shared_ptr<Sequential>> ClusterNode::FetchExpertModule(
    int task_id) {
  remote_fetch_requests_.fetch_add(1, std::memory_order_relaxed);
  const Status fault = PoeFaultHit("cluster.fetch");
  if (!fault.ok()) {
    remote_fetch_failed_.fetch_add(1, std::memory_order_relaxed);
    return fault;
  }
  const MembershipView view = membership_.View();
  const std::vector<int> owners =
      ExpertOwners(task_id, view.NodeIds(), options_.placement);
  Status last = Status::Unavailable("no reachable owner for expert " +
                                    std::to_string(task_id));
  for (size_t i = 0; i < owners.size(); ++i) {
    const int owner = owners[i];
    if (owner == options_.node_id) continue;  // we shed it; nothing here
    const NodeInfo* info = view.Find(owner);
    if (info == nullptr || !CanServeFetches(info->state)) continue;
    auto fetched = transport_->FetchExpert(owner, task_id);
    if (!fetched.ok()) {
      if (fetched.status().code() == StatusCode::kCorruption) {
        // A garbled payload is permanent: fail now and poison the slot
        // instead of asking a replica to re-serve what CRC already
        // rejected once.
        remote_fetch_failed_.fetch_add(1, std::memory_order_relaxed);
        return fetched.status();
      }
      last = fetched.status();
      continue;
    }
    // Rebuild the skeleton and restore the v3 section bytes. The
    // skeleton's init weights are fully overwritten; the rng only
    // satisfies the builder's signature.
    Rng rng(0x9e3779b9u ^ static_cast<uint64_t>(task_id));
    const PoolGenerationHandle gen = service_.PinGeneration();
    const ExpertPool& pool = gen->pool;
    std::shared_ptr<Sequential> module =
        BuildExpertPart(pool.ExpertConfig(task_id),
                        pool.library_config().conv3_channels(), rng);
    const Status restored =
        DeserializeModulePayload(fetched.ValueOrDie(), *module);
    if (!restored.ok()) {
      remote_fetch_failed_.fetch_add(1, std::memory_order_relaxed);
      return restored;
    }
    remote_fetch_ok_.fetch_add(1, std::memory_order_relaxed);
    if (i > 0) remote_fetch_replica_.fetch_add(1, std::memory_order_relaxed);
    return module;
  }
  remote_fetch_failed_.fetch_add(1, std::memory_order_relaxed);
  return last;
}

void ClusterNode::DefendSelf() {
  // We are executing, therefore not dead: walk back toward ONLINE. Each
  // accepted transition bumps the epoch, so the corrected view wins the
  // next gossip exchange against the one that declared us OFFLINE.
  const NodeState self = SelfState();
  if (self == NodeState::kOffline) {
    membership_.Transition(options_.node_id, NodeState::kReintegrating);
  }
  if (SelfState() == NodeState::kReintegrating &&
      started_.load(std::memory_order_acquire)) {
    membership_.Transition(options_.node_id, NodeState::kOnline);
  }
}

void ClusterNode::GossipOnce() {
  if (transport_ == nullptr) return;
  const MembershipView view = membership_.View();
  for (const NodeInfo& peer : view.nodes) {
    if (peer.node_id == options_.node_id) continue;
    pings_sent_.fetch_add(1, std::memory_order_relaxed);
    const Status fault = PoeFaultHit("cluster.gossip");
    Result<MembershipView> reply =
        fault.ok() ? transport_->Ping(peer.node_id, membership_.View())
                   : Result<MembershipView>(fault);
    if (reply.ok()) {
      {
        std::lock_guard<std::mutex> lock(gossip_mu_);
        consecutive_ping_failures_[peer.node_id] = 0;
      }
      if (membership_.MergeView(std::move(reply).ValueOrDie())) {
        gossip_merges_.fetch_add(1, std::memory_order_relaxed);
        DefendSelf();
      }
    } else {
      ping_failures_.fetch_add(1, std::memory_order_relaxed);
      int failures = 0;
      {
        std::lock_guard<std::mutex> lock(gossip_mu_);
        failures = ++consecutive_ping_failures_[peer.node_id];
      }
      if (failures >= kPingFailuresBeforeOffline) {
        const MembershipView now = membership_.View();
        const NodeInfo* info = now.Find(peer.node_id);
        if (info != nullptr && (info->state == NodeState::kOnline ||
                                info->state == NodeState::kDraining)) {
          membership_.Transition(peer.node_id, NodeState::kOffline);
        }
      }
    }
  }
}

void ClusterNode::GossipLoop() {
  const auto interval = std::chrono::duration<double, std::milli>(
      options_.gossip_interval_ms);
  std::unique_lock<std::mutex> lock(gossip_mu_);
  while (!stop_gossip_) {
    lock.unlock();
    GossipOnce();
    lock.lock();
    gossip_cv_.wait_for(lock, interval, [this] { return stop_gossip_; });
  }
}

ServeStats ClusterNode::stats() const {
  ServeStats stats = server_.stats();
  stats.cluster_epoch = membership_.epoch();
  stats.remote_fetch_requests =
      remote_fetch_requests_.load(std::memory_order_relaxed);
  stats.remote_fetch_ok = remote_fetch_ok_.load(std::memory_order_relaxed);
  stats.remote_fetch_replica =
      remote_fetch_replica_.load(std::memory_order_relaxed);
  stats.remote_fetch_failed =
      remote_fetch_failed_.load(std::memory_order_relaxed);
  stats.peer_fetches_served =
      peer_fetches_served_.load(std::memory_order_relaxed);
  stats.gossip_merges = gossip_merges_.load(std::memory_order_relaxed);
  stats.pings_sent = pings_sent_.load(std::memory_order_relaxed);
  stats.ping_failures = ping_failures_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace poe
