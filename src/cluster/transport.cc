#include "cluster/transport.h"

namespace poe {

void LoopbackTransport::Register(int node_id, PeerEndpoint* endpoint) {
  std::lock_guard<std::mutex> lock(mu_);
  endpoints_[node_id] = endpoint;
  crashed_.erase(node_id);
}

void LoopbackTransport::Unregister(int node_id) {
  std::lock_guard<std::mutex> lock(mu_);
  endpoints_.erase(node_id);
}

void LoopbackTransport::Crash(int node_id) {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_.insert(node_id);
}

void LoopbackTransport::Revive(int node_id) {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_.erase(node_id);
}

PeerEndpoint* LoopbackTransport::Resolve(int node_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_.count(node_id) > 0) return nullptr;
  auto it = endpoints_.find(node_id);
  return it == endpoints_.end() ? nullptr : it->second;
}

Result<std::string> LoopbackTransport::FetchExpert(int node_id,
                                                   int expert_id) {
  PeerEndpoint* endpoint = Resolve(node_id);
  if (endpoint == nullptr) {
    return Status::Unavailable("node " + std::to_string(node_id) +
                               " is unreachable");
  }
  return endpoint->ServeFetchExpert(expert_id);
}

Result<MembershipView> LoopbackTransport::Ping(int node_id,
                                               const MembershipView& view) {
  PeerEndpoint* endpoint = Resolve(node_id);
  if (endpoint == nullptr) {
    return Status::Unavailable("node " + std::to_string(node_id) +
                               " is unreachable");
  }
  return endpoint->ServePing(view);
}

}  // namespace poe
