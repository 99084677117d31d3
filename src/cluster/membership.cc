#include "cluster/membership.h"

#include <algorithm>

namespace poe {

namespace {

/// splitmix64: cheap, well-mixed, deterministic across nodes.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

const char* NodeStateName(NodeState state) {
  switch (state) {
    case NodeState::kOnline: return "ONLINE";
    case NodeState::kDraining: return "DRAINING";
    case NodeState::kOffline: return "OFFLINE";
    case NodeState::kReintegrating: return "REINTEGRATING";
  }
  return "?";
}

bool ValidTransition(NodeState from, NodeState to) {
  switch (from) {
    case NodeState::kOnline:
      return to == NodeState::kDraining || to == NodeState::kOffline;
    case NodeState::kDraining:
      return to == NodeState::kOffline;
    case NodeState::kOffline:
      return to == NodeState::kReintegrating;
    case NodeState::kReintegrating:
      return to == NodeState::kOnline || to == NodeState::kOffline;
  }
  return false;
}

const NodeInfo* MembershipView::Find(int node_id) const {
  for (const NodeInfo& n : nodes) {
    if (n.node_id == node_id) return &n;
  }
  return nullptr;
}

std::vector<int> MembershipView::NodeIds() const {
  std::vector<int> ids;
  ids.reserve(nodes.size());
  for (const NodeInfo& n : nodes) ids.push_back(n.node_id);
  return ids;
}

uint64_t MembershipView::Fingerprint() const {
  uint64_t h = Mix64(epoch);
  for (const NodeInfo& n : nodes) {
    h = Mix64(h ^ Mix64(static_cast<uint64_t>(n.node_id)));
    h = Mix64(h ^ Mix64(static_cast<uint64_t>(n.port)));
    h = Mix64(h ^ Mix64(static_cast<uint64_t>(n.state)));
    for (char c : n.host) h = Mix64(h ^ static_cast<uint8_t>(c));
  }
  return h;
}

std::string MembershipView::ToString() const {
  std::string s = "epoch " + std::to_string(epoch) + " {";
  for (size_t i = 0; i < nodes.size(); ++i) {
    const NodeInfo& n = nodes[i];
    if (i > 0) s += ", ";
    s += "node " + std::to_string(n.node_id) + " " + n.host + ":" +
         std::to_string(n.port) + " " + NodeStateName(n.state);
  }
  return s + "}";
}

PoolMembership::PoolMembership(MembershipView initial)
    : view_(std::move(initial)) {
  if (view_.epoch == 0) view_.epoch = 1;
  std::sort(view_.nodes.begin(), view_.nodes.end(),
            [](const NodeInfo& a, const NodeInfo& b) {
              return a.node_id < b.node_id;
            });
}

MembershipView PoolMembership::View() const {
  std::lock_guard<std::mutex> lock(mu_);
  return view_;
}

uint64_t PoolMembership::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return view_.epoch;
}

Status PoolMembership::Transition(int node_id, NodeState to) {
  std::lock_guard<std::mutex> lock(mu_);
  NodeInfo* node = nullptr;
  for (NodeInfo& n : view_.nodes) {
    if (n.node_id == node_id) node = &n;
  }
  if (node == nullptr) {
    return Status::InvalidArgument("unknown node " + std::to_string(node_id));
  }
  if (!ValidTransition(node->state, to)) {
    return Status::FailedPrecondition(
        std::string("illegal transition ") + NodeStateName(node->state) +
        " -> " + NodeStateName(to) + " for node " + std::to_string(node_id));
  }
  node->state = to;
  view_.epoch++;
  transitions_++;
  return Status::OK();
}

Status PoolMembership::AddNode(NodeInfo node) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const NodeInfo& n : view_.nodes) {
    if (n.node_id == node.node_id) {
      return Status::AlreadyExists("node " + std::to_string(node.node_id) +
                                   " already in the pool");
    }
  }
  view_.nodes.push_back(std::move(node));
  std::sort(view_.nodes.begin(), view_.nodes.end(),
            [](const NodeInfo& a, const NodeInfo& b) {
              return a.node_id < b.node_id;
            });
  view_.epoch++;
  transitions_++;
  return Status::OK();
}

bool PoolMembership::MergeView(const MembershipView& remote) {
  if (remote.epoch == 0) return false;  // status probe, never a real view
  std::lock_guard<std::mutex> lock(mu_);
  const bool newer = remote.epoch > view_.epoch;
  const bool tiebreak = remote.epoch == view_.epoch &&
                        remote.Fingerprint() < view_.Fingerprint();
  if (!newer && !tiebreak) return false;
  view_ = remote;
  return true;
}

int64_t PoolMembership::transitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transitions_;
}

}  // namespace poe
