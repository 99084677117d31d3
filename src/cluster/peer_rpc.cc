#include "cluster/peer_rpc.h"

#include <cstring>

#include "net/net_client.h"

namespace poe {

namespace {

template <typename T>
void Put(std::vector<uint8_t>& buf, T value) {
  const size_t pos = buf.size();
  buf.resize(pos + sizeof(T));
  std::memcpy(buf.data() + pos, &value, sizeof(T));
}

template <typename T>
T Get(const uint8_t* data) {
  T value;
  std::memcpy(&value, data, sizeof(T));
  return value;
}

/// Bounds-checked cursor over a body buffer; every decoder drains it and
/// rejects trailing bytes, mirroring the data plane's "body_len must be
/// exactly spent" discipline.
struct Cursor {
  const uint8_t* data;
  size_t len;
  size_t pos = 0;

  template <typename T>
  bool Read(T* out) {
    if (pos + sizeof(T) > len) return false;
    *out = Get<T>(data + pos);
    pos += sizeof(T);
    return true;
  }
  bool ReadBytes(std::string* out, size_t n) {
    if (pos + n > len) return false;
    out->assign(reinterpret_cast<const char*>(data + pos), n);
    pos += n;
    return true;
  }
  bool Done() const { return pos == len; }
};

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("truncated ") + what + " body");
}

}  // namespace

// ------------------------------------------------------------ codecs

std::vector<uint8_t> EncodeFetchExpertFrame(uint64_t request_id,
                                            int expert_id) {
  std::vector<uint8_t> frame(kWireHeaderBytes);
  Put<int32_t>(frame, static_cast<int32_t>(expert_id));
  SealWireFrame(frame, kWireTypeFetchExpert, request_id);
  return frame;
}

Status DecodeFetchExpertBody(const uint8_t* data, size_t len,
                             int* expert_id) {
  Cursor cur{data, len};
  int32_t id = 0;
  if (!cur.Read(&id) || !cur.Done()) return Truncated("fetch-expert");
  *expert_id = id;
  return Status::OK();
}

std::vector<uint8_t> EncodeFetchExpertReplyFrame(uint64_t request_id,
                                                 const Status& status,
                                                 const std::string& payload) {
  std::vector<uint8_t> frame(kWireHeaderBytes);
  Put<int32_t>(frame, static_cast<int32_t>(status.code()));
  Put<uint32_t>(frame, static_cast<uint32_t>(status.message().size()));
  frame.insert(frame.end(), status.message().begin(), status.message().end());
  const std::string& body = status.ok() ? payload : std::string();
  Put<uint64_t>(frame, static_cast<uint64_t>(body.size()));
  frame.insert(frame.end(), body.begin(), body.end());
  SealWireFrame(frame, kWireTypeFetchExpertReply, request_id);
  return frame;
}

Status DecodeFetchExpertReplyBody(const uint8_t* data, size_t len,
                                  Status* status, std::string* payload) {
  Cursor cur{data, len};
  int32_t code = 0;
  uint32_t msg_len = 0;
  std::string msg;
  uint64_t payload_len = 0;
  if (!cur.Read(&code) || !cur.Read(&msg_len) ||
      !cur.ReadBytes(&msg, msg_len) || !cur.Read(&payload_len) ||
      !cur.ReadBytes(payload, static_cast<size_t>(payload_len)) ||
      !cur.Done()) {
    return Truncated("fetch-expert-reply");
  }
  if (code < 0 || code >= kNumStatusCodes) {
    return Status::InvalidArgument("fetch reply carries unknown status code " +
                                   std::to_string(code));
  }
  *status = Status(static_cast<StatusCode>(code), std::move(msg));
  return Status::OK();
}

std::vector<uint8_t> EncodeViewFrame(uint64_t request_id, uint8_t type,
                                     const MembershipView& view) {
  std::vector<uint8_t> frame(kWireHeaderBytes);
  Put<uint64_t>(frame, view.epoch);
  Put<uint32_t>(frame, static_cast<uint32_t>(view.nodes.size()));
  for (const NodeInfo& n : view.nodes) {
    Put<int32_t>(frame, static_cast<int32_t>(n.node_id));
    Put<uint8_t>(frame, static_cast<uint8_t>(n.state));
    Put<int32_t>(frame, static_cast<int32_t>(n.port));
    Put<uint16_t>(frame, static_cast<uint16_t>(n.host.size()));
    frame.insert(frame.end(), n.host.begin(), n.host.end());
  }
  SealWireFrame(frame, type, request_id);
  return frame;
}

Status DecodeViewBody(const uint8_t* data, size_t len, MembershipView* view) {
  Cursor cur{data, len};
  uint32_t num_nodes = 0;
  if (!cur.Read(&view->epoch) || !cur.Read(&num_nodes)) {
    return Truncated("membership-view");
  }
  // Every node record holds at least id, state, port and host_len: a
  // count the remaining bytes cannot hold is rejected before it sizes
  // an allocation.
  constexpr size_t kMinNodeRecordBytes = 4 + 1 + 4 + 2;
  if (num_nodes > (len - cur.pos) / kMinNodeRecordBytes) {
    return Status::InvalidArgument("membership view claims " +
                                   std::to_string(num_nodes) +
                                   " nodes in a " + std::to_string(len) +
                                   "-byte body");
  }
  view->nodes.clear();
  view->nodes.reserve(num_nodes);
  for (uint32_t i = 0; i < num_nodes; ++i) {
    NodeInfo node;
    int32_t id = 0, port = 0;
    uint8_t state = 0;
    uint16_t host_len = 0;
    if (!cur.Read(&id) || !cur.Read(&state) || !cur.Read(&port) ||
        !cur.Read(&host_len) || !cur.ReadBytes(&node.host, host_len)) {
      return Truncated("membership-view");
    }
    if (state > static_cast<uint8_t>(NodeState::kReintegrating)) {
      return Status::InvalidArgument("membership view carries unknown state " +
                                     std::to_string(state));
    }
    if (port < 1 || port > kMaxPort) {
      return Status::InvalidArgument("membership view carries port " +
                                     std::to_string(port));
    }
    node.node_id = id;
    node.port = port;
    node.state = static_cast<NodeState>(state);
    view->nodes.push_back(std::move(node));
  }
  if (!cur.Done()) return Truncated("membership-view");
  return Status::OK();
}

// ------------------------------------------------------------ server

Result<std::vector<uint8_t>> AnswerPeerFrame(PeerEndpoint& endpoint,
                                             const WireHeader& header,
                                             const uint8_t* body,
                                             size_t len) {
  if (header.type == kWireTypeFetchExpert) {
    int expert_id = -1;
    POE_RETURN_NOT_OK(DecodeFetchExpertBody(body, len, &expert_id));
    auto payload = endpoint.ServeFetchExpert(expert_id);
    if (!payload.ok()) {
      return EncodeFetchExpertReplyFrame(header.request_id, payload.status(),
                                         "");
    }
    return EncodeFetchExpertReplyFrame(header.request_id, Status::OK(),
                                       payload.ValueOrDie());
  }
  if (header.type == kWireTypePing) {
    MembershipView view;
    POE_RETURN_NOT_OK(DecodeViewBody(body, len, &view));
    MembershipView reply;
    POE_ASSIGN_OR_RETURN(reply, endpoint.ServePing(view));
    return EncodeViewFrame(header.request_id, kWireTypePingReply, reply);
  }
  return Status::InvalidArgument("not a peer request frame type: " +
                                 std::to_string(header.type));
}

// ------------------------------------------------------------ client

WireTransport::WireTransport(std::function<MembershipView()> view_provider)
    : view_provider_(std::move(view_provider)) {}

Result<NodeInfo> WireTransport::Resolve(int node_id) {
  const MembershipView view = view_provider_();
  const NodeInfo* node = view.Find(node_id);
  if (node == nullptr) {
    return Status::InvalidArgument("node " + std::to_string(node_id) +
                                   " is not in the membership view");
  }
  return *node;
}

Result<std::string> WireTransport::FetchExpert(int node_id, int expert_id) {
  NodeInfo node;
  POE_ASSIGN_OR_RETURN(node, Resolve(node_id));
  NetClient client;
  POE_RETURN_NOT_OK(client.Connect(node.host, node.port));
  POE_RETURN_NOT_OK(client.SetIoTimeout(kPeerRpcTimeoutMs));
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  WireHeader header;
  std::vector<uint8_t> body;
  POE_RETURN_NOT_OK(client.Call(EncodeFetchExpertFrame(id, expert_id),
                                kWireTypeFetchExpertReply, &header, &body));
  Status remote;
  std::string payload;
  POE_RETURN_NOT_OK(DecodeFetchExpertReplyBody(body.data(), body.size(),
                                               &remote, &payload));
  POE_RETURN_NOT_OK(remote);
  return payload;
}

Result<MembershipView> WireTransport::Ping(int node_id,
                                           const MembershipView& view) {
  NodeInfo node;
  POE_ASSIGN_OR_RETURN(node, Resolve(node_id));
  NetClient client;
  POE_RETURN_NOT_OK(client.Connect(node.host, node.port));
  POE_RETURN_NOT_OK(client.SetIoTimeout(kPeerRpcTimeoutMs));
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  WireHeader header;
  std::vector<uint8_t> body;
  POE_RETURN_NOT_OK(client.Call(EncodeViewFrame(id, kWireTypePing, view),
                                kWireTypePingReply, &header, &body));
  MembershipView reply;
  POE_RETURN_NOT_OK(DecodeViewBody(body.data(), body.size(), &reply));
  return reply;
}

}  // namespace poe
