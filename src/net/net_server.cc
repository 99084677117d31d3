#include "net/net_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <utility>

#include "cluster/peer_rpc.h"
#include "util/crc32c.h"
#include "util/fault.h"

namespace poe {

namespace {

/// A connection's task buffer keeps at most this capacity between frames.
/// A peer body can be up to kDefaultMaxBodyBytes; holding that for the
/// life of the connection would pin it in RSS.
constexpr size_t kKeepTaskBufferBytes = 64 << 10;

/// Pending connections the kernel queues before accept().
constexpr int kListenBacklog = 128;

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

/// True when the first 8 header bytes (magic/version/type/reserved) are
/// sound - then the request_id field is trustworthy and a protocol-error
/// reply can carry it. A header failing THIS is not even our protocol;
/// the connection closes without a reply.
bool HeaderPrefixValid(const uint8_t* h) {
  uint32_t magic;
  uint16_t reserved;
  std::memcpy(&magic, h, 4);
  std::memcpy(&reserved, h + 6, 2);
  return magic == WireMagic() && h[4] == kWireVersion &&
         h[5] == kWireTypeRequest && reserved == 0;
}

}  // namespace

void NetStats::Merge(const NetStats& other) {
  bytes_in += other.bytes_in;
  bytes_out += other.bytes_out;
  frames_decoded += other.frames_decoded;
  protocol_errors += other.protocol_errors;
  conns_accepted += other.conns_accepted;
  conns_dropped += other.conns_dropped;
  conns_open += other.conns_open;
  responses_sent += other.responses_sent;
  precision_rejects += other.precision_rejects;
  peer_frames += other.peer_frames;
}

/// One TCP connection, owned by exactly one worker thread (every field
/// is touched only on that thread).
struct NetServer::Conn {
  int fd = -1;
  uint64_t id = 0;

  // Read-side state machine: header -> meta -> tasks -> payload for a
  // request, header -> peer body for a peer frame, each stage
  // accumulating exactly its byte count before decoding.
  enum class Stage { kHeader, kMeta, kTasks, kPayload, kPeerBody };
  Stage stage = Stage::kHeader;
  size_t got = 0;  ///< bytes accumulated in the current stage
  uint8_t hbuf[kWireHeaderBytes];
  uint8_t mbuf[kWireRequestMetaBytes];
  std::vector<uint8_t> tbuf;  ///< task ids, or a whole peer-frame body
  WireHeader header;
  PeerEndpoint* peer = nullptr;  ///< endpoint answering the peer frame
  WireRequestMeta meta;
  /// The request input, recv()'d into directly (zero-copy decode).
  Tensor payload;
  uint32_t crc = 0;  ///< running body CRC across meta/tasks/payload

  // Write side: fully-serialized frames awaiting the socket.
  std::deque<std::vector<uint8_t>> out;
  size_t out_off = 0;  ///< bytes of out.front() already sent
  bool want_write = false;

  int inflight = 0;     ///< decoded-but-unanswered requests
  bool paused = false;  ///< EPOLLIN off: in-flight window full
  bool closing = false;  ///< no more reads; close once flushed + drained
  bool dead = false;     ///< fd closed; object parked until loop top
};

struct NetServer::Worker {
  int epoll_fd = -1;
  int event_fd = -1;
  std::thread thread;

  // Mailbox: the only cross-thread state. The acceptor pushes fds, the
  // inference-side completion callbacks push serialized response frames.
  std::mutex mu;
  std::vector<int> incoming;
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> completions;

  // Worker-thread-only connection table. Closed conns park in the
  // graveyard until the next loop iteration so pointers inside the
  // current epoll batch stay valid.
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;
  std::vector<std::unique_ptr<Conn>> graveyard;
  uint64_t next_conn_id = 1;

  std::atomic<int64_t> bytes_in{0};
  std::atomic<int64_t> bytes_out{0};
  std::atomic<int64_t> frames_decoded{0};
  std::atomic<int64_t> protocol_errors{0};
  std::atomic<int64_t> conns_accepted{0};
  std::atomic<int64_t> conns_dropped{0};
  std::atomic<int64_t> conns_open{0};
  std::atomic<int64_t> responses_sent{0};
  std::atomic<int64_t> precision_rejects{0};
  std::atomic<int64_t> peer_frames{0};
};

NetServer::NetServer(InferenceServer* server, Options options)
    : server_(server), options_(std::move(options)) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.max_inflight_per_conn < 1) options_.max_inflight_per_conn = 1;
}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (running_.load(std::memory_order_acquire) || !workers_.empty()) {
    return Status::FailedPrecondition("net server already started");
  }
  if (options_.port < 0 || options_.port > kMaxPort) {
    return Status::InvalidArgument("listen port out of range: " +
                                   std::to_string(options_.port));
  }
  pool_precision_ = server_->stats().precision;

  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status s = Errno("bind " + options_.host + ":" +
                           std::to_string(options_.port));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    const Status s = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  accept_epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  accept_event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (accept_epoll_fd_ < 0 || accept_event_fd_ < 0) {
    Stop();
    return Errno("epoll/eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // nullptr tags the eventfd everywhere
  ::epoll_ctl(accept_epoll_fd_, EPOLL_CTL_ADD, accept_event_fd_, &ev);
  ev.data.ptr = this;  // `this` tags the listen socket
  ::epoll_ctl(accept_epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);

  stopping_.store(false, std::memory_order_release);
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    w->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (w->epoll_fd < 0 || w->event_fd < 0) {
      workers_.push_back(std::move(w));
      Stop();
      return Errno("worker epoll/eventfd");
    }
    epoll_event wev{};
    wev.events = EPOLLIN;
    wev.data.ptr = nullptr;
    ::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, w->event_fd, &wev);
    workers_.push_back(std::move(w));
  }
  for (auto& w : workers_) {
    Worker* raw = w.get();
    w->thread = std::thread([this, raw] { WorkerLoop(raw); });
  }
  acceptor_ = std::thread([this] { AcceptorLoop(); });
  running_.store(true, std::memory_order_release);
  return Status::OK();
}

void NetServer::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    // A second caller (destructor after explicit Stop) finds the flag
    // set; the first caller finished the teardown below.
    return;
  }
  const uint64_t tick = 1;
  if (accept_event_fd_ >= 0) {
    ssize_t ignored = ::write(accept_event_fd_, &tick, sizeof(tick));
    (void)ignored;
  }
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& w : workers_) {
    if (w->event_fd >= 0) {
      ssize_t ignored = ::write(w->event_fd, &tick, sizeof(tick));
      (void)ignored;
    }
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  // Completion callbacks post into worker mailboxes/eventfds, so those
  // stay alive until every handed-off request has called back (a conn
  // dropped mid-flight leaves callbacks behind; their posts are dropped
  // at the mailbox since the conn id is gone).
  {
    std::unique_lock<std::mutex> lock(inflight_mu_);
    inflight_cv_.wait(lock, [this] {
      return inflight_.load(std::memory_order_acquire) == 0;
    });
  }
  for (auto& w : workers_) {
    if (w->event_fd >= 0) ::close(w->event_fd);
    if (w->epoll_fd >= 0) ::close(w->epoll_fd);
    w->event_fd = w->epoll_fd = -1;
    w->graveyard.clear();
    std::lock_guard<std::mutex> lock(w->mu);
    for (int fd : w->incoming) ::close(fd);
    w->incoming.clear();
    w->completions.clear();
  }
  if (accept_epoll_fd_ >= 0) ::close(accept_epoll_fd_);
  if (accept_event_fd_ >= 0) ::close(accept_event_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  accept_epoll_fd_ = accept_event_fd_ = listen_fd_ = -1;
  running_.store(false, std::memory_order_release);
}

NetStats NetServer::stats() const {
  NetStats total;
  for (const NetStats& s : worker_stats()) total.Merge(s);
  return total;
}

std::vector<NetStats> NetServer::worker_stats() const {
  std::vector<NetStats> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) {
    NetStats s;
    s.bytes_in = w->bytes_in.load(std::memory_order_relaxed);
    s.bytes_out = w->bytes_out.load(std::memory_order_relaxed);
    s.frames_decoded = w->frames_decoded.load(std::memory_order_relaxed);
    s.protocol_errors = w->protocol_errors.load(std::memory_order_relaxed);
    // Departure loads before arrivals so the live identity
    // conns_accepted >= conns_open + conns_dropped can only lag on the
    // accepted side, matching the serve-side counter convention.
    s.conns_dropped = w->conns_dropped.load(std::memory_order_acquire);
    s.conns_open = w->conns_open.load(std::memory_order_acquire);
    s.conns_accepted = w->conns_accepted.load(std::memory_order_acquire);
    s.responses_sent = w->responses_sent.load(std::memory_order_relaxed);
    s.precision_rejects =
        w->precision_rejects.load(std::memory_order_relaxed);
    s.peer_frames = w->peer_frames.load(std::memory_order_relaxed);
    out.push_back(s);
  }
  return out;
}

void NetServer::AcceptorLoop() {
  epoll_event events[8];
  size_t next_worker = 0;
  for (;;) {
    const int n = ::epoll_wait(accept_epoll_fd_, events, 8, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr) {
        uint64_t drained;
        while (::read(accept_event_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      for (;;) {
        const int fd =
            ::accept4(listen_fd_, nullptr, nullptr,
                      SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) break;  // EAGAIN (or a transient error; retry on next)
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        Worker* w = workers_[next_worker++ % workers_.size()].get();
        {
          std::lock_guard<std::mutex> lock(w->mu);
          w->incoming.push_back(fd);
        }
        const uint64_t tick = 1;
        ssize_t ignored = ::write(w->event_fd, &tick, sizeof(tick));
        (void)ignored;
      }
    }
  }
}

void NetServer::WorkerLoop(Worker* w) {
  std::vector<epoll_event> events(64);
  bool draining = false;
  for (;;) {
    w->graveyard.clear();  // safe: the previous batch is fully processed
    if (stopping_.load(std::memory_order_acquire) && !draining) {
      draining = true;
      std::vector<Conn*> open;
      open.reserve(w->conns.size());
      for (auto& kv : w->conns) open.push_back(kv.second.get());
      for (Conn* c : open) {
        c->closing = true;
        if (c->inflight == 0 && c->out.empty()) {
          CloseConn(w, c);
        } else {
          UpdateEpoll(w, c);
        }
      }
    }
    if (draining && w->conns.empty()) return;
    const int n = ::epoll_wait(w->epoll_fd, events.data(),
                               static_cast<int>(events.size()),
                               draining ? 50 : -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr) {
        uint64_t drained;
        while (::read(w->event_fd, &drained, sizeof(drained)) > 0) {
        }
        AdoptIncoming(w);
        DeliverCompletions(w);
        continue;
      }
      Conn* c = static_cast<Conn*>(events[i].data.ptr);
      if (c->dead) continue;
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        HandleRead(w, c);
      }
      if (!c->dead && (events[i].events & EPOLLOUT)) {
        HandleWrite(w, c);
      }
    }
  }
}

void NetServer::AdoptIncoming(Worker* w) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(w->mu);
    fds.swap(w->incoming);
  }
  for (int fd : fds) {
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = w->next_conn_id++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn.get();
    if (::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    w->conns_accepted.fetch_add(1, std::memory_order_release);
    w->conns_open.fetch_add(1, std::memory_order_relaxed);
    w->conns.emplace(conn->id, std::move(conn));
  }
}

void NetServer::DeliverCompletions(Worker* w) {
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> done;
  {
    std::lock_guard<std::mutex> lock(w->mu);
    done.swap(w->completions);
  }
  for (auto& entry : done) {
    auto it = w->conns.find(entry.first);
    if (it == w->conns.end()) continue;  // conn departed; drop the frame
    Conn* c = it->second.get();
    if (c->dead) continue;
    --c->inflight;
    if (c->paused && !c->closing &&
        c->inflight < options_.max_inflight_per_conn) {
      // Window reopened: resume reading this socket.
      c->paused = false;
      UpdateEpoll(w, c);
    }
    SendFrame(w, c, std::move(entry.second));
  }
}

void NetServer::SendFrame(Worker* w, Conn* c, std::vector<uint8_t> frame) {
  if (c->dead) return;
  c->out.push_back(std::move(frame));
  HandleWrite(w, c);
}

void NetServer::HandleWrite(Worker* w, Conn* c) {
  if (c->dead) return;
  if (!c->out.empty()) {
    const Status fault = PoeFaultHit("net.write");
    if (!fault.ok()) {
      // An injected transport failure: the socket is gone as far as this
      // connection is concerned.
      CloseConn(w, c);
      return;
    }
  }
  while (!c->out.empty()) {
    const std::vector<uint8_t>& front = c->out.front();
    const size_t left = front.size() - c->out_off;
    const ssize_t n =
        ::send(c->fd, front.data() + c->out_off, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConn(w, c);
      return;
    }
    w->bytes_out.fetch_add(n, std::memory_order_relaxed);
    c->out_off += static_cast<size_t>(n);
    if (c->out_off == front.size()) {
      c->out.pop_front();
      c->out_off = 0;
      w->responses_sent.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const bool want_write = !c->out.empty();
  if (want_write != c->want_write) {
    c->want_write = want_write;
    UpdateEpoll(w, c);
  }
  if (c->closing && c->inflight == 0 && c->out.empty()) CloseConn(w, c);
}

void NetServer::UpdateEpoll(Worker* w, Conn* c) {
  if (c->dead) return;
  epoll_event ev{};
  ev.data.ptr = c;
  ev.events = 0;  // events==0 is valid: only HUP/ERR are reported
  if (!c->paused && !c->closing) ev.events |= EPOLLIN;
  if (c->want_write) ev.events |= EPOLLOUT;
  ::epoll_ctl(w->epoll_fd, EPOLL_CTL_MOD, c->fd, &ev);
}

void NetServer::CloseConn(Worker* w, Conn* c) {
  if (c->dead) return;
  c->dead = true;
  ::epoll_ctl(w->epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
  ::close(c->fd);
  // Dropped loads as >= in stats(): bump it before open shrinks.
  w->conns_dropped.fetch_add(1, std::memory_order_release);
  w->conns_open.fetch_sub(1, std::memory_order_release);
  auto it = w->conns.find(c->id);
  if (it != w->conns.end()) {
    w->graveyard.push_back(std::move(it->second));
    w->conns.erase(it);
  }
}

void NetServer::ProtocolError(Worker* w, Conn* c, bool can_reply,
                              uint64_t reply_id, const Status& error) {
  w->protocol_errors.fetch_add(1, std::memory_order_relaxed);
  if (!can_reply) {
    CloseConn(w, c);
    return;
  }
  // Framing is poisoned but the peer can still be told why: one final
  // error response, then flush and close. Requests already in flight on
  // this connection still get their responses first.
  c->closing = true;
  UpdateEpoll(w, c);
  SendFrame(w, c, EncodeErrorFrame(reply_id, error));
}

void NetServer::HandleRead(Worker* w, Conn* c) {
  if (c->paused || c->closing || c->dead) return;
  {
    const Status fault = PoeFaultHit("net.read");
    if (!fault.ok()) {
      CloseConn(w, c);
      return;
    }
  }
  for (;;) {
    uint8_t* dst = nullptr;
    size_t stage_size = 0;
    switch (c->stage) {
      case Conn::Stage::kHeader:
        dst = c->hbuf;
        stage_size = kWireHeaderBytes;
        break;
      case Conn::Stage::kMeta:
        dst = c->mbuf;
        stage_size = kWireRequestMetaBytes;
        break;
      case Conn::Stage::kTasks:
      case Conn::Stage::kPeerBody:
        dst = c->tbuf.data();
        stage_size = c->tbuf.size();
        break;
      case Conn::Stage::kPayload:
        dst = reinterpret_cast<uint8_t*>(c->payload.data());
        stage_size = c->meta.payload_bytes();
        break;
    }
    const ssize_t n = ::recv(c->fd, dst + c->got, stage_size - c->got, 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      CloseConn(w, c);  // reset/failed socket, not a protocol error
      return;
    }
    if (n == 0) {
      // EOF. Clean only on a frame boundary; mid-frame it is a
      // truncated frame - a protocol error by the framing rules.
      if (c->stage != Conn::Stage::kHeader || c->got != 0) {
        w->protocol_errors.fetch_add(1, std::memory_order_relaxed);
      }
      CloseConn(w, c);
      return;
    }
    w->bytes_in.fetch_add(n, std::memory_order_relaxed);
    if (c->stage == Conn::Stage::kPayload) {
      // The CRC of payload bytes is folded in as chunks land: no second
      // pass over what can be the bulk of the frame.
      c->crc = Crc32cExtend(c->crc, dst + c->got, static_cast<size_t>(n));
    }
    c->got += static_cast<size_t>(n);
    if (c->got < stage_size) continue;

    switch (c->stage) {
      case Conn::Stage::kHeader: {
        // A peer frame is expected only once an endpoint is wired in;
        // otherwise its type fails the request-type check like any other.
        const uint8_t type = c->hbuf[5];
        c->peer = type == kWireTypeFetchExpert || type == kWireTypePing
                      ? peer_endpoint_.load(std::memory_order_acquire)
                      : nullptr;
        const Status s = DecodeHeader(
            c->hbuf, kWireHeaderBytes,
            c->peer != nullptr ? type : kWireTypeRequest,
            kDefaultMaxBodyBytes, &c->header);
        if (!s.ok()) {
          uint64_t rid = 0;
          std::memcpy(&rid, c->hbuf + 16, sizeof(rid));
          ProtocolError(w, c, HeaderPrefixValid(c->hbuf), rid, s);
          return;
        }
        if (c->peer == nullptr) {
          c->stage = Conn::Stage::kMeta;
        } else if (c->header.body_len == 0) {
          // Every peer body has fields. An empty one would make a
          // zero-byte stage that recv() never completes.
          ProtocolError(w, c, false, 0,
                        Status::InvalidArgument("empty peer frame body"));
          return;
        } else {
          c->tbuf.resize(c->header.body_len);
          c->stage = Conn::Stage::kPeerBody;
        }
        c->got = 0;
        break;
      }
      case Conn::Stage::kMeta: {
        c->crc = Crc32cExtend(0, c->mbuf, kWireRequestMetaBytes);
        const Status s = DecodeRequestMeta(c->mbuf, kWireRequestMetaBytes,
                                           c->header, &c->meta);
        if (!s.ok()) {
          ProtocolError(w, c, true, c->header.request_id, s);
          return;
        }
        c->tbuf.resize(c->meta.task_bytes());
        c->stage = Conn::Stage::kTasks;
        c->got = 0;
        break;
      }
      case Conn::Stage::kTasks: {
        c->crc = Crc32cExtend(c->crc, c->tbuf.data(), c->tbuf.size());
        c->payload = Tensor({c->meta.dims[0], c->meta.dims[1],
                             c->meta.dims[2], c->meta.dims[3]});
        c->stage = Conn::Stage::kPayload;
        c->got = 0;
        break;
      }
      case Conn::Stage::kPayload: {
        if (c->crc != c->header.body_crc) {
          ProtocolError(w, c, true, c->header.request_id,
                        Status::Corruption("request body CRC mismatch"));
          return;
        }
        DispatchRequest(w, c);
        if (c->dead || c->closing) return;
        c->stage = Conn::Stage::kHeader;
        c->got = 0;
        c->crc = 0;
        c->payload = Tensor();
        if (c->paused) return;  // window filled; EPOLLIN is off now
        break;
      }
      case Conn::Stage::kPeerBody: {
        if (Crc32c(c->tbuf.data(), c->tbuf.size()) != c->header.body_crc) {
          ProtocolError(w, c, false, 0,
                        Status::Corruption("peer frame body CRC mismatch"));
          return;
        }
        w->peer_frames.fetch_add(1, std::memory_order_relaxed);
        Result<std::vector<uint8_t>> reply = AnswerPeerFrame(
            *c->peer, c->header, c->tbuf.data(), c->tbuf.size());
        if (!reply.ok()) {
          ProtocolError(w, c, false, 0, reply.status());
          return;
        }
        SendFrame(w, c, std::move(reply).ValueOrDie());
        if (c->dead) return;
        if (c->tbuf.capacity() > kKeepTaskBufferBytes) {
          std::vector<uint8_t>().swap(c->tbuf);
        }
        c->stage = Conn::Stage::kHeader;
        c->got = 0;
        break;
      }
    }
  }
}

void NetServer::DispatchRequest(Worker* w, Conn* c) {
  w->frames_decoded.fetch_add(1, std::memory_order_relaxed);

  const WirePrecision want = c->meta.precision;
  const bool mismatch =
      (want == WirePrecision::kFloat32 &&
       pool_precision_ != ServingPrecision::kFloat32) ||
      (want == WirePrecision::kInt8 &&
       pool_precision_ != ServingPrecision::kInt8);
  if (mismatch) {
    w->precision_rejects.fetch_add(1, std::memory_order_relaxed);
    SendFrame(w, c,
              EncodeErrorFrame(
                  c->header.request_id,
                  Status::FailedPrecondition(
                      "pool serves a different precision than requested")));
    return;
  }

  InferenceRequest request;
  request.task_ids.resize(c->meta.num_tasks);
  for (size_t i = 0; i < c->meta.num_tasks; ++i) {
    int32_t task;
    std::memcpy(&task, c->tbuf.data() + 4 * i, sizeof(task));
    request.task_ids[i] = task;
  }
  request.input = std::move(c->payload);
  request.deadline_ms = c->meta.deadline_ms;

  ++c->inflight;
  if (c->inflight >= options_.max_inflight_per_conn) {
    // Backpressure: the window is full - stop reading this socket and
    // let TCP flow control push back to the client. Rejections from the
    // inference queue (ResourceExhausted) count toward the window like
    // any other request; their callbacks run inline below.
    c->paused = true;
    UpdateEpoll(w, c);
  }
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  const uint64_t rid = c->header.request_id;
  const uint64_t cid = c->id;
  server_->SubmitAsync(
      std::move(request), [this, w, cid, rid](InferenceResponse response) {
        // Runs on an inference worker thread (or inline on the net
        // worker for immediate rejections): serialize off the event
        // loop, post to the owning worker's mailbox, wake it.
        std::vector<uint8_t> frame = EncodeResponseFrame(rid, response);
        {
          std::lock_guard<std::mutex> lock(w->mu);
          w->completions.emplace_back(cid, std::move(frame));
        }
        if (w->event_fd >= 0) {
          const uint64_t tick = 1;
          ssize_t ignored = ::write(w->event_fd, &tick, sizeof(tick));
          (void)ignored;
        }
        if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          std::lock_guard<std::mutex> lock(inflight_mu_);
          inflight_cv_.notify_all();
        }
      });
}

}  // namespace poe
