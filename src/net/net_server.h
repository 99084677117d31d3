// The network front-end of the serving runtime: a non-blocking epoll
// event-loop server speaking the wire protocol of wire.h over TCP,
// bridging sockets to an embedded InferenceServer.
//
// Threading model: ONE acceptor thread owns the listen socket and deals
// new connections round-robin to N worker threads; each worker owns an
// epoll instance, an eventfd mailbox, and every connection assigned to
// it for that connection's whole life (no cross-worker migration, so
// connection state needs no locking - only the mailbox does). Decoded
// requests go to InferenceServer::SubmitAsync; the completion callback
// (running on an inference worker thread) serializes the response frame
// and posts it to the owning net worker's mailbox, which flushes it on
// the event loop. Net workers never block on inference and inference
// workers never touch a socket.
//
// Zero-copy decode: a request's payload floats are recv()'d directly
// into the Tensor handed to the InferenceServer - the bytes land in
// their final resting place straight off the socket (the body CRC is
// extended incrementally as chunks arrive, so integrity checking adds
// no extra pass either).
//
// Backpressure: each connection has a bounded in-flight window. When it
// fills, the worker simply stops reading that socket (EPOLLIN off) -
// TCP's own flow control pushes back to the client; no frames are
// dropped and no unbounded queue forms. The InferenceServer's queue
// bound is the second gate: its ResourceExhausted rejections travel
// back as ordinary response frames.
//
// Protocol errors poison the connection (see wire.h): when the header
// was sound enough to carry a request_id the server sends one final
// error response, then flushes and closes; a malformed header closes
// immediately. The connection's already-submitted requests still get
// their responses before the close.
//
// Peer frames: a cluster node serves its peers on this same port. Once
// SetPeerEndpoint wires a PeerEndpoint in, fetch-expert (3) and
// membership-ping (5) frames are read whole, CRC-checked, and answered
// inline on the net worker by AnswerPeerFrame (cluster/peer_rpc.h) -
// neither waits on inference. Without an endpoint they are unexpected
// frame types and close the connection like any other. A malformed peer
// frame closes the connection without a reply.
#ifndef POE_NET_NET_SERVER_H_
#define POE_NET_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/wire.h"
#include "serve/inference_server.h"
#include "util/status.h"

namespace poe {

class PeerEndpoint;

/// Per-worker (and aggregate) transport counters. Identities, enforced
/// by tests on a stopped server:
///   conns_accepted == conns_open + conns_dropped   (always)
///   frames_decoded == requests submitted downstream + precision_rejects
struct NetStats {
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
  int64_t frames_decoded = 0;  ///< well-formed request frames (CRC passed)
  int64_t protocol_errors = 0;
  int64_t conns_accepted = 0;
  int64_t conns_dropped = 0;  ///< every departure: EOF, error, shutdown
  int64_t conns_open = 0;
  /// Frames fully flushed: responses and peer replies alike.
  int64_t responses_sent = 0;
  /// Frames decoded but answered kFailedPrecondition because the wire
  /// precision demand did not match the pool (never submitted).
  int64_t precision_rejects = 0;
  /// Well-formed peer frames (CRC passed) handed to the peer endpoint;
  /// never counted in frames_decoded.
  int64_t peer_frames = 0;

  void Merge(const NetStats& other);
};

/// Non-blocking TCP server. Start() binds and spawns the threads;
/// Stop() performs a graceful drain: no new connections, no new frames,
/// every in-flight request answered and flushed, then sockets close.
class NetServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;  ///< 0 = kernel-assigned; read back via port()
    int num_workers = 2;
    /// Per-connection in-flight window: decoded-but-unanswered requests
    /// before the worker stops reading that socket.
    int max_inflight_per_conn = 32;
  };

  /// `server` must outlive this object; Stop() this front-end BEFORE
  /// shutting the InferenceServer down (completion callbacks post into
  /// worker mailboxes).
  NetServer(InferenceServer* server, Options options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, spawns acceptor + workers. Fails (IoError) without
  /// threads on a bad address or exhausted descriptors.
  Status Start();

  /// Graceful drain; idempotent; also run by the destructor.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Serves peer frames on this port through `endpoint` (not owned; must
  /// outlive the server). Until it is called, peer frames are protocol
  /// errors - bind first, put the real port in the membership view, then
  /// wire the node in. Safe to call while running.
  void SetPeerEndpoint(PeerEndpoint* endpoint) {
    peer_endpoint_.store(endpoint, std::memory_order_release);
  }

  /// The bound port (resolves port 0); 0 before Start().
  int port() const { return port_; }

  /// Aggregate counters over all workers.
  NetStats stats() const;
  /// One entry per worker, index-aligned with the worker threads.
  std::vector<NetStats> worker_stats() const;

 private:
  struct Conn;
  struct Worker;

  void AcceptorLoop();
  void WorkerLoop(Worker* w);
  void AdoptIncoming(Worker* w);
  void DeliverCompletions(Worker* w);
  void HandleRead(Worker* w, Conn* c);
  void HandleWrite(Worker* w, Conn* c);
  /// Queues a frame and flushes opportunistically.
  void SendFrame(Worker* w, Conn* c, std::vector<uint8_t> frame);
  void UpdateEpoll(Worker* w, Conn* c);
  void CloseConn(Worker* w, Conn* c);
  /// Full request frame decoded: precision gate, then SubmitAsync.
  void DispatchRequest(Worker* w, Conn* c);
  /// Protocol error: counts it, optionally sends a final error frame
  /// (when `reply_id` is usable), and marks the connection closing.
  void ProtocolError(Worker* w, Conn* c, bool can_reply, uint64_t reply_id,
                     const Status& error);

  InferenceServer* server_;
  Options options_;
  std::atomic<PeerEndpoint*> peer_endpoint_{nullptr};
  ServingPrecision pool_precision_ = ServingPrecision::kFloat32;

  int listen_fd_ = -1;
  int accept_epoll_fd_ = -1;
  int accept_event_fd_ = -1;
  int port_ = 0;
  std::thread acceptor_;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  /// Requests handed to SubmitAsync whose completion has not yet been
  /// posted back. Stop() waits for zero before joining workers.
  std::atomic<int64_t> inflight_{0};
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
};

}  // namespace poe

#endif  // POE_NET_NET_SERVER_H_
