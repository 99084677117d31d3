// Embeddable, socket-free inference runtime: a bounded MPMC request queue
// feeding worker threads that batch pending requests for the same task
// model into one fused forward pass. Transport (sockets, RPC, ...) is the
// embedder's job; this is the part the paper's AIaaS scenario implies but
// never specifies - admission control, batching, and latency accounting
// between "request arrived" and "logits left".
#ifndef POE_SERVE_INFERENCE_SERVER_H_
#define POE_SERVE_INFERENCE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/query_service.h"
#include "core/request.h"
#include "serve/metrics.h"
#include "tensor/tensor.h"
#include "util/retry.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace poe {

/// One classification request. The server's request shape IS the canonical
/// PoolRequest (core/request.h) — wire decoding, direct service queries,
/// and server submission all build the same struct through the same
/// builder and validation.
///
/// Server semantics of the shared fields: `deadline_ms` <= 0 means no
/// budget; an expired request is SHED, never executed — checked at
/// submission, at dequeue, and again after model assembly (before the
/// forward pass). Shed requests resolve with kDeadlineExceeded and count
/// into ServeStats::deadline_expired, not completed/rejected; the
/// remaining budget also bounds assembly (retry backoff stops at the
/// deadline). `generation`, when nonzero, pins an expected pool
/// generation: answers from any other generation are still delivered
/// (responses say which generation served) but count into
/// ServeStats::stale_generation_queries.
using InferenceRequest = PoolRequest;

/// The response a submission resolves with. `status` gates every other
/// field.
struct InferenceResponse {
  Status status;
  Tensor logits;                    ///< [n, |classes(Q)|]
  std::vector<int> global_classes;  ///< logit column -> global class id
  std::vector<int> predictions;     ///< argmax per input row
  double queue_ms = 0.0;   ///< time spent waiting in the request queue
  double total_ms = 0.0;   ///< submit -> response
  int64_t batch_rows = 0;  ///< rows of the fused forward that served this
  /// Precision the answering pool intends (kInt8 after conversion) and
  /// how much of THIS model actually fell back to f32 (degraded mode
  /// after failed conversions). 0 / false on a healthy model.
  ServingPrecision precision = ServingPrecision::kFloat32;
  int degraded_branches = 0;
  bool trunk_degraded = false;
  /// Pool generation of the model that answered (0 only on error paths
  /// that never reached a model). Under a live upgrade, a client that
  /// pinned request.generation compares it against this.
  uint64_t generation = 0;
};

/// Inference workers for a server whose network front-end runs
/// `net_loops` event-loop threads on a machine with `cores` cores
/// (std::thread::hardware_concurrency(); 0 when unknown): one worker per
/// core the loops leave free, and never fewer than one. Intra-op work is
/// shared separately: a worker that finds the ParallelFor pool busy runs
/// its range inline.
int InferenceWorkersFor(int cores, int net_loops);

/// Bounded-queue batching server over a ModelQueryService.
///
/// Worker threads pop the oldest request, then absorb other pending
/// requests with the same image geometry up to their share of the queue,
/// ceil(pending rows / num_workers) capped at `max_batch_rows` (the
/// oldest request always goes, whatever its size), and run one library
/// trunk pass per distinct trunk in the batch. Every model of one pool
/// generation aliases the same trunk, so a batch normally makes one pass,
/// whatever task sets it mixes; a library-changing upgrade that lands
/// between two models' assemblies adds a second. Each model's expert
/// heads then run over its rows of the trunk features (the whole tensor
/// when it is the pass's only model). Trunk rows are independent, so
/// fused f32 logits equal solo ones bitwise. Batching never waits for
/// more traffic - an empty queue means batch-of-one, so the batch window
/// is simply the time requests naturally spend queued behind the current
/// forward (zero added latency, bigger batches exactly when the system is
/// loaded, which is when they pay).
///
/// Backpressure: a submission into a full queue fails fast with
/// ResourceExhausted instead of letting latency grow without bound.
class InferenceServer {
 public:
  struct Options {
    int num_workers = 2;
    size_t queue_capacity = 128;  ///< pending requests before rejection
    /// Rows fused into one forward pass. Requests of the same geometry
    /// share a batch across models (one trunk pass, per-model heads).
    /// Note on int8 serving: activation scales are per-tensor dynamic, so
    /// any fused batch quantizes against the batch's max-abs, and
    /// co-batched traffic can shift logits within quant tolerance. Set 1
    /// where bit-stable int8 logits matter more than throughput.
    int64_t max_batch_rows = 64;
  };

  /// `service` must outlive the server (the server adds batching and
  /// admission control; model caching/assembly stays in the service).
  InferenceServer(ModelQueryService* service, Options options);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueues a request and invokes `done` EXACTLY once with its
  /// response: inline (on the caller's thread) for requests rejected at
  /// submission, otherwise on whichever worker thread resolves the
  /// request. The callback must not block for long and must not call
  /// Shutdown() (a worker cannot join itself); Submit/stats/queue_depth
  /// from inside it are fine. This is the form event-loop transports use.
  void SubmitAsync(InferenceRequest request,
                   std::function<void(InferenceResponse)> done);

  /// Blocking-client form of SubmitAsync: the future is always valid;
  /// rejection (queue full, bad input shape, server shut down) is a ready
  /// future whose response carries the error status.
  std::future<InferenceResponse> Submit(InferenceRequest request);

  /// Stops accepting new requests, drains everything already queued, and
  /// joins the workers. Idempotent; also run by the destructor.
  void Shutdown();

  /// Full metrics: the underlying service's cache/latency view plus this
  /// server's queue/batching counters. Latency percentiles here are
  /// end-to-end (queue wait + assembly + forward).
  ServeStats stats() const;

  size_t queue_depth() const;

 private:
  struct Pending {
    std::vector<int> key;  ///< canonical (sorted, deduped) task ids
    InferenceRequest request;
    /// Consumed by the first Resolve; empty afterwards.
    std::function<void(InferenceResponse)> done;
    Stopwatch submitted;
    Deadline deadline;  ///< unlimited when the request set no budget
  };

  /// Validates, stamps the deadline, and admits or rejects. Counters
  /// move before the pending resolves.
  void Enqueue(InferenceRequest request, Pending pending);

  /// Resolves a pending exactly once. Returns false when it was already
  /// resolved (the double-resolve guard of the exception path).
  static bool Resolve(Pending& pending, InferenceResponse response);

  void WorkerLoop();
  /// Exception-guarded: every member is resolved even if the batch body
  /// throws (no hung requests, ever).
  void ServeBatch(std::vector<Pending> batch);
  void ServeBatchImpl(std::vector<Pending>& batch);

  ModelQueryService* service_;
  Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool shutdown_ = false;
  std::mutex shutdown_mu_;  ///< serializes Shutdown() callers; guards workers_
  std::vector<std::thread> workers_;

  LatencyHistogram latency_;
  QpsWindow qps_;
  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> deadline_expired_{0};
  std::atomic<int64_t> batches_{0};
  std::atomic<int64_t> batched_requests_{0};
  std::atomic<int64_t> trunk_fused_batches_{0};
  std::atomic<int64_t> trunk_fused_rows_{0};
};

}  // namespace poe

#endif  // POE_SERVE_INFERENCE_SERVER_H_
