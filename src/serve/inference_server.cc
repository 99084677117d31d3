#include "serve/inference_server.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <utility>

#include "tensor/ops.h"
#include "util/fault.h"

namespace poe {

namespace {

/// True when two [n,c,h,w] inputs can share one fused forward (same image
/// geometry; row counts may differ).
bool SameGeometry(const Tensor& a, const Tensor& b) {
  return a.dim(1) == b.dim(1) && a.dim(2) == b.dim(2) &&
         a.dim(3) == b.dim(3);
}

}  // namespace

int InferenceWorkersFor(int cores, int net_loops) {
  return std::max(1, cores - net_loops);
}

InferenceServer::InferenceServer(ModelQueryService* service, Options options)
    : service_(service), options_(options) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.queue_capacity < 1) options_.queue_capacity = 1;
  if (options_.max_batch_rows < 1) options_.max_batch_rows = 1;
  workers_.reserve(options_.num_workers);
  for (int w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

InferenceServer::~InferenceServer() { Shutdown(); }

void InferenceServer::SubmitAsync(
    InferenceRequest request, std::function<void(InferenceResponse)> done) {
  Pending pending;
  pending.done = std::move(done);
  Enqueue(std::move(request), std::move(pending));
}

std::future<InferenceResponse> InferenceServer::Submit(
    InferenceRequest request) {
  // std::function needs a copyable target, hence the shared promise.
  auto promise = std::make_shared<std::promise<InferenceResponse>>();
  std::future<InferenceResponse> future = promise->get_future();
  SubmitAsync(std::move(request), [promise](InferenceResponse response) {
    promise->set_value(std::move(response));
  });
  return future;
}

bool InferenceServer::Resolve(Pending& pending, InferenceResponse response) {
  if (!pending.done) return false;
  // Exactly-once by construction: the callback is consumed here, so a
  // second Resolve on the same pending is a no-op.
  std::function<void(InferenceResponse)> done = std::move(pending.done);
  pending.done = nullptr;
  done(std::move(response));
  return true;
}

void InferenceServer::Enqueue(InferenceRequest request, Pending pending) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  // The one shared admission check (core/request.h): wire decode, direct
  // service queries, and this server all validate the same way.
  if (const Status invalid = ValidatePoolRequest(request); !invalid.ok()) {
    rejected_.fetch_add(1, std::memory_order_release);
    InferenceResponse response;
    response.status = invalid;
    Resolve(pending, std::move(response));
    return;
  }

  pending.key = CanonicalTaskKey(request.task_ids);
  if (request.deadline_ms > 0) {
    pending.deadline = Deadline::AfterMillis(request.deadline_ms);
  }
  if (pending.deadline.expired()) {
    // A non-positive (but set) or microscopic budget: shed at the door.
    // Counts as deadline_expired, not rejected — the request was well-
    // formed and admitted; its budget was simply gone.
    deadline_expired_.fetch_add(1, std::memory_order_release);
    InferenceResponse response;
    response.status = Status::DeadlineExceeded("deadline expired at submission");
    Resolve(pending, std::move(response));
    return;
  }
  pending.request = std::move(request);
  Status reject = Status::OK();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      reject = Status::FailedPrecondition("inference server is shut down");
    } else if (queue_.size() >= options_.queue_capacity) {
      // Backpressure: fail fast instead of queueing unbounded latency.
      reject = Status::ResourceExhausted(
          "request queue full (" + std::to_string(options_.queue_capacity) +
          " pending)");
    } else {
      queue_.push_back(std::move(pending));
    }
  }
  if (!reject.ok()) {
    // Resolved OUTSIDE mu_: the callback may re-enter stats() or
    // queue_depth().
    rejected_.fetch_add(1, std::memory_order_release);
    InferenceResponse response;
    response.status = std::move(reject);
    Resolve(pending, std::move(response));
    return;
  }
  cv_.notify_one();
}

void InferenceServer::WorkerLoop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown and fully drained

      // A worker takes its share of the pending rows, ceil(pending /
      // workers), within the row budget. Every member of a batch waits
      // for the whole forward, and rows one worker takes are rows the
      // other workers cannot run at the same time. One worker taking the
      // whole queue would make batch size, and with it tail latency, grow
      // with any slowdown of the machine.
      int64_t pending_rows = 0;
      for (const Pending& p : queue_) pending_rows += p.request.input.dim(0);
      const int64_t share =
          (pending_rows + options_.num_workers - 1) / options_.num_workers;
      const int64_t max_rows = std::min(options_.max_batch_rows, share);

      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      // Coalescing: absorb pending requests with the same image geometry
      // until the row budget is hit. The task set may differ: different
      // models still share one trunk pass.
      int64_t rows = batch.front().request.input.dim(0);
      for (auto it = queue_.begin(); it != queue_.end() && rows < max_rows;) {
        if (SameGeometry(it->request.input, batch.front().request.input) &&
            rows + it->request.input.dim(0) <= max_rows) {
          rows += it->request.input.dim(0);
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
    }
    ServeBatch(std::move(batch));
  }
}

void InferenceServer::ServeBatch(std::vector<Pending> batch) {
  try {
    ServeBatchImpl(batch);
  } catch (const std::exception& e) {
    // No hung requests, ever: if the batch body threw (allocation failure
    // mid-forward, ...), resolve whatever it left unresolved. A member it
    // already finished or expired has no callback left, so Resolve
    // returns false and the member is not counted twice.
    const Status status = Status::Internal(
        std::string("batch worker exception: ") + e.what());
    for (Pending& pending : batch) {
      InferenceResponse response;
      response.status = status;
      if (Resolve(pending, std::move(response))) {
        completed_.fetch_add(1, std::memory_order_release);
      }
    }
  }
}

void InferenceServer::ServeBatchImpl(std::vector<Pending>& batch) {
  // Each request's queue wait ends now, when processing starts (a
  // coalesced request waited less than the batch leader).
  std::vector<double> queue_ms(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    queue_ms[i] = batch[i].submitted.ElapsedMillis();
  }

  auto finish = [&](size_t i, InferenceResponse response) {
    Pending& pending = batch[i];
    response.queue_ms = queue_ms[i];
    response.total_ms = pending.submitted.ElapsedMillis();
    latency_.Record(response.total_ms);
    qps_.Record();
    completed_.fetch_add(1, std::memory_order_release);
    Resolve(pending, std::move(response));
  };

  // Deadline shedding, not completion: the request never ran, so it skips
  // the latency/QPS surface and lands in its own terminal counter.
  auto expire = [&](size_t i) {
    Pending& pending = batch[i];
    InferenceResponse response;
    response.status = Status::DeadlineExceeded(
        "deadline expired after " +
        std::to_string(pending.submitted.ElapsedMillis()) + " ms queued");
    response.queue_ms = queue_ms[i];
    response.total_ms = pending.submitted.ElapsedMillis();
    deadline_expired_.fetch_add(1, std::memory_order_release);
    Resolve(pending, std::move(response));
  };

  // Dequeue-time shedding: a request whose budget lapsed in the queue is
  // resolved right here — the forward pass is never spent on it.
  std::vector<size_t> live;
  live.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].deadline.expired()) {
      expire(i);
    } else {
      live.push_back(i);
    }
  }
  if (live.empty()) return;

  // Forward-path fault site: delay kinds model a slow expert (the batch
  // simply takes longer and downstream deadline checks shed what lapsed);
  // error kinds fail every live member of this batch.
  {
    const Status fault = PoeFaultHit("server.forward");
    if (!fault.ok()) {
      for (size_t i : live) {
        InferenceResponse response;
        response.status = fault;
        finish(i, std::move(response));
      }
      return;
    }
  }

  // Group the batch by canonical task set (first-arrival order). Each
  // group is one model; groups sharing a trunk fuse their trunk forward.
  struct Group {
    std::vector<size_t> members;  ///< indices into `batch`, arrival order
    std::shared_ptr<TaskModel> model;
    int64_t rows = 0;
  };
  std::vector<Group> groups;
  for (size_t i : live) {
    Group* group = nullptr;
    for (Group& g : groups) {
      if (batch[g.members.front()].key == batch[i].key) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.emplace_back();
      group = &groups.back();
    }
    group->members.push_back(i);
    group->rows += batch[i].request.input.dim(0);
  }

  // The loosest (largest remaining) member budget bounds the group's
  // assembly: the model also serves the member with the most time left,
  // so tighter members must not cut its retry window short.
  auto loosest_deadline = [&](const Group& g) -> Deadline {
    const Deadline* best = nullptr;
    for (size_t i : g.members) {
      const Deadline& d = batch[i].deadline;
      if (d.unlimited()) return Deadline();
      if (best == nullptr || d.remaining_ms() > best->remaining_ms()) {
        best = &d;
      }
    }
    return best != nullptr ? *best : Deadline();
  };

  // Assemble each group's model; a failed assembly fails only that
  // group's requests (a bad key must not poison co-batched requests).
  std::vector<Group*> valid;
  for (Group& g : groups) {
    auto model_result =
        service_->Query(batch[g.members.front()].request.task_ids,
                        loosest_deadline(g));
    if (!model_result.ok()) {
      for (size_t i : g.members) {
        InferenceResponse response;
        response.status = model_result.status();
        finish(i, std::move(response));
      }
      continue;
    }
    g.model = model_result.ValueOrDie();
    // Post-assembly shedding: assembly (with retries/backoff) may have
    // consumed a member's whole budget — drop it before the forward.
    std::vector<size_t> members_left;
    g.rows = 0;
    for (size_t i : g.members) {
      if (batch[i].deadline.expired()) {
        expire(i);
      } else {
        members_left.push_back(i);
        g.rows += batch[i].request.input.dim(0);
      }
    }
    g.members = std::move(members_left);
    if (!g.members.empty()) valid.push_back(&g);
  }
  if (valid.empty()) return;

  // Concatenates a partition's rows in group order (no copy for a lone
  // request, the common unloaded case). Passed as a temporary, so the
  // fused input lives only for the forward expression that reads it.
  auto fuse_rows = [&](const std::vector<Group*>& partition,
                       int64_t rows) -> Tensor {
    const Tensor& first =
        batch[partition.front()->members.front()].request.input;
    if (partition.size() == 1 && partition.front()->members.size() == 1) {
      return first;
    }
    Tensor fused({rows, first.dim(1), first.dim(2), first.dim(3)});
    float* dst = fused.data();
    for (const Group* g : partition) {
      for (size_t i : g->members) {
        const Tensor& in = batch[i].request.input;
        std::memcpy(dst, in.data(), sizeof(float) * in.numel());
        dst += in.numel();
      }
    }
    return fused;
  };

  // Completes a group's requests from its model-local logits.
  // `served_rows` is the row count of the fused pass that produced them.
  auto deliver = [&](Group& g, Tensor logits, int64_t served_rows) {
    // Counters move BEFORE the requests resolve: a client that joins its
    // future and immediately reads stats() must see itself accounted.
    batched_requests_.fetch_add(static_cast<int64_t>(g.members.size()),
                                std::memory_order_relaxed);
    const std::vector<int>& classes = g.model->global_classes();
    const int64_t num_classes = logits.dim(1);
    int64_t row0 = 0;
    for (size_t i : g.members) {
      const int64_t n = batch[i].request.input.dim(0);
      InferenceResponse response;
      response.status = Status::OK();
      response.precision = g.model->serving_precision();
      response.degraded_branches = g.model->degraded_branches();
      response.trunk_degraded = g.model->trunk_degraded();
      response.generation = g.model->generation();
      if (batch[i].request.generation != 0 &&
          batch[i].request.generation != g.model->generation()) {
        // The client pinned a generation this answer does not come from —
        // telemetry for upgrade observability, never an error.
        service_->NoteStaleGeneration();
      }
      if (g.members.size() == 1) {
        response.logits = std::move(logits);
      } else {
        response.logits = Tensor({n, num_classes});
        std::memcpy(response.logits.data(), logits.data() + row0 * num_classes,
                    sizeof(float) * n * num_classes);
      }
      response.global_classes = classes;
      response.predictions.resize(n);
      for (int64_t r = 0; r < n; ++r) {
        response.predictions[r] = classes[ArgmaxRow(response.logits, r)];
      }
      response.batch_rows = served_rows;
      row0 += n;
      finish(i, std::move(response));
    }
  };

  // One forward path (Section 4.2): the trunk runs once, every expert
  // head branches off its features. Groups are partitioned by trunk
  // identity in first-arrival order; every model of one pool generation
  // aliases one trunk, so a batch holds a second partition only when a
  // library-changing upgrade landed between two groups' assemblies. Each
  // partition runs ONE trunk pass over all its rows; a lone group's heads
  // read the whole feature tensor, otherwise each group reads its own
  // row slice. Trunk rows are independent, so the f32 logits are bitwise
  // those of a solo forward.
  std::vector<std::vector<Group*>> partitions;
  for (Group* g : valid) {
    auto same_trunk = [g](const std::vector<Group*>& p) {
      return p.front()->model->trunk() == g->model->trunk();
    };
    auto it = std::find_if(partitions.begin(), partitions.end(), same_trunk);
    if (it == partitions.end()) {
      partitions.push_back({g});
    } else {
      it->push_back(g);
    }
  }

  for (const std::vector<Group*>& partition : partitions) {
    int64_t rows = 0;
    for (const Group* g : partition) rows += g->rows;
    const std::shared_ptr<TaskModel>& model = partition.front()->model;
    if (partition.size() == 1) {
      // Exactly the Logits op sequence and temporaries: no slice copy,
      // and the fused input and features are freed before delivery.
      Tensor logits = model->LogitsFromFeatures(
          model->TrunkFeatures(fuse_rows(partition, rows)));
      batches_.fetch_add(1, std::memory_order_relaxed);
      deliver(*partition.front(), std::move(logits), rows);
      continue;
    }
    Tensor features = model->TrunkFeatures(fuse_rows(partition, rows));
    batches_.fetch_add(1, std::memory_order_relaxed);
    trunk_fused_batches_.fetch_add(1, std::memory_order_relaxed);
    trunk_fused_rows_.fetch_add(rows, std::memory_order_relaxed);
    const int64_t row_stride = features.numel() / features.dim(0);
    std::vector<int64_t> slice_shape = features.shape();
    int64_t row0 = 0;
    for (Group* g : partition) {
      slice_shape[0] = g->rows;
      Tensor slice(slice_shape);
      std::memcpy(slice.data(), features.data() + row0 * row_stride,
                  sizeof(float) * g->rows * row_stride);
      row0 += g->rows;
      deliver(*g, g->model->LogitsFromFeatures(slice), rows);
    }
  }
}

void InferenceServer::Shutdown() {
  // shutdown_mu_ serializes concurrent Shutdown() calls (including the
  // destructor racing an explicit call): the loser blocks until the
  // winner has joined everything, then finds workers_ empty. workers_ is
  // only touched at construction and under this mutex.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // Defensive drain: workers only exit on an empty queue, so this should
  // find nothing — but a hung future is the one failure mode this server
  // promises away, so any straggler is resolved here rather than leaked.
  std::deque<Pending> leftover;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftover.swap(queue_);
  }
  for (Pending& pending : leftover) {
    InferenceResponse response;
    response.status =
        Status::FailedPrecondition("inference server is shut down");
    if (Resolve(pending, std::move(response))) {
      rejected_.fetch_add(1, std::memory_order_release);
    }
  }
}

ServeStats InferenceServer::stats() const {
  ServeStats stats = service_->serve_stats();
  // The latency surface of a server is end-to-end (queue wait + assembly
  // + forward), so the server's histogram replaces the service's
  // assembly-only percentiles. ONE snapshot feeds every percentile so
  // they describe a single state even under concurrent completions.
  const HistogramSnapshot latency = latency_.snapshot();
  stats.p50_ms = latency.Percentile(0.50);
  stats.p95_ms = latency.Percentile(0.95);
  stats.p99_ms = latency.Percentile(0.99);
  stats.max_ms = latency.max_ms();
  stats.avg_ms = latency.avg_ms();
  stats.qps = qps_.Rate();
  // Terminal buckets load BEFORE submitted: with acquire/release pairing
  // on the terminal stores this read order makes the live identity
  //   submitted >= completed + rejected + deadline_expired
  // one-sided — a concurrent request can be counted submitted but not yet
  // terminal, never the reverse. (All four equal out after a drain.)
  stats.rejected = rejected_.load(std::memory_order_acquire);
  stats.completed = completed_.load(std::memory_order_acquire);
  stats.deadline_expired = deadline_expired_.load(std::memory_order_acquire);
  stats.submitted = submitted_.load(std::memory_order_acquire);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.batched_requests =
      batched_requests_.load(std::memory_order_relaxed);
  stats.trunk_fused_batches =
      trunk_fused_batches_.load(std::memory_order_relaxed);
  stats.trunk_fused_rows = trunk_fused_rows_.load(std::memory_order_relaxed);
  stats.queue_depth = static_cast<int64_t>(queue_depth());
  return stats;
}

size_t InferenceServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace poe
