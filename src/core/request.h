// PoolRequest: the ONE canonical request shape of the serving stack.
//
// Before this header existed there were three parallel request spellings —
// the in-process InferenceRequest, the wire protocol's decoded RequestMeta,
// and ModelQueryService's bare (task_ids, deadline) arguments — each with
// its own validation. A new per-request field (generation pinning today,
// tenant id tomorrow) had to be threaded through all three. Now the layers
// that carry requests speak PoolRequest: InferenceRequest is an alias and
// the net front-end decodes straight into one. The query service below
// them takes only the composite task and a deadline. Validation lives in
// exactly one function (ValidatePoolRequest).
#ifndef POE_CORE_REQUEST_H_
#define POE_CORE_REQUEST_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/tensor.h"
#include "util/status.h"

namespace poe {

/// One classification request: which composite task, and a [n,c,h,w] batch
/// of images to run through M(Q).
struct PoolRequest {
  std::vector<int> task_ids;
  Tensor input;
  /// Per-request latency budget in milliseconds from submission; <= 0 =
  /// none. An expired request is SHED, never executed: checked at
  /// submission, at dequeue, and again after model assembly (before the
  /// forward pass). Shed requests resolve with kDeadlineExceeded and count
  /// into ServeStats::deadline_expired, not completed/rejected. The
  /// remaining budget also bounds assembly (retry backoff stops at the
  /// deadline).
  double deadline_ms = 0.0;
  /// Pool generation the client ASSUMED when it built the request; 0 =
  /// current (no assumption). Serving always answers from the current
  /// generation — a stale pin is not an error, it is telemetry: a request
  /// pinned to a generation other than the one that serves it bumps
  /// ServeStats::stale_generation_queries, and the response reports the
  /// generation that actually answered.
  uint64_t generation = 0;
};

/// Fluent builder, for call sites that construct requests inline (tests,
/// benches, tools). All fields default as in PoolRequest.
class PoolRequestBuilder {
 public:
  PoolRequestBuilder& Tasks(std::vector<int> task_ids) {
    request_.task_ids = std::move(task_ids);
    return *this;
  }
  PoolRequestBuilder& Input(Tensor input) {
    request_.input = std::move(input);
    return *this;
  }
  PoolRequestBuilder& DeadlineMs(double deadline_ms) {
    request_.deadline_ms = deadline_ms;
    return *this;
  }
  PoolRequestBuilder& Generation(uint64_t generation) {
    request_.generation = generation;
    return *this;
  }
  PoolRequest Build() { return std::move(request_); }

 private:
  PoolRequest request_;
};

/// The single shared admission check: a request must carry at least one
/// task id and a non-empty [n,c,h,w] input batch. Task-id RANGE errors are
/// left to assembly (the pool knows its expert count; the admission layer
/// does not), and deadline expiry is a scheduling concern, not a validity
/// one. Both front doors — InferenceServer submission and the wire decode
/// path — admit through this one function, so they cannot drift apart on
/// what "malformed" means.
inline Status ValidatePoolRequest(const PoolRequest& request) {
  if (request.task_ids.empty()) {
    return Status::InvalidArgument("request carries no task ids");
  }
  if (!request.input.defined() || request.input.ndim() != 4 ||
      request.input.dim(0) < 1) {
    return Status::InvalidArgument("input must be a non-empty [n,c,h,w] batch");
  }
  return Status::OK();
}

}  // namespace poe

#endif  // POE_CORE_REQUEST_H_
