// Blocking client for the wire protocol: connect, send request frames,
// read response frames. One instance drives ONE connection and is not
// thread-safe (a load generator runs one client per connection/thread).
//
// Two usage styles:
//   - Query(): one synchronous round trip (closed-loop traffic).
//   - Send()/Receive(): explicit pipelining - keep several requests in
//     flight on the connection and match responses by request_id
//     (responses come back in completion order, not send order).
//
// Transport failures surface as kUnavailable when the errno is one a
// retry might cure — ECONNREFUSED (peer not up yet), ECONNRESET / EPIPE
// (peer died mid-stream), EOF mid-frame, timeouts — so RetryWithBackoff
// applies uniformly to connect and mid-stream failures: a caller can wrap
// "reconnect + query" in one retry loop and both failure shapes take the
// same path. Errnos that repeating cannot fix (EBADF, EACCES, ...) are
// kIoError. Malformed response frames are protocol errors
// (kInvalidArgument / kCorruption for a CRC mismatch). Server-side
// statuses arrive INSIDE a well-formed response frame and are returned
// as WireResponse::status, not as a transport error.
#ifndef POE_NET_NET_CLIENT_H_
#define POE_NET_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/wire.h"
#include "util/result.h"
#include "util/status.h"

namespace poe {

class NetClient {
 public:
  NetClient() = default;
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  Status Connect(const std::string& host, int port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// One blocking round trip. The returned WireResponse carries the
  /// server's status (which may itself be an error) when the frame
  /// exchange succeeded; a Result error means the exchange itself broke.
  Result<WireResponse> Query(const std::vector<int>& task_ids,
                             const Tensor& input, double deadline_ms = 0.0,
                             WirePrecision precision = WirePrecision::kAny);

  /// Pipelined send; returns the request_id to match the response by.
  Result<uint64_t> Send(const std::vector<int>& task_ids, const Tensor& input,
                        double deadline_ms = 0.0,
                        WirePrecision precision = WirePrecision::kAny);

  /// Blocks for the next response frame on the connection.
  Result<WireResponse> Receive();

  /// Sends raw bytes as-is - the protocol-robustness tests use this to
  /// put malformed frames on the wire.
  Status SendRaw(const void* data, size_t len);

  /// One generic frame round trip: writes a pre-sealed frame, reads one
  /// frame of `expected_type` back, verifies its body CRC. The cluster
  /// peer-RPC client drives its fetch-expert / membership-ping exchanges
  /// through this so every frame type shares one transport-error and
  /// framing discipline.
  Status Call(const std::vector<uint8_t>& frame, uint8_t expected_type,
              WireHeader* header, std::vector<uint8_t>* body);

  /// Caps recv/send blocking time (0 restores "block forever"). The
  /// cluster layer sets this to its per-fetch budget so a hung peer
  /// surfaces as a transient timeout instead of a stuck thread.
  Status SetIoTimeout(double timeout_ms);

 private:
  Status ReadFull(void* buf, size_t len);
  Status WriteFull(const void* buf, size_t len);

  int fd_ = -1;
  uint64_t next_id_ = 1;
};

}  // namespace poe

#endif  // POE_NET_NET_CLIENT_H_
