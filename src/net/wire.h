// The binary wire protocol of the network serving front-end: compact
// length-prefixed frames with a magic+version header and a CRC32C body
// checksum, so truncation, garbage, and bit-flips are all detected at the
// framing layer before any payload bytes are trusted.
//
// Frame layout (all integers little-endian; this library targets x86-64
// and never byte-swaps - both ends of a connection run the same build):
//
//   header (24 bytes)
//     [ 0] u32  magic        'P' 'O' 'E' '1'
//     [ 4] u8   version      kWireVersion (2; v1 lacked the response
//                            generation field and is rejected)
//     [ 5] u8   type         1 = request, 2 = response (3-6: the
//                            cluster's peer frames, below)
//     [ 6] u16  reserved     must be 0
//     [ 8] u32  body_len     bytes following the header (bounded)
//     [12] u32  body_crc     CRC32C over the body bytes
//     [16] u64  request_id   client-chosen correlation id, echoed back
//
//   request body = fixed meta (44 bytes) + task ids + payload
//     [ 0] f64  deadline_ms  <= 0 = no deadline
//     [ 8] u8   precision    0 = pool default, 1 = require f32,
//                            2 = require int8 (mismatch -> error reply)
//     [ 9] u8   ndim         must be 4
//     [10] u16  num_tasks    1 .. kMaxWireTasks
//     [12] i64  dims[4]      n, c, h, w
//     [44] i32  task_ids[num_tasks]
//     [..] f32  payload[n*c*h*w]   raw row-major input tensor
//
//   response body = fixed part (48 bytes) + message + result arrays
//     [ 0] i32  status_code  poe::StatusCode
//     [ 4] u8   precision    0 = f32, 1 = int8 (precision actually served)
//     [ 5] u8   trunk_degraded
//     [ 6] u16  degraded_branches
//     [ 8] f64  queue_ms     server-side queue wait
//     [16] f64  total_ms     server-side submit -> response
//     [24] u32  msg_len      status message bytes
//     [28] u32  num_classes  0 on error
//     [32] i64  rows         0 on error
//     [40] u64  generation   pool generation that served (0 on admission/
//                            protocol errors that never reached a model)
//     [48] char msg[msg_len]
//     [..] i32  global_classes[num_classes]
//     [..] i32  predictions[rows]
//     [..] f32  logits[rows * num_classes]
//
// Framing rules: a receiver reads exactly 24 header bytes, validates
// magic/version/type/body_len, then reads exactly body_len body bytes and
// verifies body_crc. Anything else - short read, oversized length, CRC
// mismatch, malformed meta - is a protocol error: the connection is
// closed (the server sends a final error response first when the header
// was sound enough to carry a request_id). Nothing is ever re-synced
// mid-stream; a framing error poisons the whole connection by design.
#ifndef POE_NET_WIRE_H_
#define POE_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/module.h"
#include "serve/inference_server.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace poe {

inline constexpr uint8_t kWireVersion = 2;
inline constexpr uint8_t kWireTypeRequest = 1;
inline constexpr uint8_t kWireTypeResponse = 2;
// Peer-RPC frame types of the cluster layer (src/cluster/peer_rpc.h).
// They ride the same 24-byte header + CRC32C framing on the node's one
// NetServer port: a NetServer wired to a PeerEndpoint answers 3 and 5;
// one without an endpoint closes the connection on them (unexpected
// type). Body layouts are owned by the cluster layer: the net layer only
// frames them.
//   3 = fetch-expert        (request: expert id)
//   4 = fetch-expert-reply  (status + classes + serialized module section)
//   5 = membership-ping     (sender's membership view — epoch gossip)
//   6 = membership-ping-reply (receiver's view after merging)
inline constexpr uint8_t kWireTypeFetchExpert = 3;
inline constexpr uint8_t kWireTypeFetchExpertReply = 4;
inline constexpr uint8_t kWireTypePing = 5;
inline constexpr uint8_t kWireTypePingReply = 6;
inline constexpr size_t kWireHeaderBytes = 24;
inline constexpr size_t kWireRequestMetaBytes = 44;
inline constexpr size_t kWireResponseFixedBytes = 48;
inline constexpr int kMaxWireTasks = 4096;
/// Default body-size bound (NetServer::Options can lower it). 64 MiB
/// bounds a request at ~16M f32 elements - far beyond any sane batch.
inline constexpr uint32_t kDefaultMaxBodyBytes = 64u << 20;
/// Largest TCP port. A port a client dials or a membership view names is
/// in 1..kMaxPort; a listener may also ask for 0 (kernel-assigned).
inline constexpr int kMaxPort = 65535;

/// Returns the 4 magic bytes 'P','O','E','1' as a little-endian u32.
uint32_t WireMagic();

/// Per-request precision demand carried on the wire.
enum class WirePrecision : uint8_t {
  kAny = 0,   ///< serve at whatever precision the pool runs
  kFloat32 = 1,
  kInt8 = 2,
};

/// Parsed frame header.
struct WireHeader {
  uint8_t version = 0;
  uint8_t type = 0;
  uint32_t body_len = 0;
  uint32_t body_crc = 0;
  uint64_t request_id = 0;
};

/// Parsed request meta (everything before the payload floats).
struct WireRequestMeta {
  double deadline_ms = 0.0;
  WirePrecision precision = WirePrecision::kAny;
  int64_t dims[4] = {0, 0, 0, 0};
  uint16_t num_tasks = 0;

  int64_t payload_elems() const {
    return dims[0] * dims[1] * dims[2] * dims[3];
  }
  size_t task_bytes() const { return sizeof(int32_t) * num_tasks; }
  size_t payload_bytes() const {
    return sizeof(float) * static_cast<size_t>(payload_elems());
  }
};

/// A decoded response frame (the client-side mirror of
/// InferenceResponse, plus the correlation id).
struct WireResponse {
  uint64_t request_id = 0;
  Status status;
  Tensor logits;                    ///< [rows, num_classes]; empty on error
  std::vector<int> global_classes;
  std::vector<int> predictions;
  ServingPrecision precision = ServingPrecision::kFloat32;
  int degraded_branches = 0;
  bool trunk_degraded = false;
  double queue_ms = 0.0;
  double total_ms = 0.0;
  /// Pool generation that served this response (0 on errors that never
  /// reached a model). Lets clients observe live upgrades: the id advances
  /// in-place on the same connection when the server swaps pools.
  uint64_t generation = 0;
};

// ------------------------------------------------------------- encoding

/// Encodes a complete request frame (header + body, CRC filled in).
std::vector<uint8_t> EncodeRequestFrame(uint64_t request_id,
                                        const std::vector<int>& task_ids,
                                        const Tensor& input,
                                        double deadline_ms,
                                        WirePrecision precision);

/// Encodes a complete response frame from a served InferenceResponse.
std::vector<uint8_t> EncodeResponseFrame(uint64_t request_id,
                                         const InferenceResponse& response);

/// Encodes a bare error response frame (no logits), used for protocol and
/// admission errors that never reached the inference server.
std::vector<uint8_t> EncodeErrorFrame(uint64_t request_id,
                                      const Status& status);

/// Seals a frame whose body was appended after a kWireHeaderBytes-sized
/// prefix: writes magic/version/type/body_len/body_crc/request_id into the
/// prefix. The peer-RPC codecs build their bodies with this so every frame
/// type shares ONE header format and CRC discipline.
void SealWireFrame(std::vector<uint8_t>& frame, uint8_t type,
                   uint64_t request_id);

// ------------------------------------------------------------- decoding

/// Parses and validates 24 header bytes. `max_body_bytes` bounds
/// body_len; `expected_type` is kWireTypeRequest or kWireTypeResponse.
Status DecodeHeader(const uint8_t* data, size_t len, uint8_t expected_type,
                    uint32_t max_body_bytes, WireHeader* out);

/// Parses and validates the 44 fixed request-meta bytes against the
/// header's body_len (the meta fully determines the expected body size:
/// 44 + 4*num_tasks + 4*numel must equal body_len).
Status DecodeRequestMeta(const uint8_t* data, size_t len,
                         const WireHeader& header, WireRequestMeta* out);

/// Decodes a full response body (everything after the header). The body
/// CRC must already have been verified by the caller.
Status DecodeResponseBody(const uint8_t* data, size_t len,
                          const WireHeader& header, WireResponse* out);

}  // namespace poe

#endif  // POE_NET_WIRE_H_
