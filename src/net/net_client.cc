#include "net/net_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/crc32c.h"

namespace poe {

namespace {

/// Errnos a retry might cure: the peer is down, restarting, or dropped the
/// connection mid-stream. Everything else (EBADF, EACCES, EINVAL, ...)
/// would fail identically on every attempt.
bool TransientSocketErrno(int err) {
  return err == ECONNREFUSED || err == ECONNRESET || err == EPIPE ||
         err == ETIMEDOUT || err == EHOSTUNREACH || err == ENETUNREACH ||
         err == ENETDOWN || err == EAGAIN || err == EWOULDBLOCK;
}

Status SocketError(const std::string& op, int err) {
  const std::string msg = op + ": " + std::strerror(err);
  return TransientSocketErrno(err) ? Status::Unavailable(msg)
                                   : Status::IoError(msg);
}

}  // namespace

NetClient::~NetClient() { Close(); }

Status NetClient::Connect(const std::string& host, int port) {
  if (fd_ >= 0) return Status::FailedPrecondition("already connected");
  if (port < 1 || port > kMaxPort) {
    return Status::InvalidArgument("port out of range: " +
                                   std::to_string(port));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s =
        SocketError("connect " + host + ":" + std::to_string(port), errno);
    ::close(fd);
    return s;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return Status::OK();
}

void NetClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status NetClient::WriteFull(const void* buf, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd_, p + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      Close();
      return SocketError("send", err);
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status NetClient::ReadFull(void* buf, size_t len) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd_, p + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      Close();
      return SocketError("recv", err);
    }
    if (n == 0) {
      Close();
      return Status::Unavailable("connection closed by server");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status NetClient::SendRaw(const void* data, size_t len) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  return WriteFull(data, len);
}

Status NetClient::SetIoTimeout(double timeout_ms) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  timeval tv{};
  if (timeout_ms > 0) {
    tv.tv_sec = static_cast<time_t>(timeout_ms / 1e3);
    tv.tv_usec = static_cast<suseconds_t>(
        (timeout_ms - 1e3 * static_cast<double>(tv.tv_sec)) * 1e3);
  }
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
      ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    return SocketError("setsockopt", errno);
  }
  return Status::OK();
}

Status NetClient::Call(const std::vector<uint8_t>& frame,
                       uint8_t expected_type, WireHeader* header,
                       std::vector<uint8_t>* body) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  POE_RETURN_NOT_OK(WriteFull(frame.data(), frame.size()));
  uint8_t hbuf[kWireHeaderBytes];
  POE_RETURN_NOT_OK(ReadFull(hbuf, sizeof(hbuf)));
  const Status decoded =
      DecodeHeader(hbuf, sizeof(hbuf), expected_type, kDefaultMaxBodyBytes,
                   header);
  if (!decoded.ok()) {
    // A framing error poisons the connection by design — nothing after a
    // bad header can be trusted to be frame-aligned.
    Close();
    return decoded;
  }
  body->resize(header->body_len);
  POE_RETURN_NOT_OK(ReadFull(body->data(), body->size()));
  if (Crc32c(body->data(), body->size()) != header->body_crc) {
    Close();
    return Status::Corruption("frame body CRC mismatch");
  }
  return Status::OK();
}

Result<uint64_t> NetClient::Send(const std::vector<int>& task_ids,
                                 const Tensor& input, double deadline_ms,
                                 WirePrecision precision) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  if (!input.defined() || input.ndim() != 4) {
    return Status::InvalidArgument("input must be a [n,c,h,w] tensor");
  }
  if (task_ids.empty() ||
      task_ids.size() > static_cast<size_t>(kMaxWireTasks)) {
    return Status::InvalidArgument("task count out of wire range");
  }
  const uint64_t id = next_id_++;
  const std::vector<uint8_t> frame =
      EncodeRequestFrame(id, task_ids, input, deadline_ms, precision);
  POE_RETURN_NOT_OK(WriteFull(frame.data(), frame.size()));
  return id;
}

Result<WireResponse> NetClient::Receive() {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  uint8_t hbuf[kWireHeaderBytes];
  POE_RETURN_NOT_OK(ReadFull(hbuf, sizeof(hbuf)));
  WireHeader header;
  const Status decoded = DecodeHeader(hbuf, sizeof(hbuf), kWireTypeResponse,
                                      kDefaultMaxBodyBytes, &header);
  if (!decoded.ok()) {
    Close();  // as in Call: the stream is no longer frame-aligned
    return decoded;
  }
  std::vector<uint8_t> body(header.body_len);
  POE_RETURN_NOT_OK(ReadFull(body.data(), body.size()));
  if (Crc32c(body.data(), body.size()) != header.body_crc) {
    Close();
    return Status::Corruption("response body CRC mismatch");
  }
  WireResponse response;
  POE_RETURN_NOT_OK(
      DecodeResponseBody(body.data(), body.size(), header, &response));
  return response;
}

Result<WireResponse> NetClient::Query(const std::vector<int>& task_ids,
                                      const Tensor& input, double deadline_ms,
                                      WirePrecision precision) {
  uint64_t id = 0;
  POE_ASSIGN_OR_RETURN(id, Send(task_ids, input, deadline_ms, precision));
  WireResponse response;
  POE_ASSIGN_OR_RETURN(response, Receive());
  if (response.request_id != id) {
    Close();
    return Status::Internal(
        "response correlation mismatch (pipelining misuse?)");
  }
  return response;
}

}  // namespace poe
