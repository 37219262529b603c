#include "src/net/socket_util.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "src/telemetry/metrics.h"

namespace pileus::net {

namespace {

// Transport-level accounting in the process-wide registry: sockets have no
// natural injection point, so the bytes/frames moved by every TCP channel
// and server in the process aggregate here.
struct FrameMetrics {
  telemetry::Counter* bytes_sent;
  telemetry::Counter* bytes_received;
  telemetry::Counter* frames_sent;
  telemetry::Counter* frames_received;

  FrameMetrics() {
    telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::Default();
    bytes_sent = registry.GetCounter("pileus_net_bytes_sent_total");
    bytes_received = registry.GetCounter("pileus_net_bytes_received_total");
    frames_sent = registry.GetCounter("pileus_net_frames_sent_total");
    frames_received = registry.GetCounter("pileus_net_frames_received_total");
  }
};

FrameMetrics& Frames() {
  static FrameMetrics* metrics = new FrameMetrics();
  return *metrics;
}

Status Errno(const char* what) {
  return Status(StatusCode::kUnavailable,
                std::string(what) + ": " + strerror(errno));
}

}  // namespace

Status WaitReady(int fd, short events, MicrosecondCount deadline_us) {
  struct pollfd pfd = {fd, events, 0};
  while (true) {
    struct timespec timeout = {};
    if (deadline_us > 0) {
      const MicrosecondCount left =
          deadline_us - RealClock::Instance()->NowMicros();
      if (left <= 0) {
        return Status(StatusCode::kTimeout, "deadline exceeded");
      }
      timeout.tv_sec = left / 1000000;
      timeout.tv_nsec = (left % 1000000) * 1000;
    }
    const int rc =
        ::ppoll(&pfd, 1, deadline_us > 0 ? &timeout : nullptr, nullptr);
    if (rc > 0) {
      return Status::Ok();
    }
    if (rc < 0 && errno != EINTR) {
      return Errno("ppoll");
    }
  }
}

void UniqueFd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<UniqueFd> ListenTcp(uint16_t port, uint16_t* bound_port) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return Errno("socket");
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (::listen(fd.get(), 64) != 0) {
    return Errno("listen");
  }
  if (bound_port != nullptr) {
    socklen_t len = sizeof(addr);
    if (::getsockname(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
                      &len) != 0) {
      return Errno("getsockname");
    }
    *bound_port = ntohs(addr.sin_port);
  }
  return fd;
}

Result<UniqueFd> ConnectTcp(uint16_t port, MicrosecondCount timeout_us) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return Errno("socket");
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);

  // Non-blocking connect with a poll deadline.
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  ::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    return Errno("connect");
  }
  if (rc != 0) {
    struct pollfd pfd;
    pfd.fd = fd.get();
    pfd.events = POLLOUT;
    pfd.revents = 0;
    const int timeout_ms =
        timeout_us > 0 ? static_cast<int>(timeout_us / 1000) + 1 : -1;
    const int prc = ::poll(&pfd, 1, timeout_ms);
    if (prc == 0) {
      return Status(StatusCode::kTimeout, "connect deadline exceeded");
    }
    if (prc < 0) {
      return Errno("poll(connect)");
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    ::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &err_len);
    if (err != 0) {
      errno = err;
      return Errno("connect");
    }
  }
  ::fcntl(fd.get(), F_SETFL, flags);
  return fd;
}

Status ReadFull(int fd, void* buf, size_t len, MicrosecondCount timeout_us) {
  const MicrosecondCount deadline =
      timeout_us > 0 ? RealClock::Instance()->NowMicros() + timeout_us : 0;
  char* out = static_cast<char*>(buf);
  size_t done = 0;
  while (done < len) {
    PILEUS_RETURN_IF_ERROR(WaitReady(fd, POLLIN, deadline));
    const ssize_t n = ::read(fd, out + done, len - done);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      return Status(StatusCode::kUnavailable, "connection closed by peer");
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
      continue;
    }
    return Errno("read");
  }
  return Status::Ok();
}

Status WriteFull(int fd, const void* buf, size_t len,
                 MicrosecondCount deadline_us) {
  const char* in = static_cast<const char*>(buf);
  size_t done = 0;
  while (done < len) {
    // MSG_NOSIGNAL: writing to a peer-closed socket must surface as EPIPE
    // (mapped to kUnavailable below), not kill the process with SIGPIPE.
    // MSG_DONTWAIT: a full socket buffer is waited out under the deadline.
    const ssize_t n =
        ::send(fd, in + done, len - done, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      done += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      PILEUS_RETURN_IF_ERROR(WaitReady(fd, POLLOUT, deadline_us));
    } else if (n == 0 || errno != EINTR) {
      return Errno("write");
    }
  }
  return Status::Ok();
}

Status WriteFrame(int fd, std::string_view payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  char header[4];
  header[0] = static_cast<char>(len);
  header[1] = static_cast<char>(len >> 8);
  header[2] = static_cast<char>(len >> 16);
  header[3] = static_cast<char>(len >> 24);
  PILEUS_RETURN_IF_ERROR(WriteFull(fd, header, sizeof(header)));
  PILEUS_RETURN_IF_ERROR(WriteFull(fd, payload.data(), payload.size()));
  Frames().frames_sent->Increment();
  Frames().bytes_sent->Increment(sizeof(header) + payload.size());
  return Status::Ok();
}

Result<std::string> ReadFrame(int fd, MicrosecondCount timeout_us,
                              size_t max_frame,
                              MicrosecondCount body_timeout_us) {
  unsigned char header[4];
  Status st = ReadFull(fd, header, sizeof(header), timeout_us);
  if (!st.ok()) {
    return st;
  }
  const uint32_t len = static_cast<uint32_t>(header[0]) |
                       (static_cast<uint32_t>(header[1]) << 8) |
                       (static_cast<uint32_t>(header[2]) << 16) |
                       (static_cast<uint32_t>(header[3]) << 24);
  if (len > max_frame) {
    return Status(StatusCode::kCorruption, "oversized frame");
  }
  std::string payload(len, '\0');
  st = ReadFull(fd, payload.data(), len,
                body_timeout_us > 0 ? body_timeout_us : timeout_us);
  if (!st.ok()) {
    return st;
  }
  Frames().frames_received->Increment();
  Frames().bytes_received->Increment(sizeof(header) + payload.size());
  return payload;
}

}  // namespace pileus::net
