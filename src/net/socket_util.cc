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

namespace pileus::net {

namespace {

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

}  // namespace pileus::net
