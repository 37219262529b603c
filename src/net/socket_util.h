// POSIX socket helpers: loopback TCP setup, readiness waits and EINTR-safe
// full writes.

#ifndef PILEUS_SRC_NET_SOCKET_UTIL_H_
#define PILEUS_SRC_NET_SOCKET_UTIL_H_

#include <cstddef>
#include <cstdint>

#include "src/common/clock.h"
#include "src/common/status.h"

namespace pileus::net {

// RAII file descriptor.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { Reset(); }

  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.Release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Reset();

 private:
  int fd_ = -1;
};

// Creates a TCP listener bound to 127.0.0.1:port (port 0 = ephemeral).
// On success stores the bound port in *bound_port.
Result<UniqueFd> ListenTcp(uint16_t port, uint16_t* bound_port);

// Connects to 127.0.0.1:port with the given timeout.
Result<UniqueFd> ConnectTcp(uint16_t port, MicrosecondCount timeout_us);

// Waits until `fd` is ready for poll(2) `events` or has an error to report;
// kTimeout once the absolute RealClock `deadline_us` passes (0 = never).
Status WaitReady(int fd, short events, MicrosecondCount deadline_us);

// Writes all `len` bytes, retrying on EINTR/short writes and waiting for
// buffer space until the absolute `deadline_us` (0 = never).
Status WriteFull(int fd, const void* buf, size_t len,
                 MicrosecondCount deadline_us = 0);

}  // namespace pileus::net

#endif  // PILEUS_SRC_NET_SOCKET_UTIL_H_
