// Thin POSIX socket helpers for the net subsystem: RAII fd ownership plus
// the handful of TCP operations the server and the load generator share. Throws ramp::InvalidArgument (bad address) or
// std::runtime_error (syscall failure) — no errno leaks past this layer.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

namespace ramp::net {

/// Move-only owner of one file descriptor; closes on destruction.
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { reset(); }

  OwnedFd(OwnedFd&& other) noexcept : fd_(other.release()) {}
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void reset();  ///< closes if valid

 private:
  int fd_ = -1;
};

/// Binds and listens on host:port (SO_REUSEADDR, non-blocking, CLOEXEC).
/// port 0 binds an ephemeral port — read it back with local_port().
OwnedFd listen_tcp(const std::string& host, std::uint16_t port,
                   int backlog = 128);

/// The port a bound socket actually listens on.
std::uint16_t local_port(int fd);

/// Blocking TCP connect; the returned fd is blocking (callers that want
/// non-blocking I/O call set_nonblocking). TCP_NODELAY is set: every user
/// of this protocol writes whole lines.
OwnedFd connect_tcp(const std::string& host, std::uint16_t port);

void set_nonblocking(int fd);

/// accept4 wrapper: non-blocking CLOEXEC client fd with TCP_NODELAY, or an
/// invalid OwnedFd when the accept queue is empty (EAGAIN) or the client
/// vanished between readiness and accept.
OwnedFd accept_client(int listen_fd);

}  // namespace ramp::net
