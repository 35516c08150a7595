// Small POSIX socket helpers shared by the HTTP server and the blocking
// test client: RAII fd ownership and read/write wrappers that survive the
// failure modes a naive loop silently mishandles — partial writes, EINTR,
// and EPIPE on a peer that hung up (the process ignores SIGPIPE; broken
// pipes surface as errors here, never as signals).
#pragma once

#include <cstddef>
#include <string>

namespace dabs::net {

/// Owning file descriptor: closes on destruction, move-only.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) noexcept : fd_(fd) {}
  ~UniqueFd() { reset(); }

  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset(int fd = -1) noexcept;

 private:
  int fd_ = -1;
};

/// O_NONBLOCK on/off; returns false (with errno set) on failure.
bool set_nonblocking(int fd, bool nonblocking = true);

/// Writes the whole buffer to a *blocking* fd, retrying partial writes and
/// EINTR; sends with MSG_NOSIGNAL on sockets so a dead peer yields EPIPE
/// instead of a signal.  Returns false on any hard error (errno holds it).
bool write_all(int fd, const void* data, std::size_t size);

/// One non-blocking write attempt (MSG_NOSIGNAL, EINTR retried).  Returns
/// bytes written (possibly 0 on EAGAIN/EWOULDBLOCK), or -1 on a hard error.
long write_some(int fd, const void* data, std::size_t size);

/// One non-blocking read attempt (EINTR retried).  Returns bytes read,
/// 0 for EOF, -1 with errno == EAGAIN when nothing is ready, -1 otherwise
/// on a hard error.
long read_some(int fd, void* data, std::size_t size);

/// Ignores SIGPIPE process-wide so every socket/stdout write path reports
/// a dead peer as EPIPE from write() instead of killing the process.
/// Idempotent; call early in main().
void ignore_sigpipe();

/// strerror(errno) as a std::string (thread-safe).
std::string errno_string();

}  // namespace dabs::net
