// Thin POSIX TCP wrappers for the network front end: an RAII socket
// handle plus listen / accept / connect / read / write helpers that
// speak util::Status instead of errno. Everything binds and connects on
// the IPv4 loopback only — the server is a session-pool front end for
// local drivers and port-forwarded clients, not a hardened internet
// daemon (see docs/SERVER.md).
//
// Blocking calls take poll()-based millisecond timeouts so the
// reactor's accept loop and the clients can observe a shutdown flag or
// a deadline instead of parking forever inside the kernel.

#ifndef GMINE_NET_SOCKET_H_
#define GMINE_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace gmine::net {

/// Outcome of one bounded read.
struct ReadResult {
  size_t bytes = 0;       // bytes placed in the caller's buffer
  bool eof = false;       // peer closed its write side
  bool timed_out = false; // nothing arrived within the timeout
};

/// Move-only RAII wrapper over a socket file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Closes the descriptor; safe to call repeatedly.
  void Close();

  /// Waits up to `timeout_ms` for the socket to become readable
  /// (incoming data, EOF, or a pending accept). false on timeout.
  gmine::Result<bool> WaitReadable(int timeout_ms) const;

  /// Reads at most `len` bytes. Waits up to `timeout_ms` first; a quiet
  /// socket reports `timed_out` instead of blocking forever.
  gmine::Result<ReadResult> ReadSome(char* buf, size_t len,
                                     int timeout_ms) const;

  /// Writes all of `data`, looping over partial sends. SIGPIPE is
  /// suppressed; a vanished peer returns IOError.
  Status WriteAll(std::string_view data) const;

 private:
  int fd_ = -1;
};

/// Binds and listens on 127.0.0.1:`port` (0 = kernel-assigned ephemeral
/// port) with the system's largest accept queue (SOMAXCONN, capped by
/// net.core.somaxconn), so a burst of connects is queued rather than
/// dropped into the client's 1 s SYN retransmit. `bound_port` receives
/// the actual port.
gmine::Result<Socket> ListenTcp(uint16_t port, uint16_t* bound_port);

/// Accepts one pending connection from `listener`. Call only after
/// WaitReadable reported the listener readable; a spurious wakeup
/// returns ReadResult-style timeout via an Aborted status.
gmine::Result<Socket> AcceptConnection(const Socket& listener);

/// Connects to `host`:`port`. `host` must be an IPv4 dotted-quad or
/// "localhost"; no DNS resolution is attempted.
gmine::Result<Socket> ConnectTcp(const std::string& host, uint16_t port);

}  // namespace gmine::net

#endif  // GMINE_NET_SOCKET_H_
