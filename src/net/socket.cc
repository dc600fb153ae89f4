#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/string_util.h"

namespace gmine::net {

namespace {

Status ErrnoStatus(const char* what) {
  return Status::IOError(StrFormat("%s: %s", what, std::strerror(errno)));
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

gmine::Result<bool> Socket::WaitReadable(int timeout_ms) const {
  if (fd_ < 0) return Status::IOError("WaitReadable on closed socket");
  struct pollfd pfd;
  pfd.fd = fd_;
  pfd.events = POLLIN;
  pfd.revents = 0;
  int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc < 0) {
    if (errno == EINTR) return false;  // treat as timeout; caller re-polls
    return ErrnoStatus("poll");
  }
  return rc > 0;
}

gmine::Result<ReadResult> Socket::ReadSome(char* buf, size_t len,
                                           int timeout_ms) const {
  ReadResult r;
  GMINE_ASSIGN_OR_RETURN(bool readable, WaitReadable(timeout_ms));
  if (!readable) {
    r.timed_out = true;
    return r;
  }
  ssize_t n = ::recv(fd_, buf, len, 0);
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
      r.timed_out = true;
      return r;
    }
    return ErrnoStatus("recv");
  }
  if (n == 0) {
    r.eof = true;
    return r;
  }
  r.bytes = static_cast<size_t>(n);
  return r;
}

Status Socket::WriteAll(std::string_view data) const {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("send");
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

gmine::Result<Socket> ListenTcp(uint16_t port, uint16_t* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  Socket sock(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return ErrnoStatus("bind");
  }
  if (::listen(fd, SOMAXCONN) < 0) return ErrnoStatus("listen");
  if (bound_port != nullptr) {
    struct sockaddr_in actual;
    socklen_t alen = sizeof(actual);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&actual),
                      &alen) < 0) {
      return ErrnoStatus("getsockname");
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return sock;
}

gmine::Result<Socket> AcceptConnection(const Socket& listener) {
  int fd = ::accept(listener.fd(), nullptr, nullptr);
  if (fd < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED) {
      return Status::Aborted("no pending connection");
    }
    return ErrnoStatus("accept");
  }
  Socket conn(fd);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return conn;
}

gmine::Result<Socket> ConnectTcp(const std::string& host, uint16_t port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string ip = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        StrFormat("'%s' is not an IPv4 address (no DNS resolution; use a "
                  "dotted quad or 'localhost')",
                  host.c_str()));
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  Socket sock(fd);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    return Status::IOError(StrFormat("connect %s:%u: %s", ip.c_str(),
                                     static_cast<unsigned>(port),
                                     std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

}  // namespace gmine::net
