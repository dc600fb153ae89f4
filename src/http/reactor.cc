#include "http/reactor.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "util/string_util.h"

namespace gmine::http {

/// One adopted connection. The socket is only touched by the owning
/// loop thread; `mu` guards the cross-thread fields (output buffer and
/// close flags).
struct Reactor::Conn {
  ConnId id = 0;
  net::Socket sock;
  Loop* loop = nullptr;

  std::mutex mu;
  std::string out;             // queued output (drained from offset 0)
  size_t out_off = 0;
  bool close_after_flush = false;
  bool evict = false;          // slow client: close without flushing
  bool dead = false;           // torn down; on_closed fired

  /// on_data paused reading; owning loop thread only.
  bool paused = false;
};

/// One epoll event loop.
struct Reactor::Loop {
  int epoll_fd = -1;
  int event_fd = -1;  // cross-thread wakeup
  std::thread thread;
  std::string read_buf;  // recv() target; the loop thread only

  /// Connections owned by this loop, the subset needing a flush pass
  /// (Send/Close kicked them), and Resume continuations to run.
  std::mutex mu;
  std::unordered_map<ConnId, std::shared_ptr<Conn>> conns;
  std::vector<std::shared_ptr<Conn>> kicked;
  std::vector<std::pair<std::shared_ptr<Conn>, std::function<bool()>>>
      resumed;

  ~Loop() {
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (event_fd >= 0) ::close(event_fd);
  }
};

namespace {

/// The loop the calling thread runs, if any. Sends and closes from a
/// loop's own callbacks need no eventfd wake-up: the loop flushes them
/// before it waits again.
thread_local const void* t_loop = nullptr;

constexpr size_t kReadChunkBytes = 16 * 1024;  // recv() size

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(
        StrFormat("fcntl(O_NONBLOCK): %s", ::strerror(errno)));
  }
  return Status::OK();
}

}  // namespace

Reactor::Reactor(ReactorOptions options, Callbacks callbacks)
    : options_(options), callbacks_(std::move(callbacks)) {
  if (options_.threads < 1) options_.threads = 1;
}

Reactor::~Reactor() { Stop(); }

Status Reactor::Start() {
  if (started_.exchange(true)) {
    return Status::Internal("reactor already started");
  }
  GMINE_ASSIGN_OR_RETURN(
      listener_, net::ListenTcp(options_.port, &port_));
  for (int i = 0; i < options_.threads; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->read_buf.resize(kReadChunkBytes);
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (loop->epoll_fd < 0) {
      return Status::IOError(
          StrFormat("epoll_create1: %s", ::strerror(errno)));
    }
    loop->event_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (loop->event_fd < 0) {
      return Status::IOError(
          StrFormat("eventfd: %s", ::strerror(errno)));
    }
    struct epoll_event ev;
    ev.events = EPOLLIN;
    ev.data.u64 = 0;  // id 0 = the wakeup eventfd
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->event_fd, &ev) <
        0) {
      return Status::IOError(
          StrFormat("epoll_ctl(eventfd): %s", ::strerror(errno)));
    }
    loops_.push_back(std::move(loop));
  }
  for (auto& loop : loops_) {
    Loop* raw = loop.get();
    raw->thread = std::thread([this, raw] { LoopThread(raw); });
  }
  accepting_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Reactor::StopAccepting() {
  accepting_.store(false);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
}

void Reactor::Stop() {
  if (!started_.load() || stopped_) return;
  StopAccepting();
  stopping_.store(true);
  for (auto& loop : loops_) WakeLoop(loop.get());
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  stopped_ = true;
}

void Reactor::WakeLoop(Loop* loop) {
  if (loop == t_loop) return;
  const uint64_t one = 1;
  ssize_t ignored = ::write(loop->event_fd, &one, sizeof(one));
  (void)ignored;
}

void Reactor::AcceptLoop() {
  while (accepting_.load()) {
    auto readable = listener_.WaitReadable(options_.poll_interval_ms);
    if (!readable.ok()) return;
    if (!readable.value()) {
      if (callbacks_.on_tick) callbacks_.on_tick();
      continue;
    }
    auto accepted = net::AcceptConnection(listener_);
    if (!accepted.ok()) continue;
    if (open_connections() >= options_.max_conns) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      (void)accepted.value().WriteAll(options_.refusal);
      continue;  // the socket closes here
    }
    if (!SetNonBlocking(accepted.value().fd()).ok()) continue;
    auto conn = std::make_shared<Conn>();
    conn->id = next_id_.fetch_add(1);
    conn->sock = std::move(accepted).value();
    Loop* loop = loops_[next_loop_.fetch_add(1) % loops_.size()].get();
    conn->loop = loop;
    adopted_.fetch_add(1, std::memory_order_relaxed);
    // No loop can see the connection yet, so its greeting is the first
    // output queued and its state exists before the first on_data.
    if (callbacks_.on_open && !callbacks_.on_open(conn->id, &conn->out)) {
      conn->close_after_flush = true;
    }
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.emplace(conn->id, conn);
    }
    {
      std::lock_guard<std::mutex> lock(loop->mu);
      loop->conns.emplace(conn->id, conn);
    }
    struct epoll_event ev;
    // Edge-triggered both ways, armed once: EPOLLOUT edges fire only on
    // full->writable transitions, so an idle connection costs nothing.
    // Arming reports the fresh socket writable, which sends the greeting.
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, conn->sock.fd(), &ev) <
        0) {
      Destroy(loop, conn, /*evicted=*/false);
    }
  }
}

bool Reactor::Send(ConnId id, std::string_view data) {
  std::shared_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.find(id);
    if (it == conns_.end()) return false;
    conn = it->second;
  }
  bool evict = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->dead || conn->evict) return false;
    if (conn->out.size() - conn->out_off + data.size() >
        options_.max_write_buffer_bytes) {
      conn->evict = true;  // slow client: loop will tear it down
      evict = true;
    } else {
      conn->out.append(data.data(), data.size());
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn->loop->mu);
    conn->loop->kicked.push_back(conn);
  }
  WakeLoop(conn->loop);
  return !evict;
}

void Reactor::Close(ConnId id) {
  std::shared_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    conn = it->second;
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->dead) return;
    conn->close_after_flush = true;
  }
  {
    std::lock_guard<std::mutex> lock(conn->loop->mu);
    conn->loop->kicked.push_back(conn);
  }
  WakeLoop(conn->loop);
}

void Reactor::Resume(ConnId id, std::function<bool()> fn) {
  std::shared_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    conn = it->second;
  }
  {
    std::lock_guard<std::mutex> lock(conn->loop->mu);
    conn->loop->resumed.emplace_back(conn, std::move(fn));
  }
  WakeLoop(conn->loop);
}

void Reactor::LoopThread(Loop* loop) {
  constexpr int kMaxEvents = 128;
  struct epoll_event events[kMaxEvents];
  t_loop = loop;
  while (!stopping_.load()) {
    const int n = ::epoll_wait(loop->epoll_fd, events, kMaxEvents,
                               options_.poll_interval_ms);
    for (int i = 0; i < n && !stopping_.load(); ++i) {
      const ConnId id = events[i].data.u64;
      if (id == 0) {
        uint64_t drain = 0;  // one read resets the counter
        ssize_t ignored = ::read(loop->event_fd, &drain, sizeof(drain));
        (void)ignored;
        continue;
      }
      std::shared_ptr<Conn> conn;
      {
        std::lock_guard<std::mutex> lock(loop->mu);
        auto it = loop->conns.find(id);
        if (it == loop->conns.end()) continue;
        conn = it->second;
      }
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        Destroy(loop, conn, /*evicted=*/false);
        continue;
      }
      if (events[i].events & EPOLLOUT) {
        if (!HandleWritable(loop, conn)) continue;
      }
      if (events[i].events & (EPOLLIN | EPOLLRDHUP)) {
        HandleReadable(loop, conn);
      }
    }
    // Flush pass for connections kicked by Send/Close, then the
    // continuations of resumed connections (their replies are already
    // queued, so they flush first). What these queue from this thread
    // woke nobody, so repeat until nothing is left.
    for (;;) {
      std::vector<std::shared_ptr<Conn>> kicked;
      std::vector<std::pair<std::shared_ptr<Conn>, std::function<bool()>>>
          resumed;
      {
        std::lock_guard<std::mutex> lock(loop->mu);
        kicked.swap(loop->kicked);
        resumed.swap(loop->resumed);
      }
      if (stopping_.load() || (kicked.empty() && resumed.empty())) break;
      for (const auto& conn : kicked) (void)HandleWritable(loop, conn);
      for (auto& [conn, fn] : resumed) {
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          if (conn->dead) continue;
        }
        if (!fn()) continue;  // paused again
        conn->paused = false;
        // Edge-triggered: bytes that arrived while paused raised their
        // edge already, so read them now.
        HandleReadable(loop, conn);
      }
    }
  }

  // Drain: one last non-blocking flush attempt each, then tear down.
  std::vector<std::shared_ptr<Conn>> remaining;
  {
    std::lock_guard<std::mutex> lock(loop->mu);
    remaining.reserve(loop->conns.size());
    for (auto& [id, conn] : loop->conns) remaining.push_back(conn);
  }
  for (const auto& conn : remaining) {
    if (HandleWritable(loop, conn)) {
      Destroy(loop, conn, /*evicted=*/false);
    }
  }
}

void Reactor::HandleReadable(Loop* loop,
                             const std::shared_ptr<Conn>& conn) {
  if (conn->paused) return;  // Resume reads what waits
  std::string& buf = loop->read_buf;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->dead) return;
    }
    const ssize_t n =
        ::recv(conn->sock.fd(), buf.data(), buf.size(), 0);
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<uint64_t>(n),
                          std::memory_order_relaxed);
      if (callbacks_.on_data &&
          !callbacks_.on_data(conn->id,
                              std::string_view(buf.data(),
                                               static_cast<size_t>(n)))) {
        conn->paused = true;
        return;
      }
      continue;  // edge-triggered: drain until EAGAIN
    }
    if (n == 0) {
      // The peer closed or half-closed: it sends nothing more, but may
      // still read, so the replies already queued flush first.
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->close_after_flush = true;
      }
      (void)HandleWritable(loop, conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    Destroy(loop, conn, /*evicted=*/false);
    return;
  }
}

bool Reactor::HandleWritable(Loop* loop,
                             const std::shared_ptr<Conn>& conn) {
  std::unique_lock<std::mutex> lock(conn->mu);
  if (conn->dead) return false;
  if (conn->evict) {
    lock.unlock();
    Destroy(loop, conn, /*evicted=*/true);
    return false;
  }
  while (conn->out_off < conn->out.size()) {
    const ssize_t n = ::send(conn->sock.fd(),
                             conn->out.data() + conn->out_off,
                             conn->out.size() - conn->out_off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      bytes_out_.fetch_add(static_cast<uint64_t>(n),
                           std::memory_order_relaxed);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Kernel buffer full; the EPOLLOUT edge will resume us.
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    lock.unlock();
    Destroy(loop, conn, /*evicted=*/false);
    return false;
  }
  if (conn->out_off > 0) {
    conn->out.clear();
    conn->out_off = 0;
  }
  if (conn->close_after_flush) {
    lock.unlock();
    Destroy(loop, conn, /*evicted=*/false);
    return false;
  }
  return true;
}

void Reactor::Destroy(Loop* loop, const std::shared_ptr<Conn>& conn,
                      bool evicted) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->dead) return;
    conn->dead = true;
  }
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, conn->sock.fd(), nullptr);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.erase(conn->id);
  }
  {
    std::lock_guard<std::mutex> lock(loop->mu);
    loop->conns.erase(conn->id);
  }
  conn->sock.Close();
  closed_.fetch_add(1, std::memory_order_relaxed);
  if (evicted) evicted_slow_.fetch_add(1, std::memory_order_relaxed);
  if (callbacks_.on_closed) callbacks_.on_closed(conn->id);
}

ReactorStats Reactor::stats() const {
  ReactorStats out;
  out.adopted = adopted_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.closed = closed_.load(std::memory_order_relaxed);
  out.evicted_slow = evicted_slow_.load(std::memory_order_relaxed);
  out.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  out.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  out.open_now = open_connections();
  return out;
}

size_t Reactor::open_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

}  // namespace gmine::http
