// The event engine of both network front ends: the gateway's HTTP and
// WebSocket (http::Gateway, docs/HTTP.md) and the TCP line protocol
// (net::Server, docs/SERVER.md). A small pool of epoll event loops,
// each edge-triggered and non-blocking, so one process holds tens of
// thousands of idle connections at the cost of a few file descriptors
// per loop — not a thread per connection.
//
// Division of labor:
//   * the accept thread owns the listener: it refuses connections past
//     the cap with the front end's own refusal bytes, runs on_open so
//     the front end's state (and greeting) exist before the loop can
//     see the connection, and round-robins the socket across the loops;
//     each poll tick with nothing to accept runs on_tick;
//   * all protocol work happens in callbacks on the owning loop's
//     thread — on_data hands up whatever bytes arrived, on_closed is
//     the one and final teardown notification for a connection, so
//     per-connection state needs no locking as long as only callbacks
//     touch it;
//   * on_data may pause a connection, handing its work to another
//     thread: the loop stops reading it (what the peer sends meanwhile
//     waits in the kernel) until that thread calls Resume(), which
//     runs a continuation on the owning loop and then reads on;
//   * writes from any thread: Send() appends to the connection's
//     bounded output buffer and wakes its loop, which owns the actual
//     socket writes. A peer that stops reading fills the buffer and is
//     evicted (closed, on_closed fired) — slow clients cannot pin
//     memory;
//   * a peer's EOF (a close or a half-close) ends reading, not
//     writing: every reply queued before it, or by a paused
//     connection's worker, still flushes, then the connection closes;
//   * Stop() is a graceful drain: stop accepting, then each loop makes
//     a final non-blocking flush attempt per connection, closes
//     everything and joins.

#ifndef GMINE_HTTP_REACTOR_H_
#define GMINE_HTTP_REACTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/socket.h"
#include "util/status.h"

namespace gmine::http {

/// Reactor-wide connection identity (never reused within a run).
using ConnId = uint64_t;

struct ReactorOptions {
  /// Event-loop threads; connections are assigned round-robin.
  int threads = 1;
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (port()).
  uint16_t port = 0;
  /// Connections open at once; the accept thread refuses more.
  size_t max_conns = 10000;
  /// What a refused connection reads before it is closed.
  std::string refusal;
  /// Output buffered per connection before it is evicted as a slow
  /// client.
  size_t max_write_buffer_bytes = 256 * 1024;
  /// epoll_wait and accept-poll timeout: the shutdown-check and
  /// on_tick granularity.
  int poll_interval_ms = 100;
};

struct ReactorStats {
  uint64_t adopted = 0;
  uint64_t rejected = 0;      // refused at max_conns
  uint64_t closed = 0;        // connections fully torn down
  uint64_t evicted_slow = 0;  // closed for an overfull write buffer
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  size_t open_now = 0;
};

class Reactor {
 public:
  struct Callbacks {
    /// A connection was accepted; runs on the accept thread before its
    /// loop is armed, so before any other callback for `id`. Whatever
    /// it appends to `*greeting` is the first output the peer reads.
    /// Returning false closes the connection once that is flushed.
    std::function<bool(ConnId, std::string* greeting)> on_open;
    /// Bytes arrived on `id`; runs on the owning loop thread. Returns
    /// false to pause reading `id` until Resume().
    std::function<bool(ConnId, std::string_view)> on_data;
    /// `id` is gone (peer close, error, eviction or Stop); runs on the
    /// owning loop thread, exactly once per adopted connection.
    std::function<void(ConnId)> on_closed;
    /// Runs on the accept thread whenever its poll finds nothing to
    /// accept, about every poll_interval_ms while the listener is quiet.
    std::function<void()> on_tick;
  };

  Reactor(ReactorOptions options, Callbacks callbacks);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Binds the listener and spawns the loop threads and the accept
  /// thread. Fails (IOError) when the port is taken; call once.
  Status Start();

  /// The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }

  /// Stops accepting: joins the accept thread and closes the listener.
  /// Live connections are served on. Idempotent.
  void StopAccepting();

  /// Graceful drain: stop accepting, final flush attempt per
  /// connection, close all (on_closed fires for each), join the loops.
  /// Idempotent.
  void Stop();

  /// Queues bytes for `id` and wakes its loop. False when the id is
  /// unknown/closing or the write buffer overflowed (the connection is
  /// then evicted). Thread-safe.
  bool Send(ConnId id, std::string_view data);

  /// Asks the loop to close `id` after flushing queued output.
  /// Unknown ids are ignored. Thread-safe.
  void Close(ConnId id);

  /// Hands a paused connection back to its loop: runs `fn` on the
  /// owning loop thread and, if it returns true, reads on. Returning
  /// false keeps the connection paused (for the next Resume). Dropped
  /// when `id` is gone. Thread-safe.
  void Resume(ConnId id, std::function<bool()> fn);

  ReactorStats stats() const;
  size_t open_connections() const;

 private:
  struct Conn;
  struct Loop;

  /// Accepts, refuses past the cap, and hands sockets to the loops.
  void AcceptLoop();
  void LoopThread(Loop* loop);
  void HandleReadable(Loop* loop, const std::shared_ptr<Conn>& conn);
  /// Flushes queued output; closes when drained and close-requested.
  /// Returns false when the connection died.
  bool HandleWritable(Loop* loop, const std::shared_ptr<Conn>& conn);
  void Destroy(Loop* loop, const std::shared_ptr<Conn>& conn,
               bool evicted);
  void WakeLoop(Loop* loop);

  ReactorOptions options_;
  Callbacks callbacks_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;  // Stop() completed (caller thread)

  net::Socket listener_;
  uint16_t port_ = 0;
  std::atomic<bool> accepting_{false};
  std::thread accept_thread_;

  /// id -> connection, for Send/Close from any thread.
  mutable std::mutex conns_mu_;
  std::unordered_map<ConnId, std::shared_ptr<Conn>> conns_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<size_t> next_loop_{0};

  std::atomic<uint64_t> adopted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> evicted_slow_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
};

}  // namespace gmine::http

#endif  // GMINE_HTTP_REACTOR_H_
