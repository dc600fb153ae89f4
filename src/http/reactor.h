// The gateway's event engine: a small pool of epoll event loops, each
// edge-triggered and non-blocking, so one process holds tens of
// thousands of idle connections at the cost of a few file descriptors
// per loop — not a thread per connection (docs/HTTP.md).
//
// Division of labor:
//   * the owner (http::Gateway) accepts sockets and Adopt()s them; the
//     reactor round-robins them across its loops;
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
//   * Stop() is a graceful drain: each loop makes a final non-blocking
//     flush attempt per connection, then closes everything and joins.

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
  /// Output buffered per connection before it is evicted as a slow
  /// client.
  size_t max_write_buffer_bytes = 256 * 1024;
  /// recv() chunk size.
  size_t read_chunk_bytes = 16 * 1024;
  /// epoll_wait timeout (shutdown-check granularity).
  int poll_interval_ms = 100;
};

struct ReactorStats {
  uint64_t adopted = 0;
  uint64_t closed = 0;        // connections fully torn down
  uint64_t evicted_slow = 0;  // closed for an overfull write buffer
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  size_t open_now = 0;
};

class Reactor {
 public:
  struct Callbacks {
    /// Bytes arrived on `id`; runs on the owning loop thread. Returns
    /// false to pause reading `id` until Resume().
    std::function<bool(ConnId, std::string_view)> on_data;
    /// `id` is gone (peer close, error, eviction or Stop); runs on the
    /// owning loop thread, exactly once per adopted connection.
    std::function<void(ConnId)> on_closed;
  };

  Reactor(ReactorOptions options, Callbacks callbacks);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Spawns the loop threads. Call once, before Adopt.
  Status Start();

  /// Graceful drain: final flush attempt per connection, close all
  /// (on_closed fires for each), join the loops. Idempotent.
  void Stop();

  /// Takes ownership of an accepted socket, makes it non-blocking and
  /// registers it with a loop. Thread-safe.
  gmine::Result<ConnId> Adopt(net::Socket sock);

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

  /// id -> connection, for Send/Close from any thread.
  mutable std::mutex conns_mu_;
  std::unordered_map<ConnId, std::shared_ptr<Conn>> conns_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<size_t> next_loop_{0};

  std::atomic<uint64_t> adopted_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> evicted_slow_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
};

}  // namespace gmine::http

#endif  // GMINE_HTTP_REACTOR_H_
