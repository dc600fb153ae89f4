// The network front end: a TCP listener mapping remote clients onto the
// session pool (docs/SERVER.md). Each accepted connection is routed to
// its own core::SessionManager session for its whole lifetime — the
// socket is the user, the session is their navigation state — and every
// request line executes under WithSession, so any number of clients
// navigate one store concurrently without sharing focus. A writable
// server commits remote edits through one core::EditQueue.
//
// Thread model: the gateway's event engine (http/reactor.h) with a
// line-protocol handler.
//   * `worker_threads` event loops frame request lines and answer them
//     inline, as the gateway's WebSocket does;
//   * `edit apply` (it waits for its group commit) and `query` (it may
//     run a whole-store kernel) run on a worker pool. Their connection
//     stops reading until the worker has queued the reply and resumed
//     it, so replies leave each connection in request order;
//   * the reactor's accept thread enforces the connection cap and, on
//     every poll tick, calls the pool's CloseIdleSessions. Idle-client
//     reaping is *session*-driven: when the pool reaps a connection's
//     session, the manager's close hook closes that connection.
//
// Shutdown: Stop() (or a client's SHUTDOWN op followed by the host
// calling Stop) stops accepting, lets the ops on workers finish, flushes
// and closes every connection, closes every connection-owned session
// (no leaks — session_pool stats prove it), and joins all threads. Stop
// is idempotent.

#ifndef GMINE_NET_SERVER_H_
#define GMINE_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/edit_queue.h"
#include "core/prefetcher.h"
#include "core/session_manager.h"
#include "graph/graph_edit.h"
#include "http/reactor.h"
#include "http/worker_pool.h"
#include "net/protocol.h"
#include "util/status.h"
#include "util/timer.h"

namespace gmine::net {

/// Server tunables.
struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back
  /// from port() after Start).
  uint16_t port = 0;
  /// Connections admitted at once; more get an "ERR Aborted server at
  /// capacity" line and an immediate close.
  int max_clients = 32;
  /// Event loops serving connections; 0 means one per core
  /// (ResolveThreads, like every other `threads` knob).
  int worker_threads = 0;
  /// Granularity of shutdown checks and idle sweeps.
  int poll_interval_ms = 50;
  /// Extra host-supplied section appended to the STATS response (e.g.
  /// `gmine server --wal on` reports the write-ahead log through it).
  /// Called from the event loops — must be thread-safe. Empty result =
  /// nothing appended.
  std::function<std::string()> extra_stats;
};

/// Cumulative server counters (stats()).
struct ServerStats {
  uint64_t accepted = 0;   // connections admitted
  uint64_t rejected = 0;   // connections refused at the cap
  uint64_t closed = 0;     // connections fully torn down
  uint64_t requests = 0;   // request lines executed
  uint64_t errors = 0;     // requests answered with ERR
  uint64_t total_latency_micros = 0;  // summed request service time
  uint64_t max_latency_micros = 0;    // slowest single request
  size_t active_now = 0;   // connections open right now
};

/// Point-in-time description of one live connection.
struct ConnectionInfo {
  uint64_t id = 0;                // connection id (accept order, from 1)
  core::SessionId session = 0;    // its pool session
  uint64_t requests = 0;
  int64_t idle_micros = 0;        // since the last completed request
};

/// TCP front end over one SessionManager. The pool (and its store) must
/// outlive the server; the optional prefetcher and edit queue too.
///   * `prefetcher`: best-effort child-leaf prefetch on focus changes
///     (docs/SERVER.md).
///   * `edits`: accept EDIT ops (remote mutation). Every batch is
///     built against the queue's tip as of its first op and committed
///     through the queue, so batches from different connections are
///     rebased onto each other with or without a WAL; a batch that a
///     node removal overtook answers ERR Aborted. The queue's engine
///     must own `pool`.
///     nullptr = read-only: every EDIT answers ERR NotSupported.
class Server {
 public:
  explicit Server(core::SessionManager* pool, ServerOptions options = {},
                  core::Prefetcher* prefetcher = nullptr,
                  core::EditQueue* edits = nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the event loops and the accept thread.
  /// Fails (IOError) when the port is taken; call at most once.
  Status Start();

  /// The bound port (valid after a successful Start).
  uint16_t port() const { return reactor_ ? reactor_->port() : 0; }

  /// Asks the host to stop: wakes WaitUntilShutdown. Also triggered by
  /// a client's SHUTDOWN op. Does not join threads — call Stop() next.
  void RequestShutdown();

  /// Blocks until RequestShutdown / Stop (the `gmine server` command
  /// parks here).
  void WaitUntilShutdown();

  /// Graceful shutdown: stop accepting, close every connection after
  /// its in-flight request, close their sessions, join every thread.
  /// Idempotent; the destructor calls it.
  void Stop();

  ServerStats stats() const;

  /// Live connections, accept order.
  std::vector<ConnectionInfo> connections() const;

 private:
  /// Per-connection protocol state. The owning loop thread touches the
  /// reader and the edit batch; while one of the connection's ops runs
  /// on a worker, the connection is paused and that worker is their
  /// only user.
  struct Conn {
    http::ConnId id = 0;
    core::SessionId session = 0;
    LineReader reader;
    std::atomic<uint64_t> requests{0};
    std::atomic<int64_t> last_active{0};     // steady micros
    // Open EDIT batch (writable servers), and the queue's remap epoch
    // when it opened.
    std::unique_ptr<graph::GraphEdit> pending_edit;
    std::vector<std::string> pending_labels;
    uint64_t pending_remap_epoch = 0;
  };

  /// The reactor's callbacks: open the connection's session and queue
  /// the greeting; frame and serve request lines; release the session.
  bool OnOpen(http::ConnId id, std::string* greeting);
  bool OnData(http::ConnId id, std::string_view data);
  void OnClosed(http::ConnId id);
  /// Serves the connection's buffered lines in order. Returns false
  /// when reading must pause: an op went to a worker (which resumes
  /// the connection) or the connection is closing.
  bool ServeLines(const std::shared_ptr<Conn>& conn);
  /// Executes one request, counts it and queues its reply, from a loop
  /// or a worker. Returns false when the connection closes after it.
  bool Answer(Conn& conn, const gmine::Result<Request>& request,
              const StopWatch& watch);
  /// Executes one parsed request: the transport's own ops here, the
  /// rest through the shared session-op dispatcher (net/session_ops.h)
  /// under the connection's session. `*request_shutdown` asks the
  /// caller to signal shutdown *after* queuing the response, so the
  /// drain in Stop() flushes the SHUTDOWN op's own reply.
  Response Execute(const Request& request, Conn& conn, bool* close_conn,
                   bool* request_shutdown);
  /// EDIT sub-op dispatch (queue mutations, apply/abort the batch).
  Response ExecuteEdit(const Request& request, Conn& conn);
  std::string StatsText(const Conn& conn) const;

  core::SessionManager* pool_;
  core::Prefetcher* prefetcher_;
  core::EditQueue* edits_;
  ServerOptions options_;
  std::unique_ptr<http::Reactor> reactor_;
  http::WorkerPool workers_;

  // Cumulative EDIT-op counters (an "edits" section in STATS when
  // writable).
  std::atomic<uint64_t> edits_committed_{0};
  std::atomic<uint64_t> edit_ops_committed_{0};

  // Cumulative QUERY-op counters (a "query" section in STATS).
  std::atomic<uint64_t> query_count_{0};
  std::atomic<uint64_t> query_rows_{0};
  std::atomic<uint64_t> query_pages_scanned_{0};
  std::atomic<uint64_t> query_pages_pruned_{0};

  std::atomic<bool> started_{false};
  bool stopped_ = false;  // Stop() ran to completion (main thread only)

  // Live connections by id, plus a session-id index for the close hook.
  mutable std::mutex conns_mu_;
  std::unordered_map<http::ConnId, std::shared_ptr<Conn>> conns_;
  std::unordered_map<core::SessionId, http::ConnId> session_to_conn_;

  // Request counters; the connection counters come from the reactor.
  mutable std::mutex stats_mu_;
  ServerStats stats_;

  // Shutdown-request signaling (WaitUntilShutdown).
  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
};

}  // namespace gmine::net

#endif  // GMINE_NET_SERVER_H_
