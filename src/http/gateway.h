// The HTTP/1.1 + WebSocket gateway (docs/HTTP.md): one listener, a
// small reactor pool, a worker pool, and a multi-store catalog behind
// them. REST endpoints cover the catalog (list stores, per-store
// info), GQL queries, summaries, SVG rendering and long-running mining
// jobs; a WebSocket upgrade pins a catalog session to the connection
// and carries the server line protocol's navigation ops plus `query`,
// responses JSON-framed.
//
// The reactor's loops parse, route, answer /stats, the catalog
// listing, job submits, polls and deletes, upgrade, and run WebSocket
// ops. REST requests that lease a store (info, query, summary,
// render.svg) and mine jobs run on the worker pool. A connection stops
// reading while its request is on a worker, so replies leave each
// connection in request order.
//
// The REST surface is versioned under /api/v1/; an unversioned path
// is an unknown path (404, or 401 first when a token is set).
//
//   GET  /stats                             counters (no auth)
//   GET  /api/v1/stores                     catalog listing
//   GET  /api/v1/stores/NAME                store info (opens it briefly)
//   GET  /api/v1/stores/NAME/query?q=GQL    run GQL, JSON rows
//   POST /api/v1/stores/NAME/query          statement in the body
//   GET  /api/v1/stores/NAME/summary[?node=N]   focus summary JSON
//   GET  /api/v1/stores/NAME/render.svg[?node=N] hierarchy view SVG
//   GET  /api/v1/stores/NAME/ws             WebSocket upgrade (RFC 6455)
//   POST /api/v1/stores/NAME/mine?kernel=K  submit mining job, 202 + id
//   GET  /api/v1/jobs/ID                    poll a job (state, progress)
//   DELETE /api/v1/jobs/ID                  cancel / forget a job
//   POST /api/v1/shutdown                   graceful drain
//
// Auth: with a bearer token configured, every /api/v1 request (the
// upgrade included) must carry `Authorization: Bearer <token>` or is
// answered 401 before touching the catalog. Quota: a store past its
// session quota answers 429. Backpressure: each connection's write
// queue is bounded; a peer that stops reading is evicted.

#ifndef GMINE_HTTP_GATEWAY_H_
#define GMINE_HTTP_GATEWAY_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/catalog.h"
#include "http/http.h"
#include "http/jobs.h"
#include "http/reactor.h"
#include "http/websocket.h"
#include "http/worker_pool.h"
#include "net/protocol.h"
#include "storage/buffer_pool.h"
#include "util/status.h"
#include "util/timer.h"

namespace gmine::http {

struct GatewayOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (port()).
  uint16_t port = 0;
  /// Connections admitted at once; more get 503 and an immediate
  /// close. Sized for tens of thousands of idle navigators.
  size_t max_conns = 10000;
  /// Reactor event-loop threads.
  int reactor_threads = 1;
  /// Bearer token required on /api requests; empty = no auth.
  std::string bearer_token;
  /// Per-connection write-queue bound (slow-client eviction).
  size_t max_write_buffer_bytes = 1024 * 1024;
  /// Accept-loop poll / epoll-wait granularity.
  int poll_interval_ms = 50;
  /// Pool reported in /stats; null = the process-wide pool.
  storage::BufferPool* buffer_pool = nullptr;
};

/// Per-endpoint service counters.
struct EndpointStats {
  std::string endpoint;
  uint64_t count = 0;
  uint64_t errors = 0;          // non-2xx responses / failed ops
  uint64_t total_micros = 0;    // summed service time
  uint64_t max_micros = 0;      // slowest single request
};

struct GatewayStats {
  ReactorStats reactor;
  WorkerPoolStats workers;
  uint64_t requests = 0;      // HTTP requests served (uploads included)
  uint64_t upgrades = 0;      // successful WebSocket upgrades
  uint64_t ws_messages = 0;   // WebSocket ops executed
  std::vector<EndpointStats> endpoints;
};

/// The gateway server. The catalog must outlive it.
class Gateway {
 public:
  explicit Gateway(core::Catalog* catalog, GatewayOptions options = {});
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Binds and starts the reactor (its loops and accept thread).
  Status Start();

  uint16_t port() const { return reactor_ ? reactor_->port() : 0; }

  /// Asks the host to stop (POST /api/v1/shutdown lands here too).
  void RequestShutdown();

  /// Blocks until RequestShutdown / Stop.
  void WaitUntilShutdown();

  /// Graceful drain: cancel the mine jobs, stop accepting, finish the
  /// REST requests on the workers, send every WebSocket a 1001 close,
  /// flush and close every connection (their catalog sessions
  /// release), join. Idempotent.
  void Stop();

  GatewayStats stats() const;

  /// The mine jobs; records stay readable after Stop.
  const JobManager& jobs() const { return jobs_; }

 private:
  /// Endpoint identities for the latency counters.
  enum Endpoint : size_t {
    kEpStores = 0,
    kEpStore,
    kEpQuery,
    kEpSummary,
    kEpRenderSvg,
    kEpMine,
    kEpJobs,
    kEpStats,
    kEpUpgrade,
    kEpWsOp,
    kEpOther,
    kEpCount,
  };

  struct EndpointCounter {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> total_micros{0};
    std::atomic<uint64_t> max_micros{0};
  };

  /// How Route disposed of a request.
  enum class Routed {
    kAnswered,  // response filled in
    kUpgraded,  // switched to WebSocket; the 101 is already sent
    kToPool,    // a worker serves it (ServeStore)
  };

  /// Per-connection protocol state. Only the owning loop thread (the
  /// reactor's on_data/on_closed and Resume continuations) touches the
  /// parsers and lease; `is_ws` is read cross-thread by the drain path.
  struct GwConn {
    ConnId id = 0;
    HttpRequestParser http;
    WsFrameParser ws;
    WsMessageAssembler assembler;
    core::CatalogSession lease;
    std::atomic<bool> is_ws{false};
    bool sent_close = false;  // we already sent a WS close frame
  };

  /// The reactor's on_data: false pauses reading the connection.
  bool OnData(ConnId id, std::string_view data);
  void OnClosed(ConnId id);
  /// Serves the connection's parsed requests in order. Returns false
  /// when reading must pause: a request went to the pool (its worker
  /// resumes the connection) or the connection is closing.
  bool ServeQueued(const std::shared_ptr<GwConn>& conn);
  /// Serves one request; returns as ServeQueued.
  bool ServeHttp(const std::shared_ptr<GwConn>& conn, HttpRequest request);
  /// Sends `response` and counts it, from a loop or a worker. Returns
  /// false when the connection closes after it.
  bool Reply(ConnId id, bool keep_alive, const StopWatch& watch,
             Endpoint endpoint, HttpResponse* response);
  /// Routes one HTTP request on the loop.
  Routed Route(const std::shared_ptr<GwConn>& conn,
               const HttpRequest& request, HttpResponse* response,
               Endpoint* endpoint);
  /// The store-leasing endpoints, on a worker: leases the store (which
  /// may open it) for the request's duration.
  void ServeStore(const HttpRequest& request, HttpResponse* response,
                  Endpoint* endpoint);
  /// True when the connection switched to WebSocket (101 sent);
  /// otherwise `response` holds the refusal.
  bool HandleUpgrade(const std::shared_ptr<GwConn>& conn,
                     const HttpRequest& request,
                     const std::string& store, HttpResponse* response);
  void ServeWs(const std::shared_ptr<GwConn>& conn,
               std::string_view data);
  /// Executes one WebSocket op line; returns the JSON-framed reply.
  std::string ExecuteWsOp(const std::shared_ptr<GwConn>& conn,
                          const std::string& line, bool* close_conn);
  std::string StatsJson() const;
  void Observe(Endpoint endpoint, int64_t micros, bool error);
  bool Authorized(const HttpRequest& request) const;

  core::Catalog* catalog_;
  GatewayOptions options_;
  std::unique_ptr<Reactor> reactor_;
  WorkerPool pool_;
  JobManager jobs_;  // runs on pool_, so declared after it

  std::atomic<bool> started_{false};
  bool stopped_ = false;

  mutable std::mutex conns_mu_;
  std::unordered_map<ConnId, std::shared_ptr<GwConn>> conns_;

  std::array<EndpointCounter, kEpCount> endpoint_counters_;
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> upgrades_{0};
  std::atomic<uint64_t> ws_messages_{0};

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
};

}  // namespace gmine::http

#endif  // GMINE_HTTP_GATEWAY_H_
