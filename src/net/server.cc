#include "net/server.h"

#include <algorithm>
#include <chrono>

#include "gtree/navigation.h"
#include "net/session_ops.h"
#include "query/executor.h"
#include "storage/buffer_pool.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace gmine::net {

namespace {

int64_t SteadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Leaves queued per focus change when prefetching.
constexpr size_t kPrefetchFanout = 8;

/// One text line sent on accept, before any request. (Hyphenated name:
/// doc transcripts must not look like `gmine <subcommand>` invocations
/// to tools/check_docs_cli.sh.)
constexpr char kGreeting[] = "OK gmine-server protocol=1\n";

/// The first word of an EDIT op's argument ("apply", "add-edge", ...).
std::string_view EditSubOp(const Request& request) {
  return std::string_view(request.arg).substr(0, request.arg.find(' '));
}

/// `edit apply` blocks until its group commits and `query` may run a
/// whole-store kernel: both run on a worker, off the event loop.
bool RunsOnWorker(const Request& request) {
  return request.op == RequestOp::kQuery ||
         (request.op == RequestOp::kEdit && EditSubOp(request) == "apply");
}

}  // namespace

Server::Server(core::SessionManager* pool, ServerOptions options,
               core::Prefetcher* prefetcher, core::EditQueue* edits)
    : pool_(pool),
      prefetcher_(prefetcher),
      edits_(edits),
      options_(options),
      // Sized like the gateway's: at least two, so one long kernel
      // cannot hold the only worker.
      workers_(std::max(2, MaxParallelism())) {
  if (options_.max_clients < 1) options_.max_clients = 1;
  options_.worker_threads = ResolveThreads(options_.worker_threads);
  if (options_.poll_interval_ms < 1) options_.poll_interval_ms = 1;
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("server already started");
  }
  http::ReactorOptions ropts;
  ropts.threads = options_.worker_threads;
  ropts.port = options_.port;
  ropts.max_conns = static_cast<size_t>(options_.max_clients);
  ropts.refusal = "ERR Aborted server at capacity\n";
  // Bounds what a peer that stops reading can queue: one response line
  // of the largest size a client accepts.
  ropts.max_write_buffer_bytes = kMaxResponseLineBytes;
  ropts.poll_interval_ms = options_.poll_interval_ms;
  http::Reactor::Callbacks callbacks;
  callbacks.on_open = [this](http::ConnId id, std::string* greeting) {
    return OnOpen(id, greeting);
  };
  callbacks.on_data = [this](http::ConnId id, std::string_view data) {
    return OnData(id, data);
  };
  callbacks.on_closed = [this](http::ConnId id) { OnClosed(id); };
  // Session-driven idle reaping: the pool closes sessions idle past its
  // idle_timeout_micros (no-op when 0), and the close hook below closes
  // the owning connections.
  callbacks.on_tick = [this] { (void)pool_->CloseIdleSessions(); };
  reactor_ = std::make_unique<http::Reactor>(ropts, std::move(callbacks));
  // Connection-scoped session lifetimes: when the pool reaps or evicts
  // a session owned by one of our connections, close that connection.
  // Our own teardown's CloseSession finds it unregistered already.
  pool_->set_on_session_closed(
      [this](core::SessionId id, core::SessionCloseReason) {
        std::lock_guard<std::mutex> lock(conns_mu_);
        auto it = session_to_conn_.find(id);
        if (it != session_to_conn_.end()) reactor_->Close(it->second);
      });
  Status started = reactor_->Start();
  if (!started.ok()) pool_->set_on_session_closed({});
  return started;
}

void Server::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void Server::WaitUntilShutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void Server::Stop() {
  if (!started_.load() || stopped_) return;
  stopped_ = true;
  RequestShutdown();
  // The ops on workers finish and queue their replies (lines parsed
  // from here on are refused); the reactor then flushes and closes
  // every connection, whose on_closed releases its session.
  reactor_->StopAccepting();
  workers_.Drain();
  reactor_->Stop();
  pool_->set_on_session_closed({});
}

ServerStats Server::stats() const {
  ServerStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  if (reactor_ != nullptr) {
    const http::ReactorStats reactor = reactor_->stats();
    out.accepted = reactor.adopted;
    out.rejected = reactor.rejected;
    out.closed = reactor.closed;
    out.active_now = reactor.open_now;
  }
  return out;
}

std::vector<ConnectionInfo> Server::connections() const {
  std::vector<ConnectionInfo> out;
  const int64_t now = SteadyMicros();
  std::lock_guard<std::mutex> lock(conns_mu_);
  out.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) {
    ConnectionInfo info;
    info.id = id;
    info.session = conn->session;
    info.requests = conn->requests.load();
    info.idle_micros = now - conn->last_active.load();
    out.push_back(info);
  }
  std::sort(out.begin(), out.end(),
            [](const ConnectionInfo& a, const ConnectionInfo& b) {
              return a.id < b.id;
            });
  return out;
}

bool Server::OnOpen(http::ConnId id, std::string* greeting) {
  auto session = pool_->OpenSession();
  if (!session.ok()) {
    Response rejected;
    rejected.status = session.status();
    *greeting = EncodeResponse(rejected, /*json=*/false);
    return false;
  }
  auto conn = std::make_shared<Conn>();
  conn->id = id;
  conn->session = session.value();
  conn->last_active.store(SteadyMicros());
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_[id] = conn;
    session_to_conn_[conn->session] = id;
  }
  *greeting = kGreeting;
  return true;
}

void Server::OnClosed(http::ConnId id) {
  std::shared_ptr<Conn> conn;
  {
    // Unregister first so the close hook below no-ops for our own
    // CloseSession.
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.find(id);
    if (it == conns_.end()) return;  // its session never opened
    conn = std::move(it->second);
    conns_.erase(it);
    session_to_conn_.erase(conn->session);
  }
  // NotFound here means the pool already reaped the session (idle
  // timeout or eviction) — that is the expected hand-off, not a leak.
  (void)pool_->CloseSession(conn->session);
}

bool Server::OnData(http::ConnId id, std::string_view data) {
  std::shared_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.find(id);
    if (it == conns_.end()) return false;  // refused; closing
    conn = it->second;
  }
  Status fed = conn->reader.Feed(data);
  if (!fed.ok()) {
    // Oversized line: the stream is unrecoverable, answer once and
    // drop the connection.
    Response poisoned;
    poisoned.status = fed;
    (void)reactor_->Send(id, EncodeResponse(poisoned, /*json=*/false));
    reactor_->Close(id);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.errors;
    return false;
  }
  return ServeLines(conn);
}

bool Server::ServeLines(const std::shared_ptr<Conn>& conn) {
  std::string line;
  while (conn->reader.NextLine(&line)) {
    if (TrimWhitespace(line).empty()) continue;  // tolerate bare enters
    StopWatch watch;
    gmine::Result<Request> request = ParseRequest(line);
    if (request.ok() && RunsOnWorker(request.value())) {
      // The worker answers, then hands the connection back to its loop,
      // which serves the lines pipelined behind this one.
      const bool submitted = workers_.Submit(
          [this, conn, request = std::move(request).value(), watch] {
            if (Answer(*conn, request, watch)) {
              reactor_->Resume(conn->id,
                               [this, conn] { return ServeLines(conn); });
            }
          });
      if (submitted) return false;
      // The pool drains only in Stop(): refuse the op and close.
      (void)Answer(*conn, Status::Aborted("server shutting down"), watch);
      reactor_->Close(conn->id);
      return false;
    }
    if (!Answer(*conn, request, watch)) return false;
  }
  return true;
}

bool Server::Answer(Conn& conn, const gmine::Result<Request>& request,
                    const StopWatch& watch) {
  Response response;
  bool json = false;
  bool close_conn = false;
  bool request_shutdown = false;
  if (!request.ok()) {
    response.status = request.status();
  } else {
    json = request.value().json;
    response = Execute(request.value(), conn, &close_conn, &request_shutdown);
  }
  const int64_t micros = watch.ElapsedMicros();
  conn.requests.fetch_add(1);
  conn.last_active.store(SteadyMicros());
  // Keepalive: connection-level ops (stats, edit) run outside
  // WithSession and would otherwise let an actively
  // probing client's session go "idle" and be reaped under it. A
  // false return means the pool no longer knows the session (e.g.
  // reaped in the window before this connection registered for the
  // close hook) — the connection is dead weight, drop it.
  if (!pool_->TouchSession(conn.session)) close_conn = true;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests;
    if (!response.status.ok()) ++stats_.errors;
    stats_.total_latency_micros += static_cast<uint64_t>(micros);
    if (static_cast<uint64_t>(micros) > stats_.max_latency_micros) {
      stats_.max_latency_micros = static_cast<uint64_t>(micros);
    }
  }
  if (!reactor_->Send(conn.id, EncodeResponse(response, json))) {
    close_conn = true;
  }
  if (close_conn) reactor_->Close(conn.id);
  if (request_shutdown) RequestShutdown();
  return !close_conn;
}

Response Server::Execute(const Request& request, Conn& conn,
                         bool* close_conn, bool* request_shutdown) {
  Response response;
  switch (request.op) {
    case RequestOp::kShutdown:
      response.text = "shutting down";
      *close_conn = true;
      *request_shutdown = true;
      return response;
    case RequestOp::kStats:
      response.text = StatsText(conn);
      return response;
    case RequestOp::kEdit:
      // Mutations run outside WithSession: the EditQueue's committer
      // takes the writer side of the epoch gate itself.
      return ExecuteEdit(request, conn);
    default:
      break;
  }

  // Everything else runs against the connection's session, where the
  // epoch gate keeps the store still for the whole op.
  *close_conn = request.op == RequestOp::kClose;
  gtree::TreeNodeId focus_before = gtree::kInvalidTreeNode;
  gtree::TreeNodeId focus_after = gtree::kInvalidTreeNode;
  query::QueryStats qs;
  response.status = pool_->WithSession(
      conn.session, [&](gtree::NavigationSession& nav) -> Status {
        if (request.op == RequestOp::kOpen) {
          response.text = StrFormat(
              "session %llu %s", static_cast<unsigned long long>(conn.session),
              FocusText(nav).c_str());
          return Status::OK();
        }
        focus_before = nav.focus();
        Status st = ExecuteSessionOp(request, nav,
                                     query::Executor(nav.store()),
                                     &response, &qs);
        focus_after = nav.focus();
        return st;
      });
  if (!response.status.ok()) return response;
  if (request.op == RequestOp::kQuery) {
    query_count_.fetch_add(1, std::memory_order_relaxed);
    query_rows_.fetch_add(qs.rows_output, std::memory_order_relaxed);
    query_pages_scanned_.fetch_add(qs.pages_scanned,
                                   std::memory_order_relaxed);
    query_pages_pruned_.fetch_add(qs.pages_pruned,
                                  std::memory_order_relaxed);
  }
  if (focus_after != focus_before && prefetcher_ != nullptr) {
    // Best-effort hint: the pages one child/load step away.
    (void)prefetcher_->EnqueueChildren(focus_after, kPrefetchFanout);
  }
  return response;
}

Response Server::ExecuteEdit(const Request& request, Conn& conn) {
  Response response;
  if (edits_ == nullptr) {
    response.status = Status::NotSupported(
        "server is read-only (start with --writable on)");
    return response;
  }
  const std::string_view sub = EditSubOp(request);
  if (sub == "abort") {
    response.text = StrFormat(
        "aborted ops=%zu",
        conn.pending_edit != nullptr ? conn.pending_edit->num_ops() : 0);
    conn.pending_edit.reset();
    conn.pending_labels.clear();
    return response;
  }
  if (sub == "apply") {
    if (conn.pending_edit == nullptr || conn.pending_edit->empty()) {
      conn.pending_edit.reset();
      conn.pending_labels.clear();
      response.text = "nothing to apply";
      return response;
    }
    graph::GraphEdit edit = std::move(*conn.pending_edit);
    std::vector<std::string> labels = std::move(conn.pending_labels);
    conn.pending_edit.reset();
    conn.pending_labels = {};
    const size_t ops = edit.num_ops();
    // The batch is gone either way — a failed commit must not be
    // silently retried against a tip it was not built for.
    auto submitted = edits_->Submit(
        std::move(edit), conn.pending_remap_epoch, std::move(labels));
    if (!submitted.ok()) {
      response.status = submitted.status();
      return response;
    }
    const core::EditCommit commit = submitted.value().get();
    if (!commit.status.ok()) {
      response.status = commit.status;
      return response;
    }
    edits_committed_.fetch_add(1, std::memory_order_relaxed);
    edit_ops_committed_.fetch_add(ops, std::memory_order_relaxed);
    response.text = StrFormat(
        "committed ops=%zu lsn=%llu epoch=%llu group=%zu", ops,
        static_cast<unsigned long long>(commit.lsn),
        static_cast<unsigned long long>(commit.epoch), commit.group_size);
    return response;
  }
  // A malformed mutation fails without opening a batch.
  auto op = ParseEditOp(request.arg);
  if (!op.ok()) {
    response.status = op.status();
    return response;
  }
  if (conn.pending_edit == nullptr) {
    // The base and the epoch come from one read: a node removal that
    // commits before this batch applies must reject it.
    const core::EditTip tip = edits_->tip();
    conn.pending_edit = std::make_unique<graph::GraphEdit>(tip.nodes);
    conn.pending_remap_epoch = tip.remap_epoch;
  }
  const graph::NodeId id =
      QueueEditOp(op.value(), conn.pending_edit.get(), &conn.pending_labels);
  std::string target;
  switch (op.value().kind) {
    case EditOp::Kind::kAddNode:
      target = StrFormat("id=%u", id);
      break;
    case EditOp::Kind::kRemoveNode:
      target = StrFormat("%u", id);
      break;
    default:
      target = StrFormat("%u-%u", op.value().u, op.value().v);
      break;
  }
  response.text = StrFormat("queued %.*s %s ops=%zu",
                            static_cast<int>(sub.size()), sub.data(),
                            target.c_str(), conn.pending_edit->num_ops());
  return response;
}

std::string Server::StatsText(const Conn& conn) const {
  ServerStats server = stats();
  const core::SessionPoolStats pool = pool_->stats();
  const gtree::GTreeStoreStats store = pool_->store().stats();
  const uint64_t avg =
      server.requests > 0 ? server.total_latency_micros / server.requests
                          : 0;
  std::string out = StrFormat(
      "conn id=%llu requests=%llu | server active=%zu accepted=%llu "
      "rejected=%llu closed=%llu requests=%llu errors=%llu "
      "latency_avg_us=%llu latency_max_us=%llu",
      static_cast<unsigned long long>(conn.id),
      static_cast<unsigned long long>(conn.requests.load()),
      server.active_now,
      static_cast<unsigned long long>(server.accepted),
      static_cast<unsigned long long>(server.rejected),
      static_cast<unsigned long long>(server.closed),
      static_cast<unsigned long long>(server.requests),
      static_cast<unsigned long long>(server.errors),
      static_cast<unsigned long long>(avg),
      static_cast<unsigned long long>(server.max_latency_micros));
  out += StrFormat(
      " | pool open=%zu opened=%llu closed=%llu evicted=%llu "
      "idle_closed=%llu",
      pool.open_now, static_cast<unsigned long long>(pool.opened),
      static_cast<unsigned long long>(pool.closed),
      static_cast<unsigned long long>(pool.evicted),
      static_cast<unsigned long long>(pool.idle_closed));
  out += StrFormat(
      " | store leaf_loads=%llu cache_hits=%llu shared_hits=%llu "
      "bytes_read=%llu evictions=%llu resident_bytes=%llu "
      "pinned_bytes=%llu",
      static_cast<unsigned long long>(store.leaf_loads),
      static_cast<unsigned long long>(store.cache_hits),
      static_cast<unsigned long long>(store.shared_hits),
      static_cast<unsigned long long>(store.bytes_read),
      static_cast<unsigned long long>(store.evictions),
      static_cast<unsigned long long>(store.resident_bytes),
      static_cast<unsigned long long>(store.pinned_bytes));
  const storage::BufferPoolStats bp =
      pool_->store().buffer_pool().stats();
  out += StrFormat(
      " | buffer_pool budget_bytes=%llu resident_bytes=%llu "
      "pinned_bytes=%llu stores=%zu evictions=%llu backpressure=%llu",
      static_cast<unsigned long long>(bp.budget_bytes),
      static_cast<unsigned long long>(bp.resident_bytes),
      static_cast<unsigned long long>(bp.pinned_bytes), bp.stores,
      static_cast<unsigned long long>(bp.evictions),
      static_cast<unsigned long long>(bp.backpressure));
  out += StrFormat(
      " | query count=%llu rows=%llu pages_scanned=%llu pruned=%llu",
      static_cast<unsigned long long>(
          query_count_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          query_rows_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          query_pages_scanned_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          query_pages_pruned_.load(std::memory_order_relaxed)));
  if (edits_ != nullptr) {
    out += StrFormat(
        " | edits committed=%llu ops=%llu",
        static_cast<unsigned long long>(
            edits_committed_.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            edit_ops_committed_.load(std::memory_order_relaxed)));
  }
  if (prefetcher_ != nullptr) {
    const core::PrefetchStats pf = prefetcher_->stats();
    out += StrFormat(
        " | prefetch enqueued=%llu loaded=%llu cached=%llu dropped=%llu",
        static_cast<unsigned long long>(pf.enqueued),
        static_cast<unsigned long long>(pf.loaded),
        static_cast<unsigned long long>(pf.already_cached),
        static_cast<unsigned long long>(pf.dropped));
  }
  if (options_.extra_stats) {
    std::string extra = options_.extra_stats();
    if (!extra.empty()) out += " | " + extra;
  }
  return out;
}

}  // namespace gmine::net
