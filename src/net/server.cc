#include "net/server.h"

#include <algorithm>
#include <chrono>

#include "gtree/navigation.h"
#include "net/session_ops.h"
#include "query/executor.h"
#include "storage/buffer_pool.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace gmine::net {

namespace {

int64_t SteadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One text line sent on accept, before any request. (Hyphenated name:
/// doc transcripts must not look like `gmine <subcommand>` invocations
/// to tools/check_docs_cli.sh.)
constexpr char kGreeting[] = "OK gmine-server protocol=1\n";

}  // namespace

Server::Server(core::SessionManager* pool, ServerOptions options,
               core::Prefetcher* prefetcher)
    : pool_(pool),
      prefetcher_(prefetcher),
      options_(options) {
  if (options_.max_clients < 1) options_.max_clients = 1;
  if (options_.worker_threads <= 0) {
    options_.worker_threads = options_.max_clients;
  }
  if (options_.poll_interval_ms < 1) options_.poll_interval_ms = 1;
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("server already started");
  }
  GMINE_ASSIGN_OR_RETURN(
      listener_, ListenTcp(options_.port, options_.backlog, &port_));
  // Connection-scoped session lifetimes: when the pool reaps or evicts
  // a session owned by one of our connections, close that connection.
  pool_->set_on_session_closed(
      [this](core::SessionId id, core::SessionCloseReason reason) {
        OnSessionClosed(id, reason);
      });
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  housekeeper_thread_ = std::thread([this] { HousekeeperLoop(); });
  workers_.reserve(static_cast<size_t>(options_.worker_threads));
  for (int i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
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
  {
    // stopping_ must flip under queue_mu_: a worker that just evaluated
    // the wait predicate would otherwise miss this notify forever.
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_.store(true);
  }
  RequestShutdown();
  queue_cv_.notify_all();
  listener_.ShutdownBoth();
  {
    // Wake every blocked worker read; teardown happens on the workers.
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [id, conn] : conns_) {
      conn->kill.store(true);
      conn->sock.ShutdownBoth();
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (housekeeper_thread_.joinable()) housekeeper_thread_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Admitted-but-never-served connections still hold sessionless
  // sockets; drop them.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (auto& conn : pending_) {
      (void)conn->sock.WriteAll("ERR Aborted server shutting down\n");
      conn->sock.Close();
    }
    // Dropped pending connections still count as closed so the final
    // stats keep accepted == closed when nothing leaked.
    if (!pending_.empty()) {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      stats_.closed += pending_.size();
    }
    pending_.clear();
  }
  pool_->set_on_session_closed({});
  listener_.Close();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ServerStats out = stats_;
  out.active_now = active_.load();
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

void Server::OnSessionClosed(core::SessionId id,
                             core::SessionCloseReason reason) {
  // A connection-owned session left the pool (idle reap, eviction, or
  // our own teardown close). Shut the socket down so its worker wakes
  // and runs teardown; for the teardown-triggered call the connection
  // is already unregistered and this is a no-op.
  (void)reason;
  std::lock_guard<std::mutex> lock(conns_mu_);
  auto it = session_to_conn_.find(id);
  if (it == session_to_conn_.end()) return;
  auto conn_it = conns_.find(it->second);
  if (conn_it == conns_.end()) return;
  conn_it->second->kill.store(true);
  conn_it->second->sock.ShutdownBoth();
}

void Server::AcceptLoop() {
  while (!stopping_.load()) {
    auto readable = listener_.WaitReadable(options_.poll_interval_ms);
    if (!readable.ok()) break;
    if (!readable.value()) continue;
    auto accepted = AcceptConnection(listener_);
    if (!accepted.ok()) {
      if (accepted.status().IsAborted()) continue;  // spurious wakeup
      break;  // listener closed (shutdown) or fatal
    }
    // active_ moves pending -> active under queue_mu_ (WorkerLoop), so
    // reading both under the same lock makes the cap check atomic
    // against the handoff.
    size_t admitted = 0;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      admitted = active_.load() + pending_.size();
    }
    if (admitted >= static_cast<size_t>(options_.max_clients)) {
      (void)accepted.value().WriteAll("ERR Aborted server at capacity\n");
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.rejected;
      continue;
    }
    auto conn = std::make_shared<Conn>();
    conn->id = next_conn_id_.fetch_add(1);
    conn->sock = std::move(accepted).value();
    conn->last_active.store(SteadyMicros());
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.accepted;
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      pending_.push_back(std::move(conn));
    }
    queue_cv_.notify_one();
  }
}

void Server::HousekeeperLoop() {
  while (!stopping_.load()) {
    std::unique_lock<std::mutex> lock(shutdown_mu_);
    shutdown_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.poll_interval_ms),
        [this] { return stopping_.load(); });
    lock.unlock();
    if (stopping_.load()) return;
    // Session-driven idle reaping: the pool closes sessions idle past
    // its idle_timeout_micros (no-op when 0), and the close hook above
    // tears the owning connections down.
    (void)pool_->CloseIdleSessions();
  }
}

void Server::WorkerLoop() {
  while (true) {
    std::shared_ptr<Conn> conn;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load() || !pending_.empty();
      });
      if (stopping_.load()) return;
      conn = std::move(pending_.front());
      pending_.pop_front();
      // Become active before queue_mu_ drops so the connection is never
      // invisible to the accept thread's cap check.
      active_.fetch_add(1);
    }
    ServeConnection(conn);
  }
}

void Server::ServeConnection(const std::shared_ptr<Conn>& conn) {
  // The caller (WorkerLoop) already counted this connection active.
  auto session = pool_->OpenSession();
  if (!session.ok()) {
    Response rejected;
    rejected.status = session.status();
    (void)conn->sock.WriteAll(EncodeResponse(rejected, /*json=*/false));
    conn->sock.Close();
    active_.fetch_sub(1);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.closed;
    return;
  }
  conn->session = session.value();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_[conn->id] = conn;
    session_to_conn_[conn->session] = conn->id;
  }
  (void)conn->sock.WriteAll(kGreeting);

  LineReader reader;
  char buf[4096];
  bool close_conn = false;
  while (!close_conn && !stopping_.load() && !conn->kill.load()) {
    auto read = conn->sock.ReadSome(buf, sizeof(buf),
                                    options_.poll_interval_ms);
    if (!read.ok() || read.value().eof) break;
    if (read.value().timed_out) continue;
    Status fed = reader.Feed(std::string_view(buf, read.value().bytes));
    if (!fed.ok()) {
      // Oversized line: the stream is unrecoverable, answer once and
      // drop the connection.
      Response poisoned;
      poisoned.status = fed;
      (void)conn->sock.WriteAll(EncodeResponse(poisoned, /*json=*/false));
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.errors;
      break;
    }
    std::string line;
    while (!close_conn && reader.NextLine(&line)) {
      if (TrimWhitespace(line).empty()) continue;  // tolerate bare enters
      StopWatch watch;
      Response response;
      bool json = false;
      bool request_shutdown = false;
      auto request = ParseRequest(line);
      if (!request.ok()) {
        response.status = request.status();
      } else {
        json = request.value().json;
        response = Execute(request.value(), *conn, &close_conn,
                           &request_shutdown);
      }
      const int64_t micros = watch.ElapsedMicros();
      conn->requests.fetch_add(1);
      conn->last_active.store(SteadyMicros());
      // Keepalive: connection-level ops (stats, edit) run outside
      // WithSession and would otherwise let an actively
      // probing client's session go "idle" and be reaped under it. A
      // false return means the pool no longer knows the session (e.g.
      // reaped in the window before this connection registered for the
      // close hook) — the connection is dead weight, drop it.
      if (!pool_->TouchSession(conn->session)) close_conn = true;
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.requests;
        if (!response.status.ok()) ++stats_.errors;
        stats_.total_latency_micros += static_cast<uint64_t>(micros);
        if (static_cast<uint64_t>(micros) > stats_.max_latency_micros) {
          stats_.max_latency_micros = static_cast<uint64_t>(micros);
        }
      }
      if (!conn->sock.WriteAll(EncodeResponse(response, json)).ok()) {
        close_conn = true;
      }
      if (request_shutdown) RequestShutdown();
    }
  }

  // Teardown: unregister first so the close hook below no-ops for our
  // own CloseSession, then release the session and the socket.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    session_to_conn_.erase(conn->session);
    conns_.erase(conn->id);
  }
  // NotFound here means the pool already reaped the session (idle
  // timeout or eviction) — that is the expected hand-off, not a leak.
  (void)pool_->CloseSession(conn->session);
  conn->sock.Close();
  active_.fetch_sub(1);
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.closed;
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
      // Mutations run outside WithSession: the commit path (EditQueue
      // or the host's serialized ApplyEdit) takes the writer side of
      // the epoch gate itself.
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
  if (focus_after != focus_before && options_.prefetch &&
      prefetcher_ != nullptr) {
    // Best-effort hint: the pages one child/load step away.
    (void)prefetcher_->EnqueueChildren(focus_after,
                                       options_.prefetch_fanout);
  }
  return response;
}

Response Server::ExecuteEdit(const Request& request, Conn& conn) {
  Response response;
  if (!options_.writable) {
    response.status = Status::NotSupported(
        "server is read-only (start with --writable on)");
    return response;
  }
  if (!options_.apply_edit || !options_.tip_nodes) {
    response.status =
        Status::Internal("writable server has no edit hook wired");
    return response;
  }
  const std::string_view sub =
      std::string_view(request.arg).substr(0, request.arg.find(' '));
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
    auto ack = options_.apply_edit(std::move(edit), std::move(labels));
    if (!ack.ok()) {
      // The batch is gone either way — a failed commit must not be
      // silently retried against a tip it was not built for.
      response.status = ack.status();
      return response;
    }
    edits_committed_.fetch_add(1, std::memory_order_relaxed);
    edit_ops_committed_.fetch_add(ops, std::memory_order_relaxed);
    response.text = StrFormat(
        "committed ops=%zu lsn=%llu epoch=%llu group=%zu", ops,
        static_cast<unsigned long long>(ack.value().lsn),
        static_cast<unsigned long long>(ack.value().epoch),
        ack.value().group_size);
    return response;
  }
  // A malformed mutation fails without opening a batch.
  auto op = ParseEditOp(request.arg);
  if (!op.ok()) {
    response.status = op.status();
    return response;
  }
  if (conn.pending_edit == nullptr) {
    conn.pending_edit =
        std::make_unique<graph::GraphEdit>(options_.tip_nodes());
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
  if (options_.writable) {
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
