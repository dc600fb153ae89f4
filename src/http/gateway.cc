#include "http/gateway.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <utility>

#include "core/views.h"
#include "net/session_ops.h"
#include "query/executor.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace gmine::http {

namespace {

const char* const kEndpointNames[] = {
    "stores", "store", "query",      "summary", "render-svg", "mine",
    "jobs",   "stats", "ws-upgrade", "ws-op",   "other",
};

int HttpStatusFor(const Status& status) {
  if (status.ok()) return 200;
  if (status.IsNotFound()) return 404;
  if (status.IsInvalidArgument()) return 400;
  if (status.IsAborted()) return 429;      // quota / capacity
  if (status.IsNotSupported()) return 405;
  if (status.IsOutOfRange()) return 413;
  return 500;
}

void FillError(const Status& status, HttpResponse* response) {
  response->status = HttpStatusFor(status);
  response->content_type = "application/json";
  response->body = StrFormat(
      "{\"error\":\"%s\",\"code\":\"%s\"}\n",
      net::JsonEscape(status.message()).c_str(),
      StatusCodeName(status.code()));
}

bool TokenEquals(std::string_view a, std::string_view b) {
  // Length-leaking but content-constant comparison; good enough for a
  // loopback gateway token.
  if (a.size() != b.size()) return false;
  unsigned char diff = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff = static_cast<unsigned char>(diff | (a[i] ^ b[i]));
  }
  return diff == 0;
}

/// Splits "/api/stores/NAME[/TAIL]" after the fixed prefix into
/// NAME and TAIL ("" when absent).
void SplitStorePath(std::string_view rest, std::string* name,
                    std::string* tail) {
  const size_t slash = rest.find('/');
  if (slash == std::string_view::npos) {
    *name = std::string(rest);
    tail->clear();
  } else {
    *name = std::string(rest.substr(0, slash));
    *tail = std::string(rest.substr(slash + 1));
  }
}

std::string StoreInfoJson(const core::CatalogStoreInfo& info) {
  return StrFormat(
      "{\"name\":\"%s\",\"open\":%s,\"sessions\":%zu,\"quota\":%zu,"
      "\"file_size\":%llu,\"communities\":%u,\"leaves\":%u,"
      "\"height\":%u,\"labels\":%zu}",
      net::JsonEscape(info.name).c_str(), info.open ? "true" : "false",
      info.live_sessions, info.quota,
      static_cast<unsigned long long>(info.file_size), info.communities,
      info.leaves, info.height, info.labels);
}

std::string JobJson(const MineJobInfo& info) {
  std::string out = StrFormat(
      "{\"job\":%llu,\"store\":\"%s\",\"kernel\":\"%s\","
      "\"state\":\"%s\",\"engine\":\"%s\",\"progress\":{"
      "\"iteration\":%u,\"pages_scanned\":%llu,\"pages_total\":%llu,"
      "\"delta\":%.6g}",
      static_cast<unsigned long long>(info.id),
      net::JsonEscape(info.store).c_str(),
      net::JsonEscape(info.kernel).c_str(),
      net::JsonEscape(info.state).c_str(),
      net::JsonEscape(info.engine).c_str(), info.progress.iteration,
      static_cast<unsigned long long>(info.progress.pages_scanned),
      static_cast<unsigned long long>(info.progress.pages_total),
      info.progress.delta);
  if (!info.result_json.empty()) {
    out += ",\"result\":" + info.result_json;
  }
  if (!info.error.empty()) {
    out += StrFormat(",\"error\":\"%s\"",
                     net::JsonEscape(info.error).c_str());
  }
  out += "}\n";
  return out;
}

}  // namespace

Gateway::Gateway(core::Catalog* catalog, GatewayOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      // At least two workers, so one long mine job cannot hold the
      // only one.
      pool_(std::max(2, MaxParallelism())),
      jobs_(catalog, &pool_) {
  if (options_.reactor_threads < 1) options_.reactor_threads = 1;
}

Gateway::~Gateway() { Stop(); }

Status Gateway::Start() {
  if (started_.exchange(true)) {
    return Status::Internal("gateway already started");
  }
  ReactorOptions ropts;
  ropts.threads = options_.reactor_threads;
  ropts.port = options_.port;
  ropts.max_conns = options_.max_conns;
  HttpResponse busy;
  busy.status = 503;
  busy.keep_alive = false;
  busy.content_type = "application/json";
  busy.body = "{\"error\":\"gateway at connection capacity\"}\n";
  ropts.refusal = EncodeResponse(busy);
  ropts.max_write_buffer_bytes = options_.max_write_buffer_bytes;
  ropts.poll_interval_ms = options_.poll_interval_ms;
  Reactor::Callbacks callbacks;
  callbacks.on_open = [this](ConnId id, std::string*) {
    auto conn = std::make_shared<GwConn>();
    conn->id = id;
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.emplace(id, std::move(conn));
    return true;
  };
  callbacks.on_data = [this](ConnId id, std::string_view data) {
    return OnData(id, data);
  };
  callbacks.on_closed = [this](ConnId id) { OnClosed(id); };
  reactor_ = std::make_unique<Reactor>(ropts, std::move(callbacks));
  GMINE_RETURN_IF_ERROR(reactor_->Start());
  return Status::OK();
}

bool Gateway::OnData(ConnId id, std::string_view data) {
  std::shared_ptr<GwConn> conn;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.find(id);
    if (it == conns_.end()) return false;
    conn = it->second;
  }
  if (conn->is_ws.load(std::memory_order_acquire)) {
    ServeWs(conn, data);
    return true;
  }
  if (!conn->http.Feed(data).ok()) {
    HttpResponse bad;
    bad.status = 400;
    bad.keep_alive = false;
    bad.content_type = "application/json";
    bad.body = "{\"error\":\"malformed HTTP request\"}\n";
    (void)reactor_->Send(id, EncodeResponse(bad));
    reactor_->Close(id);
    return true;
  }
  return ServeQueued(conn);
}

bool Gateway::ServeQueued(const std::shared_ptr<GwConn>& conn) {
  while (conn->http.HasRequest()) {
    if (!ServeHttp(conn, conn->http.TakeRequest())) return false;
    if (conn->is_ws.load(std::memory_order_acquire)) {
      // Bytes pipelined behind the upgrade belong to the frame layer.
      const std::string leftover = conn->http.TakeBuffered();
      if (!leftover.empty()) ServeWs(conn, leftover);
      return true;
    }
  }
  return true;
}

bool Gateway::ServeHttp(const std::shared_ptr<GwConn>& conn,
                        HttpRequest request) {
  StopWatch watch;
  requests_.fetch_add(1, std::memory_order_relaxed);
  const bool keep_alive = request.keep_alive;
  HttpResponse response;
  Endpoint endpoint = kEpOther;
  switch (Route(conn, request, &response, &endpoint)) {
    case Routed::kUpgraded:
      Observe(kEpUpgrade, watch.ElapsedMicros(), /*error=*/false);
      return true;
    case Routed::kToPool: {
      // The worker answers, then hands the connection back to its loop,
      // which serves the requests pipelined behind this one.
      const bool submitted = pool_.Submit(
          [this, conn, request = std::move(request), watch] {
            HttpResponse reply;
            Endpoint served = kEpOther;
            ServeStore(request, &reply, &served);
            if (Reply(conn->id, request.keep_alive, watch, served, &reply)) {
              reactor_->Resume(conn->id,
                               [this, conn] { return ServeQueued(conn); });
            }
          });
      if (submitted) return false;
      response.status = 503;  // the pool is draining
      response.content_type = "application/json";
      response.body = "{\"error\":\"gateway shutting down\"}\n";
      break;
    }
    case Routed::kAnswered:
      break;
  }
  return Reply(conn->id, keep_alive, watch, endpoint, &response);
}

bool Gateway::Reply(ConnId id, bool keep_alive, const StopWatch& watch,
                    Endpoint endpoint, HttpResponse* response) {
  // A route may close the connection itself (POST /api/v1/shutdown).
  response->keep_alive =
      response->keep_alive && keep_alive && response->status != 503;
  (void)reactor_->Send(id, EncodeResponse(*response));
  if (!response->keep_alive) reactor_->Close(id);
  Observe(endpoint, watch.ElapsedMicros(), response->status >= 400);
  return response->keep_alive;
}

bool Gateway::Authorized(const HttpRequest& request) const {
  if (options_.bearer_token.empty()) return true;
  const std::string_view header = request.Header("authorization");
  constexpr std::string_view kPrefix = "Bearer ";
  if (header.size() <= kPrefix.size() ||
      header.substr(0, kPrefix.size()) != kPrefix) {
    return false;
  }
  return TokenEquals(header.substr(kPrefix.size()),
                     options_.bearer_token);
}

Gateway::Routed Gateway::Route(const std::shared_ptr<GwConn>& conn,
                               const HttpRequest& request,
                               HttpResponse* response, Endpoint* endpoint) {
  const std::string& path = request.path;

  if (path == "/stats") {
    *endpoint = kEpStats;
    if (request.method != "GET") {
      FillError(Status::NotSupported("use GET"), response);
      return Routed::kAnswered;
    }
    response->content_type = "application/json";
    response->body = StatsJson();
    return Routed::kAnswered;
  }

  if (path.rfind("/api/", 0) != 0) {
    FillError(Status::NotFound("no such endpoint"), response);
    return Routed::kAnswered;
  }

  if (!Authorized(request)) {
    response->status = 401;
    response->content_type = "application/json";
    response->extra_headers.emplace_back("WWW-Authenticate", "Bearer");
    response->body = "{\"error\":\"missing or bad bearer token\"}\n";
    return Routed::kAnswered;
  }

  if (path == "/api/v1/shutdown") {
    if (request.method != "POST") {
      FillError(Status::NotSupported("use POST"), response);
      return Routed::kAnswered;
    }
    response->content_type = "application/json";
    response->body = "{\"ok\":true,\"text\":\"shutting down\"}\n";
    response->keep_alive = false;
    RequestShutdown();
    return Routed::kAnswered;
  }

  if (path.rfind("/api/v1/jobs/", 0) == 0) {
    *endpoint = kEpJobs;
    uint64_t job_id = 0;
    if (!ParseUint64(path.substr(strlen("/api/v1/jobs/")), &job_id)) {
      FillError(Status::InvalidArgument("job id must be an integer"),
                response);
      return Routed::kAnswered;
    }
    if (request.method == "GET") {
      auto info = jobs_.Get(job_id);
      if (!info.ok()) {
        FillError(info.status(), response);
        return Routed::kAnswered;
      }
      response->content_type = "application/json";
      response->body = JobJson(info.value());
      return Routed::kAnswered;
    }
    if (request.method == "DELETE") {
      bool removed = false;
      auto info = jobs_.Cancel(job_id, &removed);
      if (!info.ok()) {
        FillError(info.status(), response);
        return Routed::kAnswered;
      }
      // 202: the job was waiting (it reads cancelled now) or running
      // (it winds down; poll it). 200: the finished job's record was
      // removed.
      response->status = removed ? 200 : 202;
      response->content_type = "application/json";
      response->body = JobJson(info.value());
      return Routed::kAnswered;
    }
    FillError(Status::NotSupported("use GET or DELETE"), response);
    return Routed::kAnswered;
  }

  if (path == "/api/v1/stores") {
    *endpoint = kEpStores;
    if (request.method != "GET") {
      FillError(Status::NotSupported("use GET"), response);
      return Routed::kAnswered;
    }
    std::string body = "{\"stores\":[";
    bool first = true;
    for (const core::CatalogStoreInfo& info : catalog_->ListStores()) {
      if (!first) body += ",";
      first = false;
      body += StrFormat(
          "{\"name\":\"%s\",\"open\":%s,\"sessions\":%zu,\"quota\":%zu}",
          net::JsonEscape(info.name).c_str(),
          info.open ? "true" : "false", info.live_sessions, info.quota);
    }
    body += "]}\n";
    response->content_type = "application/json";
    response->body = std::move(body);
    return Routed::kAnswered;
  }

  if (path.rfind("/api/v1/stores/", 0) != 0) {
    FillError(Status::NotFound("no such endpoint"), response);
    return Routed::kAnswered;
  }
  std::string store_name, tail;
  SplitStorePath(std::string_view(path).substr(strlen("/api/v1/stores/")),
                 &store_name, &tail);

  if (tail == "ws") {
    *endpoint = kEpUpgrade;
    return HandleUpgrade(conn, request, store_name, response)
               ? Routed::kUpgraded
               : Routed::kAnswered;
  }

  if (tail == "mine") {
    *endpoint = kEpMine;
    if (request.method != "POST") {
      FillError(Status::NotSupported("use POST"), response);
      return Routed::kAnswered;
    }
    std::string kernel = "pagerank";
    uint64_t top_k = 10;
    auto it = request.query.find("kernel");
    if (it != request.query.end()) kernel = it->second;
    it = request.query.find("top");
    if (it != request.query.end() && !ParseUint64(it->second, &top_k)) {
      FillError(Status::InvalidArgument("top must be an integer"),
                response);
      return Routed::kAnswered;
    }
    auto job_id = jobs_.Submit(store_name, kernel,
                               static_cast<uint32_t>(top_k));
    if (!job_id.ok()) {
      FillError(job_id.status(), response);
      return Routed::kAnswered;
    }
    response->status = 202;  // accepted: poll /api/v1/jobs/ID
    response->content_type = "application/json";
    response->extra_headers.emplace_back(
        "Location", StrFormat("/api/v1/jobs/%llu",
                              (unsigned long long)job_id.value()));
    response->body = StrFormat(
        "{\"job\":%llu,\"kernel\":\"%s\",\"store\":\"%s\","
        "\"poll\":\"/api/v1/jobs/%llu\"}\n",
        (unsigned long long)job_id.value(),
        net::JsonEscape(kernel).c_str(),
        net::JsonEscape(store_name).c_str(),
        (unsigned long long)job_id.value());
    return Routed::kAnswered;
  }

  // Store info, query, summary and render.svg lease the store: a
  // worker runs them (ServeStore).
  return Routed::kToPool;
}

void Gateway::ServeStore(const HttpRequest& request,
                         HttpResponse* response, Endpoint* endpoint) {
  std::string store_name, tail;
  SplitStorePath(
      std::string_view(request.path).substr(strlen("/api/v1/stores/")),
      &store_name, &tail);
  // The REST endpoints lease a session for the request's duration:
  // the store opens lazily and closes again when the last lease goes.
  auto lease = catalog_->AcquireSession(store_name);
  if (!lease.ok()) {
    *endpoint = tail.empty() ? kEpStore : kEpOther;
    FillError(lease.status(), response);
    return;
  }
  core::CatalogSession session = std::move(lease).value();

  if (tail.empty()) {
    *endpoint = kEpStore;
    if (request.method != "GET") {
      FillError(Status::NotSupported("use GET"), response);
      return;
    }
    auto info = catalog_->Info(store_name);
    if (!info.ok()) {
      FillError(info.status(), response);
      return;
    }
    response->content_type = "application/json";
    response->body = StoreInfoJson(info.value()) + "\n";
    return;
  }

  if (tail == "query") {
    *endpoint = kEpQuery;
    std::string statement;
    if (request.method == "POST") {
      statement = request.body;
    } else if (request.method == "GET") {
      auto it = request.query.find("q");
      if (it != request.query.end()) statement = it->second;
    } else {
      FillError(Status::NotSupported("use GET ?q= or POST"), response);
      return;
    }
    if (statement.empty()) {
      FillError(
          Status::InvalidArgument("query expects a GQL statement"),
          response);
      return;
    }
    query::Executor executor(session.store());
    auto result = executor.ExecuteText(statement);
    if (!result.ok()) {
      FillError(result.status(), response);
      return;
    }
    response->content_type = "application/json";
    response->body = query::ResultToJson(result.value()) + "\n";
    return;
  }

  if (tail == "summary" || tail == "render.svg") {
    const bool svg = tail == "render.svg";
    *endpoint = svg ? kEpRenderSvg : kEpSummary;
    if (request.method != "GET") {
      FillError(Status::NotSupported("use GET"), response);
      return;
    }
    std::string node;
    auto it = request.query.find("node");
    if (it != request.query.end()) node = it->second;
    Status status = session.With([&](gtree::NavigationSession& nav)
                                     -> Status {
      const gtree::GTree& tree = nav.store()->tree();
      if (!node.empty()) {
        const gtree::TreeNodeId id = tree.FindByName(node);
        if (id == gtree::kInvalidTreeNode) {
          return Status::NotFound(
              StrFormat("community '%s' not found", node.c_str()));
        }
        GMINE_RETURN_IF_ERROR(nav.FocusNode(id));
      }
      const gtree::TreeNode& focus = tree.node(nav.focus());
      if (svg) {
        auto doc = core::HierarchyViewSvgString(
            tree, nav.context(), nav.store()->connectivity());
        if (!doc.ok()) return doc.status();
        response->content_type = "image/svg+xml";
        response->body = std::move(doc).value();
        return Status::OK();
      }
      std::vector<std::string> names;
      for (gtree::TreeNodeId id : tree.PathFromRoot(nav.focus())) {
        names.push_back(tree.node(id).name);
      }
      response->content_type = "application/json";
      response->body = StrFormat(
          "{\"focus\":\"%s\",\"depth\":%u,\"children\":%zu,"
          "\"display\":%zu,\"path\":\"%s\"}\n",
          net::JsonEscape(focus.name).c_str(), focus.depth,
          focus.children.size(), nav.context().DisplaySize(),
          net::JsonEscape(JoinStrings(names, "/")).c_str());
      return Status::OK();
    });
    if (!status.ok()) FillError(status, response);
    return;
  }

  FillError(Status::NotFound("no such endpoint"), response);
}

bool Gateway::HandleUpgrade(const std::shared_ptr<GwConn>& conn,
                            const HttpRequest& request,
                            const std::string& store,
                            HttpResponse* response) {
  auto header_token = [&](std::string_view name, std::string_view want) {
    // Comma-separated token list, case-insensitive match.
    std::string value = std::string(request.Header(name));
    for (char& c : value) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    std::string needle(want);
    return (" " + value + ",").find(" " + needle + ",") !=
               std::string::npos ||
           value == needle;
  };
  const std::string key = std::string(request.Header("sec-websocket-key"));
  if (request.method != "GET" || !header_token("upgrade", "websocket") ||
      key.empty()) {
    response->status = 426;
    response->content_type = "application/json";
    response->extra_headers.emplace_back("Upgrade", "websocket");
    response->body = "{\"error\":\"websocket upgrade required\"}\n";
    return false;
  }
  if (request.Header("sec-websocket-version") != "13") {
    FillError(Status::InvalidArgument("unsupported websocket version"),
              response);
    return false;
  }
  auto lease = catalog_->AcquireSession(store);
  if (!lease.ok()) {
    FillError(lease.status(), response);
    return false;
  }
  conn->lease = std::move(lease).value();

  // Hand-rolled 101: the Connection header must say Upgrade here, not
  // keep-alive/close, so the generic encoder does not fit.
  std::string wire = StrFormat("HTTP/1.1 101 Switching Protocols\r\n"
                               "Upgrade: websocket\r\n"
                               "Connection: Upgrade\r\n"
                               "Sec-WebSocket-Accept: %s\r\n\r\n",
                               WebSocketAcceptKey(key).c_str());
  (void)reactor_->Send(conn->id, wire);
  conn->is_ws.store(true, std::memory_order_release);
  upgrades_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Gateway::ServeWs(const std::shared_ptr<GwConn>& conn,
                      std::string_view data) {
  if (!conn->ws.Feed(data).ok()) {
    if (!conn->sent_close) {
      (void)reactor_->Send(conn->id,
                           EncodeWsClose(1002, "protocol error"));
      conn->sent_close = true;
    }
    reactor_->Close(conn->id);
    return;
  }
  while (conn->ws.HasFrame()) {
    auto message = conn->assembler.OnFrame(conn->ws.TakeFrame());
    if (!message.ok()) {
      if (!conn->sent_close) {
        (void)reactor_->Send(conn->id,
                             EncodeWsClose(1002, "protocol error"));
        conn->sent_close = true;
      }
      reactor_->Close(conn->id);
      return;
    }
    if (!message.value().ready) continue;
    const WsOpcode opcode = message.value().opcode;
    std::string payload = std::move(message.value().payload);
    switch (opcode) {
      case WsOpcode::kPing:
        (void)reactor_->Send(conn->id,
                             EncodeWsFrame(WsOpcode::kPong, payload));
        continue;
      case WsOpcode::kPong:
        continue;  // keepalive ack; nothing to do
      case WsOpcode::kClose: {
        if (!conn->sent_close) {
          // Echo the close handshake, then drop after the flush.
          uint16_t code = 1000;
          std::string reason;
          ParseWsClose(payload, &code, &reason);
          (void)reactor_->Send(
              conn->id,
              EncodeWsClose(code == 1005 ? 1000 : code, ""));
          conn->sent_close = true;
        }
        reactor_->Close(conn->id);
        return;
      }
      case WsOpcode::kText: {
        StopWatch watch;
        ws_messages_.fetch_add(1, std::memory_order_relaxed);
        bool close_conn = false;
        const std::string reply =
            ExecuteWsOp(conn, payload, &close_conn);
        (void)reactor_->Send(conn->id,
                             EncodeWsFrame(WsOpcode::kText, reply));
        Observe(kEpWsOp, watch.ElapsedMicros(),
                reply.find("\"ok\":false") != std::string::npos);
        if (close_conn) {
          if (!conn->sent_close) {
            (void)reactor_->Send(conn->id, EncodeWsClose(1000, "bye"));
            conn->sent_close = true;
          }
          reactor_->Close(conn->id);
          return;
        }
        continue;
      }
      case WsOpcode::kBinary: {
        if (!conn->sent_close) {
          (void)reactor_->Send(
              conn->id, EncodeWsClose(1003, "text frames only"));
          conn->sent_close = true;
        }
        reactor_->Close(conn->id);
        return;
      }
      default:
        continue;
    }
  }
}

std::string Gateway::ExecuteWsOp(const std::shared_ptr<GwConn>& conn,
                                 const std::string& line,
                                 bool* close_conn) {
  net::Response response;
  auto parsed = net::ParseRequest(line);
  if (!parsed.ok()) {
    response.status = parsed.status();
  } else {
    const net::Request& request = parsed.value();
    switch (request.op) {
      case net::RequestOp::kShutdown:
      case net::RequestOp::kEdit:
        response.status = Status::NotSupported(
            "not available over the gateway websocket");
        break;
      case net::RequestOp::kStats:
        response.text = StrFormat(
            "store=%s session=%llu", conn->lease.store_name().c_str(),
            static_cast<unsigned long long>(conn->lease.id()));
        break;
      default:
        // Session ops against the pinned catalog session — the one
        // dispatcher the line-protocol server runs too.
        *close_conn = request.op == net::RequestOp::kClose;
        response.status = conn->lease.With(
            [&](gtree::NavigationSession& nav) -> Status {
              if (request.op == net::RequestOp::kOpen) {
                response.text = StrFormat(
                    "session %llu store=%s %s",
                    static_cast<unsigned long long>(conn->lease.id()),
                    conn->lease.store_name().c_str(),
                    net::FocusText(nav).c_str());
                return Status::OK();
              }
              const query::Executor queries(nav.store());
              return net::ExecuteSessionOp(request, nav, queries,
                                           &response);
            });
        break;
    }
  }
  // The line protocol's JSON framing, newline stripped (the frame is
  // the delimiter on this transport).
  std::string encoded = net::EncodeResponse(response, /*json=*/true);
  while (!encoded.empty() && encoded.back() == '\n') encoded.pop_back();
  return encoded;
}

void Gateway::OnClosed(ConnId id) {
  std::shared_ptr<GwConn> conn;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    conn = std::move(it->second);
    conns_.erase(it);
  }
  conn->lease.Release();  // store may close here (last ref)
}

void Gateway::RequestShutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  shutdown_requested_ = true;
  shutdown_cv_.notify_all();
}

void Gateway::WaitUntilShutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void Gateway::Stop() {
  if (!started_.load() || stopped_) return;
  // Waiting jobs settle cancelled, running ones stop at their next
  // cancellation check; their leases release.
  jobs_.Shutdown();
  reactor_->StopAccepting();
  // In-flight REST requests finish and queue their replies, which the
  // reactor flushes below; requests parsed from here on answer 503.
  pool_.Drain();
  // Graceful drain: every live WebSocket gets a 1001 going-away close,
  // flushed by the reactor's final drain pass.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [id, conn] : conns_) {
      if (conn->is_ws.load(std::memory_order_acquire) &&
          !conn->sent_close) {
        (void)reactor_->Send(id, EncodeWsClose(1001, "server shutdown"));
        conn->sent_close = true;
      }
    }
  }
  reactor_->Stop();  // fires on_closed for the rest -> leases release
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [id, conn] : conns_) conn->lease.Release();
    conns_.clear();
  }
  RequestShutdown();
  stopped_ = true;
}

void Gateway::Observe(Endpoint endpoint, int64_t micros, bool error) {
  EndpointCounter& counter = endpoint_counters_[endpoint];
  counter.count.fetch_add(1, std::memory_order_relaxed);
  if (error) counter.errors.fetch_add(1, std::memory_order_relaxed);
  const uint64_t us = micros < 0 ? 0 : static_cast<uint64_t>(micros);
  counter.total_micros.fetch_add(us, std::memory_order_relaxed);
  uint64_t seen = counter.max_micros.load(std::memory_order_relaxed);
  while (us > seen && !counter.max_micros.compare_exchange_weak(
                          seen, us, std::memory_order_relaxed)) {
  }
}

std::string Gateway::StatsJson() const {
  const ReactorStats reactor = reactor_->stats();
  const WorkerPoolStats workers = pool_.stats();
  const core::CatalogStats catalog = catalog_->stats();
  storage::BufferPool& pool = options_.buffer_pool != nullptr
                                  ? *options_.buffer_pool
                                  : storage::BufferPool::Global();
  const storage::BufferPoolStats pstats = pool.stats();
  std::string out = StrFormat(
      "{\"gateway\":{\"connections\":%zu,\"adopted\":%llu,"
      "\"closed\":%llu,\"evicted_slow\":%llu,\"rejected\":%llu,"
      "\"requests\":%llu,\"upgrades\":%llu,\"ws_messages\":%llu},",
      reactor.open_now, (unsigned long long)reactor.adopted,
      (unsigned long long)reactor.closed,
      (unsigned long long)reactor.evicted_slow,
      (unsigned long long)reactor.rejected,
      (unsigned long long)requests_.load(),
      (unsigned long long)upgrades_.load(),
      (unsigned long long)ws_messages_.load());
  out += StrFormat(
      "\"workers\":{\"threads\":%zu,\"queued\":%zu,\"running\":%zu,"
      "\"completed\":%llu},",
      workers.threads, workers.queued, workers.running,
      (unsigned long long)workers.completed);
  out += StrFormat(
      "\"catalog\":{\"stores\":%zu,\"open_now\":%zu,"
      "\"sessions_now\":%zu,\"opens\":%llu,\"closes\":%llu,"
      "\"leases\":%llu,\"quota_rejections\":%llu},",
      catalog.stores, catalog.open_now, catalog.sessions_now,
      (unsigned long long)catalog.opens,
      (unsigned long long)catalog.closes,
      (unsigned long long)catalog.leases,
      (unsigned long long)catalog.quota_rejections);
  out += StrFormat(
      "\"pool\":{\"budget_bytes\":%llu,\"resident_bytes\":%llu,"
      "\"stores\":%zu,\"hits\":%llu,\"misses\":%llu,\"loads\":%llu,"
      "\"evictions\":%llu,\"private_reads\":%llu},\"endpoints\":[",
      (unsigned long long)pstats.budget_bytes,
      (unsigned long long)pstats.resident_bytes, pstats.stores,
      (unsigned long long)pstats.hits, (unsigned long long)pstats.misses,
      (unsigned long long)pstats.loads,
      (unsigned long long)pstats.evictions,
      (unsigned long long)pstats.private_reads);
  for (size_t i = 0; i < kEpCount; ++i) {
    const EndpointCounter& counter = endpoint_counters_[i];
    if (i > 0) out += ",";
    out += StrFormat(
        "{\"endpoint\":\"%s\",\"count\":%llu,\"errors\":%llu,"
        "\"total_micros\":%llu,\"max_micros\":%llu}",
        kEndpointNames[i],
        (unsigned long long)counter.count.load(),
        (unsigned long long)counter.errors.load(),
        (unsigned long long)counter.total_micros.load(),
        (unsigned long long)counter.max_micros.load());
  }
  out += "]}\n";
  return out;
}

GatewayStats Gateway::stats() const {
  GatewayStats out;
  out.reactor = reactor_ != nullptr ? reactor_->stats() : ReactorStats{};
  out.workers = pool_.stats();
  out.requests = requests_.load();
  out.upgrades = upgrades_.load();
  out.ws_messages = ws_messages_.load();
  for (size_t i = 0; i < kEpCount; ++i) {
    EndpointStats ep;
    ep.endpoint = kEndpointNames[i];
    ep.count = endpoint_counters_[i].count.load();
    ep.errors = endpoint_counters_[i].errors.load();
    ep.total_micros = endpoint_counters_[i].total_micros.load();
    ep.max_micros = endpoint_counters_[i].max_micros.load();
    out.endpoints.push_back(std::move(ep));
  }
  return out;
}

}  // namespace gmine::http
