// End-to-end gateway proofs over real loopback sockets: REST endpoints
// (listing, info, query, summary, SVG) with keep-alive, bearer auth and
// quota rejections on the wire, the RFC 6455 upgrade carrying the
// navigation line protocol, ping/pong and the closing handshake,
// slow-client eviction under a tiny write budget, a graceful drain that
// releases every catalog session (leaked=0), and a many-idle-connection
// smoke on one event loop.

#include "http/gateway.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/catalog.h"
#include "gen/dblp.h"
#include "gtree/builder.h"
#include "gtree/store.h"
#include "http/client.h"
#include "storage/buffer_pool.h"

namespace gmine::http {
namespace {

namespace fs = std::filesystem;

void BuildStore(const std::string& path, uint64_t seed) {
  gen::DblpOptions gopts;
  gopts.levels = 2;
  gopts.fanout = 3;
  gopts.leaf_size = 30;
  gopts.seed = seed;
  gen::DblpGraph dblp = std::move(gen::GenerateDblp(gopts)).value();
  gtree::GTreeBuildOptions opts;
  opts.levels = 2;
  opts.fanout = 3;
  gtree::GTree tree =
      std::move(gtree::BuildGTree(dblp.graph, opts)).value();
  auto conn = gtree::ConnectivityIndex::Build(dblp.graph, tree);
  ASSERT_TRUE(gtree::GTreeStore::Create(path, dblp.graph, tree, conn,
                                        dblp.labels)
                  .ok());
}

/// A running gateway over a fresh two-store catalog.
class GatewayFixture {
 public:
  explicit GatewayFixture(const char* tag, GatewayOptions options = {},
                          core::CatalogOptions copts = {}) {
    dir_ = std::string(::testing::TempDir()) + "/gateway_" + tag;
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    BuildStore(dir_ + "/s0.gtree", 17);
    BuildStore(dir_ + "/s1.gtree", 18);
    copts.store.buffer_pool = &pool_;
    catalog_ = std::move(core::Catalog::OpenDirectory(dir_, copts)).value();
    options.buffer_pool = &pool_;
    gateway_ = std::make_unique<Gateway>(catalog_.get(), options);
    EXPECT_TRUE(gateway_->Start().ok());
  }

  ~GatewayFixture() {
    gateway_->Stop();
    fs::remove_all(dir_);
  }

  uint16_t port() const { return gateway_->port(); }
  Gateway& gateway() { return *gateway_; }
  core::Catalog& catalog() { return *catalog_; }
  storage::BufferPool& pool() { return pool_; }

  GatewayClient Connect() {
    GatewayClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", port()).ok());
    return client;
  }

 private:
  std::string dir_;
  storage::BufferPool pool_;
  std::unique_ptr<core::Catalog> catalog_;
  std::unique_ptr<Gateway> gateway_;
};

TEST(HttpGatewayTest, RestEndpointsOverOneKeepAliveConnection) {
  GatewayFixture f("rest");
  GatewayClient client = f.Connect();

  // Catalog listing, then per-store endpoints — all on one connection,
  // so this also proves keep-alive framing.
  HttpClientResponse r =
      std::move(client.Request("GET", "/api/v1/stores")).value();
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.Header("content-type"), "application/json");
  EXPECT_NE(r.body.find("\"name\":\"s0\""), std::string::npos);
  EXPECT_NE(r.body.find("\"name\":\"s1\""), std::string::npos);

  r = std::move(client.Request("GET", "/api/v1/stores/s0")).value();
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"communities\":"), std::string::npos);
  EXPECT_NE(r.body.find("\"labels\":"), std::string::npos);

  r = std::move(client.Request(
                    "GET",
                    "/api/v1/stores/s0/query?q=MATCH%20NODES%20LIMIT%202"))
          .value();
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"rows\":"), std::string::npos);

  // The POST body form runs the same statement.
  r = std::move(client.Request("POST", "/api/v1/stores/s0/query", "",
                               "MATCH NODES LIMIT 2"))
          .value();
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"rows\":"), std::string::npos);

  r = std::move(client.Request("GET", "/api/v1/stores/s0/summary")).value();
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"focus\":"), std::string::npos);

  r = std::move(client.Request("GET", "/api/v1/stores/s0/render.svg"))
          .value();
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.Header("content-type"), "image/svg+xml");
  EXPECT_EQ(r.body.rfind("<svg", 0), 0u);

  // Error paths share the connection too.
  r = std::move(client.Request("GET", "/api/v1/stores/nope")).value();
  EXPECT_EQ(r.status, 404);
  r = std::move(client.Request("GET", "/api/v1/stores/s0/nope")).value();
  EXPECT_EQ(r.status, 404);
  r = std::move(client.Request("GET", "/nope")).value();
  EXPECT_EQ(r.status, 404);
  r = std::move(client.Request("PUT", "/api/v1/stores")).value();
  EXPECT_EQ(r.status, 405);
  r = std::move(client.Request("GET", "/api/v1/stores/s0/query")).value();
  EXPECT_EQ(r.status, 400);  // no statement given

  // Transient REST leases all returned to the catalog.
  core::CatalogStats stats = f.catalog().stats();
  EXPECT_EQ(stats.sessions_now, 0u);
  client.Close();
}

TEST(HttpGatewayTest, BearerAuthGatesApiButNotStats) {
  GatewayOptions gopts;
  gopts.bearer_token = "sekrit";
  GatewayFixture f("auth", gopts);
  GatewayClient client = f.Connect();

  HttpClientResponse r =
      std::move(client.Request("GET", "/api/v1/stores")).value();
  EXPECT_EQ(r.status, 401);
  EXPECT_EQ(r.Header("www-authenticate"), "Bearer");
  r = std::move(client.Request("GET", "/api/v1/stores", "wrong")).value();
  EXPECT_EQ(r.status, 401);
  r = std::move(client.Request("GET", "/api/v1/stores", "sekrit")).value();
  EXPECT_EQ(r.status, 200);
  // /stats stays open so probes need no secret.
  r = std::move(client.Request("GET", "/stats")).value();
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"gateway\":"), std::string::npos);
  // The upgrade is gated like any /api request.
  GatewayClient ws = f.Connect();
  EXPECT_TRUE(
      ws.UpgradeWebSocket("/api/v1/stores/s0/ws", "wrong").IsAborted());
  client.Close();
}

TEST(HttpGatewayTest, QuotaExceededAnswers429) {
  core::CatalogOptions copts;
  copts.session_quota = 1;
  GatewayFixture f("quota", {}, copts);

  // One WebSocket pins the store's only session slot...
  GatewayClient ws = f.Connect();
  ASSERT_TRUE(ws.UpgradeWebSocket("/api/v1/stores/s0/ws").ok());
  // ...so a REST request (which leases transiently) is turned away.
  GatewayClient rest = f.Connect();
  HttpClientResponse r =
      std::move(rest.Request("GET", "/api/v1/stores/s0/summary")).value();
  EXPECT_EQ(r.status, 429);
  // A second upgrade is refused the same way.
  GatewayClient ws2 = f.Connect();
  EXPECT_TRUE(ws2.UpgradeWebSocket("/api/v1/stores/s0/ws").IsAborted());
  // The sibling store is untouched by s0's quota.
  r = std::move(rest.Request("GET", "/api/v1/stores/s1/summary")).value();
  EXPECT_EQ(r.status, 200);
  EXPECT_GE(f.catalog().stats().quota_rejections, 2u);

  (void)ws.SendClose(1000);
  ws.Close();
  rest.Close();
}

TEST(HttpGatewayTest, WebSocketSessionNavigatesAndQueries) {
  GatewayFixture f("ws");
  GatewayClient ws = f.Connect();
  ASSERT_TRUE(ws.UpgradeWebSocket("/api/v1/stores/s0/ws").ok());
  EXPECT_EQ(f.catalog().stats().sessions_now, 1u);

  // The session remembers focus across ops — proof it is pinned to the
  // connection, not re-opened per request.
  std::string r = std::move(ws.Roundtrip("root")).value();
  EXPECT_NE(r.find("\"ok\":true"), std::string::npos);
  r = std::move(ws.Roundtrip("child 0")).value();
  EXPECT_NE(r.find("\"ok\":true"), std::string::npos);
  r = std::move(ws.Roundtrip("summary")).value();
  EXPECT_NE(r.find("depth=1"), std::string::npos);
  r = std::move(ws.Roundtrip("parent")).value();
  EXPECT_NE(r.find("\"ok\":true"), std::string::npos);
  // The JSON result rides in the framed reply's body field (escaped).
  r = std::move(ws.Roundtrip("query MATCH NODES LIMIT 2")).value();
  EXPECT_NE(r.find("rows=2"), std::string::npos);
  EXPECT_NE(r.find("\"body\":"), std::string::npos);
  r = std::move(ws.Roundtrip("nonsense")).value();
  EXPECT_NE(r.find("\"ok\":false"), std::string::npos);
  // Mutation and server control are REST/line-protocol matters.
  r = std::move(ws.Roundtrip("edit apply")).value();
  EXPECT_NE(r.find("NotSupported"), std::string::npos);
  r = std::move(ws.Roundtrip("shutdown")).value();
  EXPECT_NE(r.find("NotSupported"), std::string::npos);

  // Ping/pong and the closing handshake.
  ASSERT_TRUE(ws.SendPing("hb").ok());
  WsMessage pong = std::move(ws.ReadMessage()).value();
  EXPECT_EQ(pong.opcode, WsOpcode::kPong);
  EXPECT_EQ(pong.payload, "hb");
  ASSERT_TRUE(ws.SendClose(1000, "done").ok());
  WsMessage close = std::move(ws.ReadMessage()).value();
  EXPECT_EQ(close.opcode, WsOpcode::kClose);
  ws.Close();

  // The pinned session returns to the catalog once the connection dies.
  for (int i = 0; i < 100 && f.catalog().stats().sessions_now > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(f.catalog().stats().sessions_now, 0u);
  GatewayStats stats = f.gateway().stats();
  EXPECT_EQ(stats.upgrades, 1u);
  EXPECT_GE(stats.ws_messages, 8u);
}

TEST(HttpGatewayTest, MalformedFramesCloseTheConnection) {
  GatewayFixture f("badframe");
  GatewayClient ws = f.Connect();
  ASSERT_TRUE(ws.UpgradeWebSocket("/api/v1/stores/s0/ws").ok());
  // An unmasked client frame breaks RFC 6455 §5.1; the server answers
  // close 1002 and drops the connection.
  std::string unmasked = EncodeWsFrame(WsOpcode::kText, "root",
                                       /*fin=*/true, /*mask=*/false);
  ASSERT_TRUE(ws.SendRaw(unmasked).ok());
  WsMessage close = std::move(ws.ReadMessage()).value();
  EXPECT_EQ(close.opcode, WsOpcode::kClose);
  uint16_t code = 0;
  std::string reason;
  ParseWsClose(close.payload, &code, &reason);
  EXPECT_EQ(code, 1002);
  ws.Close();
}

TEST(HttpGatewayTest, SlowClientIsEvicted) {
  GatewayOptions gopts;
  // Smaller than one SVG response, so a client that pipelines renders
  // without reading overflows its bounded queue deterministically.
  gopts.max_write_buffer_bytes = 512;
  GatewayFixture f("slow", gopts);
  GatewayClient client = f.Connect();

  // Pipeline many large responses without reading a byte: the bounded
  // write queue fills and the reactor drops us as a slow client.
  std::string burst;
  for (int i = 0; i < 8; ++i) {
    burst += "GET /api/v1/stores/s0/render.svg HTTP/1.1\r\n"
             "Host: t\r\n\r\n";
  }
  ASSERT_TRUE(client.SendRaw(burst).ok());
  // The connection must die (reset or EOF) rather than balloon memory.
  bool dead = false;
  for (int i = 0; i < 200 && !dead; ++i) {
    auto message = client.ReadRaw(4096, /*timeout_ms=*/100);
    if (!message.ok() || message.value().empty()) dead = true;
  }
  EXPECT_TRUE(dead);
  // The loop thread counts the eviction right after closing the socket;
  // give it a moment to get there.
  for (int i = 0;
       i < 200 && f.gateway().stats().reactor.evicted_slow == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(f.gateway().stats().reactor.evicted_slow, 1u);
  client.Close();
}

TEST(HttpGatewayTest, GracefulDrainReleasesEverySession) {
  GatewayFixture f("drain");
  // Three live WebSocket navigators across both stores.
  std::vector<GatewayClient> navigators(3);
  for (size_t i = 0; i < navigators.size(); ++i) {
    ASSERT_TRUE(navigators[i].Connect("127.0.0.1", f.port()).ok());
    const std::string store = i % 2 == 0 ? "s0" : "s1";
    ASSERT_TRUE(
        navigators[i].UpgradeWebSocket("/api/v1/stores/" + store + "/ws")
            .ok());
    ASSERT_TRUE(navigators[i].Roundtrip("root").ok());
  }
  EXPECT_EQ(f.catalog().stats().sessions_now, 3u);

  f.gateway().Stop();

  // Every navigator saw the 1001 going-away close; every catalog
  // session and buffer-pool page is gone: leaked=0.
  for (GatewayClient& navigator : navigators) {
    auto message = navigator.ReadMessage(/*timeout_ms=*/2000);
    if (message.ok()) {
      EXPECT_EQ(message.value().opcode, WsOpcode::kClose);
    }
    navigator.Close();
  }
  core::CatalogStats stats = f.catalog().stats();
  EXPECT_EQ(stats.sessions_now, 0u);
  EXPECT_EQ(stats.open_now, 0u);
  EXPECT_EQ(stats.opens, stats.closes);
  storage::BufferPoolStats pstats = f.pool().stats();
  EXPECT_EQ(pstats.stores, 0u);
  EXPECT_EQ(pstats.resident_bytes, 0u);
}

TEST(HttpGatewayTest, HoldsManyIdleWebSocketsOnOneLoop) {
  // A scaled-down cousin of the 10k bench report: several hundred idle
  // upgraded connections parked on one event loop, all still answering.
  constexpr size_t kIdle = 300;
  GatewayOptions gopts;
  gopts.max_conns = kIdle + 16;
  core::CatalogOptions copts;
  copts.session_quota = 0;  // unlimited
  GatewayFixture f("idle", gopts, copts);

  std::vector<GatewayClient> idle(kIdle);
  for (size_t i = 0; i < kIdle; ++i) {
    ASSERT_TRUE(idle[i].Connect("127.0.0.1", f.port()).ok()) << i;
    Status st = idle[i].UpgradeWebSocket("/api/v1/stores/s0/ws");
    ASSERT_TRUE(st.ok()) << "conn " << i << ": " << st.ToString();
  }
  EXPECT_EQ(f.gateway().stats().reactor.open_now, kIdle);
  EXPECT_EQ(f.catalog().stats().sessions_now, kIdle);

  // The first, middle and last are all still live.
  for (size_t i : {size_t{0}, kIdle / 2, kIdle - 1}) {
    std::string r = std::move(idle[i].Roundtrip("summary")).value();
    EXPECT_NE(r.find("\"ok\":true"), std::string::npos);
  }
  for (GatewayClient& client : idle) {
    (void)client.SendClose(1000);
    client.Close();
  }
  for (int i = 0; i < 500 && f.catalog().stats().sessions_now > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(f.catalog().stats().sessions_now, 0u);
}

TEST(HttpGatewayTest, UnversionedApiPathsAreUnknownPaths) {
  // Without a token an unversioned path answers like any unknown path.
  {
    GatewayFixture f("unversioned");
    GatewayClient client = f.Connect();
    for (const char* target :
         {"/api/stores", "/api/stores/s0/query?q=MATCH%20NODES%20LIMIT%201",
          "/nope"}) {
      HttpClientResponse r =
          std::move(client.Request("GET", target)).value();
      EXPECT_EQ(r.status, 404) << target;
      EXPECT_EQ(r.Header("location"), "") << target;
    }
    EXPECT_EQ(std::move(client.Request("GET", "/api/v1/stores"))
                  .value()
                  .status,
              200);
    client.Close();
  }
  // With a token, every /api path is gated first: 401 before 404.
  GatewayOptions gopts;
  gopts.bearer_token = "sekrit";
  GatewayFixture f("unversioned_auth", gopts);
  GatewayClient client = f.Connect();
  EXPECT_EQ(std::move(client.Request("GET", "/api/stores")).value().status,
            401);
  EXPECT_EQ(
      std::move(client.Request("GET", "/api/stores", "sekrit")).value().status,
      404);
  client.Close();
}

TEST(HttpGatewayTest, MineJobLifecycle) {
  GatewayFixture f("mine");
  GatewayClient client = f.Connect();

  // Submit: 202 Accepted with a poll URL in Location and the body.
  HttpClientResponse r =
      std::move(client.Request(
                    "POST", "/api/v1/stores/s0/mine?kernel=pagerank&top=3"))
          .value();
  EXPECT_EQ(r.status, 202) << r.body;
  const std::string location(r.Header("location"));
  ASSERT_EQ(location.rfind("/api/v1/jobs/", 0), 0u) << location;
  EXPECT_NE(r.body.find("\"job\":"), std::string::npos);
  EXPECT_NE(r.body.find("\"poll\":"), std::string::npos);

  // Poll until the worker finishes.
  for (int i = 0; i < 500; ++i) {
    r = std::move(client.Request("GET", location)).value();
    ASSERT_EQ(r.status, 200) << r.body;
    if (r.body.find("\"state\":\"running\"") == std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(r.body.find("\"state\":\"done\""), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"result\":"), std::string::npos) << r.body;
  // These fixture stores are legacy-built, so the job fell back to the
  // in-memory kernels and says so.
  EXPECT_NE(r.body.find("\"engine\":\"in-memory\""), std::string::npos)
      << r.body;

  // DELETE on a finished job removes the record (200)...
  r = std::move(client.Request("DELETE", location)).value();
  EXPECT_EQ(r.status, 200);
  // ...after which it is unknown.
  r = std::move(client.Request("GET", location)).value();
  EXPECT_EQ(r.status, 404);

  // Synchronous submit errors.
  r = std::move(client.Request("POST",
                               "/api/v1/stores/s0/mine?kernel=nope"))
          .value();
  EXPECT_EQ(r.status, 400);
  r = std::move(client.Request("POST", "/api/v1/stores/nope/mine")).value();
  EXPECT_EQ(r.status, 404);
  r = std::move(client.Request("GET", "/api/v1/stores/s0/mine")).value();
  EXPECT_EQ(r.status, 405);  // submit is POST-only
  r = std::move(client.Request("GET", "/api/v1/jobs/notanumber")).value();
  EXPECT_EQ(r.status, 400);
  r = std::move(client.Request("GET", "/api/v1/jobs/999999")).value();
  EXPECT_EQ(r.status, 404);

  // No leaked catalog sessions once the worker released its lease.
  core::CatalogStats stats = f.catalog().stats();
  EXPECT_EQ(stats.sessions_now, 0u);
  client.Close();
}

TEST(HttpGatewayTest, CapacityLimitAnswers503) {
  GatewayOptions gopts;
  gopts.max_conns = 1;
  GatewayFixture f("capacity", gopts);
  GatewayClient first = f.Connect();
  HttpClientResponse ok =
      std::move(first.Request("GET", "/stats")).value();
  EXPECT_EQ(ok.status, 200);

  GatewayClient second = f.Connect();
  auto r = second.Request("GET", "/stats");
  if (r.ok()) {
    EXPECT_EQ(r.value().status, 503);
  }  // else: the gateway closed us before the response was readable
  EXPECT_GE(f.gateway().stats().rejected_at_capacity, 1u);
  first.Close();
  second.Close();
}

}  // namespace
}  // namespace gmine::http
