// End-to-end gateway proofs over real loopback sockets: REST endpoints
// (listing, info, query, summary, SVG) with keep-alive, bearer auth and
// quota rejections on the wire, the RFC 6455 upgrade carrying the
// navigation line protocol, ping/pong and the closing handshake,
// slow-client eviction under a tiny write budget, a graceful drain that
// releases every catalog session (leaked=0), a many-idle-connection
// smoke on one event loop, and the worker pool: a slow REST query
// stalls neither the loop's WebSocket ops nor its connection's reply
// order, a waiting mine job cancels without running, and Stop answers
// what is in flight.

#include "http/gateway.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/catalog.h"
#include "gen/dblp.h"
#include "gen/generators.h"
#include "graph/graph_io.h"
#include "gtree/builder.h"
#include "gtree/store.h"
#include "gtree/stream_build.h"
#include "http/client.h"
#include "net/socket.h"
#include "storage/buffer_pool.h"
#include "util/string_util.h"

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

/// A store large enough that one kSlowQuery keeps a worker busy for
/// over 100 ms (15,000 nodes, ~55k edges). Built once per process.
const std::string& BigStorePath() {
  static const std::string path = [] {
    const std::string out =
        std::string(::testing::TempDir()) + "/gateway_big.gtree";
    gen::DblpOptions gopts;
    gopts.levels = 3;
    gopts.fanout = 5;
    gopts.leaf_size = 120;
    gopts.seed = 19;
    gen::DblpGraph dblp = std::move(gen::GenerateDblp(gopts)).value();
    gtree::GTreeBuildOptions opts;
    opts.levels = 3;
    opts.fanout = 5;
    gtree::GTree tree =
        std::move(gtree::BuildGTree(dblp.graph, opts)).value();
    auto conn = gtree::ConnectivityIndex::Build(dblp.graph, tree);
    EXPECT_TRUE(gtree::GTreeStore::Create(out, dblp.graph, tree, conn,
                                          dblp.labels)
                    .ok());
    return out;
  }();
  return path;
}

/// A streamed store (page-at-a-time mining) at `path`: 2,000 nodes.
void BuildStreamedStore(const std::string& path) {
  graph::Graph g = std::move(gen::ErdosRenyiM(2000, 8000, 23)).value();
  std::string lines;
  for (uint32_t u = 0; u < g.num_nodes(); ++u) {
    for (const auto& arc : g.Neighbors(u)) {
      if (u < arc.id) lines += StrFormat("%u %u\n", u, arc.id);
    }
  }
  const std::string edges = path + ".edges";
  ASSERT_TRUE(graph::WriteStringToFile(lines, edges).ok());
  ASSERT_TRUE(gtree::StreamBuildStore(edges, path, {}).ok());
  fs::remove(edges);
}

constexpr char kSlowQuery[] = "EXTRACT CSG FROM {0, 1, 2} BUDGET 30";

/// A running gateway over a fresh two-store catalog, plus the big store
/// as "big" and a streamed store as "st" when asked.
class GatewayFixture {
 public:
  explicit GatewayFixture(const char* tag, GatewayOptions options = {},
                          core::CatalogOptions copts = {},
                          bool with_big = false, bool with_streamed = false) {
    dir_ = std::string(::testing::TempDir()) + "/gateway_" + tag;
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    BuildStore(dir_ + "/s0.gtree", 17);
    BuildStore(dir_ + "/s1.gtree", 18);
    if (with_big) fs::copy_file(BigStorePath(), dir_ + "/big.gtree");
    if (with_streamed) BuildStreamedStore(dir_ + "/st.gtree");
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

/// Polls `done` every few ms; false if it never held (about 20 s).
bool Eventually(const std::function<bool()>& done) {
  for (int i = 0; i < 4000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

/// Sends `wire` on a fresh connection, half-closes it, and returns
/// everything the gateway sends back until it closes.
std::string SendAndHalfClose(uint16_t port, const std::string& wire) {
  auto sock = net::ConnectTcp("127.0.0.1", port);
  if (!sock.ok() || !sock.value().WriteAll(wire).ok()) return "<send failed>";
  ::shutdown(sock.value().fd(), SHUT_WR);
  std::string out;
  char buf[4096];
  for (int quiet = 0; quiet < 100;) {
    auto read = sock.value().ReadSome(buf, sizeof(buf), 100);
    if (!read.ok() || read.value().eof) return out;
    if (read.value().timed_out) ++quiet;
    out.append(buf, read.value().bytes);
  }
  return out + "<no close>";
}

/// Occurrences of `needle` in `haystack`.
size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t n = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

/// A number in the /stats body's `object` object; -1 when absent.
long StatsField(const std::string& stats, const std::string& object,
                const std::string& field) {
  const size_t at = stats.find("\"" + object + "\":{");
  if (at == std::string::npos) return -1;
  const size_t key = stats.find("\"" + field + "\":", at);
  if (key == std::string::npos || key > stats.find('}', at)) return -1;
  return std::atol(stats.c_str() + key + field.size() + 3);
}

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

TEST(HttpGatewayTest, StatsPoolCountersMoveAfterPageMineJob) {
  GatewayFixture f("pool_counters", {}, {}, /*with_big=*/false,
                   /*with_streamed=*/true);
  GatewayClient client = f.Connect();
  HttpClientResponse r = std::move(client.Request("GET", "/stats")).value();
  ASSERT_EQ(r.status, 200);
  for (const char* field :
       {"hits", "misses", "loads", "evictions", "private_reads"}) {
    EXPECT_EQ(StatsField(r.body, "pool", field), 0) << field << r.body;
  }

  r = std::move(client.Request(
                    "POST", "/api/v1/stores/st/mine?kernel=pagerank&top=3"))
          .value();
  ASSERT_EQ(r.status, 202) << r.body;
  const std::string location(r.Header("location"));
  for (int i = 0; i < 500; ++i) {
    r = std::move(client.Request("GET", location)).value();
    ASSERT_EQ(r.status, 200) << r.body;
    if (r.body.find("\"state\":\"running\"") == std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(r.body.find("\"state\":\"done\""), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"engine\":\"pages\""), std::string::npos)
      << r.body;

  // The job swept the store's pages through the pool: every sweep
  // after the first hits the pages the first one loaded.
  r = std::move(client.Request("GET", "/stats")).value();
  ASSERT_EQ(r.status, 200);
  const long loads = StatsField(r.body, "pool", "loads");
  EXPECT_GT(loads, 0) << r.body;
  EXPECT_EQ(StatsField(r.body, "pool", "misses"), loads) << r.body;
  EXPECT_GT(StatsField(r.body, "pool", "hits"), loads) << r.body;
  EXPECT_EQ(StatsField(r.body, "pool", "private_reads"), 0) << r.body;
  client.Close();
}

TEST(HttpGatewayTest, HalfClosedClientReadsEveryReply) {
  // A client may send its requests and half-close before reading: every
  // reply arrives, then the gateway closes. The loop answers /stats and
  // the listing; the summary runs on a worker, and the EOF is read
  // after the worker resumes the connection.
  GatewayFixture f("half_close");
  const std::string stats = "GET /stats HTTP/1.1\r\nHost: t\r\n\r\n";
  const std::string stores =
      "GET /api/v1/stores HTTP/1.1\r\nHost: t\r\n\r\n";
  const std::string summary =
      "GET /api/v1/stores/s0/summary HTTP/1.1\r\nHost: t\r\n\r\n";
  for (const std::string& wire : {stats + stores, stats + summary + stores}) {
    const size_t requests = CountOf(wire, "GET ");
    for (int round = 0; round < 20; ++round) {
      const std::string replies = SendAndHalfClose(f.port(), wire);
      EXPECT_EQ(CountOf(replies, "HTTP/1.1 200 OK\r\n"), requests)
          << "round " << round << ":\n" << replies;
      EXPECT_NE(replies.find("\"stores\":["), std::string::npos) << replies;
    }
  }
  EXPECT_TRUE(Eventually(
      [&] { return f.catalog().stats().sessions_now == 0; }));
}

TEST(HttpGatewayTest, ShutdownAnswersConnectionClose) {
  GatewayFixture f("shutdown_close");
  GatewayClient client = f.Connect();
  // HTTP/1.1 without a Connection header asks for keep-alive; the
  // shutdown route closes the connection anyway, and says so.
  ASSERT_TRUE(client
                  .SendRaw("POST /api/v1/shutdown HTTP/1.1\r\nHost: t\r\n"
                           "Content-Length: 0\r\n\r\n")
                  .ok());
  std::string raw;
  for (int i = 0; i < 50 && raw.find("\r\n\r\n") == std::string::npos;
       ++i) {
    auto chunk = client.ReadRaw(4096, /*timeout_ms=*/100);
    if (!chunk.ok()) break;
    raw += chunk.value();
  }
  EXPECT_EQ(raw.find("HTTP/1.1 200 OK\r\n"), 0u) << raw;
  EXPECT_NE(raw.find("Connection: close\r\n"), std::string::npos) << raw;
  EXPECT_EQ(raw.find("keep-alive"), std::string::npos) << raw;
  f.gateway().WaitUntilShutdown();  // returns at once: the route asked
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
  EXPECT_GE(f.gateway().stats().reactor.rejected, 1u);
  first.Close();
  second.Close();
}

TEST(HttpGatewayTest, RestQueryDoesNotStallWebSocketOps) {
  GatewayFixture f("no_stall", {}, {}, /*with_big=*/true);
  GatewayClient ws = f.Connect();
  ASSERT_TRUE(ws.UpgradeWebSocket("/api/v1/stores/big/ws").ok());
  ASSERT_TRUE(ws.Roundtrip("root").ok());

  // One loop serves all three connections.
  GatewayClient rest = f.Connect();
  ASSERT_TRUE(
      rest.SendRequest("POST", "/api/v1/stores/big/query", "", kSlowQuery)
          .ok());
  GatewayClient probe = f.Connect();
  ASSERT_TRUE(Eventually([&] {
    auto stats = probe.Request("GET", "/stats");
    return stats.ok() &&
           StatsField(stats.value().body, "workers", "running") == 1;
  })) << "/stats never showed the query running";

  // The navigator is answered while the extraction still runs: its
  // reply arrives, and the query's has not.
  ASSERT_TRUE(ws.SendText("summary").ok());
  auto summary = ws.ReadMessage();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_NE(summary.value().payload.find("\"ok\":true"), std::string::npos);
  EXPECT_FALSE(rest.ReadRaw(1, /*timeout_ms=*/0).ok())
      << "the REST reply arrived before the WebSocket one";

  auto reply = rest.ReadResponse(/*timeout_ms=*/60000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().status, 200) << reply.value().body;
  EXPECT_NE(reply.value().body.find("\"rows\":"), std::string::npos);
  EXPECT_TRUE(Eventually([&] {
    const WorkerPoolStats w = f.gateway().stats().workers;
    return w.running == 0 && w.completed == 1;
  }));
  (void)ws.SendClose(1000);
}

TEST(HttpGatewayTest, PipelinedRequestsAnswerInOrder) {
  GatewayFixture f("pipelined", {}, {}, /*with_big=*/true);
  GatewayClient client = f.Connect();
  // One write, two requests: a slow query on a worker, then a summary
  // that must wait for it.
  const std::string body = kSlowQuery;
  ASSERT_TRUE(client
                  .SendRaw("POST /api/v1/stores/big/query HTTP/1.1\r\n"
                           "Host: t\r\nContent-Length: " +
                           std::to_string(body.size()) + "\r\n\r\n" +
                           body +
                           "GET /api/v1/stores/big/summary HTTP/1.1\r\n"
                           "Host: t\r\n\r\n")
                  .ok());
  auto first = client.ReadResponse(/*timeout_ms=*/60000);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().status, 200);
  EXPECT_NE(first.value().body.find("\"rows\":"), std::string::npos)
      << first.value().body;
  auto second = client.ReadResponse(/*timeout_ms=*/60000);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().status, 200);
  EXPECT_NE(second.value().body.find("\"focus\":"), std::string::npos)
      << second.value().body;
  // The connection reads on after the pool hands it back.
  auto third = client.Request("GET", "/api/v1/stores/big/summary");
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().status, 200);
  EXPECT_EQ(f.catalog().stats().sessions_now, 0u);
}

/// Fills every worker with a slow query, one connection each, plus
/// `queued_behind` more waiting in the queue.
std::vector<GatewayClient> OccupyWorkers(GatewayFixture& f,
                                         size_t queued_behind) {
  const size_t threads = f.gateway().stats().workers.threads;
  EXPECT_GE(threads, 2u);
  std::vector<GatewayClient> clients(threads + queued_behind);
  for (GatewayClient& client : clients) {
    EXPECT_TRUE(client.Connect("127.0.0.1", f.port()).ok());
    EXPECT_TRUE(client
                    .SendRequest("POST", "/api/v1/stores/big/query", "",
                                 kSlowQuery)
                    .ok());
  }
  EXPECT_TRUE(Eventually([&] {
    const WorkerPoolStats w = f.gateway().stats().workers;
    return w.running == threads && w.queued == queued_behind;
  }));
  return clients;
}

TEST(HttpGatewayTest, WaitingJobReadsRunningAndCancelsWithoutRunning) {
  core::CatalogOptions copts;
  copts.session_quota = 0;  // unlimited
  GatewayFixture f("job_waits", {}, copts, /*with_big=*/true);
  // As many queries queued as running: the job waits behind a full
  // round of them.
  const size_t threads = f.gateway().stats().workers.threads;
  std::vector<GatewayClient> busy = OccupyWorkers(f, threads);

  GatewayClient client = f.Connect();
  HttpClientResponse r =
      std::move(client.Request("POST", "/api/v1/stores/big/mine")).value();
  ASSERT_EQ(r.status, 202) << r.body;
  const std::string location(r.Header("location"));
  // Queued behind the queries: reported running, with zero progress.
  r = std::move(client.Request("GET", location)).value();
  EXPECT_NE(r.body.find("\"state\":\"running\""), std::string::npos)
      << r.body;
  EXPECT_NE(r.body.find("\"iteration\":0,"), std::string::npos) << r.body;
  // DELETE settles it at once, without a worker.
  r = std::move(client.Request("DELETE", location)).value();
  EXPECT_EQ(r.status, 202);
  EXPECT_NE(r.body.find("\"state\":\"cancelled\""), std::string::npos)
      << r.body;

  for (GatewayClient& c : busy) {
    auto reply = c.ReadResponse(/*timeout_ms=*/60000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply.value().status, 200);
  }
  // It never ran: no engine was picked and the lease is back.
  ASSERT_TRUE(Eventually(
      [&] { return f.gateway().stats().workers.running == 0; }));
  r = std::move(client.Request("GET", location)).value();
  EXPECT_NE(r.body.find("\"state\":\"cancelled\""), std::string::npos);
  EXPECT_NE(r.body.find("\"engine\":\"\""), std::string::npos) << r.body;
  r = std::move(client.Request("DELETE", location)).value();
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(f.catalog().stats().sessions_now, 0u);
}

TEST(HttpGatewayTest, StopAnswersInFlightQueriesAndCancelsWaitingJobs) {
  core::CatalogOptions copts;
  copts.session_quota = 0;  // unlimited
  GatewayFixture f("stop_pool", {}, copts, /*with_big=*/true);
  // Every worker busy and as many queries queued behind them: the job
  // below cannot reach a worker before Stop.
  const size_t threads = f.gateway().stats().workers.threads;
  std::vector<GatewayClient> queries = OccupyWorkers(f, threads);
  GatewayClient client = f.Connect();
  HttpClientResponse r =
      std::move(client.Request("POST", "/api/v1/stores/big/mine")).value();
  ASSERT_EQ(r.status, 202) << r.body;
  uint64_t job = 0;
  ASSERT_TRUE(ParseUint64(
      std::string_view(r.Header("location")).substr(strlen("/api/v1/jobs/")),
      &job));

  f.gateway().Stop();

  for (GatewayClient& c : queries) {
    auto reply = c.ReadResponse(/*timeout_ms=*/60000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply.value().status, 200);
    EXPECT_NE(reply.value().body.find("\"rows\":"), std::string::npos);
  }
  auto info = f.gateway().jobs().Get(job);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().state, "cancelled");
  EXPECT_EQ(info.value().progress.iteration, 0u);
  EXPECT_EQ(info.value().engine, "");
  // leaked=0: every lease returned, every store closed.
  const core::CatalogStats stats = f.catalog().stats();
  EXPECT_EQ(stats.sessions_now, 0u);
  EXPECT_EQ(stats.open_now, 0u);
  EXPECT_EQ(stats.opens, stats.closes);
  const WorkerPoolStats workers = f.gateway().stats().workers;
  EXPECT_EQ(workers.queued, 0u);
  EXPECT_EQ(workers.running, 0u);
}

}  // namespace
}  // namespace gmine::http
