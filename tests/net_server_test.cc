// Loopback proofs for the network front end: concurrent clients on
// overlapping subtrees get deterministic per-client transcripts, every
// connection maps onto its own pool session (and releases it — no
// leaks), idle reaping flows through CloseIdleSessions into connection
// teardown, the capacity gate rejects politely, malformed input is
// survivable, and prefetch warms the shared page cache.

#include "net/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "core/edit_queue.h"
#include "core/engine.h"
#include "core/prefetcher.h"
#include "core/session_manager.h"
#include "gen/dblp.h"
#include "graph/graph_io.h"
#include "gtree/builder.h"
#include "net/client.h"
#include "query/executor.h"
#include "util/string_util.h"

namespace gmine::net {
namespace {

using core::SessionManager;
using core::SessionManagerOptions;
using gtree::GTreeStore;

struct ServerFixture {
  gen::DblpGraph dblp;
  std::unique_ptr<GTreeStore> store;
  std::string path;

  ServerFixture() = default;
  ServerFixture(ServerFixture&&) = default;
  ServerFixture& operator=(ServerFixture&&) = default;

  ~ServerFixture() {
    store.reset();
    if (!path.empty()) std::remove(path.c_str());
  }
};

ServerFixture MakeFixture(const char* name) {
  ServerFixture f;
  gen::DblpOptions gopts;
  gopts.levels = 2;
  gopts.fanout = 3;
  gopts.leaf_size = 30;
  gopts.seed = 17;
  f.dblp = std::move(gen::GenerateDblp(gopts)).value();
  gtree::GTreeBuildOptions opts;
  opts.levels = 2;
  opts.fanout = 3;
  gtree::GTree tree =
      std::move(gtree::BuildGTree(f.dblp.graph, opts)).value();
  auto conn = gtree::ConnectivityIndex::Build(f.dblp.graph, tree);
  f.path = std::string(::testing::TempDir()) + "/" + name + ".gtree";
  EXPECT_TRUE(
      GTreeStore::Create(f.path, f.dblp.graph, tree, conn, f.dblp.labels)
          .ok());
  f.store = std::move(GTreeStore::Open(f.path)).value();
  return f;
}

/// Runs `requests` through one fresh connection; returns the transcript
/// as "text|text|..." of response texts (ERRs as "ERR:<code>").
std::string DriveClient(uint16_t port,
                        const std::vector<std::string>& requests) {
  Client client;
  if (!client.Connect("127.0.0.1", port).ok()) return "<connect failed>";
  std::string transcript;
  for (const std::string& r : requests) {
    auto response = client.Roundtrip(r);
    if (!response.ok()) {
      transcript += "!" + response.status().ToString();
      break;
    }
    if (!transcript.empty()) transcript += "|";
    transcript += response.value().ok
                      ? response.value().text
                      : "ERR:" + response.value().code;
  }
  client.Close();
  return transcript;
}

/// Sends `wire` on a fresh connection, half-closes it, and returns
/// everything the server sends back until it closes.
std::string SendAndHalfClose(uint16_t port, const std::string& wire) {
  auto sock = ConnectTcp("127.0.0.1", port);
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

/// The "Threads:" line of /proc/self/status.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(NetServerTest, StartServeStopIsClean) {
  ServerFixture f = MakeFixture("net_clean");
  SessionManager pool(f.store.get());
  Server server(&pool);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_EQ(client.greeting(), "OK gmine-server protocol=1");
  auto pong = client.Roundtrip("ping");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong.value().text, "pong");
  // The connection holds exactly one pool session.
  EXPECT_EQ(pool.size(), 1u);
  auto bye = client.Roundtrip("close");
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(bye.value().text, "bye");
  client.Close();

  server.Stop();
  // Graceful teardown released the connection's session.
  EXPECT_EQ(pool.size(), 0u);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.closed, 1u);
  EXPECT_EQ(stats.active_now, 0u);
  EXPECT_GE(stats.requests, 2u);
}

TEST(NetServerTest, NavigationAndBodyOps) {
  ServerFixture f = MakeFixture("net_nav");
  SessionManager pool(f.store.get());
  Server server(&pool);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto r = client.Roundtrip("summary");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().text.find("focus=s000"), std::string::npos);
  EXPECT_NE(r.value().text.find("path=s000"), std::string::npos);
  r = client.Roundtrip("child 0");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().text.find("focus=s001"), std::string::npos);
  r = client.Roundtrip("render svg");
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().has_body);
  EXPECT_NE(r.value().body.find("<svg"), std::string::npos);
  EXPECT_NE(r.value().body.find("</svg>"), std::string::npos);
  // JSON framing on the same connection.
  r = client.Roundtrip("{\"op\":\"parent\"}");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().json);
  EXPECT_NE(r.value().text.find("\"ok\":true"), std::string::npos);
  // JSON render embeds the whole escaped SVG inline — the client reads
  // it under the response cap, not the 64 KiB request cap.
  r = client.Roundtrip("{\"op\":\"render\",\"arg\":\"svg\"}");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().json);
  EXPECT_NE(r.value().text.find("\"body\":\""), std::string::npos);
  // Protocol errors keep the connection alive.
  r = client.Roundtrip("child 99");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().ok);
  r = client.Roundtrip("frobnicate");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().code, "InvalidArgument");
  r = client.Roundtrip("ping");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().text, "pong");
  client.Close();
  server.Stop();
  EXPECT_EQ(pool.size(), 0u);
}

TEST(NetServerTest, FourConcurrentClientsDeterministicTranscripts) {
  ServerFixture f = MakeFixture("net_four");
  SessionManager pool(f.store.get());
  Server server(&pool);
  ASSERT_TRUE(server.Start().ok());

  // Four clients on overlapping subtrees: all descend into s001's
  // neighborhood, two of them load the same leaves the others load.
  const std::vector<std::vector<std::string>> scripts = {
      {"child 0", "child 0", "load", "parent", "summary"},
      {"child 0", "child 1", "load", "back", "summary"},
      {"focus s001", "child 0", "load", "connectivity", "summary"},
      {"locate Jiawei Han", "load", "root", "child 0", "summary"},
  };
  std::vector<std::string> transcripts(scripts.size());
  std::vector<std::thread> threads;
  threads.reserve(scripts.size());
  for (size_t i = 0; i < scripts.size(); ++i) {
    threads.emplace_back([&, i] {
      transcripts[i] = DriveClient(server.port(), scripts[i]);
    });
  }
  for (std::thread& t : threads) t.join();

  // Per-client transcripts are fully deterministic regardless of the
  // interleaving — every client has its own session.
  EXPECT_EQ(transcripts[0],
            "focus=s001 display=7|focus=s002 display=7|"
            "leaf=s002 n=22 e=62|focus=s001 display=7|"
            "focus=s001 depth=1 children=3 display=7 path=s000/s001");
  EXPECT_EQ(transcripts[1],
            "focus=s001 display=7|focus=s003 display=7|"
            "leaf=s003 n=8 e=0|focus=s001 display=7|"
            "focus=s001 depth=1 children=3 display=7 path=s000/s001");
  EXPECT_EQ(transcripts[2],
            "focus=s001 display=7|focus=s002 display=7|"
            "leaf=s002 n=22 e=62|edges=7|"
            "focus=s002 depth=2 children=0 display=7 path=s000/s001/s002");
  EXPECT_EQ(transcripts[3],
            "node 251 focus=s011 display=7|leaf=s011 n=51 e=156|"
            "focus=s000 display=4|focus=s001 display=7|"
            "focus=s001 depth=1 children=3 display=7 path=s000/s001");

  // Cross-session cache reuse, deterministically: clients 0 and 2 may
  // both miss on s002 if they load it at the same instant, but once
  // they are done the page is resident, so a fifth session's load of
  // it is always a hit on a page another session paid for.
  EXPECT_EQ(DriveClient(server.port(), {"focus s002", "load"}),
            "focus=s002 display=7|leaf=s002 n=22 e=62");
  EXPECT_GT(f.store->stats().shared_hits, 0u);

  // Every client's disconnect released its session.
  server.Stop();
  EXPECT_EQ(pool.size(), 0u);
  const core::SessionPoolStats pstats = pool.stats();
  EXPECT_EQ(pstats.opened, 5u);
  EXPECT_EQ(pstats.closed, 5u);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 5u);
  EXPECT_EQ(stats.closed, 5u);
  EXPECT_EQ(stats.requests, 22u);
}

/// Full-fidelity transcript of one connection (request echo, response
/// head, body) — what the query goldens compare byte-for-byte.
std::string DriveQueryClient(uint16_t port,
                             const std::vector<std::string>& requests) {
  Client client;
  if (!client.Connect("127.0.0.1", port).ok()) return "<connect failed>";
  std::string transcript;
  for (const std::string& r : requests) {
    transcript += "> " + r + "\n";
    auto response = client.Roundtrip(r);
    if (!response.ok()) {
      transcript += "!" + response.status().ToString() + "\n";
      break;
    }
    if (response.value().ok) {
      transcript += "< OK " + response.value().text + "\n";
      if (response.value().has_body) {
        transcript += response.value().body + "\n";
      }
    } else {
      transcript += "< ERR " + response.value().code + " " +
                    response.value().text + "\n";
    }
  }
  client.Close();
  return transcript;
}

TEST(NetServerTest, QueryOpGoldenTranscripts) {
  // Four concurrent clients running GQL over the wire: per-client
  // transcripts (response heads + JSON result bodies) are golden.
  // Client d interleaves every negative path — syntax error, LIMIT 0,
  // unknown vertex — and keeps getting served: ERRs never poison the
  // connection. Deterministic-output statements only (no float
  // columns; see docs/QUERY.md).
  ServerFixture f = MakeFixture("net_query");
  SessionManager pool(f.store.get());
  Server server(&pool);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::vector<std::string>> scripts = {
      {"query MATCH NODES WHERE degree > 8 ORDER BY degree DESC, id ASC "
       "LIMIT 5",
       "ping",
       "query MATCH NODES WHERE id < 3 ORDER BY id ASC"},
      {"query MATCH NEIGHBORS(0, 1) ORDER BY id ASC",
       "query MATCH NODES WHERE label PREFIX \"Jiawei\""},
      {"query SUMMARIZE NODE 10",
       "query EXPLAIN MATCH NODES WHERE degree > 5 ORDER BY pagerank "
       "DESC LIMIT 20"},
      {"query MATCH NODES WHERE bogus = 1",
       "query MATCH NODES WHERE id = 17 OR id = 23",
       "query MATCH NODES LIMIT 0",
       "query SUMMARIZE NODE 999999",
       "query",
       "query MATCH NODES WHERE community = \"s003\" ORDER BY id ASC "
       "LIMIT 4"},
  };
  std::vector<std::string> transcripts(scripts.size());
  std::vector<std::thread> threads;
  threads.reserve(scripts.size());
  for (size_t i = 0; i < scripts.size(); ++i) {
    threads.emplace_back([&, i] {
      transcripts[i] = DriveQueryClient(server.port(), scripts[i]);
    });
  }
  for (std::thread& t : threads) t.join();
  server.Stop();

  const std::string golden_dir =
      std::string(GMINE_TEST_SOURCE_DIR) + "/tests/golden";
  const char* names[] = {"a", "b", "c", "d"};
  for (size_t i = 0; i < transcripts.size(); ++i) {
    const std::string path =
        golden_dir + "/query_net_" + names[i] + ".golden";
    auto golden = graph::ReadFileToString(path);
    ASSERT_TRUE(golden.ok())
        << path << ": " << golden.status().ToString()
        << "\nactual transcript:\n" << transcripts[i];
    EXPECT_EQ(transcripts[i], golden.value()) << path;
  }
}

TEST(NetServerTest, QueryOpJsonFramingAndStats) {
  ServerFixture f = MakeFixture("net_query_json");
  SessionManager pool(f.store.get());
  Server server(&pool);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  // JSON-framed query: the result body is embedded, escaped, in the
  // single response line.
  auto r = client.Roundtrip(
      "{\"op\":\"query\",\"arg\":\"MATCH NODES WHERE id < 2\"}");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().json);
  EXPECT_NE(r.value().text.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(r.value().text.find("\\\"columns\\\""), std::string::npos);
  // The STATS line grows a query section with cumulative counters.
  r = client.Roundtrip("stats");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().text.find("query count=1 rows=2"),
            std::string::npos)
      << r.value().text;
  client.Close();
  server.Stop();
}

TEST(NetServerTest, StatsReportPerConnectionCounts) {
  ServerFixture f = MakeFixture("net_stats");
  SessionManager pool(f.store.get());
  Server server(&pool);
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  (void)client.Roundtrip("ping");
  (void)client.Roundtrip("child 0");
  auto r = client.Roundtrip("stats");
  ASSERT_TRUE(r.ok());
  // ping + child completed before this stats request was counted.
  EXPECT_NE(r.value().text.find("conn id=1 requests=2"),
            std::string::npos)
      << r.value().text;
  EXPECT_NE(r.value().text.find("pool open=1"), std::string::npos);
  EXPECT_NE(r.value().text.find("| store leaf_loads="),
            std::string::npos);
  // The server-side snapshot agrees.
  auto conns = server.connections();
  ASSERT_EQ(conns.size(), 1u);
  EXPECT_EQ(conns[0].requests, 3u);
  EXPECT_EQ(conns[0].session, 1u);
  client.Close();
  server.Stop();
}

TEST(NetServerTest, IdleReapingFlowsFromPoolToConnection) {
  ServerFixture f = MakeFixture("net_idle");
  SessionManagerOptions mopts;
  mopts.idle_timeout_micros = 50 * 1000;  // 50ms
  SessionManager pool(f.store.get(), mopts);
  ServerOptions sopts;
  sopts.poll_interval_ms = 10;
  Server server(&pool, sopts);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Roundtrip("ping").ok());
  // Go quiet past the idle timeout: the accept thread's poll tick runs
  // CloseIdleSessions, which reaps the session, the close hook closes
  // the connection, and the next roundtrip fails at the transport level.
  bool dropped = false;
  for (int i = 0; i < 100 && !dropped; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    dropped = !client.Roundtrip("ping").ok() || pool.size() == 0;
  }
  EXPECT_TRUE(dropped);
  EXPECT_GE(pool.stats().idle_closed, 1u);
  EXPECT_EQ(pool.size(), 0u);
  client.Close();
  server.Stop();
}

TEST(NetServerTest, ConnectionLevelOpsKeepTheSessionAlive) {
  ServerFixture f = MakeFixture("net_keepalive");
  SessionManagerOptions mopts;
  mopts.idle_timeout_micros = 500 * 1000;  // 500ms
  SessionManager pool(f.store.get(), mopts);
  ServerOptions sopts;
  sopts.poll_interval_ms = 10;
  Server server(&pool, sopts);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  // stats bypasses WithSession; the keepalive touch must still keep an
  // actively probing client's session out of the idle reaper.
  for (int i = 0; i < 8; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    auto r = client.Roundtrip(i % 2 == 0 ? "ping" : "stats");
    ASSERT_TRUE(r.ok()) << "probe " << i << ": "
                        << r.status().ToString();
  }
  EXPECT_EQ(pool.stats().idle_closed, 0u);
  EXPECT_EQ(pool.size(), 1u);
  client.Close();
  server.Stop();
}

TEST(NetServerTest, CapacityGateRejectsExtraClients) {
  ServerFixture f = MakeFixture("net_cap");
  SessionManager pool(f.store.get());
  ServerOptions sopts;
  sopts.max_clients = 1;
  Server server(&pool, sopts);
  ASSERT_TRUE(server.Start().ok());

  Client first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(first.Roundtrip("ping").ok());

  // The second client is turned away with one ERR line.
  Client second;
  Status st = second.Connect("127.0.0.1", server.port());
  if (st.ok()) {
    EXPECT_NE(second.greeting().find("at capacity"), std::string::npos)
        << second.greeting();
  }
  second.Close();
  first.Close();
  server.Stop();
  EXPECT_GE(server.stats().rejected, 1u);
}

TEST(NetServerTest, OversizedLineDropsTheConnection) {
  ServerFixture f = MakeFixture("net_oversize");
  SessionManager pool(f.store.get());
  Server server(&pool);
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  // One unterminated >64KB line: the server answers once and drops us.
  std::string huge(kMaxLineBytes + 1024, 'x');
  auto r = client.Roundtrip(huge);
  if (r.ok()) {
    EXPECT_FALSE(r.value().ok);
    EXPECT_EQ(r.value().code, "InvalidArgument");
  }
  // Either way, the connection is gone.
  bool closed = false;
  for (int i = 0; i < 50 && !closed; ++i) {
    closed = !client.Roundtrip("ping").ok();
    if (!closed) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(closed);
  client.Close();
  server.Stop();
  EXPECT_EQ(pool.size(), 0u);
}

TEST(NetServerTest, PrefetchWarmsTheSharedCache) {
  ServerFixture f = MakeFixture("net_prefetch");
  SessionManager pool(f.store.get());
  core::Prefetcher prefetcher(f.store.get());
  Server server(&pool, {}, &prefetcher);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  // Focusing s001 hints its child leaves; give the background loader a
  // moment, then the session's own load must hit the warmed cache.
  ASSERT_TRUE(client.Roundtrip("focus s001").ok());
  prefetcher.Drain();
  const core::PrefetchStats pf = prefetcher.stats();
  EXPECT_GT(pf.enqueued, 0u);
  EXPECT_GT(pf.loaded + pf.already_cached, 0u);
  const uint64_t shared_before = f.store->stats().shared_hits;
  ASSERT_TRUE(client.Roundtrip("child 0").ok());
  auto load = client.Roundtrip("load");
  ASSERT_TRUE(load.ok());
  EXPECT_TRUE(load.value().ok) << load.value().text;
  // The load was served from a page the *prefetcher* reader pulled in:
  // that is exactly a cross-reader shared hit.
  EXPECT_GT(f.store->stats().shared_hits, shared_before);
  client.Close();
  server.Stop();
}

TEST(NetServerTest, ShutdownOpStopsTheServerWithoutLeaks) {
  ServerFixture f = MakeFixture("net_shutdown");
  SessionManager pool(f.store.get());
  Server server(&pool);
  ASSERT_TRUE(server.Start().ok());

  // A second, idle client must be torn down by the shutdown too.
  Client bystander;
  ASSERT_TRUE(bystander.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(bystander.Roundtrip("ping").ok());

  Client controller;
  ASSERT_TRUE(controller.Connect("127.0.0.1", server.port()).ok());
  auto r = controller.Roundtrip("shutdown");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().text, "shutting down");

  server.WaitUntilShutdown();  // returns immediately: op signaled it
  server.Stop();
  EXPECT_EQ(pool.size(), 0u);  // no leaked sessions
  EXPECT_EQ(server.stats().active_now, 0u);
  bystander.Close();
  controller.Close();
}

TEST(NetServerTest, HalfClosedClientReadsEveryReply) {
  // A client may send its whole script and half-close before reading:
  // every reply still arrives, then the server closes.
  ServerFixture f = MakeFixture("net_half_close");
  SessionManager pool(f.store.get());
  Server server(&pool);
  ASSERT_TRUE(server.Start().ok());
  for (int round = 0; round < 20; ++round) {
    EXPECT_EQ(SendAndHalfClose(server.port(), "summary\nping\n"),
              "OK gmine-server protocol=1\n"
              "OK focus=s000 depth=0 children=3 display=4 path=s000\n"
              "OK pong\n")
        << "round " << round;
  }
  // A query runs on a worker while its connection is paused: the lines
  // behind it wait, then answer in order, and the EOF behind them is
  // read after the worker resumes the connection.
  const std::string replies = SendAndHalfClose(
      server.port(),
      "query MATCH NODES WHERE id < 3 ORDER BY id ASC\nchild 0\nping\n");
  EXPECT_NE(replies.find("OK BODY "), std::string::npos) << replies;
  EXPECT_NE(replies.find(" rows=3 "), std::string::npos) << replies;
  const std::string tail = "OK focus=s001 display=7\nOK pong\n";
  ASSERT_GT(replies.size(), tail.size());
  EXPECT_EQ(replies.substr(replies.size() - tail.size()), tail) << replies;
  server.Stop();
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(server.stats().requests, 43u);
}

TEST(NetServerTest, ThreadCountDoesNotGrowWithConnections) {
  ServerFixture f = MakeFixture("net_threads");
  SessionManager pool(f.store.get());
  ServerOptions sopts;
  sopts.max_clients = 64;
  Server server(&pool, sopts);
  ASSERT_TRUE(server.Start().ok());
  const int idle_threads = ProcessThreads();
  std::vector<Client> clients(16);
  for (Client& client : clients) {
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  }
  EXPECT_EQ(clients.back().Roundtrip("ping").value().text, "pong");
  EXPECT_EQ(ProcessThreads(), idle_threads);
  for (Client& client : clients) client.Close();
  server.Stop();
}

TEST(NetServerTest, ReadOnlyServerRejectsEditOps) {
  ServerFixture f = MakeFixture("net_readonly_edit");
  SessionManager pool(f.store.get());
  Server server(&pool);
  ASSERT_TRUE(server.Start().ok());
  const std::string transcript = DriveClient(
      server.port(), {"edit add-node X", "edit apply", "close"});
  EXPECT_EQ(transcript, "ERR:NotSupported|ERR:NotSupported|bye");
  server.Stop();
}

/// The rows of a GQL JSON result body (its stats section dropped).
std::string ResultRows(const std::string& body) {
  const size_t begin = body.find("\"rows\":");
  const size_t end = body.find(",\"stats\":");
  if (begin == std::string::npos || end == std::string::npos) return body;
  return body.substr(begin, end - begin);
}

TEST(NetServerTest, QueryAfterRemoteEditReadsTheNewEpoch) {
  // The seed-7 demo store: a query before the edit materializes the
  // full graph; the same query after `edit apply` must answer from the
  // published epoch, exactly as a fresh executor over the edited store
  // does — with and without the WAL's group-commit queue.
  gen::DblpOptions gopts;
  gopts.levels = 2;
  gopts.fanout = 3;
  gopts.leaf_size = 20;
  gopts.seed = 7;
  gen::DblpGraph dblp = std::move(gen::GenerateDblp(gopts)).value();
  const uint32_t n = dblp.graph.num_nodes();
  for (bool wal : {false, true}) {
    SCOPED_TRACE(wal ? "wal on" : "wal off");
    const std::string path = std::string(::testing::TempDir()) +
                             (wal ? "/net_stale_wal.gtree"
                                  : "/net_stale.gtree");
    std::remove((path + ".wal").c_str());
    core::EngineOptions eopts;
    eopts.build.levels = 2;
    eopts.build.fanout = 3;
    eopts.wal.enabled = wal;
    auto engine = std::move(core::GMineEngine::Build(dblp.graph, dblp.labels,
                                                     path, eopts))
                      .value();
    core::EditQueue queue(engine.get());
    Server server(&engine->sessions(), {}, nullptr, &queue);
    ASSERT_TRUE(server.Start().ok());

    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    auto before = client.Roundtrip("query MINE DEGREES");
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE(before.value().ok) << before.value().text;
    size_t added = 0;
    for (uint32_t v = 1; v < n && added < 21; ++v) {
      if (dblp.graph.HasEdge(0, v)) continue;
      auto queued = client.Roundtrip(StrFormat("edit add-edge 0 %u", v));
      ASSERT_TRUE(queued.ok());
      ASSERT_TRUE(queued.value().ok) << queued.value().text;
      ++added;
    }
    auto ack = client.Roundtrip("edit apply");
    ASSERT_TRUE(ack.ok());
    EXPECT_EQ(ack.value().text.find("committed ops=21 "), 0u)
        << ack.value().text;
    auto after = client.Roundtrip("query MINE DEGREES");
    ASSERT_TRUE(after.ok());
    ASSERT_TRUE(after.value().ok) << after.value().text;
    (void)client.Roundtrip("close");
    client.Close();
    server.Stop();
    queue.Stop();

    auto fresh = query::Executor(&engine->store()).ExecuteText("MINE DEGREES");
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    const std::string want = ResultRows(query::ResultToJson(fresh.value()));
    EXPECT_EQ(ResultRows(after.value().body), want);
    EXPECT_NE(ResultRows(before.value().body), want);
    engine.reset();
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
  }
}

TEST(NetServerTest, WritableServerCommitsEditBatchWithAck) {
  // Writable server whose engine has no WAL: the edit queue still
  // commits, and acks carry lsn=0 and the publishing epoch.
  gen::DblpOptions gopts;
  gopts.levels = 2;
  gopts.fanout = 3;
  gopts.leaf_size = 30;
  gopts.seed = 17;
  gen::DblpGraph dblp = std::move(gen::GenerateDblp(gopts)).value();
  std::string path =
      std::string(::testing::TempDir()) + "/net_writable.gtree";
  core::EngineOptions eopts;
  eopts.build.levels = 2;
  eopts.build.fanout = 3;
  auto engine =
      std::move(core::GMineEngine::Build(dblp.graph, dblp.labels, path,
                                         eopts))
          .value();

  core::EditQueue queue(engine.get());
  Server server(&engine->sessions(), {}, nullptr, &queue);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  const uint32_t n = dblp.graph.num_nodes();

  // Bad sub-ops fail without opening a batch.
  auto bad = client.Roundtrip("edit add-edge nope");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.value().code, "InvalidArgument");
  auto unknown = client.Roundtrip("edit frobnicate");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown.value().code, "InvalidArgument");

  // Queue a node + an edge, apply, and check the ack shape.
  auto queued = client.Roundtrip("edit add-node Wire Author");
  ASSERT_TRUE(queued.ok());
  EXPECT_EQ(queued.value().text,
            StrFormat("queued add-node id=%u ops=1", n));
  auto edge = client.Roundtrip(
      StrFormat("edit add-edge %u %u 2", n, dblp.jiawei_han));
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(edge.value().text,
            StrFormat("queued add-edge %u-%u ops=2", n, dblp.jiawei_han));
  auto ack = client.Roundtrip("edit apply");
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE(ack.value().ok) << ack.value().text;
  EXPECT_EQ(ack.value().text.find("committed ops=2 lsn=0 epoch="), 0u)
      << ack.value().text;

  // The mutation is visible to this very connection's session.
  auto located = client.Roundtrip("locate Wire Author");
  ASSERT_TRUE(located.ok());
  EXPECT_TRUE(located.value().ok) << located.value().text;

  // Empty apply is a polite no-op; abort drops a queued batch.
  auto empty = client.Roundtrip("edit apply");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().text, "nothing to apply");
  ASSERT_TRUE(client.Roundtrip("edit add-edge 0 1").ok());
  auto aborted = client.Roundtrip("edit abort");
  ASSERT_TRUE(aborted.ok());
  EXPECT_EQ(aborted.value().text, "aborted ops=1");
  auto after_abort = client.Roundtrip("edit apply");
  ASSERT_TRUE(after_abort.ok());
  EXPECT_EQ(after_abort.value().text, "nothing to apply");

  // STATS grew an edits section.
  auto stats = client.Roundtrip("stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.value().text.find("edits committed=1 ops=2"),
            std::string::npos)
      << stats.value().text;

  (void)client.Roundtrip("close");
  client.Close();
  server.Stop();
  queue.Stop();
  // Only the engine's own pinned default session remains.
  EXPECT_EQ(engine->sessions().size(), 1u);
  engine.reset();
  std::remove(path.c_str());
}

TEST(NetServerTest, InterleavedBatchesFromTwoConnectionsBothCommit) {
  // Two clients build batches against the same tip: A queues a node,
  // B queues, applies and commits its own node first, then A applies.
  // The queue rebases A's provisional id past B's, with and without a
  // WAL; only the ack's lsn tells the two apart.
  gen::DblpOptions gopts;
  gopts.levels = 2;
  gopts.fanout = 3;
  gopts.leaf_size = 20;
  gopts.seed = 7;
  gen::DblpGraph dblp = std::move(gen::GenerateDblp(gopts)).value();
  const uint32_t n = dblp.graph.num_nodes();
  for (bool wal : {false, true}) {
    SCOPED_TRACE(wal ? "wal on" : "wal off");
    const std::string path = std::string(::testing::TempDir()) +
                             (wal ? "/net_interleave_wal.gtree"
                                  : "/net_interleave.gtree");
    std::remove((path + ".wal").c_str());
    core::EngineOptions eopts;
    eopts.build.levels = 2;
    eopts.build.fanout = 3;
    eopts.wal.enabled = wal;
    auto engine = std::move(core::GMineEngine::Build(dblp.graph, dblp.labels,
                                                     path, eopts))
                      .value();
    core::EditQueue queue(engine.get());
    Server server(&engine->sessions(), {}, nullptr, &queue);
    ASSERT_TRUE(server.Start().ok());

    Client a;
    Client b;
    ASSERT_TRUE(a.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(b.Connect("127.0.0.1", server.port()).ok());
    auto queued_a = a.Roundtrip("edit add-node Alpha");
    ASSERT_TRUE(queued_a.ok());
    EXPECT_EQ(queued_a.value().text,
              StrFormat("queued add-node id=%u ops=1", n));
    auto queued_b = b.Roundtrip("edit add-node Beta");
    ASSERT_TRUE(queued_b.ok());
    EXPECT_EQ(queued_b.value().text,
              StrFormat("queued add-node id=%u ops=1", n));
    auto ack_b = b.Roundtrip("edit apply");
    ASSERT_TRUE(ack_b.ok());
    ASSERT_TRUE(ack_b.value().ok) << ack_b.value().text;
    auto ack_a = a.Roundtrip("edit apply");
    ASSERT_TRUE(ack_a.ok());
    ASSERT_TRUE(ack_a.value().ok) << ack_a.value().text;
    const std::string lsn_b = wal ? "lsn=1 " : "lsn=0 ";
    const std::string lsn_a = wal ? "lsn=2 " : "lsn=0 ";
    EXPECT_EQ(ack_b.value().text.find("committed ops=1 " + lsn_b), 0u)
        << ack_b.value().text;
    EXPECT_EQ(ack_a.value().text.find("committed ops=1 " + lsn_a), 0u)
        << ack_a.value().text;

    // A's node landed past B's: Beta is n, Alpha is n + 1.
    auto located_a = a.Roundtrip("locate Alpha");
    ASSERT_TRUE(located_a.ok());
    EXPECT_TRUE(located_a.value().ok) << located_a.value().text;
    auto located_b = b.Roundtrip("locate Beta");
    ASSERT_TRUE(located_b.ok());
    EXPECT_TRUE(located_b.value().ok) << located_b.value().text;
    (void)a.Roundtrip("close");
    (void)b.Roundtrip("close");
    a.Close();
    b.Close();
    server.Stop();
    queue.Stop();
    EXPECT_EQ(queue.stats().committed, 2u);
    EXPECT_EQ(engine->store().num_graph_nodes(), n + 2);
    EXPECT_EQ(engine->labels().Find("Beta"), n);
    EXPECT_EQ(engine->labels().Find("Alpha"), n + 1);
    EXPECT_EQ(engine->store().applied_lsn(), wal ? 2u : 0u);
    engine.reset();
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
  }
}

}  // namespace
}  // namespace gmine::net
