// The shared session-op module: the edit grammar parser, and the
// dispatcher's promise that an op answers the same on every transport —
// one op list driven through the TCP line protocol (net::Server), the
// gateway WebSocket and `gmine serve` over one store file.

#include "net/session_ops.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cli/commands.h"
#include "core/catalog.h"
#include "core/session_manager.h"
#include "gen/dblp.h"
#include "graph/graph_io.h"
#include "gtree/builder.h"
#include "http/client.h"
#include "http/gateway.h"
#include "net/client.h"
#include "net/server.h"
#include "storage/buffer_pool.h"

namespace gmine::net {
namespace {

namespace fs = std::filesystem;

TEST(EditGrammarTest, ParsesEveryMutation) {
  auto node = ParseEditOp("add-node  Wire Author ");
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(node.value().kind, EditOp::Kind::kAddNode);
  EXPECT_EQ(node.value().label, "Wire Author");
  auto bare = ParseEditOp("add-node");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare.value().label, "");

  auto edge = ParseEditOp("add-edge 3 7 2.5");
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(edge.value().kind, EditOp::Kind::kAddEdge);
  EXPECT_EQ(edge.value().u, 3u);
  EXPECT_EQ(edge.value().v, 7u);
  EXPECT_EQ(edge.value().weight, 2.5f);
  EXPECT_EQ(ParseEditOp("add-edge 3 7").value().weight, 1.0f);

  auto cut = ParseEditOp("remove-edge 3 7");
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut.value().kind, EditOp::Kind::kRemoveEdge);
  auto gone = ParseEditOp("remove-node 9");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone.value().kind, EditOp::Kind::kRemoveNode);
  EXPECT_EQ(gone.value().u, 9u);
}

TEST(EditGrammarTest, RejectsMalformedLines) {
  for (const char* line :
       {"add-edge 3", "add-edge x 7", "add-edge 3 7 heavy", "remove-edge 3",
        "remove-edge 3 7 1", "remove-node", "remove-node 9 10", "apply",
        "frobnicate 1 2", ""}) {
    EXPECT_TRUE(ParseEditOp(line).status().IsInvalidArgument()) << line;
  }
}

TEST(EditGrammarTest, QueuesOntoABatch) {
  graph::GraphEdit edit(10);
  std::vector<std::string> labels;
  EXPECT_EQ(QueueEditOp(ParseEditOp("add-node New").value(), &edit, &labels),
            10u);
  QueueEditOp(ParseEditOp("add-edge 10 2").value(), &edit, &labels);
  QueueEditOp(ParseEditOp("remove-node 4").value(), &edit, &labels);
  EXPECT_EQ(edit.num_ops(), 3u);
  EXPECT_EQ(labels, std::vector<std::string>{"New"});
}

/// The value of string field `key` in a one-line JSON reply.
std::string JsonString(const std::string& reply, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t begin = reply.find(needle);
  if (begin == std::string::npos) return "<no " + key + ">";
  const size_t from = begin + needle.size();
  return reply.substr(from, reply.find('"', from) - from);
}

// Each Over* helper drives `ops` through one transport and returns one
// transport-neutral answer per op: "OK <text>" or "ERR <code>".

std::vector<std::string> OverTcp(const std::string& store_path,
                                 const std::vector<std::string>& ops) {
  auto store = gtree::GTreeStore::Open(store_path);
  EXPECT_TRUE(store.ok());
  core::SessionManager pool(store.value().get());
  Server server(&pool);
  EXPECT_TRUE(server.Start().ok());
  Client client;
  EXPECT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  std::vector<std::string> answers;
  for (const std::string& op : ops) {
    auto r = client.Roundtrip(op);
    if (!r.ok()) return {"<transport: " + r.status().ToString() + ">"};
    answers.push_back(r.value().ok ? "OK " + r.value().text
                                   : "ERR " + r.value().code);
  }
  client.Close();
  server.Stop();
  return answers;
}

std::vector<std::string> OverWebSocket(const std::string& dir,
                                       const std::vector<std::string>& ops) {
  storage::BufferPool pool;
  core::CatalogOptions copts;
  copts.store.buffer_pool = &pool;
  auto catalog = core::Catalog::OpenDirectory(dir, copts);
  EXPECT_TRUE(catalog.ok());
  http::GatewayOptions gopts;
  gopts.buffer_pool = &pool;
  http::Gateway gateway(catalog.value().get(), gopts);
  EXPECT_TRUE(gateway.Start().ok());
  http::GatewayClient ws;
  EXPECT_TRUE(ws.Connect("127.0.0.1", gateway.port()).ok());
  EXPECT_TRUE(ws.UpgradeWebSocket("/api/v1/stores/s0/ws").ok());
  std::vector<std::string> answers;
  for (const std::string& op : ops) {
    auto r = ws.Roundtrip(op);
    if (!r.ok()) return {"<transport: " + r.status().ToString() + ">"};
    const std::string& reply = r.value();
    answers.push_back(reply.find("\"ok\":true") != std::string::npos
                          ? "OK " + JsonString(reply, "text")
                          : "ERR " + JsonString(reply, "code"));
  }
  (void)ws.SendClose(1000);
  ws.Close();
  gateway.Stop();
  return answers;
}

std::vector<std::string> OverServe(const std::string& store_path,
                                   const std::vector<std::string>& ops) {
  const std::string script = store_path + ".serve";
  std::string lines;
  for (const std::string& op : ops) lines += "0 " + op + "\n";
  EXPECT_TRUE(graph::WriteStringToFile(lines, script).ok());
  std::string out;
  EXPECT_TRUE(cli::RunCli({"serve", store_path, "--sessions", "1",
                           "--script", script},
                          &out)
                  .ok())
      << out;
  std::remove(script.c_str());
  // "[s0] <op> -> <text>" or "[s0] <op> (script line N) -> error:
  // <Code>: <message>", one line per op, in script order.
  std::vector<std::string> answers;
  size_t pos = 0;
  while ((pos = out.find("[s0] ", pos)) != std::string::npos) {
    const size_t eol = out.find('\n', pos);
    const std::string line = out.substr(pos, eol - pos);
    pos = eol;
    const size_t arrow = line.find(" -> ");
    const std::string reply = line.substr(arrow + 4);
    if (reply.rfind("error: ", 0) == 0) {
      answers.push_back("ERR " + reply.substr(7, reply.find(':', 7) - 7));
    } else {
      answers.push_back("OK " + reply);
    }
  }
  return answers;
}

TEST(SessionOpsTest, EveryTransportGivesTheSameAnswer) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/session_ops_transports";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string store = dir + "/s0.gtree";
  gen::DblpOptions gopts;
  gopts.levels = 2;
  gopts.fanout = 3;
  gopts.leaf_size = 20;
  gopts.seed = 7;
  gen::DblpGraph dblp = std::move(gen::GenerateDblp(gopts)).value();
  gtree::GTreeBuildOptions bopts;
  bopts.levels = 2;
  bopts.fanout = 3;
  gtree::GTree tree = std::move(gtree::BuildGTree(dblp.graph, bopts)).value();
  ASSERT_TRUE(gtree::GTreeStore::Create(
                  store, dblp.graph, tree,
                  gtree::ConnectivityIndex::Build(dblp.graph, tree),
                  dblp.labels)
                  .ok());

  struct Case {
    std::string op;
    std::string code;  // "OK" or the expected error code
  };
  const std::vector<Case> cases = {
      {"root", "OK"},
      {"child 0", "OK"},
      {"child 99", "OutOfRange"},
      {"summary", "OK"},
      {"focus s003", "OK"},
      {"focus nope", "NotFound"},
      {"locate Jiawei Han", "OK"},
      {"load", "OK"},
      {"connectivity", "OK"},
      {"render svg", "OK"},
      {"render png", "InvalidArgument"},
      {"query MATCH NODES WHERE id < 3 ORDER BY id ASC", "OK"},
      {"back", "OK"},
      {"parent", "OK"},
  };
  std::vector<std::string> ops;
  for (const Case& c : cases) ops.push_back(c.op);

  const std::vector<std::string> tcp = OverTcp(store, ops);
  const std::vector<std::string> ws = OverWebSocket(dir, ops);
  const std::vector<std::string> serve = OverServe(store, ops);
  ASSERT_EQ(tcp.size(), cases.size()) << (tcp.empty() ? "" : tcp[0]);
  ASSERT_EQ(ws.size(), cases.size()) << (ws.empty() ? "" : ws[0]);
  ASSERT_EQ(serve.size(), cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].op);
    EXPECT_EQ(tcp[i].substr(0, tcp[i].find(' ')),
              cases[i].code == "OK" ? "OK" : "ERR");
    if (cases[i].code != "OK") {
      EXPECT_EQ(tcp[i], "ERR " + cases[i].code);
    }
    EXPECT_EQ(ws[i], tcp[i]);
    EXPECT_EQ(serve[i], tcp[i]);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace gmine::net
