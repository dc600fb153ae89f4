#include "cli/commands.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

#include "graph/graph_io.h"
#include "util/string_util.h"

namespace gmine::cli {
namespace {

std::string Tmp(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(ParseCommandLineTest, FlagsAndPositionals) {
  auto cmd = ParseCommandLine(
      {"extract", "store.gtree", "--source", "A", "--source", "B",
       "--budget", "25"});
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd.value().command, "extract");
  ASSERT_EQ(cmd.value().positional.size(), 1u);
  EXPECT_EQ(cmd.value().positional[0], "store.gtree");
  EXPECT_EQ(cmd.value().Get("budget"), "25");
  auto sources = cmd.value().GetAll("source");
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_EQ(sources[0], "A");
  EXPECT_EQ(sources[1], "B");
  EXPECT_TRUE(cmd.value().Has("budget"));
  EXPECT_FALSE(cmd.value().Has("svg"));
  EXPECT_EQ(cmd.value().Get("missing", "dflt"), "dflt");
}

TEST(ParseCommandLineTest, RejectsDanglingFlag) {
  EXPECT_FALSE(ParseCommandLine({"build", "--graph"}).ok());
  EXPECT_FALSE(ParseCommandLine({}).ok());
}

TEST(CliTest, HelpPrintsUsage) {
  std::string out;
  ASSERT_TRUE(RunCli({"help"}, &out).ok());
  EXPECT_NE(out.find("usage: gmine"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  std::string out;
  Status st = RunCli({"frobnicate"}, &out);
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("unknown command"), std::string::npos);
}

TEST(CliTest, UnknownFlagIsAUsageErrorNamingIt) {
  // A misspelled flag must not run with defaults: it fails as a usage
  // error (exit 2 from the binary) before the store is even opened.
  std::string out;
  Status st =
      RunCli({"edit", "/nonexistent/x.gtree", "--levles", "9"}, &out);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("edit: unknown flag --levles"),
            std::string::npos)
      << st.message();
  // A flag another command reads is still unknown to this one.
  st = RunCli({"info", "/nonexistent/x.gtree", "--levels", "2"}, &out);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("--levels"), std::string::npos);
  st = RunCli({"help", "--verbose", "1"}, &out);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  // Flags the command reads still reach it: the store open fails next.
  EXPECT_TRUE(RunCli({"edit", "/nonexistent/x.gtree", "--wal", "on",
                      "--group-ops", "4", "--compact-ops", "8"},
                     &out)
                  .IsIOError());
}

TEST(CliTest, FullWorkflowEndToEnd) {
  std::string prefix = Tmp("cli_wf");
  std::string store = Tmp("cli_wf.gtree");
  std::string out;

  // generate -> edges + labels files.
  ASSERT_TRUE(RunCli({"generate", "--out", prefix, "--levels", "2",
                      "--fanout", "3", "--leaf-size", "30", "--seed", "5"},
                     &out)
                  .ok())
      << out;
  EXPECT_NE(out.find("generated"), std::string::npos);
  ASSERT_TRUE(graph::ReadFileToString(prefix + ".edges").ok());
  ASSERT_TRUE(graph::ReadFileToString(prefix + ".labels").ok());

  // build -> store file.
  out.clear();
  ASSERT_TRUE(RunCli({"build", "--graph", prefix + ".edges", "--labels",
                      prefix + ".labels", "--out", store, "--levels", "2",
                      "--fanout", "3"},
                     &out)
                  .ok())
      << out;
  EXPECT_NE(out.find("built GTree"), std::string::npos);

  // info.
  out.clear();
  ASSERT_TRUE(RunCli({"info", store}, &out).ok()) << out;
  EXPECT_NE(out.find("communities="), std::string::npos);
  EXPECT_NE(out.find("connectivity pairs"), std::string::npos);

  // query by label (planted hub).
  out.clear();
  ASSERT_TRUE(RunCli({"query", store, "--label", "Jiawei Han"}, &out).ok())
      << out;
  EXPECT_NE(out.find("'Jiawei Han'"), std::string::npos);
  EXPECT_NE(out.find("community path: s000"), std::string::npos);

  // extract with SVG.
  out.clear();
  std::string svg = Tmp("cli_cs.svg");
  ASSERT_TRUE(RunCli({"extract", store, "--source", "Jiawei Han",
                      "--source", "Philip S. Yu", "--budget", "15", "--svg",
                      svg},
                     &out)
                  .ok())
      << out;
  EXPECT_NE(out.find("ConnectionSubgraph"), std::string::npos);
  EXPECT_TRUE(graph::ReadFileToString(svg).ok());

  // render the root view.
  out.clear();
  std::string view = Tmp("cli_view.svg");
  ASSERT_TRUE(
      RunCli({"render", store, "--zoom", "1.5", "--svg", view}, &out).ok())
      << out;
  EXPECT_TRUE(graph::ReadFileToString(view).ok());

  // export a leaf community: discover a leaf name via info output is
  // fiddly; leaves are named s###, try a few.
  out.clear();
  std::string dot = Tmp("cli_leaf.dot");
  bool exported = false;
  for (int i = 1; i < 20 && !exported; ++i) {
    std::string name = StrFormat("s%03d", i);
    std::string tmp_out;
    if (RunCommand(
            ParseCommandLine({"export", store, "--community", name,
                              "--dot", dot})
                .value(),
            &tmp_out)
            .ok()) {
      exported = true;
    }
  }
  ASSERT_TRUE(exported);
  auto dot_text = graph::ReadFileToString(dot);
  ASSERT_TRUE(dot_text.ok());
  EXPECT_NE(dot_text.value().find("graph \"s0"), std::string::npos);

  for (const std::string& p :
       {prefix + ".edges", prefix + ".labels", store, svg, view, dot}) {
    std::remove(p.c_str());
  }
}

TEST(CliTest, ServeMultiplexesScriptAcrossSessions) {
  std::string prefix = Tmp("cli_serve");
  std::string store = Tmp("cli_serve.gtree");
  std::string script = Tmp("cli_serve.script");
  std::string out;
  ASSERT_TRUE(RunCli({"generate", "--out", prefix, "--levels", "2",
                      "--fanout", "3", "--leaf-size", "30", "--seed", "7"},
                     &out)
                  .ok());
  ASSERT_TRUE(RunCli({"build", "--graph", prefix + ".edges", "--labels",
                      prefix + ".labels", "--out", store, "--levels", "2",
                      "--fanout", "3"},
                     &out)
                  .ok());

  // Three sessions: s0 walks down and loads a leaf, s1 runs a label
  // query, s2 inspects context connectivity. The same leaf is visited by
  // s0 and s1 only if the hub lands there; either way every line must
  // execute and the summary must report per-session and store stats.
  ASSERT_TRUE(graph::WriteStringToFile("# serve smoke\n"
                                       "0 child 0\n"
                                       "0 child 0\n"
                                       "0 load\n"
                                       "0 parent\n"
                                       "1 locate Jiawei Han\n"
                                       "1 load\n"
                                       "1 query MATCH NODES WHERE id < 3 "
                                       "ORDER BY id ASC\n"
                                       "2 connectivity\n"
                                       "2 child 1\n"
                                       "2 back\n",
                                       script)
                  .ok());
  out.clear();
  ASSERT_TRUE(RunCli({"serve", store, "--sessions", "3", "--script", script,
                      "--threads", "2"},
                     &out)
                  .ok())
      << out;
  // Transcripts in session order, regardless of execution interleaving.
  EXPECT_NE(out.find("[s0] child -> focus="), std::string::npos) << out;
  EXPECT_NE(out.find("[s0] load -> "), std::string::npos);
  EXPECT_NE(out.find("[s1] locate -> node "), std::string::npos);
  EXPECT_NE(out.find("[s1] query -> rows=3 pages_scanned="),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("[s2] connectivity -> "), std::string::npos);
  EXPECT_LT(out.find("[s0]"), out.find("[s1]"));
  EXPECT_LT(out.find("[s1]"), out.find("[s2]"));
  // Summary: three sessions and the shared store's IO counters.
  EXPECT_NE(out.find("s0: interactions="), std::string::npos);
  EXPECT_NE(out.find("pool: open=3"), std::string::npos);
  EXPECT_NE(out.find("shared hits="), std::string::npos);

  // Error paths: unknown op and out-of-range session index fail the
  // whole batch before anything runs.
  ASSERT_TRUE(graph::WriteStringToFile("0 frobnicate\n", script).ok());
  out.clear();
  EXPECT_TRUE(RunCli({"serve", store, "--sessions", "1", "--script", script},
                     &out)
                  .ok());  // unknown ops report per-line, batch continues
  EXPECT_NE(out.find("error:"), std::string::npos);
  ASSERT_TRUE(graph::WriteStringToFile("5 root\n", script).ok());
  out.clear();
  EXPECT_TRUE(RunCli({"serve", store, "--sessions", "2", "--script", script},
                     &out)
                  .IsInvalidArgument());

  for (const std::string& p : {prefix + ".edges", prefix + ".labels", store,
                               script}) {
    std::remove(p.c_str());
  }
}

TEST(CliTest, ServeHelpAndQuitOps) {
  std::string prefix = Tmp("cli_hq");
  std::string store = Tmp("cli_hq.gtree");
  std::string script = Tmp("cli_hq.script");
  std::string out;
  ASSERT_TRUE(RunCli({"generate", "--out", prefix, "--levels", "2",
                      "--fanout", "3", "--leaf-size", "20", "--seed", "9"},
                     &out)
                  .ok());
  ASSERT_TRUE(RunCli({"build", "--graph", prefix + ".edges", "--out",
                      store, "--levels", "2", "--fanout", "3"},
                     &out)
                  .ok());

  // `help` lists the ops; `quit` stops that session's queue — the
  // child op after it must not run.
  ASSERT_TRUE(graph::WriteStringToFile("0 help\n"
                                       "0 quit\n"
                                       "0 child 0\n"
                                       "1 child 0\n",
                                       script)
                  .ok());
  out.clear();
  ASSERT_TRUE(RunCli({"serve", store, "--sessions", "2", "--script",
                      script},
                     &out)
                  .ok())
      << out;
  EXPECT_NE(out.find("[s0] help -> ops: root focus child parent back "
                     "locate load summary connectivity render query ping "
                     "close help quit"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("[s0] quit -> done"), std::string::npos);
  EXPECT_EQ(out.find("[s0] child"), std::string::npos) << out;
  EXPECT_NE(out.find("[s1] child -> focus="), std::string::npos);
  // Session 0 recorded no navigation beyond the initial root focus.
  EXPECT_NE(out.find("s0: interactions=1 "), std::string::npos) << out;

  for (const std::string& p : {prefix + ".edges", prefix + ".labels",
                               store, script}) {
    std::remove(p.c_str());
  }
}

TEST(CliTest, ServeParseErrorsEchoTheOffendingLine) {
  std::string prefix = Tmp("cli_echo");
  std::string store = Tmp("cli_echo.gtree");
  std::string script = Tmp("cli_echo.script");
  std::string out;
  ASSERT_TRUE(RunCli({"generate", "--out", prefix, "--levels", "2",
                      "--fanout", "3", "--leaf-size", "20"},
                     &out)
                  .ok());
  ASSERT_TRUE(RunCli({"build", "--graph", prefix + ".edges", "--out",
                      store, "--levels", "2", "--fanout", "3"},
                     &out)
                  .ok());
  ASSERT_TRUE(graph::WriteStringToFile("9 root extra\n", script).ok());
  out.clear();
  Status st =
      RunCli({"serve", store, "--sessions", "2", "--script", script}, &out);
  EXPECT_TRUE(st.IsInvalidArgument());
  // The error names the line *and* echoes it.
  EXPECT_NE(st.message().find("line 1"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("'9 root extra'"), std::string::npos)
      << st.message();
  for (const std::string& p : {prefix + ".edges", prefix + ".labels",
                               store, script}) {
    std::remove(p.c_str());
  }
}

TEST(CliTest, ConnectRejectsBadSpecs) {
  std::string out;
  std::string empty_script = Tmp("cli_empty.script");
  ASSERT_TRUE(graph::WriteStringToFile("", empty_script).ok());
  EXPECT_TRUE(RunCli({"connect"}, &out).IsInvalidArgument());
  EXPECT_TRUE(
      RunCli({"connect", "noport"}, &out).IsInvalidArgument());
  // Parses as HOST:PORT but is not an IPv4 literal (no DNS).
  EXPECT_TRUE(RunCli({"connect", "not-a-host:80", "--script",
                      empty_script},
                     &out)
                  .IsInvalidArgument());
  std::remove(empty_script.c_str());
}

TEST(CliTest, ServerRequiresStoreAndValidFlags) {
  std::string out;
  EXPECT_TRUE(RunCli({"server"}, &out).IsInvalidArgument());
  EXPECT_TRUE(RunCli({"server", "x.gtree", "--max-clients", "0"}, &out)
                  .IsInvalidArgument());
  EXPECT_TRUE(RunCli({"server", "/nonexistent/x.gtree"}, &out).IsIOError());
}

TEST(CliTest, ServerConnectLoopbackEndToEnd) {
  std::string prefix = Tmp("cli_net");
  std::string store = Tmp("cli_net.gtree");
  std::string script = Tmp("cli_net.script");
  std::string port_file = Tmp("cli_net.port");
  std::string out;
  ASSERT_TRUE(RunCli({"generate", "--out", prefix, "--levels", "2",
                      "--fanout", "3", "--leaf-size", "30", "--seed", "7"},
                     &out)
                  .ok());
  ASSERT_TRUE(RunCli({"build", "--graph", prefix + ".edges", "--labels",
                      prefix + ".labels", "--out", store, "--levels", "2",
                      "--fanout", "3"},
                     &out)
                  .ok());
  std::remove(port_file.c_str());

  // The server command parks until a client sends `shutdown`, so it
  // runs on its own thread exactly like the real binary would.
  std::string server_out;
  Status server_status;
  std::thread server_thread([&] {
    server_status = RunCli(
        {"server", store, "--port-file", port_file, "--prefetch", "on"},
        &server_out);
  });
  std::string port;
  for (int i = 0; i < 200 && port.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto text = graph::ReadFileToString(port_file);
    if (text.ok()) port = std::string(TrimWhitespace(text.value()));
  }

  Status st = Status::Internal("server never published its port");
  out.clear();
  if (!port.empty()) {
    EXPECT_TRUE(graph::WriteStringToFile("# loopback tour\n"
                                         "ping\n"
                                         "child 0\n"
                                         "child 0\n"
                                         "load\n"
                                         "stats\n"
                                         "shutdown\n",
                                         script)
                    .ok());
    st = RunCli({"connect", "127.0.0.1:" + port, "--script", script},
                &out);
    if (!st.ok()) {
      // The scripted shutdown never reached the server; send a bare
      // one so join() below cannot park forever. (A server that failed
      // to start has already returned — join is then safe regardless.)
      EXPECT_TRUE(graph::WriteStringToFile("shutdown\n", script).ok());
      std::string fallback;
      (void)RunCli({"connect", "127.0.0.1:" + port, "--script", script},
                   &fallback);
    }
  }
  server_thread.join();
  ASSERT_TRUE(st.ok()) << st.ToString() << "\n" << out;
  EXPECT_NE(out.find("< OK gmine-server protocol=1"), std::string::npos)
      << out;
  EXPECT_NE(out.find("> ping\n< OK pong"), std::string::npos) << out;
  EXPECT_NE(out.find("< OK focus=s001 display=7"), std::string::npos);
  EXPECT_NE(out.find("conn id=1"), std::string::npos);
  EXPECT_NE(out.find("> shutdown\n< OK shutting down"),
            std::string::npos);
  ASSERT_TRUE(server_status.ok()) << server_status.ToString();
  EXPECT_NE(server_out.find("listening on 127.0.0.1:" + port),
            std::string::npos)
      << server_out;
  EXPECT_NE(server_out.find("leaked=0"), std::string::npos) << server_out;
  EXPECT_NE(server_out.find("prefetch: enqueued="), std::string::npos);

  for (const std::string& p : {prefix + ".edges", prefix + ".labels",
                               store, script, port_file}) {
    std::remove(p.c_str());
  }
}

TEST(CliTest, WritableServerCountsOnlyConnectionSessions) {
  // An engine-backed (writable) server also holds the engine's pinned
  // default session; the exit summary must count only the sessions it
  // opened for connections, so leaked=0 after a clean shutdown.
  std::string prefix = Tmp("cli_wleak");
  std::string store = Tmp("cli_wleak.gtree");
  std::string script = Tmp("cli_wleak.script");
  std::string port_file = Tmp("cli_wleak.port");
  std::string out;
  ASSERT_TRUE(RunCli({"generate", "--out", prefix, "--levels", "2",
                      "--fanout", "3", "--leaf-size", "20", "--seed", "7"},
                     &out)
                  .ok());
  ASSERT_TRUE(RunCli({"build", "--graph", prefix + ".edges", "--labels",
                      prefix + ".labels", "--out", store, "--levels", "2",
                      "--fanout", "3"},
                     &out)
                  .ok());
  std::remove(port_file.c_str());

  std::string server_out;
  Status server_status;
  std::thread server_thread([&] {
    server_status = RunCli({"server", store, "--port-file", port_file,
                            "--writable", "on"},
                           &server_out);
  });
  std::string port;
  for (int i = 0; i < 200 && port.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto text = graph::ReadFileToString(port_file);
    if (text.ok()) port = std::string(TrimWhitespace(text.value()));
  }
  // One client connects and closes; a second one shuts the server down.
  // (A server that failed to start has already returned — join is then
  // safe regardless.)
  if (!port.empty()) {
    for (const char* lines : {"ping\nclose\n", "shutdown\n"}) {
      EXPECT_TRUE(graph::WriteStringToFile(lines, script).ok());
      out.clear();
      EXPECT_TRUE(
          RunCli({"connect", "127.0.0.1:" + port, "--script", script}, &out)
              .ok())
          << out;
    }
  }
  server_thread.join();
  ASSERT_FALSE(port.empty()) << server_out;
  ASSERT_TRUE(server_status.ok()) << server_status.ToString();
  EXPECT_NE(server_out.find("writable: on"), std::string::npos)
      << server_out;
  EXPECT_NE(server_out.find("pool: opened=2 closed=2 idle_closed=0 "
                            "leaked=0"),
            std::string::npos)
      << server_out;

  for (const std::string& p : {prefix + ".edges", prefix + ".labels",
                               store, store + ".wal", script, port_file}) {
    std::remove(p.c_str());
  }
}

TEST(CliTest, QueryMissingLabelFails) {
  std::string prefix = Tmp("cli_miss");
  std::string store = Tmp("cli_miss.gtree");
  std::string out;
  ASSERT_TRUE(RunCli({"generate", "--out", prefix, "--levels", "2",
                      "--fanout", "3", "--leaf-size", "20"},
                     &out)
                  .ok());
  ASSERT_TRUE(RunCli({"build", "--graph", prefix + ".edges", "--out",
                      store, "--levels", "2", "--fanout", "3"},
                     &out)
                  .ok());
  out.clear();
  Status st = RunCli({"query", store, "--label", "No Such Person"}, &out);
  EXPECT_TRUE(st.IsNotFound());
  for (const std::string& p : {prefix + ".edges", prefix + ".labels",
                               store}) {
    std::remove(p.c_str());
  }
}

TEST(CliTest, QueryGoldenSession) {
  // The GQL tour transcript is golden: byte-exact against
  // tests/golden/query_session.golden on the deterministic seed-7 demo
  // store (docs/QUERY.md walks through the same session).
  std::string prefix = Tmp("cli_gql");
  std::string store = Tmp("cli_gql.gtree");
  std::string out;
  ASSERT_TRUE(RunCli({"generate", "--out", prefix, "--levels", "2",
                      "--fanout", "3", "--leaf-size", "30", "--seed", "7"},
                     &out)
                  .ok());
  ASSERT_TRUE(RunCli({"build", "--graph", prefix + ".edges", "--labels",
                      prefix + ".labels", "--out", store, "--levels", "2",
                      "--fanout", "3"},
                     &out)
                  .ok());
  const std::string golden_dir =
      std::string(GMINE_TEST_SOURCE_DIR) + "/tests/golden";
  out.clear();
  ASSERT_TRUE(RunCli({"query", store, "--script",
                      golden_dir + "/query_session.script"},
                     &out)
                  .ok())
      << out;
  auto golden =
      graph::ReadFileToString(golden_dir + "/query_session.golden");
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  EXPECT_EQ(out, golden.value());

  // Pushdown off: same rows, more pages touched (the footer reports
  // the scan counters).
  out.clear();
  ASSERT_TRUE(RunCli({"query", store,
                      "MATCH NODES WHERE label PREFIX \"Jiawei\""},
                     &out)
                  .ok());
  EXPECT_NE(out.find("139|Jiawei Han|s008|25"), std::string::npos) << out;
  EXPECT_NE(out.find("pages scanned=1/9 pruned=8"), std::string::npos)
      << out;
  out.clear();
  ASSERT_TRUE(RunCli({"query", store, "--pushdown", "off",
                      "MATCH NODES WHERE label PREFIX \"Jiawei\""},
                     &out)
                  .ok());
  EXPECT_NE(out.find("139|Jiawei Han|s008|25"), std::string::npos) << out;
  EXPECT_NE(out.find("pages scanned=9/9 pruned=0"), std::string::npos)
      << out;

  // Negative paths surface as error Statuses (nonzero process exit)
  // when the statement is given directly.
  out.clear();
  EXPECT_TRUE(RunCli({"query", store, "MATCH NODES WHERE bogus = 1"},
                     &out)
                  .IsInvalidArgument());
  EXPECT_TRUE(
      RunCli({"query", store, "MATCH NODES LIMIT 0"}, &out)
          .IsInvalidArgument());
  EXPECT_TRUE(RunCli({"query", store, "SUMMARIZE NODE 999999"}, &out)
                  .IsNotFound());
  EXPECT_TRUE(RunCli({"query", store, "--pushdown", "sideways",
                      "MATCH NODES"},
                     &out)
                  .IsInvalidArgument());
  EXPECT_TRUE(RunCli({"query", store, "MATCH NODES", "--script", "x"},
                     &out)
                  .IsInvalidArgument());
  for (const std::string& p :
       {prefix + ".edges", prefix + ".labels", store}) {
    std::remove(p.c_str());
  }
}

TEST(CliTest, BuildRequiresFlags) {
  std::string out;
  EXPECT_TRUE(RunCli({"build"}, &out).IsInvalidArgument());
  EXPECT_TRUE(RunCli({"generate"}, &out).IsInvalidArgument());
  EXPECT_TRUE(RunCli({"render", "x.gtree"}, &out).IsInvalidArgument());
}

TEST(CliTest, InfoMissingStoreIsIOError) {
  std::string out;
  Status st = RunCli({"info", "/nonexistent/x.gtree"}, &out);
  EXPECT_TRUE(st.IsIOError());
}

TEST(CliTest, ServeAndServerFailOnMissingStore) {
  // A store-open failure must surface as an error Status (and therefore
  // a nonzero exit from the binary) — not hang, not succeed. CI's smoke
  // asserts the exit codes on the real binary too.
  std::string out;
  EXPECT_TRUE(RunCli({"serve", "/nonexistent/x.gtree"}, &out).IsIOError());
  out.clear();
  EXPECT_TRUE(
      RunCli({"server", "/nonexistent/x.gtree", "--port", "0"}, &out)
          .IsIOError());
  out.clear();
  EXPECT_TRUE(RunCli({"edit", "/nonexistent/x.gtree"}, &out).IsIOError());
  out.clear();
  EXPECT_TRUE(RunCli({"serve"}, &out).IsInvalidArgument());
  EXPECT_TRUE(RunCli({"server"}, &out).IsInvalidArgument());
  EXPECT_TRUE(RunCli({"edit"}, &out).IsInvalidArgument());
}

TEST(CliTest, EditScriptAppliesIncrementally) {
  std::string prefix = Tmp("cli_edit");
  std::string store = Tmp("cli_edit.gtree");
  std::string out;
  ASSERT_TRUE(RunCli({"generate", "--out", prefix, "--levels", "2",
                      "--fanout", "3", "--leaf-size", "20"},
                     &out)
                  .ok());
  ASSERT_TRUE(RunCli({"build", "--graph", prefix + ".edges", "--labels",
                      prefix + ".labels", "--out", store, "--levels", "2",
                      "--fanout", "3"},
                     &out)
                  .ok());

  std::string script = Tmp("cli_edit.script");
  ASSERT_TRUE(graph::WriteStringToFile("# one cross batch\n"
                                       "add-edge 0 100 2\n"
                                       "apply\n"
                                       "add-node Edit Author\n"
                                       "add-edge 180 0 1.5\n"
                                       "apply\n"
                                       "remove-node 5\n",
                                       script)
                  .ok());
  out.clear();
  ASSERT_TRUE(RunCli({"edit", store, "--script", script}, &out).ok())
      << out;
  EXPECT_NE(out.find("[batch 1]"), std::string::npos);
  EXPECT_NE(out.find("repaired: subtrees="), std::string::npos);
  EXPECT_NE(out.find("provisional id 180"), std::string::npos);
  // The trailing unapplied batch applies implicitly (batch 3) and, as a
  // node removal, compacts the store.
  EXPECT_NE(out.find("[batch 3]"), std::string::npos);
  EXPECT_NE(out.find("compacted"), std::string::npos);

  // The edits persisted: the added author is queryable after reopen.
  out.clear();
  ASSERT_TRUE(RunCli({"query", store, "--label", "Edit Author"}, &out).ok())
      << out;
  EXPECT_NE(out.find("'Edit Author'"), std::string::npos);

  // Bad scripts fail with a line-numbered diagnostic.
  ASSERT_TRUE(graph::WriteStringToFile("add-edge 1\n", script).ok());
  out.clear();
  Status st = RunCli({"edit", store, "--script", script}, &out);
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("line 1"), std::string::npos);

  for (const std::string& p :
       {prefix + ".edges", prefix + ".labels", store, script}) {
    std::remove(p.c_str());
  }
}

}  // namespace
}  // namespace gmine::cli
