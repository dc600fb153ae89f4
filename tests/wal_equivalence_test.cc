// Group-commit equivalence property tests (docs/WAL.md): a randomized
// edit script pushed through the EditQueue at group depth 8 must leave
// the engine in exactly the state serial depth-1 commits produce —
// same graph, same labels, same navigation transcript, and (after a
// compaction rewrites the store deterministically) byte-identical
// store files. The queue without a WAL must publish that same state
// and leave the store's LSN watermark at 0.

#include <gtest/gtest.h>

#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/edit_queue.h"
#include "core/engine.h"
#include "gen/dblp.h"
#include "graph/graph_io.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace gmine {
namespace {

using core::EditQueue;
using core::EditQueueOptions;
using core::EngineOptions;
using core::GMineEngine;

struct Script {
  std::vector<graph::GraphEdit> edits;
  std::vector<std::vector<std::string>> labels;  // per edit, per added node
};

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// Edge-only script: tree membership and node ids never change, so
// grouped and serial repairs must agree on everything incl. the tree.
Script EdgeOnlyScript(uint32_t n, uint64_t seed, size_t count) {
  Script s;
  Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    graph::GraphEdit edit(n);
    const size_t ops = 1 + rng.Uniform(4);
    for (size_t k = 0; k < ops; ++k) {
      const auto u = static_cast<graph::NodeId>(rng.Uniform(n));
      const auto v = static_cast<graph::NodeId>(rng.Uniform(n));
      if (u == v) continue;
      if (rng.Bernoulli(0.65)) {
        edit.AddEdge(u, v, 1.0f + static_cast<float>(rng.Uniform(9)));
      } else {
        edit.RemoveEdge(u, v);
      }
    }
    if (edit.empty()) edit.AddEdge(i % n, (i + 3) % n, 2.0f);
    s.edits.push_back(std::move(edit));
    s.labels.emplace_back();
  }
  return s;
}

// Vertex script: node adds (with labels) mixed into the edge churn.
// Each edit is independent — it only wires its own new nodes to *real*
// ids — because queued batches may not reference each other's
// provisional ids (see docs/WAL.md).
Script VertexScript(uint32_t n, uint64_t seed, size_t count) {
  Script s;
  Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    graph::GraphEdit edit(n);
    std::vector<std::string> labels;
    if (rng.Bernoulli(0.4)) {
      graph::NodeId nv = edit.AddNode(1.0f);
      labels.push_back(StrFormat("added-%llu-%zu",
                                 static_cast<unsigned long long>(seed), i));
      edit.AddEdge(nv, static_cast<graph::NodeId>(rng.Uniform(n)), 1.5f);
    }
    const auto u = static_cast<graph::NodeId>(rng.Uniform(n));
    const auto v = static_cast<graph::NodeId>(rng.Uniform(n));
    if (u != v) edit.AddEdge(u, v, 1.0f);
    if (edit.empty()) edit.AddEdge(i % n, (i + 1) % n, 1.0f);
    s.edits.push_back(std::move(edit));
    s.labels.push_back(std::move(labels));
  }
  return s;
}

std::string GraphFingerprint(const graph::Graph& g) {
  std::string out = StrFormat(
      "n=%u e=%llu;", g.num_nodes(),
      static_cast<unsigned long long>(g.num_edges()));
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const graph::Neighbor& nb : g.Neighbors(v)) {
      if (nb.id < v) continue;
      out += StrFormat("%u-%u:%.3f;", v, nb.id,
                       static_cast<double>(nb.weight));
    }
  }
  return out;
}

std::string LabelFingerprint(GMineEngine& engine) {
  std::string out;
  auto g = engine.full_graph();
  if (!g.ok()) return "load-fail";
  for (graph::NodeId v = 0; v < (*g.value()).num_nodes(); ++v) {
    out += engine.labels().Label(v);
    out += ';';
  }
  return out;
}

std::string NavigationTranscript(GMineEngine& engine) {
  std::string out;
  gtree::NavigationSession& nav = engine.session();
  EXPECT_TRUE(nav.FocusRoot().ok());
  const gtree::GTree& tree = engine.tree();
  for (gtree::TreeNodeId t = 0;
       t < static_cast<gtree::TreeNodeId>(tree.nodes().size()); ++t) {
    if (!tree.node(t).IsLeaf()) continue;
    if (!nav.FocusNode(t).ok()) {
      out += StrFormat("%u:focus-fail;", t);
      continue;
    }
    auto payload = nav.LoadFocusSubgraph();
    if (!payload.ok()) {
      out += StrFormat("%u:load-fail;", t);
      continue;
    }
    out += StrFormat(
        "%u:%s,n=%u,e=%llu,d=%zu;", t, tree.node(t).name.c_str(),
        payload.value()->subgraph.graph.num_nodes(),
        static_cast<unsigned long long>(
            payload.value()->subgraph.graph.num_edges()),
        nav.context().DisplaySize());
  }
  return out;
}

// Runs `script` through an EditQueue with the given group depth on a
// fresh copy of `base_bytes`, over an engine with or without a WAL;
// returns the opened post-script engine.
std::unique_ptr<GMineEngine> RunQueued(const std::string& base_bytes,
                                       const std::string& store,
                                       const Script& script,
                                       size_t group_depth, bool wal = true) {
  std::remove((store + ".wal").c_str());
  EXPECT_TRUE(graph::WriteStringToFile(base_bytes, store).ok());
  EngineOptions opts;
  opts.wal.enabled = wal;
  auto engine = GMineEngine::Open(store, opts);
  EXPECT_TRUE(engine.ok());
  if (!engine.ok()) return nullptr;
  {
    EditQueueOptions qopts;
    qopts.max_group_edits = group_depth;
    EditQueue queue(engine.value().get(), qopts);
    const uint64_t remap_epoch = queue.tip().remap_epoch;
    std::vector<std::future<core::EditCommit>> futures;
    for (size_t i = 0; i < script.edits.size(); ++i) {
      auto fut = queue.Submit(script.edits[i], remap_epoch, script.labels[i]);
      EXPECT_TRUE(fut.ok());
      if (fut.ok()) futures.push_back(std::move(fut).value());
    }
    for (auto& f : futures) {
      core::EditCommit commit = f.get();
      EXPECT_TRUE(commit.status.ok()) << commit.status.ToString();
      if (!wal) EXPECT_EQ(commit.lsn, 0u);
    }
    if (group_depth > 1) {
      EXPECT_GT(queue.stats().max_group, 1u);  // coalescing happened
    }
    queue.Stop();
  }
  return std::move(engine).value();
}

// A grouped run without a WAL publishes what the serial logged run
// does — graph, labels and navigation — and records no LSN. (Base's
// leaves sit at the tree's full depth, so no add re-splits one.)
void ExpectUnloggedMatches(GMineEngine& unlogged, GMineEngine& serial,
                           uint64_t seed) {
  EXPECT_EQ(unlogged.wal(), nullptr);
  EXPECT_EQ(unlogged.store().applied_lsn(), 0u);
  auto gu = unlogged.full_graph();
  auto gs = serial.full_graph();
  ASSERT_TRUE(gu.ok());
  ASSERT_TRUE(gs.ok());
  EXPECT_EQ(GraphFingerprint(*gu.value()), GraphFingerprint(*gs.value()))
      << "seed=" << seed;
  EXPECT_EQ(LabelFingerprint(unlogged), LabelFingerprint(serial))
      << "seed=" << seed;
  EXPECT_EQ(NavigationTranscript(unlogged), NavigationTranscript(serial))
      << "seed=" << seed;
}

struct Base {
  gen::DblpGraph dblp;
  std::string bytes;
  std::string store_path;

  explicit Base(const char* name) {
    gen::DblpOptions gopts;
    gopts.levels = 2;
    gopts.fanout = 3;
    gopts.leaf_size = 30;
    gopts.seed = 21;
    dblp = std::move(gen::GenerateDblp(gopts)).value();
    store_path = TempPath(std::string(name) + ".gtree");
    EngineOptions opts;
    opts.build.levels = 2;
    opts.build.fanout = 3;
    auto engine =
        GMineEngine::Build(dblp.graph, dblp.labels, store_path, opts);
    EXPECT_TRUE(engine.ok());
    engine.value().reset();
    bytes = std::move(graph::ReadFileToString(store_path)).value();
    std::remove(store_path.c_str());
  }
};

TEST(WalEquivalenceTest, EdgeScriptsGroupedEqualsSerial) {
  Base base("wal_eq_edge");
  const uint32_t n = base.dblp.graph.num_nodes();
  const std::string store_a = TempPath("wal_eq_edge_a.gtree");
  const std::string store_b = TempPath("wal_eq_edge_b.gtree");
  const std::string store_c = TempPath("wal_eq_edge_c.gtree");
  for (uint64_t seed : {7u, 99u, 4242u}) {
    Script script = EdgeOnlyScript(n, seed, 60);
    auto grouped = RunQueued(base.bytes, store_a, script, 8);
    auto serial = RunQueued(base.bytes, store_b, script, 1);
    auto unlogged = RunQueued(base.bytes, store_c, script, 8, /*wal=*/false);
    ASSERT_NE(grouped, nullptr);
    ASSERT_NE(serial, nullptr);
    ASSERT_NE(unlogged, nullptr);
    // Same commit watermark: both applied one LSN per script edit.
    EXPECT_EQ(grouped->store().applied_lsn(), script.edits.size());
    EXPECT_EQ(serial->store().applied_lsn(), script.edits.size());

    auto ga = grouped->full_graph();
    auto gb = serial->full_graph();
    ASSERT_TRUE(ga.ok());
    ASSERT_TRUE(gb.ok());
    ASSERT_EQ(GraphFingerprint(*ga.value()), GraphFingerprint(*gb.value()))
        << "seed=" << seed;
    EXPECT_EQ(LabelFingerprint(*grouped), LabelFingerprint(*serial));
    EXPECT_EQ(NavigationTranscript(*grouped), NavigationTranscript(*serial))
        << "seed=" << seed;
    ExpectUnloggedMatches(*unlogged, *serial, seed);
    unlogged.reset();
    std::remove(store_c.c_str());

    // Force a compaction (a node removal rewrites the whole store
    // deterministically) on both; with equal state and equal LSN the
    // files must be byte-identical.
    graph::GraphEdit removal(n);
    removal.RemoveNode(n - 1);
    const uint64_t lsn = script.edits.size() + 1;
    ASSERT_TRUE(grouped->ApplyEdit(removal, {}, nullptr, lsn).ok());
    ASSERT_TRUE(serial->ApplyEdit(removal, {}, nullptr, lsn).ok());
    grouped.reset();
    serial.reset();
    auto bytes_a = graph::ReadFileToString(store_a);
    auto bytes_b = graph::ReadFileToString(store_b);
    ASSERT_TRUE(bytes_a.ok());
    ASSERT_TRUE(bytes_b.ok());
    EXPECT_EQ(bytes_a.value(), bytes_b.value())
        << "post-compaction stores diverge, seed=" << seed;
    std::remove(store_a.c_str());
    std::remove(store_b.c_str());
    std::remove((store_a + ".wal").c_str());
    std::remove((store_b + ".wal").c_str());
  }
}

TEST(WalEquivalenceTest, VertexScriptsGroupedEqualsSerial) {
  Base base("wal_eq_vertex");
  const uint32_t n = base.dblp.graph.num_nodes();
  const std::string store_a = TempPath("wal_eq_vertex_a.gtree");
  const std::string store_b = TempPath("wal_eq_vertex_b.gtree");
  const std::string store_c = TempPath("wal_eq_vertex_c.gtree");
  for (uint64_t seed : {11u, 300u}) {
    Script script = VertexScript(n, seed, 40);
    auto grouped = RunQueued(base.bytes, store_a, script, 8);
    auto serial = RunQueued(base.bytes, store_b, script, 1);
    auto unlogged = RunQueued(base.bytes, store_c, script, 8, /*wal=*/false);
    ASSERT_NE(grouped, nullptr);
    ASSERT_NE(serial, nullptr);
    ASSERT_NE(unlogged, nullptr);
    // Graph topology and labels must agree (grouped and serial repair
    // may place new nodes differently once a leaf re-splits, so no
    // byte comparison here).
    auto ga = grouped->full_graph();
    auto gb = serial->full_graph();
    ASSERT_TRUE(ga.ok());
    ASSERT_TRUE(gb.ok());
    ASSERT_EQ(GraphFingerprint(*ga.value()), GraphFingerprint(*gb.value()))
        << "seed=" << seed;
    EXPECT_EQ(LabelFingerprint(*grouped), LabelFingerprint(*serial))
        << "seed=" << seed;
    ExpectUnloggedMatches(*unlogged, *serial, seed);
    unlogged.reset();
    grouped.reset();
    serial.reset();
    std::remove(store_a.c_str());
    std::remove(store_b.c_str());
    std::remove(store_c.c_str());
    std::remove((store_a + ".wal").c_str());
    std::remove((store_b + ".wal").c_str());
  }
}

// Replay equivalence: the records a grouped run leaves in its log must
// replay (serially, through Open) to the exact published state. This
// is the "log describes the graph" half of the recovery invariant
// without any crash involved.
TEST(WalEquivalenceTest, LoggedRecordsReplayToPublishedState) {
  Base base("wal_eq_replay");
  const uint32_t n = base.dblp.graph.num_nodes();
  const std::string store = TempPath("wal_eq_replay.gtree");
  Script script = VertexScript(n, 77, 30);
  auto engine = RunQueued(base.bytes, store, script, 8);
  ASSERT_NE(engine, nullptr);
  auto g = engine->full_graph();
  ASSERT_TRUE(g.ok());
  const std::string published = GraphFingerprint(*g.value());
  const std::string published_labels = LabelFingerprint(*engine);
  const uint64_t published_lsn = engine->store().applied_lsn();
  engine.reset();

  // Roll the *store* back to base (keep the log) and reopen: every
  // logged record replays one at a time.
  ASSERT_TRUE(graph::WriteStringToFile(base.bytes, store).ok());
  EngineOptions opts;
  opts.wal.enabled = true;
  auto replayed = GMineEngine::Open(store, opts);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed.value()->wal_recovery().replayed, script.edits.size());
  EXPECT_EQ(replayed.value()->store().applied_lsn(), published_lsn);
  auto rg = replayed.value()->full_graph();
  ASSERT_TRUE(rg.ok());
  EXPECT_EQ(GraphFingerprint(*rg.value()), published);
  EXPECT_EQ(LabelFingerprint(*replayed.value()), published_labels);
  replayed.value().reset();
  std::remove(store.c_str());
  std::remove((store + ".wal").c_str());
}

}  // namespace
}  // namespace gmine
