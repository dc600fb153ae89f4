#include "gtree/store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "gen/dblp.h"
#include "gen/generators.h"
#include "graph/graph_io.h"
#include "gtree/builder.h"
#include "util/string_util.h"

namespace gmine::gtree {
namespace {

using graph::Graph;
using graph::LabelStore;

struct Fixture {
  Graph graph;
  GTree tree;
  ConnectivityIndex conn;
  LabelStore labels;
  std::string path;
};

Fixture MakeFixture(const char* name, uint32_t n = 120, uint64_t m = 480) {
  Fixture f;
  f.graph = std::move(gen::ErdosRenyiM(n, m, 33)).value();
  GTreeBuildOptions opts;
  opts.levels = 2;
  opts.fanout = 3;
  f.tree = std::move(BuildGTree(f.graph, opts)).value();
  f.conn = ConnectivityIndex::Build(f.graph, f.tree);
  std::vector<std::string> labels(n);
  for (uint32_t v = 0; v < n; ++v) labels[v] = gen::SyntheticAuthorName(v);
  f.labels = LabelStore(std::move(labels));
  f.path = std::string(::testing::TempDir()) + "/" + name + ".gtree";
  return f;
}

TEST(StoreTest, CreateOpenRoundTripMetadata) {
  Fixture f = MakeFixture("roundtrip");
  ASSERT_TRUE(
      GTreeStore::Create(f.path, f.graph, f.tree, f.conn, f.labels).ok());
  auto store = GTreeStore::Open(f.path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const GTree& t = store.value()->tree();
  EXPECT_EQ(t.size(), f.tree.size());
  EXPECT_EQ(t.height(), f.tree.height());
  EXPECT_EQ(t.num_leaves(), f.tree.num_leaves());
  for (uint32_t v = 0; v < f.graph.num_nodes(); ++v) {
    EXPECT_EQ(t.LeafOf(v), f.tree.LeafOf(v));
  }
  EXPECT_EQ(store.value()->labels().Label(5), f.labels.Label(5));
  EXPECT_EQ(store.value()->connectivity().num_pairs(), f.conn.num_pairs());
  std::remove(f.path.c_str());
}

TEST(StoreTest, FreshStoreHasNoWastedBytes) {
  // Create writes every byte the header references and nothing else, so
  // the live set equals the file and the defrag trigger starts at zero.
  Fixture f = MakeFixture("fresh_live");
  ASSERT_TRUE(
      GTreeStore::Create(f.path, f.graph, f.tree, f.conn, f.labels).ok());
  auto store = GTreeStore::Open(f.path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()->live_bytes(), store.value()->file_size());
  EXPECT_EQ(store.value()->wasted_bytes(), 0u);
  std::remove(f.path.c_str());
}

TEST(StoreTest, LeafPayloadMatchesDirectInduction) {
  Fixture f = MakeFixture("payload");
  ASSERT_TRUE(
      GTreeStore::Create(f.path, f.graph, f.tree, f.conn, f.labels).ok());
  auto store = GTreeStore::Open(f.path);
  ASSERT_TRUE(store.ok());
  for (const TreeNode& tn : f.tree.nodes()) {
    if (!tn.IsLeaf()) continue;
    auto payload = store.value()->LoadLeaf(tn.id);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    auto direct = graph::InducedSubgraph(f.graph, tn.members);
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(payload.value()->subgraph.graph == direct.value().graph)
        << "leaf " << tn.id;
    EXPECT_EQ(payload.value()->subgraph.to_parent, direct.value().to_parent);
  }
  std::remove(f.path.c_str());
}

TEST(StoreTest, LoadLeafRejectsInteriorNodes) {
  Fixture f = MakeFixture("interior");
  ASSERT_TRUE(
      GTreeStore::Create(f.path, f.graph, f.tree, f.conn, f.labels).ok());
  auto store = GTreeStore::Open(f.path);
  ASSERT_TRUE(store.ok());
  auto payload = store.value()->LoadLeaf(f.tree.root());
  EXPECT_FALSE(payload.ok());
  EXPECT_TRUE(payload.status().IsNotFound());
  std::remove(f.path.c_str());
}

/// Serialized sizes of the first `count` leaves, measured through an
/// unbounded throwaway pool (budget semantics are in bytes now, so
/// eviction tests size their budgets from real page sizes).
std::vector<uint64_t> MeasureLeafBytes(const std::string& path,
                                       const std::vector<TreeNodeId>& leaves,
                                       size_t count) {
  storage::BufferPool measure(
      storage::BufferPoolOptions{.budget_bytes = 0, .shards = 1});
  GTreeStoreOptions opts;
  opts.buffer_pool = &measure;
  auto store = GTreeStore::Open(path, opts);
  EXPECT_TRUE(store.ok());
  std::vector<uint64_t> sizes;
  uint64_t before = 0;
  for (size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(store.value()->LoadLeaf(leaves[i]).ok());
    uint64_t after = store.value()->stats().bytes_read;
    sizes.push_back(after - before);
    before = after;
  }
  return sizes;
}

TEST(StoreTest, CacheHitsAndEvictions) {
  Fixture f = MakeFixture("cache");
  ASSERT_TRUE(
      GTreeStore::Create(f.path, f.graph, f.tree, f.conn, f.labels).ok());
  std::vector<TreeNodeId> leaves = f.tree.LeavesUnder(f.tree.root());
  ASSERT_GE(leaves.size(), 3u);
  std::vector<uint64_t> b = MeasureLeafBytes(f.path, leaves, 3);
  ASSERT_GT(b[0], 0u);
  ASSERT_GT(b[2], 0u);

  // A budget that holds leaves {0,1} and {1,2} but never all three:
  // loading 2 after {0,1} must evict exactly one page (leaf 0 — the
  // clock hand reaches it first).
  storage::BufferPool pool(storage::BufferPoolOptions{
      .budget_bytes = std::max(b[0] + b[1], b[1] + b[2]), .shards = 1});
  GTreeStoreOptions opts;
  opts.buffer_pool = &pool;
  auto store = GTreeStore::Open(f.path, opts);
  ASSERT_TRUE(store.ok());
  GTreeStore& s = *store.value();

  ASSERT_TRUE(s.LoadLeaf(leaves[0]).ok());
  EXPECT_EQ(s.stats().leaf_loads, 1u);
  ASSERT_TRUE(s.LoadLeaf(leaves[0]).ok());  // hit
  EXPECT_EQ(s.stats().cache_hits, 1u);
  EXPECT_TRUE(s.IsCached(leaves[0]));

  ASSERT_TRUE(s.LoadLeaf(leaves[1]).ok());
  ASSERT_TRUE(s.LoadLeaf(leaves[2]).ok());  // evicts leaves[0]
  EXPECT_EQ(s.stats().evictions, 1u);
  EXPECT_FALSE(s.IsCached(leaves[0]));
  EXPECT_TRUE(s.IsCached(leaves[2]));
  EXPECT_LE(s.stats().resident_bytes, pool.budget_bytes());

  ASSERT_TRUE(s.LoadLeaf(leaves[0]).ok());  // reload from disk
  EXPECT_EQ(s.stats().leaf_loads, 4u);
  std::remove(f.path.c_str());
}

TEST(StoreTest, PinnedPageResistsEvictionThenBackpressure) {
  Fixture f = MakeFixture("pin");
  ASSERT_TRUE(
      GTreeStore::Create(f.path, f.graph, f.tree, f.conn, f.labels).ok());
  std::vector<TreeNodeId> leaves = f.tree.LeavesUnder(f.tree.root());
  ASSERT_GE(leaves.size(), 2u);
  std::vector<uint64_t> b = MeasureLeafBytes(f.path, leaves, 2);

  // Either page fits alone, both never fit together: while leaf 0 is
  // pinned, loading leaf 1 must refuse (backpressure), not evict the
  // pinned frame and not break the budget.
  storage::BufferPool pool(storage::BufferPoolOptions{
      .budget_bytes = std::max(b[0], b[1]), .shards = 1});
  GTreeStoreOptions opts;
  opts.buffer_pool = &pool;
  auto store = GTreeStore::Open(f.path, opts);
  ASSERT_TRUE(store.ok());

  auto held = store.value()->LoadLeaf(leaves[0]);
  ASSERT_TRUE(held.ok());
  std::shared_ptr<const LeafPayload> pin = std::move(held).value();
  uint32_t nodes_before = pin->subgraph.graph.num_nodes();
  auto refused = store.value()->LoadLeaf(leaves[1]);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(storage::BufferPool::IsBackpressure(refused.status()));
  // The pinned frame stays resident and intact.
  EXPECT_TRUE(store.value()->IsCached(leaves[0]));
  EXPECT_EQ(pin->subgraph.graph.num_nodes(), nodes_before);
  EXPECT_LE(pool.stats().resident_bytes, pool.budget_bytes());
  EXPECT_GE(pool.stats().backpressure, 1u);

  // Releasing the pin makes the frame evictable; the retry succeeds.
  pin.reset();
  ASSERT_TRUE(store.value()->LoadLeaf(leaves[1]).ok());
  EXPECT_TRUE(store.value()->IsCached(leaves[1]));
  EXPECT_FALSE(store.value()->IsCached(leaves[0]));
  std::remove(f.path.c_str());
}

TEST(StoreTest, ClearCacheDropsPages) {
  Fixture f = MakeFixture("clear");
  ASSERT_TRUE(
      GTreeStore::Create(f.path, f.graph, f.tree, f.conn, f.labels).ok());
  auto store = GTreeStore::Open(f.path);
  ASSERT_TRUE(store.ok());
  std::vector<TreeNodeId> leaves = f.tree.LeavesUnder(f.tree.root());
  ASSERT_TRUE(store.value()->LoadLeaf(leaves[0]).ok());
  EXPECT_TRUE(store.value()->IsCached(leaves[0]));
  store.value()->ClearCache();
  EXPECT_FALSE(store.value()->IsCached(leaves[0]));
  std::remove(f.path.c_str());
}

TEST(StoreTest, LoadFullGraphMatchesOriginal) {
  Fixture f = MakeFixture("fullgraph");
  ASSERT_TRUE(
      GTreeStore::Create(f.path, f.graph, f.tree, f.conn, f.labels).ok());
  auto store = GTreeStore::Open(f.path);
  ASSERT_TRUE(store.ok());
  auto g = store.value()->MaterializeFullGraph();
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_TRUE(g.value() == f.graph);
  std::remove(f.path.c_str());
}

TEST(StoreTest, EmptyLabelsAllowed) {
  Fixture f = MakeFixture("nolabels");
  LabelStore empty;
  ASSERT_TRUE(
      GTreeStore::Create(f.path, f.graph, f.tree, f.conn, empty).ok());
  auto store = GTreeStore::Open(f.path);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(store.value()->labels().empty());
  std::remove(f.path.c_str());
}

TEST(StoreTest, OpenRejectsMissingFile) {
  auto store = GTreeStore::Open("/nonexistent/file.gtree");
  EXPECT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsIOError());
}

TEST(StoreTest, OpenRejectsCorruptHeader) {
  Fixture f = MakeFixture("corrupt");
  ASSERT_TRUE(
      GTreeStore::Create(f.path, f.graph, f.tree, f.conn, f.labels).ok());
  auto blob = graph::ReadFileToString(f.path);
  ASSERT_TRUE(blob.ok());
  std::string damaged = blob.value();
  damaged[10] ^= 0xff;  // flip a header byte
  ASSERT_TRUE(graph::WriteStringToFile(damaged, f.path).ok());
  auto store = GTreeStore::Open(f.path);
  EXPECT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsCorruption());
  std::remove(f.path.c_str());
}

TEST(StoreTest, OpenRejectsGarbageFile) {
  std::string path = std::string(::testing::TempDir()) + "/garbage.gtree";
  ASSERT_TRUE(
      graph::WriteStringToFile(std::string(500, 'z'), path).ok());
  auto store = GTreeStore::Open(path);
  EXPECT_FALSE(store.ok());
  std::remove(path.c_str());
}

TEST(StoreTest, CorruptLeafPageDetectedOnLoad) {
  Fixture f = MakeFixture("corruptpage", 150, 600);
  ASSERT_TRUE(
      GTreeStore::Create(f.path, f.graph, f.tree, f.conn, f.labels).ok());
  auto blob = graph::ReadFileToString(f.path);
  ASSERT_TRUE(blob.ok());
  std::string damaged = blob.value();
  // Flip bytes in the middle of the file (inside the page region).
  for (size_t i = damaged.size() / 2; i < damaged.size() / 2 + 64; ++i) {
    damaged[i] ^= 0x5a;
  }
  ASSERT_TRUE(graph::WriteStringToFile(damaged, f.path).ok());
  auto store = GTreeStore::Open(f.path);
  if (!store.ok()) return;  // damage hit metadata: also acceptable
  // The damage hit either the leaf-page region or the embedded graph
  // section; some checksummed read must fail.
  bool any_failure = false;
  for (const TreeNode& tn : store.value()->tree().nodes()) {
    if (!tn.IsLeaf()) continue;
    if (!store.value()->LoadLeaf(tn.id).ok()) any_failure = true;
  }
  if (!store.value()->MaterializeFullGraph().ok()) any_failure = true;
  EXPECT_TRUE(any_failure);
  std::remove(f.path.c_str());
}

TEST(StoreTest, FileSizeReported) {
  Fixture f = MakeFixture("size");
  ASSERT_TRUE(
      GTreeStore::Create(f.path, f.graph, f.tree, f.conn, f.labels).ok());
  auto store = GTreeStore::Open(f.path);
  ASSERT_TRUE(store.ok());
  auto on_disk = graph::ReadFileToString(f.path);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(store.value()->file_size(), on_disk.value().size());
  std::remove(f.path.c_str());
}

TEST(StoreTest, BytesReadTracksPayloads) {
  Fixture f = MakeFixture("bytes");
  ASSERT_TRUE(
      GTreeStore::Create(f.path, f.graph, f.tree, f.conn, f.labels).ok());
  auto store = GTreeStore::Open(f.path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()->stats().bytes_read, 0u);
  std::vector<TreeNodeId> leaves = f.tree.LeavesUnder(f.tree.root());
  ASSERT_TRUE(store.value()->LoadLeaf(leaves[0]).ok());
  EXPECT_GT(store.value()->stats().bytes_read, 0u);
  std::remove(f.path.c_str());
}

// Round-trip sweep across workload families: whatever the generator,
// every leaf payload read back from disk must equal direct induction
// from the original graph.
class StoreRoundTripSweep : public ::testing::TestWithParam<int> {};

TEST_P(StoreRoundTripSweep, AllLeavesFaithful) {
  int which = GetParam();
  gmine::Result<Graph> made = [&]() -> gmine::Result<Graph> {
    switch (which) {
      case 0:
        return gen::ErdosRenyiM(150, 600, 3);
      case 1:
        return gen::BarabasiAlbert(150, 3, 3);
      case 2:
        return gen::WattsStrogatz(150, 3, 0.2, 3);
      case 3:
        return gen::Grid(12, 12);
      default:
        return gen::PlantedPartition(3, 50, 0.2, 0.02, 3);
    }
  }();
  ASSERT_TRUE(made.ok());
  const Graph& g = made.value();
  GTreeBuildOptions opts;
  opts.levels = 2;
  opts.fanout = 3;
  auto tree = BuildGTree(g, opts);
  ASSERT_TRUE(tree.ok());
  auto conn = ConnectivityIndex::Build(g, tree.value());
  std::string path = std::string(::testing::TempDir()) +
                     StrFormat("/sweep%d.gtree", which);
  ASSERT_TRUE(
      GTreeStore::Create(path, g, tree.value(), conn, LabelStore()).ok());
  auto store = GTreeStore::Open(path);
  ASSERT_TRUE(store.ok());
  for (const TreeNode& tn : tree.value().nodes()) {
    if (!tn.IsLeaf()) continue;
    auto payload = store.value()->LoadLeaf(tn.id);
    ASSERT_TRUE(payload.ok());
    auto direct = graph::InducedSubgraph(g, tn.members);
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(payload.value()->subgraph.graph == direct.value().graph);
  }
  auto full = store.value()->MaterializeFullGraph();
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full.value() == g);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Workloads, StoreRoundTripSweep,
                         ::testing::Range(0, 5));

TEST(StoreTest, DblpEndToEndWithNamedAuthors) {
  gen::DblpOptions gopts;
  gopts.levels = 2;
  gopts.fanout = 3;
  gopts.leaf_size = 30;
  auto dblp = gen::GenerateDblp(gopts);
  ASSERT_TRUE(dblp.ok());
  GTreeBuildOptions opts;
  opts.levels = 2;
  opts.fanout = 3;
  auto tree = BuildGTree(dblp.value().graph, opts);
  ASSERT_TRUE(tree.ok());
  auto conn = ConnectivityIndex::Build(dblp.value().graph, tree.value());
  std::string path = std::string(::testing::TempDir()) + "/dblp.gtree";
  ASSERT_TRUE(GTreeStore::Create(path, dblp.value().graph, tree.value(),
                                 conn, dblp.value().labels)
                  .ok());
  auto store = GTreeStore::Open(path);
  ASSERT_TRUE(store.ok());
  graph::NodeId han = store.value()->labels().Find("Jiawei Han");
  EXPECT_EQ(han, dblp.value().jiawei_han);
  TreeNodeId leaf = store.value()->tree().LeafOf(han);
  auto payload = store.value()->LoadLeaf(leaf);
  ASSERT_TRUE(payload.ok());
  EXPECT_NE(payload.value()->subgraph.LocalId(han), graph::kInvalidNode);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gmine::gtree
