#include "gtree/stream_build.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "gtree/builder.h"
#include "gtree/connectivity.h"
#include "gtree/store.h"
#include "mining/components.h"
#include "mining/degree.h"
#include "mining/pagerank.h"
#include "mining/pagescan_kernels.h"
#include "query/executor.h"
#include "storage/buffer_pool.h"
#include "storage/page_scan.h"
#include "util/string_util.h"

namespace gmine::gtree {
namespace {

using graph::Graph;

struct Fixture {
  std::string edges_path;
  std::string store_path;
  Graph reference;  // what ReadEdgeListFile sees
};

/// Writes a random graph as an edge-list file and remembers the graph
/// the normal reader would build from it.
Fixture MakeFixture(const char* name, uint32_t n = 500, uint64_t m = 2000) {
  Fixture f;
  Graph g = std::move(gen::ErdosRenyiM(n, m, 42)).value();
  std::string lines;
  for (uint32_t u = 0; u < g.num_nodes(); ++u) {
    for (const auto& arc : g.Neighbors(u)) {
      if (u < arc.id) {
        lines += StrFormat("%u %u %.3f\n", u, arc.id,
                           static_cast<double>(arc.weight));
      }
    }
  }
  f.edges_path = std::string(::testing::TempDir()) + "/" + name + ".edges";
  f.store_path = std::string(::testing::TempDir()) + "/" + name + ".gtree";
  EXPECT_TRUE(graph::WriteStringToFile(lines, f.edges_path).ok());
  f.reference = std::move(graph::ReadEdgeListFile(f.edges_path)).value();
  return f;
}

void Cleanup(const Fixture& f) {
  std::remove(f.edges_path.c_str());
  std::remove(f.store_path.c_str());
}

TEST(StreamBuildTest, MaterializedGraphMatchesEdgeListReader) {
  Fixture f = MakeFixture("sb_roundtrip");
  StreamBuildOptions options;
  options.leaf_size = 64;  // many leaves
  StreamBuildStats stats;
  ASSERT_TRUE(StreamBuildStore(f.edges_path, f.store_path, {}, options,
                               &stats)
                  .ok());
  EXPECT_EQ(stats.num_nodes, f.reference.num_nodes());
  EXPECT_EQ(stats.num_edges, f.reference.num_edges());
  EXPECT_GT(stats.num_leaves, 1u);

  auto store = GTreeStore::Open(f.store_path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(store.value()->streamed());
  auto materialized = store.value()->MaterializeFullGraph();
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  EXPECT_TRUE(materialized.value() == f.reference);
  Cleanup(f);
}

TEST(StreamBuildTest, TinySortBudgetSpillsButBuildsTheSameStore) {
  Fixture f = MakeFixture("sb_spill", 800, 4000);
  StreamBuildOptions options;
  options.leaf_size = 64;
  options.mem_budget_bytes = 1;  // sorter clamps to its floor; forces
                                 // the spill path on big inputs anyway
  StreamBuildStats stats;
  ASSERT_TRUE(StreamBuildStore(f.edges_path, f.store_path, {}, options,
                               &stats)
                  .ok());
  auto store = GTreeStore::Open(f.store_path);
  ASSERT_TRUE(store.ok());
  auto materialized = store.value()->MaterializeFullGraph();
  ASSERT_TRUE(materialized.ok());
  EXPECT_TRUE(materialized.value() == f.reference);
  Cleanup(f);
}

TEST(StreamBuildTest, ScanReportsCompleteAdjacencyAndCoversEveryArc) {
  Fixture f = MakeFixture("sb_scan");
  ASSERT_TRUE(StreamBuildStore(f.edges_path, f.store_path, {}, {}, nullptr)
                  .ok());
  auto store = GTreeStore::Open(f.store_path);
  ASSERT_TRUE(store.ok());
  auto scan = store.value()->NewPageScan();
  EXPECT_TRUE(scan->complete_adjacency());
  EXPECT_EQ(scan->num_nodes(), f.reference.num_nodes());

  uint64_t arcs = 0;
  uint64_t nodes = 0;
  storage::GraphPage page;
  while (true) {
    auto more = scan->Next(&page);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!more.value()) break;
    nodes += page.num_nodes();
    arcs += page.num_arcs();
    // Per-page CSR invariants.
    ASSERT_EQ(page.arc_offsets.size(), page.nodes.size() + 1);
    EXPECT_EQ(page.arc_offsets.back(), page.arc_dst.size());
    // Each node's page adjacency is its full global adjacency.
    for (size_t i = 0; i < page.nodes.size(); ++i) {
      const uint32_t u = page.nodes[i];
      EXPECT_EQ(page.arc_offsets[i + 1] - page.arc_offsets[i],
                f.reference.Degree(u))
          << "node " << u;
    }
  }
  EXPECT_EQ(nodes, f.reference.num_nodes());
  EXPECT_EQ(arcs, f.reference.num_arcs());
  Cleanup(f);
}

TEST(StreamBuildTest, PageKernelsMatchInMemoryKernels) {
  Fixture f = MakeFixture("sb_kernels");
  ASSERT_TRUE(StreamBuildStore(f.edges_path, f.store_path, {}, {}, nullptr)
                  .ok());
  auto store = GTreeStore::Open(f.store_path);
  ASSERT_TRUE(store.ok());
  auto scan = store.value()->NewPageScan();

  // PageRank: push (pages) vs pull (in-memory) agree up to summation
  // order.
  auto pr_pages = mining::PageRankOverPages(*scan);
  ASSERT_TRUE(pr_pages.ok()) << pr_pages.status().ToString();
  mining::PageRankResult pr_mem = mining::ComputePageRank(f.reference);
  ASSERT_EQ(pr_pages.value().score.size(), pr_mem.score.size());
  for (size_t v = 0; v < pr_mem.score.size(); ++v) {
    EXPECT_NEAR(pr_pages.value().score[v], pr_mem.score[v], 1e-7)
        << "node " << v;
  }

  // Degree distribution: exact.
  scan->Reset();
  auto deg_pages = mining::DegreeDistributionOverPages(*scan);
  ASSERT_TRUE(deg_pages.ok());
  mining::DegreeDistribution deg_mem =
      mining::ComputeDegreeDistribution(f.reference);
  EXPECT_EQ(deg_pages.value().count, deg_mem.count);
  EXPECT_EQ(deg_pages.value().min_degree, deg_mem.min_degree);
  EXPECT_EQ(deg_pages.value().max_degree, deg_mem.max_degree);

  // Weak components: identical labels (same union order).
  scan->Reset();
  auto comp_pages = mining::WeakComponentsOverPages(*scan);
  ASSERT_TRUE(comp_pages.ok());
  mining::ComponentResult comp_mem = mining::WeakComponents(f.reference);
  EXPECT_EQ(comp_pages.value().num_components, comp_mem.num_components);
  EXPECT_EQ(comp_pages.value().component, comp_mem.component);
  EXPECT_EQ(comp_pages.value().sizes, comp_mem.sizes);
  Cleanup(f);
}

TEST(StreamBuildTest, StreamedStoreRejectsEdits) {
  Fixture f = MakeFixture("sb_readonly", 200, 600);
  ASSERT_TRUE(StreamBuildStore(f.edges_path, f.store_path, {}, {}, nullptr)
                  .ok());
  auto store = GTreeStore::Open(f.store_path);
  ASSERT_TRUE(store.ok());
  GTreeStoreUpdate update;
  Status s = store.value()->ApplyUpdate(update);
  EXPECT_TRUE(s.IsNotSupported()) << s.ToString();
  Cleanup(f);
}

TEST(StreamBuildTest, LegacyStorePageKernelsReportNotSupported) {
  // A store written by the in-memory builder has intra-community pages
  // only; the page kernels must refuse rather than mis-compute.
  Fixture f = MakeFixture("sb_legacy", 200, 600);
  GTreeBuildOptions bopts;
  bopts.levels = 2;
  bopts.fanout = 3;
  auto tree = BuildGTree(f.reference, bopts);
  ASSERT_TRUE(tree.ok());
  auto conn = ConnectivityIndex::Build(f.reference, tree.value());
  ASSERT_TRUE(GTreeStore::Create(f.store_path, f.reference, tree.value(),
                                 conn, {})
                  .ok());
  auto store = GTreeStore::Open(f.store_path);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store.value()->streamed());
  auto scan = store.value()->NewPageScan();
  EXPECT_FALSE(scan->complete_adjacency());
  auto pr = mining::PageRankOverPages(*scan);
  ASSERT_FALSE(pr.ok());
  EXPECT_TRUE(pr.status().IsNotSupported()) << pr.status().ToString();
  Cleanup(f);
}

TEST(StreamBuildTest, ExtractMaterializesTheGraphOncePerStoreState) {
  // A 1-byte private pool caches nothing, so leaf_loads counts every
  // page read. Two executors over one store share the store's full
  // graph: only the first EXTRACT reads pages to build it.
  Fixture f = MakeFixture("sb_extract_once");
  StreamBuildOptions build;
  build.leaf_size = 64;  // many pages
  ASSERT_TRUE(
      StreamBuildStore(f.edges_path, f.store_path, {}, build, nullptr).ok());
  storage::BufferPool pool(
      storage::BufferPoolOptions{.budget_bytes = 1, .shards = 1});
  GTreeStoreOptions options;
  options.buffer_pool = &pool;
  auto store = GTreeStore::Open(f.store_path, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const char* kExtract = "EXTRACT CSG FROM {0, 1} BUDGET 12";

  auto first = query::Executor(store.value().get()).ExecuteText(kExtract);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const uint64_t loads = store.value()->stats().leaf_loads;
  EXPECT_GT(loads, 0u);

  auto second = query::Executor(store.value().get()).ExecuteText(kExtract);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(store.value()->stats().leaf_loads, loads);
  EXPECT_EQ(second.value().rows, first.value().rows);
  Cleanup(f);
}

TEST(StreamBuildTest, RacingFirstCallersShareOneFullGraphBuild) {
  // FullGraph() builds under one mutex: four threads racing the first
  // call get the same copy, and the store reads its pages for one build
  // only — as many loads as one MaterializeFullGraph() (1-byte pool, so
  // every page read counts).
  Fixture f = MakeFixture("sb_full_graph_race");
  StreamBuildOptions build;
  build.leaf_size = 64;  // many pages
  ASSERT_TRUE(
      StreamBuildStore(f.edges_path, f.store_path, {}, build, nullptr).ok());
  storage::BufferPool pool(
      storage::BufferPoolOptions{.budget_bytes = 1, .shards = 1});
  GTreeStoreOptions options;
  options.buffer_pool = &pool;
  auto store = GTreeStore::Open(f.store_path, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(store.value()->MaterializeFullGraph().ok());
  const uint64_t one_build = store.value()->stats().leaf_loads;

  std::vector<std::shared_ptr<const Graph>> seen(4);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([&, i] {
      auto g = store.value()->FullGraph();
      if (g.ok()) seen[i] = g.value();
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_NE(seen[0], nullptr);
  for (const auto& g : seen) EXPECT_EQ(g, seen[0]);
  EXPECT_TRUE(*seen[0] == f.reference);
  EXPECT_EQ(store.value()->stats().leaf_loads, 2 * one_build);
  Cleanup(f);
}

TEST(StreamBuildTest, MineStoreAgreesAcrossStoreFormats) {
  // One graph, both formats: the dispatcher runs the page kernels on the
  // streamed store and the in-memory kernels on the legacy one, and the
  // answers agree (PageRank up to summation order).
  Fixture f = MakeFixture("sb_mine_store");
  ASSERT_TRUE(StreamBuildStore(f.edges_path, f.store_path, {}, {}, nullptr)
                  .ok());
  const std::string legacy_path = f.store_path + ".legacy";
  GTreeBuildOptions bopts;
  bopts.levels = 2;
  bopts.fanout = 3;
  auto tree = BuildGTree(f.reference, bopts);
  ASSERT_TRUE(tree.ok());
  auto conn = ConnectivityIndex::Build(f.reference, tree.value());
  ASSERT_TRUE(GTreeStore::Create(legacy_path, f.reference, tree.value(),
                                 conn, {})
                  .ok());
  auto streamed = GTreeStore::Open(f.store_path);
  auto legacy = GTreeStore::Open(legacy_path);
  ASSERT_TRUE(streamed.ok() && legacy.ok());
  using Kernel = query::ast::MineStatement::Kernel;

  auto deg_pages = query::MineStore(*streamed.value(), Kernel::kDegrees);
  auto deg_mem = query::MineStore(*legacy.value(), Kernel::kDegrees);
  ASSERT_TRUE(deg_pages.ok() && deg_mem.ok());
  EXPECT_STREQ(deg_pages.value().engine, "pages");
  EXPECT_STREQ(deg_mem.value().engine, "in-memory");
  const auto& dp =
      std::get<mining::DegreeDistribution>(deg_pages.value().value);
  const auto& dm =
      std::get<mining::DegreeDistribution>(deg_mem.value().value);
  EXPECT_EQ(dp.count, dm.count);
  EXPECT_EQ(dp.min_degree, dm.min_degree);
  EXPECT_EQ(dp.max_degree, dm.max_degree);

  auto comp_pages = query::MineStore(*streamed.value(), Kernel::kComponents);
  auto comp_mem = query::MineStore(*legacy.value(), Kernel::kComponents);
  ASSERT_TRUE(comp_pages.ok() && comp_mem.ok());
  EXPECT_STREQ(comp_pages.value().engine, "pages");
  EXPECT_STREQ(comp_mem.value().engine, "in-memory");
  const auto& cp = std::get<mining::ComponentResult>(comp_pages.value().value);
  const auto& cm = std::get<mining::ComponentResult>(comp_mem.value().value);
  EXPECT_EQ(cp.num_components, cm.num_components);
  EXPECT_EQ(cp.component, cm.component);
  EXPECT_EQ(cp.sizes, cm.sizes);

  auto pr_pages = query::MineStore(*streamed.value(), Kernel::kPagerank);
  auto pr_mem = query::MineStore(*legacy.value(), Kernel::kPagerank);
  ASSERT_TRUE(pr_pages.ok() && pr_mem.ok());
  EXPECT_STREQ(pr_pages.value().engine, "pages");
  EXPECT_STREQ(pr_mem.value().engine, "in-memory");
  const auto& pp = std::get<mining::PageRankResult>(pr_pages.value().value);
  const auto& pm = std::get<mining::PageRankResult>(pr_mem.value().value);
  const std::vector<graph::NodeId> top = mining::TopKByScore(pm.score, 10);
  EXPECT_EQ(mining::TopKByScore(pp.score, 10), top);
  for (graph::NodeId v : top) {
    EXPECT_NEAR(pp.score[v], pm.score[v], 1e-7) << "node " << v;
  }
  std::remove(legacy_path.c_str());
  Cleanup(f);
}

}  // namespace
}  // namespace gmine::gtree
