#include "gtree/navigation.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "gen/dblp.h"
#include "gtree/builder.h"

namespace gmine::gtree {
namespace {

struct NavFixture {
  gen::DblpGraph dblp;
  std::unique_ptr<GTreeStore> store;
  std::string path;

  NavFixture() = default;
  NavFixture(NavFixture&&) = default;
  NavFixture& operator=(NavFixture&&) = default;

  ~NavFixture() {
    store.reset();
    if (!path.empty()) std::remove(path.c_str());
  }
};

NavFixture MakeNavFixture(const char* name) {
  NavFixture f;
  gen::DblpOptions gopts;
  gopts.levels = 2;
  gopts.fanout = 3;
  gopts.leaf_size = 30;
  gopts.seed = 11;
  f.dblp = std::move(gen::GenerateDblp(gopts)).value();
  GTreeBuildOptions opts;
  opts.levels = 2;
  opts.fanout = 3;
  GTree tree = std::move(BuildGTree(f.dblp.graph, opts)).value();
  auto conn = ConnectivityIndex::Build(f.dblp.graph, tree);
  f.path = std::string(::testing::TempDir()) + "/" + name + ".gtree";
  EXPECT_TRUE(GTreeStore::Create(f.path, f.dblp.graph, tree, conn,
                                 f.dblp.labels)
                  .ok());
  f.store = std::move(GTreeStore::Open(f.path)).value();
  return f;
}

TEST(NavigationTest, StartsAtRoot) {
  NavFixture f = MakeNavFixture("root");
  NavigationSession nav(f.store.get());
  EXPECT_EQ(nav.focus(), f.store->tree().root());
  EXPECT_FALSE(nav.history().empty());
  EXPECT_EQ(nav.history()[0].op, "focus_root");
}

TEST(NavigationTest, FocusChildAndParent) {
  NavFixture f = MakeNavFixture("updown");
  NavigationSession nav(f.store.get());
  ASSERT_TRUE(nav.FocusChild(1).ok());
  TreeNodeId child = nav.focus();
  EXPECT_EQ(f.store->tree().node(child).parent, f.store->tree().root());
  ASSERT_TRUE(nav.FocusParent().ok());
  EXPECT_EQ(nav.focus(), f.store->tree().root());
}

TEST(NavigationTest, FocusParentAtRootIsNoOp) {
  NavFixture f = MakeNavFixture("rootnoop");
  NavigationSession nav(f.store.get());
  size_t events = nav.history().size();
  ASSERT_TRUE(nav.FocusParent().ok());
  EXPECT_EQ(nav.focus(), f.store->tree().root());
  EXPECT_EQ(nav.history().size(), events);  // nothing recorded
}

TEST(NavigationTest, FocusChildOutOfRangeFails) {
  NavFixture f = MakeNavFixture("range");
  NavigationSession nav(f.store.get());
  EXPECT_TRUE(nav.FocusChild(999).IsOutOfRange());
  EXPECT_FALSE(nav.FocusNode(99999).ok());
}

TEST(NavigationTest, BackRetracesHistory) {
  NavFixture f = MakeNavFixture("back");
  NavigationSession nav(f.store.get());
  TreeNodeId root = nav.focus();
  ASSERT_TRUE(nav.FocusChild(0).ok());
  TreeNodeId first = nav.focus();
  ASSERT_TRUE(nav.FocusChild(0).ok());
  ASSERT_TRUE(nav.Back().ok());
  EXPECT_EQ(nav.focus(), first);
  ASSERT_TRUE(nav.Back().ok());
  EXPECT_EQ(nav.focus(), root);
  ASSERT_TRUE(nav.Back().ok());  // empty stack: no-op
  EXPECT_EQ(nav.focus(), root);
}

TEST(NavigationTest, ContextTracksFocus) {
  NavFixture f = MakeNavFixture("context");
  NavigationSession nav(f.store.get());
  ASSERT_TRUE(nav.FocusChild(0).ok());
  const TomahawkContext& ctx = nav.context();
  EXPECT_EQ(ctx.focus, nav.focus());
  EXPECT_EQ(ctx.ancestors.size(), 1u);
  EXPECT_EQ(ctx.siblings.size(),
            f.store->tree().Siblings(nav.focus()).size());
}

TEST(NavigationTest, LabelQueryFocusesLeafOfAuthor) {
  NavFixture f = MakeNavFixture("label");
  NavigationSession nav(f.store.get());
  auto located = nav.LocateByLabel("Jiawei Han");
  ASSERT_TRUE(located.ok()) << located.status().ToString();
  EXPECT_EQ(located.value(), f.dblp.jiawei_han);
  EXPECT_EQ(nav.focus(), f.store->tree().LeafOf(f.dblp.jiawei_han));
  EXPECT_EQ(nav.history().back().op, "label_query");
}

TEST(NavigationTest, LabelQueryMissReportsNotFound) {
  NavFixture f = MakeNavFixture("miss");
  NavigationSession nav(f.store.get());
  TreeNodeId before = nav.focus();
  auto located = nav.LocateByLabel("No Such Author");
  EXPECT_TRUE(located.status().IsNotFound());
  EXPECT_EQ(nav.focus(), before);
}

TEST(NavigationTest, LoadFocusSubgraphOnLeaf) {
  NavFixture f = MakeNavFixture("leafload");
  NavigationSession nav(f.store.get());
  ASSERT_TRUE(nav.FocusGraphNode(0).ok());
  auto payload = nav.LoadFocusSubgraph();
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_GT(payload.value()->subgraph.graph.num_nodes(), 0u);
  EXPECT_EQ(nav.history().back().op, "load_subgraph");
}

TEST(NavigationTest, LoadFocusSubgraphRejectsInterior) {
  NavFixture f = MakeNavFixture("nav_interior");
  NavigationSession nav(f.store.get());
  auto payload = nav.LoadFocusSubgraph();  // focus = root
  EXPECT_FALSE(payload.ok());
  EXPECT_TRUE(payload.status().IsInvalidArgument());
}

TEST(NavigationTest, ContextConnectivityOnlyWithinDisplay) {
  NavFixture f = MakeNavFixture("conn");
  NavigationSession nav(f.store.get());
  ASSERT_TRUE(nav.FocusChild(0).ok());
  auto display = nav.context().DisplaySet();
  for (const ConnectivityEdge& e : nav.ContextConnectivity()) {
    EXPECT_TRUE(std::binary_search(display.begin(), display.end(), e.a));
    EXPECT_TRUE(std::binary_search(display.begin(), display.end(), e.b));
    EXPECT_GT(e.count, 0u);
  }
}

TEST(NavigationTest, EveryEventRecordsDisplaySize) {
  NavFixture f = MakeNavFixture("events");
  NavigationSession nav(f.store.get());
  ASSERT_TRUE(nav.FocusChild(0).ok());
  ASSERT_TRUE(nav.FocusChild(0).ok());
  ASSERT_TRUE(nav.FocusParent().ok());
  for (const InteractionEvent& ev : nav.history()) {
    EXPECT_GT(ev.display_size, 0u) << ev.op;
    EXPECT_GE(ev.micros, 0) << ev.op;
  }
}

TEST(NavigationTest, HistoryKeepsTheMostRecentEventsAndCountsAll) {
  NavFixture f = MakeNavFixture("history_cap");
  NavigationSession nav(f.store.get());  // records "focus_root"
  constexpr size_t kOps = 2 * NavigationSession::kMaxHistory + 37;
  for (size_t i = 0; i < kOps; ++i) {
    ASSERT_TRUE((i % 2 == 0 ? nav.FocusChild(0) : nav.FocusParent()).ok());
  }
  nav.SearchByPrefix("Jiawei");

  const std::vector<InteractionEvent>& history = nav.history();
  EXPECT_LE(history.size(), NavigationSession::kMaxHistory);
  EXPECT_GT(history.size(), NavigationSession::kMaxHistory / 2);
  // The newest events survive, in order.
  EXPECT_EQ(history.back().op, "prefix_query");
  EXPECT_EQ(history[history.size() - 2].op, "focus_child");  // op kOps-1
  EXPECT_EQ(history[history.size() - 3].op, "focus_parent");
  EXPECT_EQ(nav.interactions(), kOps + 2);
  // The back stack is not history: it still walks every focus change.
  EXPECT_EQ(nav.focus(), f.store->tree().node(f.store->tree().root())
                             .children[0]);
  ASSERT_TRUE(nav.Back().ok());
  EXPECT_EQ(nav.focus(), f.store->tree().root());
}

TEST(NavigationTest, PrefixSearchReturnsMatchesWithoutMovingFocus) {
  NavFixture f = MakeNavFixture("prefix");
  NavigationSession nav(f.store.get());
  TreeNodeId before = nav.focus();
  auto hits = nav.SearchByPrefix("Jiawei", 5);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].second.substr(0, 6), "Jiawei");
  EXPECT_EQ(nav.focus(), before);
  EXPECT_EQ(nav.history().back().op, "prefix_query");
  EXPECT_TRUE(nav.SearchByPrefix("ZZZZZZ").empty());
}

TEST(NavigationTest, PrefixSearchRespectsLimit) {
  NavFixture f = MakeNavFixture("prefixlim");
  NavigationSession nav(f.store.get());
  auto hits = nav.SearchByPrefix("A", 3);
  EXPECT_LE(hits.size(), 3u);
}

TEST(NavigationTest, DrillToOutlierAuthors) {
  // The Fig. 3(c) move: navigate to the community holding the outlier
  // co-authorship pair and verify the pair's edge is inside the loaded
  // leaf subgraph.
  NavFixture f = MakeNavFixture("outlier");
  if (f.dblp.db_miller == graph::kInvalidNode) GTEST_SKIP();
  NavigationSession nav(f.store.get());
  ASSERT_TRUE(nav.FocusGraphNode(f.dblp.db_miller).ok());
  auto payload = nav.LoadFocusSubgraph();
  ASSERT_TRUE(payload.ok());
  const graph::Subgraph& sub = payload.value()->subgraph;
  graph::NodeId miller = sub.LocalId(f.dblp.db_miller);
  ASSERT_NE(miller, graph::kInvalidNode);
  // Stockton co-authored with Miller; if they share the leaf, the edge
  // must be present in the community subgraph.
  graph::NodeId stockton = sub.LocalId(f.dblp.rg_stockton);
  if (stockton != graph::kInvalidNode) {
    EXPECT_TRUE(sub.graph.HasEdge(miller, stockton));
  }
}

}  // namespace
}  // namespace gmine::gtree
