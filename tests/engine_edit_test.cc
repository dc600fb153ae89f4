// Engine-level edition + camera tests (§III-B "zoom, pan and details on
// demand ... edition of nodes and edges").

#include <gtest/gtest.h>

#include <cstdio>

#include "core/engine.h"
#include "gen/dblp.h"
#include "graph/graph_io.h"

namespace gmine::core {
namespace {

struct Fixture {
  gen::DblpGraph dblp;
  std::unique_ptr<GMineEngine> engine;
  std::string path;

  Fixture() = default;
  Fixture(Fixture&&) = default;

  ~Fixture() {
    engine.reset();
    if (!path.empty()) std::remove(path.c_str());
  }
};

Fixture Make(const char* name) {
  Fixture f;
  gen::DblpOptions gopts;
  gopts.levels = 2;
  gopts.fanout = 3;
  gopts.leaf_size = 30;
  gopts.seed = 21;
  f.dblp = std::move(gen::GenerateDblp(gopts)).value();
  f.path = std::string(::testing::TempDir()) + "/" + name + ".gtree";
  EngineOptions opts;
  opts.build.levels = 2;
  opts.build.fanout = 3;
  f.engine = std::move(GMineEngine::Build(f.dblp.graph, f.dblp.labels,
                                          f.path, opts))
                 .value();
  return f;
}

TEST(EngineEditTest, AddAuthorAndCoAuthorship) {
  Fixture f = Make("addauthor");
  uint32_t n_before = f.dblp.graph.num_nodes();
  graph::GraphEdit edit(n_before);
  graph::NodeId nv = edit.AddNode();
  edit.AddEdge(nv, f.dblp.jiawei_han, 3.0f);
  ASSERT_TRUE(f.engine->ApplyEdit(edit, {"New Author"}).ok());

  // The new author is findable and linked.
  graph::NodeId found = f.engine->labels().Find("New Author");
  ASSERT_NE(found, graph::kInvalidNode);
  auto g = f.engine->full_graph();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ((*g.value()).num_nodes(), n_before + 1);
  graph::NodeId han = f.engine->labels().Find("Jiawei Han");
  EXPECT_TRUE((*g.value()).HasEdge(found, han));
  // Hierarchy was rebuilt: the new node lives in some leaf.
  EXPECT_NE(f.engine->tree().LeafOf(found), gtree::kInvalidTreeNode);
}

TEST(EngineEditTest, RemoveEdgeSurvivesReopen) {
  Fixture f = Make("removeedge");
  graph::NodeId han = f.dblp.jiawei_han;
  graph::NodeId wang = f.dblp.ke_wang;
  ASSERT_TRUE(f.dblp.graph.HasEdge(han, wang));
  graph::GraphEdit edit(f.dblp.graph.num_nodes());
  edit.RemoveEdge(han, wang);
  ASSERT_TRUE(f.engine->ApplyEdit(edit).ok());

  // Ids are stable when nothing is removed from the node set.
  auto g = f.engine->full_graph();
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE((*g.value()).HasEdge(han, wang));

  // Edit persisted: reopen from disk and re-check.
  std::string path = f.engine->store_path();
  f.engine.reset();
  auto reopened = GMineEngine::Open(path);
  ASSERT_TRUE(reopened.ok());
  auto g2 = reopened.value()->full_graph();
  ASSERT_TRUE(g2.ok());
  EXPECT_FALSE((*g2.value()).HasEdge(han, wang));
  f.engine = std::move(reopened).value();
}

TEST(EngineEditTest, RemoveNodeRemapsLabels) {
  Fixture f = Make("removenode");
  graph::NodeId victim = f.dblp.jiawei_han;
  uint32_t n_before = f.dblp.graph.num_nodes();
  graph::GraphEdit edit(n_before);
  edit.RemoveNode(victim);
  ASSERT_TRUE(f.engine->ApplyEdit(edit).ok());
  EXPECT_EQ(f.engine->labels().Find("Jiawei Han"), graph::kInvalidNode);
  // Another author survives with a consistent label.
  graph::NodeId yu = f.engine->labels().Find("Philip S. Yu");
  ASSERT_NE(yu, graph::kInvalidNode);
  EXPECT_EQ(f.engine->labels().Label(yu), "Philip S. Yu");
  auto g = f.engine->full_graph();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ((*g.value()).num_nodes(), n_before - 1);
}

TEST(EngineEditTest, FullGraphIsTheStoresSharedGraph) {
  // The engine keeps no graph of its own: after an edit on the append
  // path and one on the compaction path, full_graph() is the store's
  // one shared copy, and it already shows the edit.
  Fixture f = Make("sharedgraph");
  const uint32_t n = f.dblp.graph.num_nodes();
  const graph::NodeId han = f.dblp.jiawei_han;
  auto expect_shared = [&](uint32_t nodes, const char* context) {
    SCOPED_TRACE(context);
    auto engine_g = f.engine->full_graph();
    auto store_g = f.engine->store().FullGraph();
    ASSERT_TRUE(engine_g.ok() && store_g.ok());
    EXPECT_EQ(engine_g.value().get(), store_g.value().get());
    EXPECT_EQ(store_g.value()->num_nodes(), nodes);
  };

  graph::GraphEdit add(n);
  const graph::NodeId nv = add.AddNode();
  add.AddEdge(nv, han, 2.0f);
  EditStats stats;
  ASSERT_TRUE(f.engine->ApplyEdit(add, {}, &stats).ok());
  EXPECT_FALSE(stats.compacted);
  expect_shared(n + 1, "append path");
  EXPECT_TRUE(f.engine->full_graph().value()->HasEdge(nv, han));

  graph::GraphEdit remove(n + 1);
  remove.RemoveNode(nv);
  ASSERT_TRUE(f.engine->ApplyEdit(remove, {}, &stats).ok());
  EXPECT_TRUE(stats.compacted);
  expect_shared(n, "compaction path");
}

TEST(EngineEditTest, SessionResetsToRootAfterEdit) {
  Fixture f = Make("sessionreset");
  ASSERT_TRUE(f.engine->session().FocusChild(0).ok());
  graph::GraphEdit edit(f.dblp.graph.num_nodes());
  edit.AddEdge(0, 1);
  ASSERT_TRUE(f.engine->ApplyEdit(edit).ok());
  EXPECT_EQ(f.engine->session().focus(), f.engine->tree().root());
}

TEST(EngineEditTest, DefragRatioCompactsBeforeJournalFull) {
  // A stream of small edge edits keeps appending dead bytes (old page
  // copies, superseded metadata). With the journal threshold out of
  // reach, only the size-ratio trigger can compact — and it must, well
  // before the journal fills.
  gen::DblpOptions gopts;
  gopts.levels = 2;
  gopts.fanout = 3;
  gopts.leaf_size = 30;
  gopts.seed = 21;
  gen::DblpGraph dblp = std::move(gen::GenerateDblp(gopts)).value();
  std::string path =
      std::string(::testing::TempDir()) + "/defrag_ratio.gtree";
  EngineOptions opts;
  opts.build.levels = 2;
  opts.build.fanout = 3;
  opts.store.journal_compact_ops = 1000;  // never reached in this test
  opts.store.defrag_wasted_ratio = 0.5;   // compact at 1.5x the live set
  auto engine =
      std::move(GMineEngine::Build(dblp.graph, dblp.labels, path, opts))
          .value();

  const graph::NodeId a = dblp.jiawei_han;
  const graph::NodeId b = dblp.ke_wang;
  const uint32_t n = dblp.graph.num_nodes();
  bool defragged = false;
  int compact_at = -1;
  for (int i = 0; i < 200 && !defragged; ++i) {
    graph::GraphEdit edit(n);
    if (i % 2 == 0) {
      edit.RemoveEdge(a, b);
    } else {
      edit.AddEdge(a, b, 2.0f);
    }
    EditStats stats;
    ASSERT_TRUE(engine->ApplyEdit(edit, {}, &stats).ok());
    gtree::GTreeStore& store = engine->store();
    EXPECT_LE(store.live_bytes(), store.file_size());
    if (stats.compacted) {
      defragged = true;
      compact_at = i;
      // Compaction rewrote the file from scratch: no dead bytes left,
      // journal folded into the base graph.
      EXPECT_EQ(store.wasted_bytes(), 0u);
      EXPECT_EQ(store.live_bytes(), store.file_size());
      EXPECT_EQ(store.journal_ops(), 0u);
    }
  }
  EXPECT_TRUE(defragged) << "size-ratio trigger never compacted";
  EXPECT_GT(compact_at, 0) << "first edit should append, not compact";

  engine.reset();
  std::remove(path.c_str());
}

TEST(EngineEditTest, DefragRatioZeroDisablesSizeTrigger) {
  // Same edit stream with the trigger off: every edit appends and the
  // dead-byte pile grows without bound (until journal-full, which this
  // test keeps out of reach).
  gen::DblpOptions gopts;
  gopts.levels = 2;
  gopts.fanout = 3;
  gopts.leaf_size = 30;
  gopts.seed = 21;
  gen::DblpGraph dblp = std::move(gen::GenerateDblp(gopts)).value();
  std::string path =
      std::string(::testing::TempDir()) + "/defrag_off.gtree";
  EngineOptions opts;
  opts.build.levels = 2;
  opts.build.fanout = 3;
  opts.store.journal_compact_ops = 1000;
  opts.store.defrag_wasted_ratio = 0;  // size trigger disabled
  auto engine =
      std::move(GMineEngine::Build(dblp.graph, dblp.labels, path, opts))
          .value();

  const graph::NodeId a = dblp.jiawei_han;
  const graph::NodeId b = dblp.ke_wang;
  const uint32_t n = dblp.graph.num_nodes();
  uint64_t last_wasted = 0;
  for (int i = 0; i < 40; ++i) {
    graph::GraphEdit edit(n);
    if (i % 2 == 0) {
      edit.RemoveEdge(a, b);
    } else {
      edit.AddEdge(a, b, 2.0f);
    }
    EditStats stats;
    ASSERT_TRUE(engine->ApplyEdit(edit, {}, &stats).ok());
    EXPECT_FALSE(stats.compacted) << "edit " << i;
    EXPECT_GE(engine->store().wasted_bytes(), last_wasted);
    last_wasted = engine->store().wasted_bytes();
  }
  EXPECT_GT(last_wasted, 0u);

  engine.reset();
  std::remove(path.c_str());
}

TEST(EngineViewTest, ZoomPanRecordedAndApplied) {
  Fixture f = Make("view");
  gtree::NavigationSession& nav = f.engine->session();
  ASSERT_TRUE(nav.Zoom(2.0).ok());
  ASSERT_TRUE(nav.Zoom(1.5).ok());
  nav.Pan(30.0, -10.0);
  EXPECT_DOUBLE_EQ(nav.view().zoom, 3.0);
  EXPECT_DOUBLE_EQ(nav.view().pan_x, 30.0);
  EXPECT_DOUBLE_EQ(nav.view().pan_y, -10.0);
  EXPECT_EQ(nav.history().back().op, "pan");

  std::string svg_path = std::string(::testing::TempDir()) + "/zoomed.svg";
  ASSERT_TRUE(f.engine->RenderHierarchyView(svg_path).ok());
  auto content = graph::ReadFileToString(svg_path);
  ASSERT_TRUE(content.ok());
  EXPECT_NE(content.value().find("<svg"), std::string::npos);
  std::remove(svg_path.c_str());

  nav.ResetView();
  EXPECT_DOUBLE_EQ(nav.view().zoom, 1.0);
  EXPECT_DOUBLE_EQ(nav.view().pan_x, 0.0);
  EXPECT_EQ(nav.history().back().op, "reset_view");
}

TEST(EngineViewTest, ZoomRejectsNonPositive) {
  Fixture f = Make("badzoom");
  EXPECT_FALSE(f.engine->session().Zoom(0.0).ok());
  EXPECT_FALSE(f.engine->session().Zoom(-2.0).ok());
  EXPECT_DOUBLE_EQ(f.engine->session().view().zoom, 1.0);
}

TEST(EngineViewTest, ZoomedRenderScalesGeometry) {
  Fixture f = Make("zoomgeom");
  std::string base_path = std::string(::testing::TempDir()) + "/base.svg";
  std::string zoom_path = std::string(::testing::TempDir()) + "/zoom.svg";
  ASSERT_TRUE(f.engine->RenderHierarchyView(base_path).ok());
  ASSERT_TRUE(f.engine->session().Zoom(2.0).ok());
  ASSERT_TRUE(f.engine->RenderHierarchyView(zoom_path).ok());
  auto base = graph::ReadFileToString(base_path);
  auto zoom = graph::ReadFileToString(zoom_path);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(zoom.ok());
  // The zoomed SVG must differ (same scene, different transform).
  EXPECT_NE(base.value(), zoom.value());
  std::remove(base_path.c_str());
  std::remove(zoom_path.c_str());
}

}  // namespace
}  // namespace gmine::core
