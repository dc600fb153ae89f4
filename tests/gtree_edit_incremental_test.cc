// Incremental G-Tree maintenance (gtree/edit_repair.h + the engine's
// incremental ApplyEdit): randomized edit scripts must leave the store
// navigation-equivalent to re-deriving every structure from scratch over
// the post-edit graph and the repaired hierarchy, at every step — same
// leaf membership, same parent/child traversals, same connectivity
// counts, same leaf pages, and a journal replay that reproduces the
// graph exactly. See docs/EDITS.md for the contract.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "core/engine.h"
#include "gen/dblp.h"
#include "graph/graph_io.h"
#include "gtree/edit_repair.h"
#include "util/rng.h"

namespace gmine::core {
namespace {

using graph::GraphEdit;
using graph::NodeId;
using gtree::GTree;
using gtree::TreeNodeId;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name + ".gtree";
}

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

Fixture Make(const char* name, const EngineOptions& opts) {
  Fixture f;
  gen::DblpOptions gopts;
  gopts.levels = 2;
  gopts.fanout = 3;
  gopts.leaf_size = 24;
  gopts.seed = 17;
  f.dblp = std::move(gen::GenerateDblp(gopts)).value();
  f.path = TempPath(name);
  f.engine = std::move(GMineEngine::Build(f.dblp.graph, f.dblp.labels,
                                          f.path, opts))
                 .value();
  return f;
}

EngineOptions SmallBuild() {
  EngineOptions opts;
  opts.build.levels = 2;
  opts.build.fanout = 3;
  return opts;
}

// The reference: every derived structure rebuilt from scratch over the
// incrementally maintained hierarchy and the post-edit graph.
void ExpectEquivalent(GMineEngine& engine, const graph::Graph& expected_g,
                      const char* context) {
  SCOPED_TRACE(context);
  const GTree& tree = engine.tree();
  const gtree::GTreeStore& store = engine.store();

  // The store's full graph (base section + journal replay) must equal
  // the shadow graph maintained through GraphEdit::Apply alone.
  auto loaded = store.MaterializeFullGraph();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value() == expected_g) << "journal replay diverged";

  // Hierarchy invariants: every graph node in exactly one leaf (FromNodes
  // re-validated on a serialization round-trip below).
  ASSERT_EQ(expected_g.num_nodes() == 0 ? 0u : 1u, tree.empty() ? 0u : 1u);
  for (NodeId v = 0; v < expected_g.num_nodes(); ++v) {
    ASSERT_NE(tree.LeafOf(v), gtree::kInvalidTreeNode) << "node " << v;
  }

  // Connectivity: the maintained index must answer exactly like a
  // from-scratch build over (graph, tree) — counts equal, weights equal
  // up to float-summation order.
  gtree::ConnectivityIndex fresh =
      gtree::ConnectivityIndex::Build(expected_g, tree);
  ASSERT_EQ(store.connectivity().num_pairs(), fresh.num_pairs());
  for (const gtree::TreeNode& tn : tree.nodes()) {
    auto expected_edges = fresh.EdgesOf(tn.id);
    auto actual_edges = store.connectivity().EdgesOf(tn.id);
    ASSERT_EQ(actual_edges.size(), expected_edges.size())
        << "community " << tn.id;
    for (size_t i = 0; i < expected_edges.size(); ++i) {
      EXPECT_EQ(actual_edges[i].b, expected_edges[i].b);
      EXPECT_EQ(actual_edges[i].count, expected_edges[i].count);
      EXPECT_NEAR(actual_edges[i].weight, expected_edges[i].weight,
                  1e-4 * (1.0 + std::abs(expected_edges[i].weight)));
    }
  }

  // Pages: every leaf payload must equal the induced subgraph computed
  // fresh from the post-edit graph.
  for (const gtree::TreeNode& tn : tree.nodes()) {
    if (!tn.IsLeaf()) continue;
    auto payload = store.LoadLeaf(tn.id);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    auto fresh_sub = graph::InducedSubgraph(expected_g, tn.members);
    ASSERT_TRUE(fresh_sub.ok());
    EXPECT_TRUE(payload.value()->subgraph.graph == fresh_sub.value().graph)
        << "leaf " << tn.id << " page subgraph diverged";
    EXPECT_EQ(payload.value()->subgraph.to_parent,
              fresh_sub.value().to_parent);
  }
}

// Compares navigation transcripts between the live engine store and a
// freshly created+opened store over the same (graph, tree, labels):
// parent/child traversals, leaf loads and context connectivity must
// behave identically.
void ExpectNavigationEquivalent(GMineEngine& engine,
                                const graph::Graph& g, const char* name) {
  SCOPED_TRACE(name);
  std::string ref_path = TempPath((std::string(name) + "_ref").c_str());
  ASSERT_TRUE(gtree::GTreeStore::Create(
                  ref_path, g, engine.tree(),
                  gtree::ConnectivityIndex::Build(g, engine.tree()),
                  engine.labels())
                  .ok());
  auto ref = gtree::GTreeStore::Open(ref_path);
  ASSERT_TRUE(ref.ok());

  auto transcript = [&](const gtree::GTreeStore& store) {
    std::string out;
    gtree::NavigationSession nav(&store);
    auto note = [&] {
      out += store.tree().node(nav.focus()).name;
      out += "/" + std::to_string(nav.context().DisplaySize());
      out += "/" + std::to_string(nav.ContextConnectivity().size());
      if (store.tree().node(nav.focus()).IsLeaf()) {
        auto payload = nav.LoadFocusSubgraph();
        if (payload.ok()) {
          out += "/n=" +
                 std::to_string(payload.value()->subgraph.graph.num_nodes());
          out += "/e=" +
                 std::to_string(payload.value()->subgraph.graph.num_edges());
        }
      }
      out += "\n";
    };
    note();
    // Deterministic walk: first child until a leaf, then back up.
    while (!store.tree().node(nav.focus()).IsLeaf()) {
      if (!nav.FocusChild(0).ok()) break;
      note();
    }
    while (nav.focus() != store.tree().root()) {
      if (!nav.FocusParent().ok()) break;
      note();
    }
    // Every graph node lands in the same leaf.
    for (NodeId v = 0; v < store.tree().nodes().size() &&
                       v < g.num_nodes();
         v += 7) {
      if (nav.FocusGraphNode(v).ok()) note();
    }
    return out;
  };
  EXPECT_EQ(transcript(engine.store()), transcript(*ref.value()))
      << "navigation diverged from the from-scratch store";
  std::remove(ref_path.c_str());
}

TEST(EditRepairTest, CrossLeafEdgeTouchesOnlyConnectivity) {
  Fixture f = Make("cross_edge", SmallBuild());
  const GTree& before = f.engine->tree();
  // Two nodes in different leaves.
  NodeId u = 0;
  NodeId v = 0;
  for (NodeId cand = 1; cand < f.dblp.graph.num_nodes(); ++cand) {
    if (before.LeafOf(cand) != before.LeafOf(u)) {
      v = cand;
      break;
    }
  }
  ASSERT_NE(before.LeafOf(u), before.LeafOf(v));
  std::string tree_before = before.DebugString();

  GraphEdit edit(f.dblp.graph.num_nodes());
  edit.AddEdge(u, v, 2.0f);
  EditStats stats;
  ASSERT_TRUE(f.engine->ApplyEdit(edit, {}, &stats).ok());
  EXPECT_FALSE(stats.compacted);
  EXPECT_EQ(stats.classification.cross_leaf_edge_ops, 1u);
  EXPECT_EQ(stats.pages_written, 0u);  // cross edges live in no page
  EXPECT_GT(stats.conn_rows_updated, 0u);
  EXPECT_EQ(f.engine->tree().DebugString(), tree_before);

  auto g = f.engine->full_graph();
  ASSERT_TRUE(g.ok());
  ExpectEquivalent(*f.engine, *g.value(), "after cross edge");
}

TEST(EditRepairTest, AppendPathUpdatesTheStoreNodeCount) {
  // A vertex added on the append path shows in the store's node count
  // and the page scan's right away, not only after a reopen or a
  // compaction.
  Fixture f = Make("append_count", SmallBuild());
  const uint32_t n = f.dblp.graph.num_nodes();
  ASSERT_EQ(f.engine->store().num_graph_nodes(), n);
  GraphEdit edit(n);
  const NodeId nv = edit.AddNode();
  edit.AddEdge(nv, f.dblp.jiawei_han, 2.0f);
  EditStats stats;
  ASSERT_TRUE(f.engine->ApplyEdit(edit, {}, &stats).ok());
  ASSERT_FALSE(stats.compacted);
  ASSERT_EQ(stats.journal_ops, 1u);
  EXPECT_EQ(f.engine->store().num_graph_nodes(), n + 1);
  EXPECT_EQ(f.engine->store().NewPageScan()->num_nodes(), n + 1);
}

TEST(EditRepairTest, IntraLeafEdgeRewritesOnePage) {
  Fixture f = Make("intra_edge", SmallBuild());
  // Two co-members of one leaf.
  const gtree::TreeNode* leaf = nullptr;
  for (const gtree::TreeNode& tn : f.engine->tree().nodes()) {
    if (tn.IsLeaf() && tn.members.size() >= 2) {
      leaf = &tn;
      break;
    }
  }
  ASSERT_NE(leaf, nullptr);
  GraphEdit edit(f.dblp.graph.num_nodes());
  edit.AddEdge(leaf->members[0], leaf->members[1], 3.0f);
  EditStats stats;
  ASSERT_TRUE(f.engine->ApplyEdit(edit, {}, &stats).ok());
  EXPECT_EQ(stats.classification.intra_leaf_edge_ops, 1u);
  EXPECT_EQ(stats.pages_written, 1u);
  EXPECT_EQ(stats.conn_rows_updated, 0u);

  auto g = f.engine->full_graph();
  ASSERT_TRUE(g.ok());
  ExpectEquivalent(*f.engine, *g.value(), "after intra edge");
}

TEST(EditRepairTest, VertexAddJoinsNeighborLeaf) {
  Fixture f = Make("vertex_add", SmallBuild());
  NodeId anchor = f.dblp.jiawei_han;
  TreeNodeId anchor_leaf = f.engine->tree().LeafOf(anchor);
  GraphEdit edit(f.dblp.graph.num_nodes());
  NodeId nv = edit.AddNode();
  edit.AddEdge(nv, anchor, 5.0f);
  EditStats stats;
  ASSERT_TRUE(f.engine->ApplyEdit(edit, {"Fresh Author"}, &stats).ok());
  EXPECT_EQ(stats.classification.added_vertices, 1u);
  NodeId placed = f.engine->labels().Find("Fresh Author");
  ASSERT_NE(placed, graph::kInvalidNode);
  // Plurality placement: the only neighbor's leaf.
  EXPECT_EQ(f.engine->tree().LeafOf(placed), anchor_leaf);

  auto g = f.engine->full_graph();
  ASSERT_TRUE(g.ok());
  ExpectEquivalent(*f.engine, *g.value(), "after vertex add");
}

TEST(EditRepairTest, OverflowTriggersLineageSaltedResplit) {
  // Leaves must sit above the bottom level to have headroom for a
  // re-split: stop on the granularity floor (12) well before `levels`.
  EngineOptions opts;
  opts.build.levels = 4;
  opts.build.fanout = 3;
  opts.build.min_partition_size = 12;
  opts.edit.max_leaf_size = 20;
  Fixture f = Make("overflow", opts);
  ASSERT_LT(f.engine->tree().node(
                f.engine->tree().LeafOf(f.dblp.jiawei_han)).depth,
            opts.build.levels);
  NodeId anchor = f.dblp.jiawei_han;
  // Pump vertices into one leaf until it must re-split.
  bool split_seen = false;
  for (int round = 0; round < 40 && !split_seen; ++round) {
    auto g = f.engine->full_graph();
    ASSERT_TRUE(g.ok());
    GraphEdit edit(g.value()->num_nodes());
    NodeId nv = edit.AddNode();
    edit.AddEdge(nv, anchor, 4.0f);
    EditStats stats;
    ASSERT_TRUE(f.engine->ApplyEdit(edit, {}, &stats).ok());
    if (stats.subtree_rebuilds > 0) split_seen = true;
    anchor = f.engine->labels().Find("Jiawei Han");
    ASSERT_NE(anchor, graph::kInvalidNode);
  }
  EXPECT_TRUE(split_seen) << "leaf never overflowed into a re-split";
  auto g = f.engine->full_graph();
  ASSERT_TRUE(g.ok());
  ExpectEquivalent(*f.engine, *g.value(), "after overflow split");
  ExpectNavigationEquivalent(*f.engine, *g.value(), "overflow_nav");
}

TEST(EditRepairTest, RandomizedScriptStaysEquivalentAtEveryStep) {
  Fixture f = Make("randomized", SmallBuild());
  graph::Graph shadow = f.dblp.graph;  // maintained via Apply only
  Rng rng(2024);

  for (int step = 0; step < 24; ++step) {
    const uint32_t n = shadow.num_nodes();
    GraphEdit edit(n);
    const int kind = static_cast<int>(rng.Uniform(5));
    if (kind == 0) {
      // Add a batch of random edges (integer weights: exact FP sums).
      for (int i = 0; i < 3; ++i) {
        NodeId u = static_cast<NodeId>(rng.Uniform(n));
        NodeId v = static_cast<NodeId>(rng.Uniform(n));
        edit.AddEdge(u, v, static_cast<float>(1 + rng.Uniform(4)));
      }
    } else if (kind == 1) {
      // Remove existing edges.
      for (int i = 0; i < 3; ++i) {
        NodeId u = static_cast<NodeId>(rng.Uniform(n));
        auto nbrs = shadow.Neighbors(u);
        if (nbrs.empty()) continue;
        edit.RemoveEdge(u, nbrs[rng.Uniform(nbrs.size())].id);
      }
    } else if (kind == 2) {
      // Add a vertex wired to random anchors.
      NodeId nv = edit.AddNode();
      for (int i = 0; i < 2; ++i) {
        edit.AddEdge(nv, static_cast<NodeId>(rng.Uniform(n)),
                     static_cast<float>(1 + rng.Uniform(3)));
      }
    } else if (kind == 3) {
      // Remove a vertex (forces id remap + store compaction).
      edit.RemoveNode(static_cast<NodeId>(rng.Uniform(n)));
    } else {
      // Mixed batch.
      NodeId nv = edit.AddNode();
      edit.AddEdge(nv, static_cast<NodeId>(rng.Uniform(n)), 2.0f);
      NodeId u = static_cast<NodeId>(rng.Uniform(n));
      auto nbrs = shadow.Neighbors(u);
      if (!nbrs.empty()) {
        edit.RemoveEdge(u, nbrs[rng.Uniform(nbrs.size())].id);
      }
      edit.AddEdge(static_cast<NodeId>(rng.Uniform(n)),
                   static_cast<NodeId>(rng.Uniform(n)), 1.0f);
    }

    auto shadow_next = edit.Apply(shadow);
    ASSERT_TRUE(shadow_next.ok()) << shadow_next.status().ToString();
    EditStats stats;
    Status st = f.engine->ApplyEdit(edit, {}, &stats);
    ASSERT_TRUE(st.ok()) << "step " << step << ": " << st.ToString();
    shadow = std::move(shadow_next).value().graph;

    ExpectEquivalent(*f.engine, shadow,
                     ("step " + std::to_string(step)).c_str());
  }
  ExpectNavigationEquivalent(*f.engine, shadow, "randomized_nav");

  // Persistence: a cold reopen of the maintained file sees the same
  // state (tree bytes round-trip, journal replays).
  std::string final_tree = f.engine->tree().DebugString();
  f.engine.reset();
  auto reopened = GMineEngine::Open(TempPath("randomized"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->tree().DebugString(), final_tree);
  auto g2 = reopened.value()->full_graph();
  ASSERT_TRUE(g2.ok());
  EXPECT_TRUE(*g2.value() == shadow);
  f.engine = std::move(reopened).value();
}

TEST(EditRepairTest, SameScriptIsDeterministicAcrossStores) {
  auto run = [](const char* name) {
    Fixture f = Make(name, SmallBuild());
    Rng rng(7);
    for (int step = 0; step < 8; ++step) {
      const uint32_t n =
          std::move(f.engine->full_graph()).value()->num_nodes();
      GraphEdit edit(n);
      NodeId nv = edit.AddNode();
      edit.AddEdge(nv, static_cast<NodeId>(rng.Uniform(n)), 2.0f);
      edit.AddEdge(static_cast<NodeId>(rng.Uniform(n)),
                   static_cast<NodeId>(rng.Uniform(n)), 1.0f);
      EXPECT_TRUE(f.engine->ApplyEdit(edit).ok());
    }
    std::string file =
        std::move(graph::ReadFileToString(f.engine->store_path())).value();
    return std::make_pair(f.engine->tree().DebugString(), file);
  };
  auto a = run("determinism_a");
  auto b = run("determinism_b");
  EXPECT_EQ(a.first, b.first);
  // Stronger: the maintained store files are byte-identical — every
  // append (pages, directory order, conn serialization) is ordered.
  EXPECT_EQ(a.second, b.second);
}

TEST(EditRepairTest, LineageSaltMatchesBuilderDerivation) {
  Fixture f = Make("lineage", SmallBuild());
  const GTree& tree = f.engine->tree();
  // Path-derived salts must agree with the builder's child-ordinal
  // folding: re-building any existing leaf region with its salt must
  // reproduce a subtree whose root holds exactly that leaf's members.
  for (const gtree::TreeNode& tn : tree.nodes()) {
    if (!tn.IsLeaf() || tn.members.size() < 4) continue;
    uint64_t salt = gtree::LineageSaltOf(tree, tn.id);
    auto region = gtree::BuildRegionSubtree(
        f.dblp.graph, tn.members, tn.depth, salt, SmallBuild().build);
    ASSERT_TRUE(region.ok());
    std::vector<NodeId> members;
    for (const gtree::TreeNode& rn : region.value().nodes) {
      members.insert(members.end(), rn.members.begin(), rn.members.end());
    }
    std::sort(members.begin(), members.end());
    EXPECT_EQ(members, tn.members);
    break;
  }
}

TEST(EditRepairTest, RecordedBuildShapeGovernsRepair) {
  // A store built levels=2/fanout=3 then reopened with DEFAULT engine
  // options (levels=3/fanout=5) must repair with the recorded shape —
  // without the header hints every 30-member leaf would instantly
  // "overflow" the default threshold and re-split on the first edit.
  gen::DblpOptions gopts;
  gopts.levels = 2;
  gopts.fanout = 3;
  gopts.leaf_size = 30;
  gopts.seed = 11;
  auto dblp = std::move(gen::GenerateDblp(gopts)).value();
  std::string path = TempPath("hints");
  {
    EngineOptions build_opts = SmallBuild();
    auto built = GMineEngine::Build(dblp.graph, dblp.labels, path,
                                    build_opts);
    ASSERT_TRUE(built.ok());
  }
  auto engine = GMineEngine::Open(path);  // default EngineOptions
  ASSERT_TRUE(engine.ok());
  const gtree::GTreeBuildHints& hints =
      engine.value()->store().build_hints();
  EXPECT_EQ(hints.levels, 2u);
  EXPECT_EQ(hints.fanout, 3u);
  std::string shape_before = engine.value()->tree().DebugString();

  graph::GraphEdit edit(dblp.graph.num_nodes());
  edit.AddEdge(0, dblp.graph.num_nodes() - 1, 1.0f);
  EditStats stats;
  ASSERT_TRUE(engine.value()->ApplyEdit(edit, {}, &stats).ok());
  EXPECT_EQ(stats.subtree_rebuilds, 0u) << "default-options reopen "
                                           "re-split recorded-shape leaves";
  EXPECT_EQ(engine.value()->tree().DebugString(), shape_before);
  engine.value().reset();
  std::remove(path.c_str());
}

// Every label slot of the graph, in id order.
std::string LabelFingerprint(GMineEngine& engine) {
  std::string out;
  for (NodeId v = 0; v < engine.store().num_graph_nodes(); ++v) {
    out += engine.labels().Label(v);
    out += ';';
  }
  return out;
}

TEST(EditRepairTest, JournaledLabelsMatchTheLiveEngineAfterReopen) {
  // Label-adding edits on the append path, without a WAL: each edit's
  // labels go into the store's journal, and a cold reopen applies them
  // over the label section, so the reopened store answers exactly like
  // the live one.
  Fixture f = Make("journal_labels", SmallBuild());
  const NodeId han = f.dblp.jiawei_han;
  for (int step = 0; step < 5; ++step) {
    GraphEdit edit(f.engine->store().num_graph_nodes());
    const NodeId named = edit.AddNode();
    const NodeId unnamed = edit.AddNode();
    edit.AddEdge(named, han, 1.0f);
    edit.AddEdge(unnamed, named, 1.0f);
    if (step == 2) edit.AddEdge(0, 1, 1.0f);
    EditStats stats;
    ASSERT_TRUE(f.engine
                    ->ApplyEdit(edit,
                                {"Journal Author " + std::to_string(step)},
                                &stats)
                    .ok());
    ASSERT_FALSE(stats.compacted) << "step " << step;
  }
  // A second "Jiawei Han": Find keeps answering the lowest id.
  GraphEdit dup(f.engine->store().num_graph_nodes());
  dup.AddEdge(dup.AddNode(), han, 1.0f);
  ASSERT_TRUE(f.engine->ApplyEdit(dup, {"Jiawei Han"}).ok());
  ASSERT_GT(f.engine->store().journal_ops(), 0u);

  auto answers = [&](GMineEngine& engine) {
    std::vector<NodeId> out;
    for (int step = 0; step < 5; ++step) {
      out.push_back(engine.labels().Find("Journal Author " +
                                         std::to_string(step)));
    }
    out.push_back(engine.labels().Find("Jiawei Han"));
    for (NodeId v : engine.labels().FindByPrefix("Journal Author")) {
      out.push_back(v);
    }
    return out;
  };
  const std::string live_labels = LabelFingerprint(*f.engine);
  const std::vector<NodeId> live_answers = answers(*f.engine);
  EXPECT_EQ(live_answers[5], han);
  for (int step = 0; step < 5; ++step) {
    EXPECT_NE(live_answers[step], graph::kInvalidNode) << "step " << step;
  }
  const size_t journal = f.engine->store().journal_ops();

  f.engine.reset();
  auto reopened = GMineEngine::Open(f.path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  f.engine = std::move(reopened).value();
  EXPECT_EQ(f.engine->store().journal_ops(), journal);
  EXPECT_EQ(LabelFingerprint(*f.engine), live_labels);
  EXPECT_EQ(answers(*f.engine), live_answers);
}

TEST(EditRepairTest, OneLabelBatchAppendsLessThanTheLabelSection) {
  // The append path journals the batch's one (id, label) pair; the
  // store's label section is not written again. The file grows by
  // exactly the appended bytes.
  Fixture f = Make("label_bytes", SmallBuild());
  const uint64_t label_section = f.engine->labels().Serialize().size();
  const uint64_t size_before = f.engine->store().file_size();
  GraphEdit edit(f.engine->store().num_graph_nodes());
  edit.AddEdge(edit.AddNode(), f.dblp.jiawei_han, 1.0f);
  EditStats stats;
  ASSERT_TRUE(f.engine->ApplyEdit(edit, {"Byte Counted"}, &stats).ok());
  ASSERT_FALSE(stats.compacted);
  const uint64_t appended = f.engine->store().file_size() - size_before;
  EXPECT_GT(appended, 0u);
  EXPECT_LT(appended, label_section);
}

TEST(GraphEditFastTest, ApplyFastMatchesApplyExactly) {
  gen::DblpOptions gopts;
  gopts.levels = 2;
  gopts.fanout = 3;
  gopts.leaf_size = 20;
  auto dblp = std::move(gen::GenerateDblp(gopts)).value();
  Rng rng(99);
  graph::Graph g = dblp.graph;
  for (int round = 0; round < 10; ++round) {
    const uint32_t n = g.num_nodes();
    GraphEdit edit(n);
    for (int i = 0; i < 4; ++i) {
      edit.AddEdge(static_cast<NodeId>(rng.Uniform(n)),
                   static_cast<NodeId>(rng.Uniform(n)),
                   static_cast<float>(1 + rng.Uniform(5)));
    }
    NodeId nv = edit.AddNode();
    edit.AddEdge(nv, static_cast<NodeId>(rng.Uniform(n)), 2.0f);
    NodeId u = static_cast<NodeId>(rng.Uniform(n));
    auto nbrs = g.Neighbors(u);
    if (!nbrs.empty()) edit.RemoveEdge(u, nbrs[0].id);
    // A self-loop and a duplicate pair exercise the merge corner cases.
    edit.AddEdge(3, 3, 9.0f);
    edit.AddEdge(5, 6, 1.0f);
    edit.AddEdge(5, 6, 2.0f);

    auto slow = edit.Apply(g);
    auto fast = edit.ApplyFast(g);
    ASSERT_TRUE(slow.ok());
    ASSERT_TRUE(fast.ok());
    EXPECT_TRUE(slow.value().graph == fast.value().graph)
        << "round " << round;
    EXPECT_EQ(slow.value().old_to_new, fast.value().old_to_new);
    EXPECT_EQ(slow.value().added_nodes, fast.value().added_nodes);
    g = std::move(slow).value().graph;
  }
  // Removal batches must refuse the fast path.
  GraphEdit removal(g.num_nodes());
  removal.RemoveNode(0);
  EXPECT_FALSE(removal.ApplyFast(g).ok());
}

TEST(GraphEditJournalTest, SerializeRoundTrips) {
  GraphEdit edit(100);
  NodeId a = edit.AddNode(2.5f);
  edit.AddNode();
  edit.AddEdge(a, 7, 1.5f);
  edit.AddEdge(3, 4);
  edit.RemoveEdge(9, 2);
  edit.RemoveNode(55);
  auto round = GraphEdit::Deserialize(edit.Serialize());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value().base_nodes(), edit.base_nodes());
  EXPECT_EQ(round.value().added_node_weights(), edit.added_node_weights());
  EXPECT_EQ(round.value().added_edges(), edit.added_edges());
  EXPECT_EQ(round.value().removed_edges(), edit.removed_edges());
  EXPECT_EQ(round.value().removed_nodes(), edit.removed_nodes());
  EXPECT_FALSE(GraphEdit::Deserialize("garbage").ok());
}

}  // namespace
}  // namespace gmine::core
