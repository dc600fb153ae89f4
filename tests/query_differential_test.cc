// GQL differential battery (docs/QUERY.md): every query's result must
// be byte-identical to a hand-composed pipeline over the same kernels
// (leaf-page scans, degree, ComputePageRank, BfsDistances,
// ExtractConnectionSubgraph) — the executor adds orchestration, never
// semantics. Also proven here:
//
//   * thread-count independence: threads=1 and threads=4 produce
//     byte-identical results (ComputePageRank is bit-identical at any
//     thread count);
//   * pushdown soundness + usefulness: pushdown on/off produce
//     identical rows, pushdown never loads more pages, and for
//     selective predicates it provably loads strictly fewer
//     (QueryStats page counters from the store scan).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "csg/extraction.h"
#include "gen/dblp.h"
#include "gtree/builder.h"
#include "gtree/store.h"
#include "mining/hops.h"
#include "mining/pagerank.h"
#include "query/executor.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace gmine::query {
namespace {

struct Fixture {
  std::string path;
  std::unique_ptr<gtree::GTreeStore> store;
  graph::Graph graph;  // the full graph, for reference pipelines
};

Fixture MakeFixture(const char* name) {
  gen::DblpOptions opts;
  opts.levels = 2;
  opts.fanout = 3;
  opts.leaf_size = 30;
  opts.seed = 4242;
  auto data = gen::GenerateDblp(opts);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  gtree::GTreeBuildOptions build;
  build.levels = 2;
  build.fanout = 3;
  auto tree = gtree::BuildGTree(data.value().graph, build);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  const gtree::ConnectivityIndex conn =
      gtree::ConnectivityIndex::Build(data.value().graph, tree.value());
  Fixture f;
  f.path = std::string(::testing::TempDir()) + "/" + name + ".gtree";
  EXPECT_TRUE(gtree::GTreeStore::Create(f.path, data.value().graph,
                                        tree.value(), conn,
                                        data.value().labels)
                  .ok());
  auto store = gtree::GTreeStore::Open(f.path);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  f.store = std::move(store).value();
  f.graph = std::move(data.value().graph);
  return f;
}

/// A reference candidate row, mirroring the executor's contract from
/// first principles: degree/pagerank are page-local.
struct RefRow {
  graph::NodeId id = 0;
  std::string label;
  std::string community;
  uint32_t degree = 0;
  double pagerank = 0.0;
};

struct RefOrderKey {
  ast::Field field = ast::Field::kId;
  bool descending = false;
};

/// Hand-composed MATCH NODES: iterate leaves in ascending tree-node
/// order, load each page, run the kernels, filter, sort, limit,
/// project — no query machinery involved.
std::string ReferenceMatchNodes(
    const gtree::GTreeStore& store,
    const std::function<bool(const RefRow&)>& keep, bool needs_pagerank,
    const std::vector<RefOrderKey>& order_by, uint64_t limit,
    int threads = 1) {
  std::vector<RefRow> rows;
  for (const gtree::TreeNode& node : store.tree().nodes()) {
    if (!node.IsLeaf()) continue;
    auto payload = store.LoadLeaf(node.id);
    EXPECT_TRUE(payload.ok()) << payload.status().ToString();
    const graph::Subgraph& sub = payload.value()->subgraph;
    std::vector<double> pagerank;
    if (needs_pagerank) {
      mining::PageRankOptions pr;
      pr.context.threads = threads;
      pagerank = mining::ComputePageRank(sub.graph, pr).score;
    }
    for (graph::NodeId local = 0; local < sub.graph.num_nodes();
         ++local) {
      RefRow row;
      row.id = sub.ParentId(local);
      row.label = store.labels().Label(row.id);
      row.community = node.name;
      row.degree = sub.graph.Degree(local);
      if (needs_pagerank) row.pagerank = pagerank[local];
      if (keep(row)) rows.push_back(std::move(row));
    }
  }
  if (!order_by.empty()) {
    std::stable_sort(
        rows.begin(), rows.end(),
        [&](const RefRow& a, const RefRow& b) {
          for (const RefOrderKey& key : order_by) {
            int cmp = 0;
            switch (key.field) {
              case ast::Field::kId:
                cmp = a.id < b.id ? -1 : (a.id > b.id ? 1 : 0);
                break;
              case ast::Field::kDegree:
                cmp = a.degree < b.degree ? -1
                                          : (a.degree > b.degree ? 1 : 0);
                break;
              case ast::Field::kPagerank:
                cmp = a.pagerank < b.pagerank
                          ? -1
                          : (a.pagerank > b.pagerank ? 1 : 0);
                break;
              case ast::Field::kLabel:
                cmp = a.label.compare(b.label);
                break;
              case ast::Field::kCommunity:
                cmp = a.community.compare(b.community);
                break;
            }
            if (cmp != 0) return key.descending ? cmp > 0 : cmp < 0;
          }
          return a.id < b.id;
        });
  }
  if (limit > 0 && rows.size() > limit) rows.resize(limit);
  std::string out = "id|label|community|degree\n";
  for (const RefRow& row : rows) {
    out += StrFormat("%u|", row.id);
    out += row.label;
    out += '|';
    out += row.community;
    out += StrFormat("|%u\n", row.degree);
  }
  return out;
}

std::string RunQuery(const Executor& executor, const std::string& text) {
  auto result = executor.ExecuteText(text);
  EXPECT_TRUE(result.ok()) << text << " -> "
                           << result.status().ToString();
  if (!result.ok()) return "";
  return ResultToText(result.value());
}

TEST(QueryDifferentialTest, RandomizedMatchQueriesMatchHandPipelines) {
  Fixture f = MakeFixture("query_diff_match");
  Executor executor(f.store.get());
  Rng rng(0xd1ff'0001);

  for (int iter = 0; iter < 40; ++iter) {
    const uint32_t d = static_cast<uint32_t>(rng.Uniform(12));
    // The reference must compare against the exact double the parser
    // produces from the printed literal, so round-trip the threshold
    // through its decimal spelling.
    const std::string t_str = StrFormat(
        "0.%03llu", static_cast<unsigned long long>(1 + rng.Uniform(50)));
    const double t = std::strtod(t_str.c_str(), nullptr);
    const uint64_t limit = 1 + rng.Uniform(64);
    std::string query;
    std::function<bool(const RefRow&)> keep;
    bool needs_pagerank = false;
    std::vector<RefOrderKey> order_by;
    switch (iter % 5) {
      case 0:
        query = StrFormat("MATCH NODES WHERE degree > %u", d);
        keep = [d](const RefRow& r) { return r.degree > d; };
        break;
      case 1:
        query = StrFormat(
            "MATCH NODES WHERE pagerank >= %s OR degree = %u",
            t_str.c_str(), d);
        keep = [t, d](const RefRow& r) {
          return r.pagerank >= t || r.degree == d;
        };
        needs_pagerank = true;
        break;
      case 2:
        query = StrFormat(
            "MATCH NODES WHERE NOT (degree < %u) AND label CONTAINS "
            "\"a\" ORDER BY degree DESC LIMIT %llu",
            d, static_cast<unsigned long long>(limit));
        keep = [d](const RefRow& r) {
          return !(r.degree < d) &&
                 r.label.find('a') != std::string::npos;
        };
        order_by = {{ast::Field::kDegree, true}};
        break;
      case 3:
        query = StrFormat(
            "MATCH NODES WHERE pagerank < %s ORDER BY pagerank DESC, "
            "degree ASC LIMIT %llu",
            t_str.c_str(), static_cast<unsigned long long>(limit));
        keep = [t](const RefRow& r) { return r.pagerank < t; };
        needs_pagerank = true;
        order_by = {{ast::Field::kPagerank, true},
                    {ast::Field::kDegree, false}};
        break;
      default:
        query = StrFormat("MATCH NODES WHERE id != %u ORDER BY label "
                          "ASC LIMIT %llu",
                          d, static_cast<unsigned long long>(limit));
        keep = [d](const RefRow& r) { return r.id != d; };
        order_by = {{ast::Field::kLabel, false}};
        break;
    }
    const bool limited = query.find("LIMIT") != std::string::npos;
    const std::string expected = ReferenceMatchNodes(
        *f.store, keep, needs_pagerank, order_by, limited ? limit : 0);
    EXPECT_EQ(RunQuery(executor, query), expected) << query;
  }
  std::remove(f.path.c_str());
}

TEST(QueryDifferentialTest, ThreadCountNeverChangesResults) {
  Fixture f = MakeFixture("query_diff_threads");
  ExecutorOptions serial;
  serial.threads = 1;
  ExecutorOptions parallel;
  parallel.threads = 4;
  Executor one(f.store.get(), serial);
  Executor four(f.store.get(), parallel);

  const char* kQueries[] = {
      "MATCH NODES WHERE pagerank > 0.005 ORDER BY pagerank DESC",
      "MATCH NODES WHERE pagerank >= 0.001 AND degree > 3 "
      "ORDER BY pagerank ASC, id DESC LIMIT 50",
      "MATCH NODES WHERE degree > 5 ORDER BY degree DESC LIMIT 20",
      "MATCH NEIGHBORS(1, 2) WHERE pagerank > 0.0001 "
      "ORDER BY pagerank DESC",
  };
  for (const char* q : kQueries) {
    const std::string a = RunQuery(one, q);
    const std::string b = RunQuery(four, q);
    EXPECT_EQ(a, b) << q;
    EXPECT_FALSE(a.empty());
    // And the serial run is the hand-composed reference too (covered
    // in depth above; this pins the threaded run transitively).
  }
  std::remove(f.path.c_str());
}

TEST(QueryDifferentialTest, NeighborsMatchesHandBfs) {
  Fixture f = MakeFixture("query_diff_bfs");
  Executor executor(f.store.get());
  Rng rng(0xd1ff'0002);
  const uint32_t n = f.graph.num_nodes();
  for (int iter = 0; iter < 12; ++iter) {
    const graph::NodeId origin =
        static_cast<graph::NodeId>(rng.Uniform(n));
    const uint32_t depth = 1 + static_cast<uint32_t>(rng.Uniform(3));
    // Hand pipeline: load the origin's leaf, BFS inside the page,
    // keep nodes at distance [1, depth] in local-id order.
    const gtree::TreeNodeId leaf = f.store->tree().LeafOf(origin);
    auto payload = f.store->LoadLeaf(leaf);
    ASSERT_TRUE(payload.ok());
    const graph::Subgraph& sub = payload.value()->subgraph;
    const std::vector<uint32_t> dist =
        mining::BfsDistances(sub.graph, sub.LocalId(origin));
    std::string expected = "id|label|community|degree\n";
    for (graph::NodeId local = 0; local < sub.graph.num_nodes();
         ++local) {
      if (dist[local] == mining::kUnreachable || dist[local] < 1 ||
          dist[local] > depth) {
        continue;
      }
      const graph::NodeId id = sub.ParentId(local);
      expected += StrFormat("%u|", id);
      expected += std::string(f.store->labels().Label(id));
      expected += '|';
      expected += f.store->tree().node(leaf).name;
      expected += StrFormat("|%u\n", sub.graph.Degree(local));
    }
    const std::string got = RunQuery(
        executor, StrFormat("MATCH NEIGHBORS(%u, %u)", origin, depth));
    EXPECT_EQ(got, expected) << "origin=" << origin
                             << " depth=" << depth;
  }
  std::remove(f.path.c_str());
}

TEST(QueryDifferentialTest, ExtractMatchesDirectKernelCall) {
  Fixture f = MakeFixture("query_diff_csg");
  Executor executor(f.store.get());
  Rng rng(0xd1ff'0003);
  const uint32_t n = f.graph.num_nodes();
  for (int iter = 0; iter < 6; ++iter) {
    std::vector<graph::NodeId> sources;
    while (sources.size() < 2 + rng.Uniform(2)) {
      const graph::NodeId v = static_cast<graph::NodeId>(rng.Uniform(n));
      if (std::find(sources.begin(), sources.end(), v) ==
          sources.end()) {
        sources.push_back(v);
      }
    }
    const uint32_t budget =
        static_cast<uint32_t>(sources.size()) + 8 +
        static_cast<uint32_t>(rng.Uniform(24));
    csg::ExtractionOptions opts;
    opts.budget = budget;
    auto direct = csg::ExtractConnectionSubgraph(f.graph, sources, opts);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    std::vector<graph::NodeId> members =
        direct.value().subgraph.to_parent;
    std::sort(members.begin(), members.end());
    std::string expected = "id|label\n";
    for (graph::NodeId id : members) {
      expected += StrFormat("%u|", id);
      expected += std::string(f.store->labels().Label(id));
      expected += '\n';
    }
    std::string query = "EXTRACT CSG FROM {";
    for (size_t i = 0; i < sources.size(); ++i) {
      if (i > 0) query += ", ";
      query += StrFormat("%u", sources[i]);
    }
    query += StrFormat("} BUDGET %u", budget);
    EXPECT_EQ(RunQuery(executor, query), expected) << query;
  }
  std::remove(f.path.c_str());
}

TEST(QueryDifferentialTest, SummarizeMatchesDirectComposition) {
  Fixture f = MakeFixture("query_diff_summarize");
  Executor executor(f.store.get());
  for (graph::NodeId v : {0u, 7u, f.graph.num_nodes() - 1}) {
    const gtree::TreeNodeId leaf = f.store->tree().LeafOf(v);
    auto payload = f.store->LoadLeaf(leaf);
    ASSERT_TRUE(payload.ok());
    const graph::Subgraph& sub = payload.value()->subgraph;
    const graph::NodeId local = sub.LocalId(v);
    std::vector<graph::NodeId> neighbors;
    for (const auto& arc : sub.graph.Neighbors(local)) {
      neighbors.push_back(sub.ParentId(arc.id));
    }
    std::sort(neighbors.begin(), neighbors.end());
    std::string neighbor_list;
    for (size_t i = 0; i < neighbors.size(); ++i) {
      if (i > 0) neighbor_list += ',';
      neighbor_list += StrFormat("%u", neighbors[i]);
    }
    std::vector<std::string> path;
    for (gtree::TreeNodeId id : f.store->tree().PathFromRoot(leaf)) {
      path.push_back(f.store->tree().node(id).name);
    }
    std::string expected = "field|value\n";
    expected += StrFormat("id|%u\n", v);
    expected += "label|" + std::string(f.store->labels().Label(v)) + "\n";
    expected += "leaf|" + f.store->tree().node(leaf).name + "\n";
    expected += "path|" + JoinStrings(path, "/") + "\n";
    expected += StrFormat("degree|%u\n", sub.graph.Degree(local));
    expected += "neighbors|" + neighbor_list + "\n";
    EXPECT_EQ(RunQuery(executor, StrFormat("SUMMARIZE NODE %u", v)),
              expected);
  }
  std::remove(f.path.c_str());
}

TEST(QueryDifferentialTest, PushdownScansStrictlyFewerPagesSameRows) {
  Fixture f = MakeFixture("query_diff_pushdown");
  ExecutorOptions on;
  on.pushdown = true;
  ExecutorOptions off;
  off.pushdown = false;
  Executor pushdown(f.store.get(), on);
  Executor materialize(f.store.get(), off);

  // One leaf community name, for a maximally selective predicate.
  std::string leaf_name;
  uint64_t num_leaves = 0;
  for (const gtree::TreeNode& node : f.store->tree().nodes()) {
    if (!node.IsLeaf()) continue;
    ++num_leaves;
    if (leaf_name.empty()) leaf_name = node.name;
  }
  ASSERT_GT(num_leaves, 1u);

  const std::vector<std::string> selective = {
      "MATCH NODES WHERE community = \"" + leaf_name + "\"",
      "MATCH NODES WHERE id < 5",
      "MATCH NODES WHERE community = \"" + leaf_name +
          "\" AND degree > 2",
      "MATCH NODES WHERE id = 17 OR id = 23",
      "MATCH NODES WHERE label PREFIX \"Jiawei\"",
      // NOT over a metadata field is still decidable: the named leaf's
      // own page is definitively all-false and gets pruned.
      "MATCH NODES WHERE NOT community = \"" + leaf_name + "\"",
  };
  for (const std::string& q : selective) {
    auto with = pushdown.ExecuteText(q);
    auto without = materialize.ExecuteText(q);
    ASSERT_TRUE(with.ok()) << q << ": " << with.status().ToString();
    ASSERT_TRUE(without.ok()) << q << ": "
                              << without.status().ToString();
    // Identical rows...
    EXPECT_EQ(ResultToText(with.value()), ResultToText(without.value()))
        << q;
    // ...the reference scanned everything...
    EXPECT_EQ(without.value().stats.pages_scanned, num_leaves) << q;
    EXPECT_EQ(without.value().stats.pages_pruned, 0u) << q;
    // ...and pushdown provably skipped pages.
    EXPECT_LT(with.value().stats.pages_scanned,
              without.value().stats.pages_scanned)
        << q;
    EXPECT_EQ(with.value().stats.pages_scanned +
                  with.value().stats.pages_pruned,
              num_leaves)
        << q;
  }

  // Predicates over page-local fields are Unknown from metadata:
  // pushdown must not skip anything (soundness), and both modes agree.
  const std::vector<std::string> opaque = {
      "MATCH NODES WHERE degree > 4",
      "MATCH NODES WHERE pagerank > 0.01",
      "MATCH NODES WHERE degree > 2 OR community = \"" + leaf_name +
          "\"",
  };
  for (const std::string& q : opaque) {
    auto with = pushdown.ExecuteText(q);
    auto without = materialize.ExecuteText(q);
    ASSERT_TRUE(with.ok()) << q;
    ASSERT_TRUE(without.ok()) << q;
    EXPECT_EQ(ResultToText(with.value()), ResultToText(without.value()))
        << q;
    EXPECT_EQ(with.value().stats.pages_scanned, num_leaves) << q;
    EXPECT_EQ(with.value().stats.pages_pruned, 0u) << q;
  }
  std::remove(f.path.c_str());
}

}  // namespace
}  // namespace gmine::query
