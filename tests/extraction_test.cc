#include "csg/extraction.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>

#include "csg/goodness.h"
#include "gen/dblp.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "mining/components.h"
#include "util/rng.h"

namespace gmine::csg {
namespace {

using graph::NodeId;

TEST(GoodnessTest, SourceWalksRejectBadSets) {
  auto g = gen::Cycle(6);
  EXPECT_FALSE(ComputeSourceWalks(g.value(), {}).ok());
  EXPECT_FALSE(ComputeSourceWalks(g.value(), {0, 0}).ok());
  EXPECT_FALSE(ComputeSourceWalks(g.value(), {0, 99}).ok());
}

TEST(GoodnessTest, GeometricMeanOfWalks) {
  auto g = gen::Path(5);
  auto walks = ComputeSourceWalks(g.value(), {0, 4});
  ASSERT_TRUE(walks.ok());
  auto goodness = GoodnessScores(walks.value());
  ASSERT_EQ(goodness.size(), 5u);
  // Middle node is the meeting point: positive; symmetric ends equal.
  EXPECT_GT(goodness[2], 0.0);
  EXPECT_NEAR(goodness[0], goodness[4], 1e-9);
  // Verify one entry against the direct formula.
  double expect = std::sqrt(walks.value().walks[0].probability[2] *
                            walks.value().walks[1].probability[2]);
  EXPECT_NEAR(goodness[2], expect, 1e-12);
}

TEST(GoodnessTest, ZeroWhenAnyWalkIsZero) {
  graph::GraphBuilder b;
  b.ReserveNodes(4);
  b.AddEdge(0, 1);
  b.AddEdge(2, 3);
  auto g = std::move(b.Build()).value();
  auto walks = ComputeSourceWalks(g, {0, 2});
  ASSERT_TRUE(walks.ok());
  auto goodness = GoodnessScores(walks.value());
  for (double v : goodness) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(GoodnessTest, CaptureSumsSelectedNodes) {
  std::vector<double> goodness{0.5, 0.25, 0.125};
  EXPECT_DOUBLE_EQ(GoodnessCapture(goodness, {0, 2}), 0.625);
  EXPECT_DOUBLE_EQ(GoodnessCapture(goodness, {}), 0.0);
}

TEST(BestGoodnessPathTest, PrefersHighGoodnessRoute) {
  // Two routes 0->3: via 1 (high goodness) or via 2 (low goodness).
  graph::GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 3);
  b.AddEdge(0, 2);
  b.AddEdge(2, 3);
  auto g = std::move(b.Build()).value();
  std::vector<double> goodness{0.3, 0.9, 0.001, 0.3};
  auto path = BestGoodnessPath(g, goodness, 0, 3);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], 0u);
  EXPECT_EQ(path[1], 1u);
  EXPECT_EQ(path[2], 3u);
}

TEST(BestGoodnessPathTest, HandlesTrivialAndDisconnected) {
  auto g = gen::Path(3);
  std::vector<double> goodness{0.5, 0.5, 0.5};
  auto self_path = BestGoodnessPath(g.value(), goodness, 1, 1);
  ASSERT_EQ(self_path.size(), 1u);
  graph::GraphBuilder b;
  b.ReserveNodes(4);
  b.AddEdge(0, 1);
  auto g2 = std::move(b.Build()).value();
  std::vector<double> good2(4, 0.5);
  EXPECT_TRUE(BestGoodnessPath(g2, good2, 0, 3).empty());
}

// The search the early-stopping GoodnessPathTree replaced: -log on every
// relaxation, run to exhaustion. Kept as the oracle.
std::vector<NodeId> ExhaustiveGoodnessDijkstra(
    const graph::Graph& g, const std::vector<double>& goodness, NodeId from) {
  const uint32_t n = g.num_nodes();
  std::vector<double> cost(n, std::numeric_limits<double>::infinity());
  std::vector<NodeId> pred(n, graph::kInvalidNode);
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  cost[from] = 0.0;
  heap.emplace(0.0, from);
  while (!heap.empty()) {
    auto [c, u] = heap.top();
    heap.pop();
    if (c > cost[u]) continue;
    for (const graph::Neighbor& nb : g.Neighbors(u)) {
      double nc = c - std::log(std::max(goodness[nb.id], 1e-300));
      if (nc < cost[nb.id]) {
        cost[nb.id] = nc;
        pred[nb.id] = u;
        heap.emplace(nc, nb.id);
      }
    }
  }
  return pred;
}

TEST(GoodnessPathTreeTest, EarlyStopKeepsEveryTargetChain) {
  // A connected graph and a sparse one whose small components leave
  // some targets unreachable (those searches run to exhaustion).
  std::vector<graph::Graph> graphs;
  graphs.push_back(gen::BarabasiAlbert(3000, 3, 11).value());
  graphs.push_back(gen::ErdosRenyiM(3000, 3300, 29).value());
  graphs.push_back(gen::WattsStrogatz(2000, 4, 0.05, 5).value());
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const graph::Graph& g = graphs[gi];
    const uint32_t n = g.num_nodes();
    const std::vector<NodeId> sources{0, n / 2, n - 1};
    auto walks = ComputeSourceWalks(g, sources);
    ASSERT_TRUE(walks.ok());
    const std::vector<double> goodness = GoodnessScores(walks.value());
    // Picks: the 120 highest-goodness nodes plus 40 seeded random ones.
    std::vector<NodeId> all(n);
    for (NodeId v = 0; v < n; ++v) all[v] = v;
    std::vector<NodeId> picks = all;
    std::partial_sort(picks.begin(), picks.begin() + 120, picks.end(),
                      [&](NodeId a, NodeId b) {
                        if (goodness[a] != goodness[b]) {
                          return goodness[a] > goodness[b];
                        }
                        return a < b;
                      });
    picks.resize(120);
    Rng rng(gi + 1);
    for (int i = 0; i < 40; ++i) {
      picks.push_back(static_cast<NodeId>(rng.Uniform(n)));
    }
    // Seeded uniform costs replace many tentative predecessors before
    // they settle; with every node a target, any miscounted settle
    // stops the search short.
    std::vector<double> random_goodness(n);
    for (double& x : random_goodness) {
      x = std::exp(-static_cast<double>(rng.Uniform(1000)) / 100.0);
    }
    const std::pair<const std::vector<double>*, const std::vector<NodeId>*>
        cases[] = {{&goodness, &picks},
                   {&random_goodness, &picks},
                   {&random_goodness, &all}};
    for (const auto& [good, targets] : cases) {
      const std::vector<double> node_cost = GoodnessPathCosts(*good);
      for (NodeId s : sources) {
        const std::vector<NodeId> early =
            GoodnessPathTree(g, node_cost, s, *targets);
        const std::vector<NodeId> full =
            ExhaustiveGoodnessDijkstra(g, *good, s);
        for (NodeId t : *targets) {
          // The whole chain t -> s, exactly as extraction walks it.
          for (NodeId v = t; v != graph::kInvalidNode; v = full[v]) {
            ASSERT_EQ(early[v], full[v])
                << "graph " << gi << " source " << s << " target " << t
                << " at " << v;
            if (v == s) break;
          }
        }
      }
    }
  }
}

TEST(GoodnessPathTreeTest, StopsAtItsLastTarget) {
  // On a path the search from 0 settles nodes in order, so it stops
  // before reaching node 20 when its targets end at 10.
  auto g = gen::Path(100).value();
  const std::vector<double> node_cost(100, 1.0);
  const std::vector<NodeId> pred = GoodnessPathTree(g, node_cost, 0, {3, 10});
  EXPECT_EQ(pred[10], 9u);
  EXPECT_EQ(pred[20], graph::kInvalidNode);
  EXPECT_EQ(GoodnessPathTree(g, node_cost, 0, {99})[99], 98u);
  for (NodeId p : GoodnessPathTree(g, node_cost, 0, {})) {
    EXPECT_EQ(p, graph::kInvalidNode);
  }
}

TEST(ExtractionTest, RespectsBudget) {
  auto g = gen::ErdosRenyiM(300, 1200, 7);
  ExtractionOptions opts;
  opts.budget = 25;
  auto r = ExtractConnectionSubgraph(g.value(), {0, 1, 2}, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r.value().subgraph.graph.num_nodes(), 25u);
  EXPECT_GE(r.value().subgraph.graph.num_nodes(), 3u);
}

TEST(ExtractionTest, ContainsAllSources) {
  auto g = gen::ErdosRenyiM(200, 800, 9);
  std::vector<NodeId> sources{5, 50, 150};
  auto r = ExtractConnectionSubgraph(g.value(), sources);
  ASSERT_TRUE(r.ok());
  for (size_t i = 0; i < sources.size(); ++i) {
    NodeId local = r.value().source_locals[i];
    ASSERT_NE(local, graph::kInvalidNode);
    EXPECT_EQ(r.value().subgraph.ParentId(local), sources[i]);
  }
}

TEST(ExtractionTest, OutputIsConnectedWhenSourcesAre) {
  auto g = gen::BarabasiAlbert(400, 3, 11);  // connected by construction
  ExtractionOptions opts;
  opts.budget = 30;
  auto r = ExtractConnectionSubgraph(g.value(), {0, 100, 399}, opts);
  ASSERT_TRUE(r.ok());
  auto wcc = mining::WeakComponents(r.value().subgraph.graph);
  EXPECT_EQ(wcc.num_components, 1u);
}

TEST(ExtractionTest, MultiSourceBeatsBudgetOnPath) {
  // On a path with sources at both ends, extraction must include the
  // whole connecting chain.
  auto g = gen::Path(12);
  ExtractionOptions opts;
  opts.budget = 12;
  auto r = ExtractConnectionSubgraph(g.value(), {0, 11}, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().subgraph.graph.num_nodes(), 12u);
  auto wcc = mining::WeakComponents(r.value().subgraph.graph);
  EXPECT_EQ(wcc.num_components, 1u);
}

TEST(ExtractionTest, SupportsSingleSource) {
  auto g = gen::BarabasiAlbert(200, 2, 13);
  ExtractionOptions opts;
  opts.budget = 10;
  auto r = ExtractConnectionSubgraph(g.value(), {0}, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r.value().subgraph.graph.num_nodes(), 10u);
  EXPECT_GT(r.value().goodness_capture, 0.0);
}

TEST(ExtractionTest, MoreThanTwoSources) {
  // The paper's key claim: multi-source queries (the prior art was
  // pairwise only). Five sources must all be included and connected.
  auto g = gen::BarabasiAlbert(500, 3, 17);
  std::vector<NodeId> sources{1, 50, 200, 350, 499};
  ExtractionOptions opts;
  opts.budget = 50;
  auto r = ExtractConnectionSubgraph(g.value(), sources, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().source_locals.size(), 5u);
  auto wcc = mining::WeakComponents(r.value().subgraph.graph);
  EXPECT_EQ(wcc.num_components, 1u);
}

TEST(ExtractionTest, BudgetSmallerThanSourcesRejected) {
  auto g = gen::Cycle(10);
  ExtractionOptions opts;
  opts.budget = 2;
  EXPECT_FALSE(
      ExtractConnectionSubgraph(g.value(), {0, 3, 6}, opts).ok());
}

TEST(ExtractionTest, CandidatePruningMatchesUnprunedCapture) {
  auto g = gen::ErdosRenyiM(300, 1500, 19);
  ExtractionOptions pruned;
  pruned.budget = 20;
  pruned.candidate_factor = 5;  // pool of 100 < the 300-node graph
  ExtractionOptions full;
  full.budget = 20;
  full.prune_candidates = false;
  auto rp = ExtractConnectionSubgraph(g.value(), {0, 150}, pruned);
  auto rf = ExtractConnectionSubgraph(g.value(), {0, 150}, full);
  ASSERT_TRUE(rp.ok());
  ASSERT_TRUE(rf.ok());
  // Pruning may lose a little capture but not more than half.
  EXPECT_GT(rp.value().goodness_capture,
            rf.value().goodness_capture * 0.5);
  EXPECT_LT(rp.value().candidate_size, rf.value().candidate_size);
}

TEST(ExtractionTest, GoodnessCaptureMatchesMembers) {
  auto g = gen::ErdosRenyiM(150, 600, 23);
  auto r = ExtractConnectionSubgraph(g.value(), {0, 75});
  ASSERT_TRUE(r.ok());
  double sum = 0.0;
  for (double v : r.value().member_goodness) sum += v;
  EXPECT_NEAR(sum, r.value().goodness_capture, 1e-12);
}

TEST(ExtractionTest, DisconnectedSourcesStillReturnSources) {
  graph::GraphBuilder b;
  b.ReserveNodes(8);
  b.AddEdge(0, 1);
  b.AddEdge(2, 3);
  auto g = std::move(b.Build()).value();
  ExtractionOptions opts;
  opts.budget = 5;
  auto r = ExtractConnectionSubgraph(g, {0, 2}, opts);
  ASSERT_TRUE(r.ok());
  // No connecting path exists; output contains at least the sources.
  EXPECT_GE(r.value().subgraph.graph.num_nodes(), 2u);
  EXPECT_DOUBLE_EQ(r.value().goodness_capture, 0.0);
}

TEST(ExtractionTest, NamedAuthorScenarioFromDblp) {
  gen::DblpOptions gopts;
  gopts.levels = 2;
  gopts.fanout = 3;
  gopts.leaf_size = 50;
  gopts.seed = 99;
  auto dblp = gen::GenerateDblp(gopts);
  ASSERT_TRUE(dblp.ok());
  const gen::DblpGraph& d = dblp.value();
  ExtractionOptions opts;
  opts.budget = 30;
  auto r = ExtractConnectionSubgraph(
      d.graph, {d.philip_yu, d.flip_korn, d.minos_garofalakis}, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r.value().subgraph.graph.num_nodes(), 30u);
  EXPECT_GT(r.value().goodness_capture, 0.0);
  auto wcc = mining::WeakComponents(r.value().subgraph.graph);
  EXPECT_EQ(wcc.num_components, 1u);
}

}  // namespace
}  // namespace gmine::csg
