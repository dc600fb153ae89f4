// Serial-vs-parallel kernel equivalence: every kernel with a `threads`
// knob must produce the same answer at threads=1 and threads=4.
// PageRank and RWR are bit-for-bit identical by construction (pull-based
// gather with a deterministic chunked reduction); betweenness merges
// per-rank buffers, so it agrees to float rounding (1e-9).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "csg/goodness.h"
#include "csg/rwr.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/transition.h"
#include "layout/force_directed.h"
#include "mining/betweenness.h"
#include "mining/pagerank.h"
#include "util/parallel.h"

namespace gmine {
namespace {

// A directed graph with a dangling node and non-uniform weights.
graph::Graph DanglingWeightedGraph() {
  graph::GraphBuilderOptions opts;
  opts.directed = true;
  graph::GraphBuilder b(opts);
  b.AddEdge(0, 1, 2.0f);
  b.AddEdge(0, 2, 1.0f);
  b.AddEdge(1, 2, 3.0f);
  b.AddEdge(2, 3, 1.0f);
  b.AddEdge(3, 0, 0.5f);
  b.AddEdge(3, 4, 0.5f);  // node 4 dangles
  return std::move(b.Build()).value();
}

void ExpectSameScores(const std::vector<double>& a,
                      const std::vector<double>& b, double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if (tol == 0.0) {
      EXPECT_EQ(a[i], b[i]) << "node " << i;
    } else {
      EXPECT_NEAR(a[i], b[i], tol * std::max(1.0, std::abs(a[i])))
          << "node " << i;
    }
  }
}

TEST(PageRankEquivalenceTest, SerialMatchesParallelBitForBit) {
  // > 2048 nodes so the reduction spans multiple chunks and the parallel
  // path actually dispatches to the pool.
  auto g = gen::ErdosRenyiM(3000, 12000, 42).value();
  mining::PageRankOptions serial;
  serial.context.threads = 1;
  mining::PageRankOptions parallel;
  parallel.context.threads = 4;
  auto r1 = mining::ComputePageRank(g, serial);
  auto r4 = mining::ComputePageRank(g, parallel);
  EXPECT_EQ(r1.iterations, r4.iterations);
  EXPECT_EQ(r1.final_delta, r4.final_delta);
  EXPECT_EQ(r1.converged, r4.converged);
  ExpectSameScores(r1.score, r4.score, 0.0);
}

TEST(PageRankEquivalenceTest, DanglingAndWeightedVariants) {
  graph::Graph g = DanglingWeightedGraph();
  for (bool weighted : {false, true}) {
    mining::PageRankOptions serial;
    serial.context.threads = 1;
    serial.weighted = weighted;
    mining::PageRankOptions parallel = serial;
    parallel.context.threads = 4;
    auto r1 = mining::ComputePageRank(g, serial);
    auto r4 = mining::ComputePageRank(g, parallel);
    EXPECT_EQ(r1.iterations, r4.iterations) << "weighted=" << weighted;
    ExpectSameScores(r1.score, r4.score, 0.0);
    double total = 0.0;
    for (double s : r1.score) total += s;
    EXPECT_NEAR(total, 1.0, 1e-6);
  }
}

TEST(PageRankEquivalenceTest, SerialIsDeterministicAcrossRuns) {
  auto g = gen::BarabasiAlbert(2500, 4, 9).value();
  mining::PageRankOptions opts;
  opts.context.threads = 1;
  auto a = mining::ComputePageRank(g, opts);
  auto b = mining::ComputePageRank(g, opts);
  EXPECT_EQ(a.iterations, b.iterations);
  ExpectSameScores(a.score, b.score, 0.0);
}

TEST(RwrEquivalenceTest, SerialMatchesParallelBitForBit) {
  auto g = gen::ErdosRenyiM(3000, 12000, 7).value();
  for (bool weighted : {false, true}) {
    csg::RwrOptions serial;
    serial.context.threads = 1;
    serial.weighted = weighted;
    csg::RwrOptions parallel = serial;
    parallel.context.threads = 4;
    auto r1 = csg::RandomWalkWithRestart(g, 5, serial);
    auto r4 = csg::RandomWalkWithRestart(g, 5, parallel);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r4.ok());
    EXPECT_EQ(r1.value().iterations, r4.value().iterations);
    ExpectSameScores(r1.value().probability, r4.value().probability, 0.0);
  }
}

TEST(RwrEquivalenceTest, DanglingGraph) {
  graph::Graph g = DanglingWeightedGraph();
  csg::RwrOptions serial;
  serial.context.threads = 1;
  csg::RwrOptions parallel;
  parallel.context.threads = 4;
  auto r1 = csg::RandomWalkWithRestart(g, 0, serial);
  auto r4 = csg::RandomWalkWithRestart(g, 0, parallel);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r4.ok());
  ExpectSameScores(r1.value().probability, r4.value().probability, 0.0);
  double total = 0.0;
  for (double p : r1.value().probability) total += p;
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(RwrEquivalenceTest, PrebuiltMatrixOverloadValidatesAndMatches) {
  auto g = gen::ErdosRenyiM(500, 1500, 23).value();
  csg::RwrOptions opts;  // weighted = true by default
  const graph::TransitionMatrix trans(g, opts.weighted);
  auto shared = csg::RandomWalkWithRestart(g, trans, 3, opts);
  auto fresh = csg::RandomWalkWithRestart(g, 3, opts);
  ASSERT_TRUE(shared.ok());
  ASSERT_TRUE(fresh.ok());
  ExpectSameScores(shared.value().probability, fresh.value().probability,
                   0.0);
  // Mismatched weighted flag must be rejected, not silently miscomputed.
  const graph::TransitionMatrix unweighted(g, false);
  auto bad = csg::RandomWalkWithRestart(g, unweighted, 3, opts);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(RwrEquivalenceTest, ParallelStillMatchesExactSolve) {
  auto g = gen::WattsStrogatz(300, 6, 0.1, 3).value();
  csg::RwrOptions opts;
  opts.context.threads = 4;
  opts.tolerance = 1e-12;
  opts.max_iterations = 2000;
  auto iter = csg::RandomWalkWithRestart(g, 0, opts);
  auto exact = csg::RandomWalkWithRestartExact(g, 0, opts);
  ASSERT_TRUE(iter.ok());
  ASSERT_TRUE(exact.ok());
  for (size_t v = 0; v < iter.value().probability.size(); ++v) {
    EXPECT_NEAR(iter.value().probability[v], exact.value().probability[v],
                1e-8);
  }
}

// The single-source power iteration the lane kernel replaced, kept
// verbatim as the oracle every lane must match bit for bit.
csg::RwrResult SingleSourceOracle(const graph::Graph& g, graph::NodeId source,
                                  const csg::RwrOptions& options) {
  const graph::TransitionMatrix trans(g, options.weighted);
  std::vector<double> restart(g.num_nodes(), 0.0);
  restart[source] = 1.0;
  constexpr size_t kNodeGrain = 1024;
  const uint32_t n = trans.num_nodes();
  csg::RwrResult out;
  std::vector<double> r = restart;
  std::vector<double> next(n, 0.0);
  const double c = options.restart;
  const int threads = options.context.threads;
  for (int it = 0; it < options.max_iterations; ++it) {
    if (options.context.IsCancelled()) break;  // returns current state
    double dangling = 0.0;
    for (graph::NodeId v : trans.dangling()) dangling += r[v];

    double delta = ParallelReduce(
        0, n, kNodeGrain, threads, 0.0,
        [&](size_t b, size_t e) {
          double local = 0.0;
          for (size_t v = b; v < e; ++v) {
            double acc = 0.0;
            for (const graph::InArc& a :
                 trans.InArcs(static_cast<graph::NodeId>(v))) {
              acc += r[a.src] * a.prob;
            }
            // Dangling mass restarts entirely.
            double nv =
                c * restart[v] + (1.0 - c) * (acc + dangling * restart[v]);
            local += std::abs(nv - r[v]);
            next[v] = nv;
          }
          return local;
        },
        [](double a, double b) { return a + b; });

    r.swap(next);
    out.iterations = it + 1;
    out.final_delta = delta;
    if (delta < options.tolerance) {
      out.converged = true;
      break;
    }
  }
  out.probability = std::move(r);
  return out;
}

// memcmp equality of all four RwrResult fields.
void ExpectSameWalk(const csg::RwrResult& got, const csg::RwrResult& want,
                    const std::string& where) {
  EXPECT_EQ(got.iterations, want.iterations) << where;
  EXPECT_EQ(std::memcmp(&got.final_delta, &want.final_delta, sizeof(double)),
            0)
      << where << " final_delta " << got.final_delta << " vs "
      << want.final_delta;
  EXPECT_EQ(got.converged, want.converged) << where;
  ASSERT_EQ(got.probability.size(), want.probability.size()) << where;
  EXPECT_EQ(std::memcmp(got.probability.data(), want.probability.data(),
                        want.probability.size() * sizeof(double)),
            0)
      << where << " probability";
}

// ComputeSourceWalks for every prefix of `sources`, weighted and not, at
// threads 1 and 4, against one oracle solve per source.
void ExpectLanesMatchOracle(const graph::Graph& g,
                            const std::vector<graph::NodeId>& sources,
                            csg::RwrOptions options) {
  for (bool weighted : {false, true}) {
    options.weighted = weighted;
    std::vector<csg::RwrResult> oracle;
    options.context.threads = 1;
    for (graph::NodeId s : sources) {
      oracle.push_back(SingleSourceOracle(g, s, options));
    }
    for (int threads : {1, 4}) {
      options.context.threads = threads;
      for (size_t k = 1; k <= sources.size(); ++k) {
        const std::vector<graph::NodeId> prefix(sources.begin(),
                                                sources.begin() + k);
        auto walks = csg::ComputeSourceWalks(g, prefix, options);
        ASSERT_TRUE(walks.ok()) << walks.status().ToString();
        ASSERT_EQ(walks.value().walks.size(), k);
        for (size_t i = 0; i < k; ++i) {
          ExpectSameWalk(walks.value().walks[i], oracle[i],
                         "weighted=" + std::to_string(weighted) +
                             " threads=" + std::to_string(threads) +
                             " k=" + std::to_string(k) +
                             " lane=" + std::to_string(i));
        }
      }
    }
  }
}

TEST(RwrEquivalenceTest, LanesMatchTheSingleSourceSolveBitForBit) {
  // 9 sources cross two full lane groups and a one-lane third; 3000
  // nodes span three reduction chunks.
  auto g = gen::ErdosRenyiM(3000, 12000, 7).value();
  ExpectLanesMatchOracle(g, {5, 17, 2999, 0, 1234, 640, 88, 2048, 1500}, {});
}

TEST(RwrEquivalenceTest, LanesMatchOnTheDanglingGraph) {
  ExpectLanesMatchOracle(DanglingWeightedGraph(), {4, 0, 2, 3, 1}, {});
}

TEST(RwrEquivalenceTest, LanesStopAtTheirOwnIterations) {
  // An iteration cap between the sources' own convergence points: some
  // lanes converge and leave the sweep, the rest stop unconverged at the
  // cap, each matching its single-source solve.
  auto g = gen::BarabasiAlbert(2500, 3, 31).value();
  const std::vector<graph::NodeId> sources{0, 7, 500, 1200, 2499, 60, 900};
  csg::RwrOptions options;
  options.tolerance = 1e-13;
  options.context.threads = 1;
  int fewest = options.max_iterations;
  int most = 0;
  for (graph::NodeId s : sources) {
    const csg::RwrResult r = SingleSourceOracle(g, s, options);
    ASSERT_TRUE(r.converged);
    fewest = std::min(fewest, r.iterations);
    most = std::max(most, r.iterations);
  }
  ASSERT_LT(fewest, most);
  options.max_iterations = most - 1;
  bool some_converged = false;
  bool some_capped = false;
  for (graph::NodeId s : sources) {
    const csg::RwrResult r = SingleSourceOracle(g, s, options);
    (r.converged ? some_converged : some_capped) = true;
  }
  EXPECT_TRUE(some_converged);
  EXPECT_TRUE(some_capped);
  ExpectLanesMatchOracle(g, sources, options);
}

TEST(RwrEquivalenceTest, CancelledLanesReturnWithoutError) {
  auto g = gen::ErdosRenyiM(3000, 12000, 7).value();
  const std::vector<graph::NodeId> sources{5, 17, 2999, 0, 1234, 640};
  csg::RwrOptions options;
  int polls = 0;
  options.context.cancelled = [&polls] { return ++polls > 3; };
  auto walks = csg::ComputeSourceWalks(g, sources, options);
  ASSERT_TRUE(walks.ok()) << walks.status().ToString();
  ASSERT_EQ(walks.value().walks.size(), sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    const csg::RwrResult& w = walks.value().walks[i];
    EXPECT_FALSE(w.converged);
    ASSERT_EQ(w.probability.size(), g.num_nodes());
    // The first group ran three sweeps; the second starts cancelled and
    // keeps its restart vectors.
    if (i < 4) {
      EXPECT_EQ(w.iterations, 3);
    } else {
      EXPECT_EQ(w.iterations, 0);
      EXPECT_EQ(w.probability[sources[i]], 1.0);
    }
  }
}

TEST(BetweennessEquivalenceTest, SerialMatchesParallelExact) {
  auto g = gen::ErdosRenyiM(400, 1600, 11).value();
  mining::BetweennessOptions serial;
  serial.context.threads = 1;
  mining::BetweennessOptions parallel;
  parallel.context.threads = 4;
  auto r1 = mining::ComputeBetweenness(g, serial);
  auto r4 = mining::ComputeBetweenness(g, parallel);
  EXPECT_TRUE(r1.exact);
  EXPECT_EQ(r1.sources_used, r4.sources_used);
  ExpectSameScores(r1.score, r4.score, 1e-9);
}

TEST(BetweennessEquivalenceTest, SerialMatchesParallelSampled) {
  auto g = gen::BarabasiAlbert(600, 3, 5).value();
  mining::BetweennessOptions serial;
  serial.exact_threshold = 100;  // force sampling
  serial.samples = 64;
  serial.context.threads = 1;
  mining::BetweennessOptions parallel = serial;
  parallel.context.threads = 4;
  auto r1 = mining::ComputeBetweenness(g, serial);
  auto r4 = mining::ComputeBetweenness(g, parallel);
  EXPECT_FALSE(r1.exact);
  EXPECT_EQ(r1.sources_used, r4.sources_used);
  ExpectSameScores(r1.score, r4.score, 1e-9);
}

TEST(BetweennessEquivalenceTest, ZeroSamplesYieldsZeroScores) {
  auto g = gen::ErdosRenyiM(300, 900, 19).value();
  mining::BetweennessOptions opts;
  opts.exact_threshold = 100;  // force sampling
  opts.samples = 0;
  opts.context.threads = 0;  // auto must not dispatch ranks into empty workspaces
  auto r = mining::ComputeBetweenness(g, opts);
  EXPECT_EQ(r.sources_used, 0u);
  for (double s : r.score) EXPECT_EQ(s, 0.0);
}

TEST(LayoutEquivalenceTest, BarnesHutPathBitIdenticalAcrossThreads) {
  // The Barnes–Hut repulsion is a per-node read-only gather, so the
  // parallel path computes exactly the serial sums.
  auto g = gen::BarabasiAlbert(800, 2, 21).value();
  layout::ForceDirectedOptions serial;
  serial.iterations = 10;
  serial.barnes_hut_threshold = 100;
  serial.threads = 1;
  layout::ForceDirectedOptions parallel = serial;
  parallel.threads = 4;
  auto r1 = layout::ForceDirectedLayout(g, serial);
  auto r4 = layout::ForceDirectedLayout(g, parallel);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r4.ok());
  EXPECT_TRUE(r1.value().used_barnes_hut);
  ASSERT_EQ(r1.value().positions.size(), r4.value().positions.size());
  for (size_t v = 0; v < r1.value().positions.size(); ++v) {
    EXPECT_EQ(r1.value().positions[v].x, r4.value().positions[v].x);
    EXPECT_EQ(r1.value().positions[v].y, r4.value().positions[v].y);
  }
}

TEST(LayoutEquivalenceTest, GatherRepulsionBitIdenticalAcrossThreads) {
  // The O(n^2) gather path sums forces in a fixed order per node, so the
  // default (threads=0) layout is reproducible at every thread count —
  // and therefore across machines with different core counts.
  auto g = gen::ErdosRenyiM(150, 450, 17).value();
  layout::ForceDirectedOptions base;
  base.iterations = 15;
  for (int threads : {2, 4, 0}) {
    layout::ForceDirectedOptions two = base;
    two.threads = threads;
    layout::ForceDirectedOptions def = base;
    def.threads = 0;
    auto a = layout::ForceDirectedLayout(g, def);
    auto b = layout::ForceDirectedLayout(g, two);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    for (size_t v = 0; v < a.value().positions.size(); ++v) {
      EXPECT_EQ(a.value().positions[v].x, b.value().positions[v].x);
      EXPECT_EQ(a.value().positions[v].y, b.value().positions[v].y);
    }
  }
}

TEST(LayoutEquivalenceTest, ParallelExactRepulsionStaysInArea) {
  // The O(n^2) parallel path uses the gather form (different summation
  // order than the legacy pairwise path), so assert sane geometry rather
  // than bit equality.
  auto g = gen::ErdosRenyiM(200, 600, 13).value();
  layout::ForceDirectedOptions opts;
  opts.iterations = 20;
  opts.threads = 4;
  auto r = layout::ForceDirectedLayout(g, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().used_barnes_hut);
  for (const layout::Point& p : r.value().positions) {
    EXPECT_TRUE(std::isfinite(p.x));
    EXPECT_TRUE(std::isfinite(p.y));
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, opts.area);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, opts.area);
  }
}

}  // namespace
}  // namespace gmine
