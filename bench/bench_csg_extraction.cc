// Experiment F5 (Fig. 5): connection subgraph extraction — a 30-node
// subgraph for a 3-author query set ("Philip S. Yu", "Flip Korn",
// "Minos N. Garofalakis"), vs. the delivered-current baseline [1], which
// is restricted to pairwise queries.
//
// Report: the extracted subgraph (size, capture, the named authors and
// the bridge node the paper highlights — H.V. Jagadish's role), and the
// multi-source vs pairwise-union comparison: the paper's claim is that
// one multi-source extraction captures the joint relationship better
// than unioning pairwise results at the same budget.

#include <benchmark/benchmark.h>

#include <unordered_set>

#include "bench_common.h"
#include "csg/delivered_current.h"
#include "csg/extraction.h"
#include "csg/goodness.h"

namespace {

using namespace gmine;  // NOLINT
using bench::CachedDblp;

void PrintReport() {
  bench::ReportHeader(
      "F5: connection subgraph extraction (Fig. 5, 30-node subgraph for 3 "
      "authors)",
      "multi-source RWR goodness extraction concentrates the display on "
      "the nodes that best capture the joint relationship; the prior "
      "delivered-current method handles only pairwise queries");
  const gen::DblpGraph& data = CachedDblp();
  std::vector<graph::NodeId> sources{data.philip_yu, data.flip_korn,
                                     data.minos_garofalakis};

  csg::ExtractionOptions opts;
  opts.budget = 30;
  auto cs = csg::ExtractConnectionSubgraph(data.graph, sources, opts);
  if (!cs.ok()) {
    std::printf("extraction failed: %s\n", cs.status().ToString().c_str());
    return;
  }
  std::printf("multi-source (3 authors, budget 30): %s\n",
              cs.value().ToString().c_str());
  // Top goodness members with names (the figure's labeled nodes).
  std::vector<std::pair<double, graph::NodeId>> ranked;
  for (size_t i = 0; i < cs.value().subgraph.to_parent.size(); ++i) {
    ranked.emplace_back(cs.value().member_goodness[i],
                        cs.value().subgraph.to_parent[i]);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  std::printf("top members by goodness:\n");
  for (size_t i = 0; i < std::min<size_t>(6, ranked.size()); ++i) {
    std::printf("  %.3e  %s\n", ranked[i].first,
                std::string(data.labels.Label(ranked[i].second)).c_str());
  }

  // Pairwise-union baseline at the same total budget: 3 pairs, 10 nodes
  // each.
  auto walks = csg::ComputeSourceWalks(data.graph, sources, opts.rwr);
  std::vector<double> goodness = csg::GoodnessScores(walks.value());
  std::unordered_set<graph::NodeId> union_nodes;
  csg::DeliveredCurrentOptions dopts;
  dopts.budget = 12;
  const std::pair<graph::NodeId, graph::NodeId> pairs[] = {
      {sources[0], sources[1]},
      {sources[0], sources[2]},
      {sources[1], sources[2]}};
  for (auto [s, t] : pairs) {
    auto dc = csg::DeliveredCurrentSubgraph(data.graph, s, t, dopts);
    if (!dc.ok()) continue;
    for (graph::NodeId p : dc.value().subgraph.to_parent) {
      union_nodes.insert(p);
    }
  }
  std::vector<graph::NodeId> union_vec(union_nodes.begin(),
                                       union_nodes.end());
  double union_capture = csg::GoodnessCapture(goodness, union_vec);
  std::printf(
      "baseline union of 3 pairwise delivered-current subgraphs: %zu nodes, "
      "goodness capture %.3e\n",
      union_vec.size(), union_capture);
  std::printf(
      "shape: multi-source capture (%.3e) >= pairwise-union capture "
      "(%.3e) at comparable size -> %s\n",
      cs.value().goodness_capture, union_capture,
      cs.value().goodness_capture >= union_capture ? "HOLDS" : "violated");
  std::printf(
      "magnitude: %u-node display vs %u-node graph — a %.0fx reduction "
      "(the paper: \"thousand fold smaller\" at DBLP scale).\n",
      cs.value().subgraph.graph.num_nodes(), data.graph.num_nodes(),
      static_cast<double>(data.graph.num_nodes()) /
          cs.value().subgraph.graph.num_nodes());
}

void BM_MultiSourceExtraction(benchmark::State& state) {
  const gen::DblpGraph& data = CachedDblp();
  std::vector<graph::NodeId> sources{data.philip_yu, data.flip_korn,
                                     data.minos_garofalakis};
  csg::ExtractionOptions opts;
  opts.budget = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    auto cs = csg::ExtractConnectionSubgraph(data.graph, sources, opts);
    benchmark::DoNotOptimize(cs);
  }
}

BENCHMARK(BM_MultiSourceExtraction)
    ->Arg(10)
    ->Arg(30)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_PairwiseDeliveredCurrent(benchmark::State& state) {
  const gen::DblpGraph& data = CachedDblp();
  csg::DeliveredCurrentOptions opts;
  opts.budget = 30;
  for (auto _ : state) {
    auto dc = csg::DeliveredCurrentSubgraph(data.graph, data.philip_yu,
                                            data.flip_korn, opts);
    benchmark::DoNotOptimize(dc);
  }
}

BENCHMARK(BM_PairwiseDeliveredCurrent)->Unit(benchmark::kMillisecond);

// arg = SOURCE COUNT, not threads: the RWR walks of 1-4 query authors,
// serial. The kernel advances every source's walk in one sweep of the
// transition matrix, so the cost grows far slower than the count.
void BM_SourceWalks(benchmark::State& state) {
  const gen::DblpGraph& data = CachedDblp();
  const std::vector<graph::NodeId> all{data.philip_yu, data.flip_korn,
                                       data.minos_garofalakis,
                                       data.jiawei_han};
  const std::vector<graph::NodeId> sources(all.begin(),
                                           all.begin() + state.range(0));
  csg::RwrOptions opts;
  opts.context.threads = 1;
  for (auto _ : state) {
    auto walks = csg::ComputeSourceWalks(data.graph, sources, opts);
    benchmark::DoNotOptimize(walks);
  }
}

BENCHMARK(BM_SourceWalks)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
