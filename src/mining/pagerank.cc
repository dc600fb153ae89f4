#include "mining/pagerank.h"

#include <algorithm>
#include <cmath>

#include "graph/transition.h"
#include "util/parallel.h"

namespace gmine::mining {

using graph::Graph;
using graph::InArc;
using graph::NodeId;
using graph::TransitionMatrix;

namespace {

// Nodes per ParallelReduce chunk. Fixed (never derived from the thread
// count) so the chunked delta reduction is bit-identical at every
// `threads` setting.
constexpr size_t kNodeGrain = 1024;

}  // namespace

PageRankResult ComputePageRank(const Graph& g,
                               const PageRankOptions& options) {
  PageRankResult out;
  const uint32_t n = g.num_nodes();
  if (n == 0) return out;
  const double d = options.damping;

  // Pull-based gather: per-target in-arcs with precomputed transition
  // probabilities — no per-arc branch or division in the iteration, and
  // every node's update is independent (no atomics when parallel).
  const TransitionMatrix trans(g, options.weighted);

  std::vector<double> rank(n, 1.0 / n);
  std::vector<double> next(n, 0.0);

  const int threads = options.context.threads;
  for (int it = 0; it < options.max_iterations; ++it) {
    if (options.context.IsCancelled()) break;  // returns current state
    double dangling = 0.0;
    for (NodeId v : trans.dangling()) dangling += rank[v];
    const double base = (1.0 - d) / n + d * dangling / n;

    double delta = ParallelReduce(
        0, n, kNodeGrain, threads, 0.0,
        [&](size_t b, size_t e) {
          double local = 0.0;
          for (size_t v = b; v < e; ++v) {
            double acc = 0.0;
            for (const InArc& a : trans.InArcs(static_cast<NodeId>(v))) {
              acc += rank[a.src] * a.prob;
            }
            double nv = base + d * acc;
            local += std::abs(nv - rank[v]);
            next[v] = nv;
          }
          return local;
        },
        [](double a, double b) { return a + b; });

    rank.swap(next);
    out.iterations = it + 1;
    out.final_delta = delta;
    if (delta < options.tolerance) {
      out.converged = true;
      break;
    }
  }
  out.score = std::move(rank);
  return out;
}

std::vector<NodeId> TopKByScore(const std::vector<double>& score,
                                uint32_t k) {
  std::vector<NodeId> ids(score.size());
  for (NodeId v = 0; v < ids.size(); ++v) ids[v] = v;
  uint32_t kk = std::min<uint32_t>(k, static_cast<uint32_t>(ids.size()));
  std::partial_sort(ids.begin(), ids.begin() + kk, ids.end(),
                    [&](NodeId a, NodeId b) {
                      if (score[a] != score[b]) return score[a] > score[b];
                      return a < b;
                    });
  ids.resize(kk);
  return ids;
}

}  // namespace gmine::mining
