#include "mining/betweenness.h"

#include <algorithm>
#include <queue>

#include "util/parallel.h"
#include "util/rng.h"

namespace gmine::mining {

using graph::Graph;
using graph::Neighbor;
using graph::NodeId;

namespace {

// Per-thread Brandes workspace: one BFS + dependency accumulation per
// source, scores accumulated into a rank-local buffer (merged once at the
// end — no sharing, no atomics inside the per-source loop).
struct BrandesWorkspace {
  std::vector<uint32_t> dist;
  std::vector<double> sigma;  // shortest-path counts
  std::vector<double> delta;  // dependencies
  std::vector<NodeId> order;  // BFS visit order
  std::vector<double> score;

  explicit BrandesWorkspace(uint32_t n)
      : dist(n), sigma(n), delta(n), score(n, 0.0) {
    order.reserve(n);
  }

  void Accumulate(const Graph& g, NodeId s) {
    constexpr uint32_t kInf = static_cast<uint32_t>(-1);
    std::fill(dist.begin(), dist.end(), kInf);
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(delta.begin(), delta.end(), 0.0);
    order.clear();
    dist[s] = 0;
    sigma[s] = 1.0;
    std::queue<NodeId> q;
    q.push(s);
    while (!q.empty()) {
      NodeId v = q.front();
      q.pop();
      order.push_back(v);
      for (const Neighbor& nb : g.Neighbors(v)) {
        if (dist[nb.id] == kInf) {
          dist[nb.id] = dist[v] + 1;
          q.push(nb.id);
        }
        if (dist[nb.id] == dist[v] + 1) sigma[nb.id] += sigma[v];
      }
    }
    // Accumulate dependencies in reverse BFS order.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      NodeId w = *it;
      for (const Neighbor& nb : g.Neighbors(w)) {
        if (dist[nb.id] + 1 == dist[w]) {
          delta[nb.id] += sigma[nb.id] / sigma[w] * (1.0 + delta[w]);
        }
      }
      if (w != s) score[w] += delta[w];
    }
  }
};

}  // namespace

BetweennessResult ComputeBetweenness(const Graph& g,
                                     const BetweennessOptions& options) {
  BetweennessResult out;
  const uint32_t n = g.num_nodes();
  out.score.assign(n, 0.0);
  if (n < 3) return out;

  std::vector<NodeId> sources;
  if (n <= options.exact_threshold) {
    sources.resize(n);
    for (NodeId v = 0; v < n; ++v) sources[v] = v;
  } else {
    Rng rng(options.seed);
    for (NodeId v : rng.SampleWithoutReplacement(n, options.samples)) {
      sources.push_back(v);
    }
    out.exact = false;
  }
  out.sources_used = static_cast<uint32_t>(sources.size());
  if (sources.empty()) return out;  // e.g. samples == 0

  // Sources are split across ranks statically (rank r takes sources
  // r, r + W, r + 2W, ...), each rank accumulating into its own score
  // buffer; buffers are merged in rank order, so a fixed thread count
  // gives a deterministic result.
  const int resolved = ResolveThreads(options.context.threads);
  const int ranks = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(resolved), sources.size()));
  std::vector<BrandesWorkspace> ws;
  ws.reserve(ranks);
  for (int r = 0; r < ranks; ++r) ws.emplace_back(n);
  ParallelRun(ranks, [&](int rank, int num_ranks) {
    BrandesWorkspace& w = ws[rank];
    for (size_t i = rank; i < sources.size();
         i += static_cast<size_t>(num_ranks)) {
      w.Accumulate(g, sources[i]);
    }
  });
  for (int r = 0; r < ranks; ++r) {
    for (NodeId v = 0; v < n; ++v) out.score[v] += ws[r].score[v];
  }

  // Each undirected pair was counted from both endpoints in the exact
  // case; halve. Approximate case: scale sampled sums to all-source
  // scale, then halve identically.
  double scale = 0.5;
  if (!out.exact) {
    scale *= static_cast<double>(n) / static_cast<double>(sources.size());
  }
  if (options.normalize) {
    scale *= 2.0 / (static_cast<double>(n - 1) * (n - 2));
  }
  for (double& v : out.score) v *= scale;
  return out;
}

}  // namespace gmine::mining
