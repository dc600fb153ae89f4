// PageRank (§III-B metric 5) by power iteration with dangling-mass
// redistribution. Works on directed and undirected graphs (undirected
// edges act as two arcs).

#ifndef GMINE_MINING_PAGERANK_H_
#define GMINE_MINING_PAGERANK_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "mining/kernel_context.h"

namespace gmine::mining {

/// PageRank tunables.
struct PageRankOptions {
  double damping = 0.85;
  /// Stop when the L1 change between iterations falls below this.
  double tolerance = 1e-9;
  int max_iterations = 100;
  /// Weighted transition probabilities (proportional to edge weight)
  /// instead of uniform over out-neighbors.
  bool weighted = false;
  /// Shared execution knobs — set context.threads for the pull-based
  /// gather and delta reduction: 0 = auto (GMINE_THREADS env var, else
  /// hardware_concurrency), 1 = exact serial path, N = N participants.
  /// Results are bit-identical at every setting (deterministic chunked
  /// reduction). Cancellation is polled between iterations and stops
  /// early with the current (unconverged) scores.
  KernelContext context;
};

/// PageRank output.
struct PageRankResult {
  /// Scores summing to 1 (within tolerance).
  std::vector<double> score;
  int iterations = 0;
  double final_delta = 0.0;
  bool converged = false;
};

/// Computes PageRank on `g`.
PageRankResult ComputePageRank(const graph::Graph& g,
                               const PageRankOptions& options = {});

/// Node ids of the top-k scores, descending.
std::vector<graph::NodeId> TopKByScore(const std::vector<double>& score,
                                       uint32_t k);

}  // namespace gmine::mining

#endif  // GMINE_MINING_PAGERANK_H_
