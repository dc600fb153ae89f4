// Betweenness centrality (Brandes' algorithm) — the paper's introduction
// motivates interactive visualization with "identify the main components
// of a graph, its outliers, the most important edges and communities";
// betweenness is the standard "most important" score for nodes and the
// basis for important-edge ranking on community subgraphs.

#ifndef GMINE_MINING_BETWEENNESS_H_
#define GMINE_MINING_BETWEENNESS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "mining/kernel_context.h"

namespace gmine::mining {

/// Betweenness tunables.
struct BetweennessOptions {
  /// Exact computation (all sources) up to this node count; above it,
  /// `samples` random source pivots approximate the scores (scaled to
  /// the full-source scale).
  uint32_t exact_threshold = 2048;
  uint32_t samples = 128;
  uint64_t seed = 1;
  /// Normalize by (n-1)(n-2)/2 (undirected pair count).
  bool normalize = false;
  /// Shared execution knobs — set context.threads for worker threads;
  /// sources are strided across ranks with per-rank score buffers merged
  /// at the end. 0 = auto (GMINE_THREADS env var, else
  /// hardware_concurrency), 1 = exact serial path. A fixed thread count
  /// gives a deterministic result; different counts agree to float
  /// rounding (summation order differs).
  KernelContext context;
};

/// Betweenness output.
struct BetweennessResult {
  /// Score per node (undirected convention: each pair counted once).
  std::vector<double> score;
  uint32_t sources_used = 0;
  bool exact = true;
};

/// Computes (approximate) node betweenness via Brandes' dependency
/// accumulation on unweighted shortest paths.
BetweennessResult ComputeBetweenness(const graph::Graph& g,
                                     const BetweennessOptions& options = {});

}  // namespace gmine::mining

#endif  // GMINE_MINING_BETWEENNESS_H_
