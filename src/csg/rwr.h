// Random walk with restart (RWR) — the proximity engine behind GMine's
// connection subgraph extraction (§IV): "an independent random walk with
// restart is simulated for each source node".
//
// r = c * e_s + (1 - c) * W^T r, where W is the (weighted) row-normalized
// adjacency matrix and c the restart probability. Solved by power
// iteration in one kernel that advances up to four restart vectors
// ("lanes") per sweep of the transition matrix: each in-arc is read once
// and applied to every lane, and each lane keeps its own dangling mass,
// delta, iteration count and stopping test. A lane's result is therefore
// bit-identical whether it is solved alone or beside others. An exact
// dense solve is provided for small graphs (tests, and the convergence
// ablation bench_rwr).

#ifndef GMINE_CSG_RWR_H_
#define GMINE_CSG_RWR_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/transition.h"
#include "mining/kernel_context.h"
#include "util/status.h"

namespace gmine::csg {

/// RWR tunables.
struct RwrOptions {
  /// Restart probability c (paper-typical 0.15).
  double restart = 0.15;
  /// L1 convergence tolerance.
  double tolerance = 1e-10;
  int max_iterations = 200;
  /// Use edge weights for transition probabilities.
  bool weighted = true;
  /// Shared execution knobs — set context.threads for the power-iteration
  /// gather: 0 = auto (GMINE_THREADS env var, else hardware_concurrency),
  /// 1 = exact serial path, N = N participants. Results are bit-identical
  /// at every setting (deterministic chunked reduction). Ignored by the
  /// exact dense solve.
  mining::KernelContext context;
};

/// One RWR solve.
struct RwrResult {
  /// Steady-state visiting probability per node; sums to 1.
  std::vector<double> probability;
  int iterations = 0;
  double final_delta = 0.0;
  bool converged = false;
};

/// RWR from a single source.
gmine::Result<RwrResult> RandomWalkWithRestart(const graph::Graph& g,
                                               graph::NodeId source,
                                               const RwrOptions& options = {});

/// RWR from a single source over a prebuilt transition matrix, so a
/// caller solving on one graph again and again pays the O(nodes + arcs)
/// construction once. `trans` must have been built from `g` with the same
/// `weighted` setting as `options`.
gmine::Result<RwrResult> RandomWalkWithRestart(
    const graph::Graph& g, const graph::TransitionMatrix& trans,
    graph::NodeId source, const RwrOptions& options = {});

/// RWR from each of `sources` (one result per source, in order) over a
/// prebuilt transition matrix, as for the overload above. Sources run
/// four lanes to a sweep, in groups taken in order; a group of three runs
/// padded to four, and a lane that stops leaves the sweep narrower. Each
/// result is bit-identical to its single-source solve at every `threads`
/// setting. Cancellation is polled before every sweep and leaves each
/// running lane with its current state; a group that starts cancelled
/// returns its restart vectors (iterations 0).
gmine::Result<std::vector<RwrResult>> RandomWalksWithRestart(
    const graph::Graph& g, const graph::TransitionMatrix& trans,
    const std::vector<graph::NodeId>& sources, const RwrOptions& options = {});

/// RWR with a distributed restart vector (used for query sets and tests);
/// `restart_mass` must be non-negative (not NaN) and sum to ~1 over all
/// nodes. One lane of the same kernel.
gmine::Result<RwrResult> RandomWalkWithRestartVector(
    const graph::Graph& g, const std::vector<double>& restart_mass,
    const RwrOptions& options = {});

/// Exact solve of (I - (1-c) W^T) r = c e_s by dense Gaussian elimination.
/// O(n^3); only for graphs up to a few thousand nodes (tests/ablation).
gmine::Result<RwrResult> RandomWalkWithRestartExact(
    const graph::Graph& g, graph::NodeId source, const RwrOptions& options = {});

}  // namespace gmine::csg

#endif  // GMINE_CSG_RWR_H_
