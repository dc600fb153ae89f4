// Multi-source connection subgraph extraction (§IV, the paper's second
// core idea; the full algorithm is the center-piece-subgraph method of
// Tong & Faloutsos, which this demo paper summarizes).
//
// Pipeline:
//   1. one RWR per source node (rwr.h), up to four sources advanced per
//      sweep of the transition matrix;
//   2. goodness score per node = geometric-mean steady meeting
//      probability (goodness.h);
//   3. candidate pruning: only the top (candidate_factor * budget) nodes
//      by goodness are *targets* for path extraction — this bounds the
//      greedy loop and keeps extraction interactive on large graphs;
//   4. iterative important-path discovery (dynamic programming): one
//      Dijkstra tree per source over node costs -log(goodness) on the
//      full graph, each cost computed once per extraction and each
//      search stopped once every candidate is settled (GoodnessPathTree);
//      then repeatedly take the highest-goodness candidate not yet
//      included and add, for every source, the maximum-goodness
//      connection path linking it to that source, until the node budget
//      is hit. Low-goodness bridge nodes may enter as path interiors, so
//      pruning never disconnects the output.
//
// The output is connected whenever the sources share a component of the
// graph, contains all sources, and maximizes captured goodness greedily
// under the budget.

#ifndef GMINE_CSG_EXTRACTION_H_
#define GMINE_CSG_EXTRACTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "csg/goodness.h"
#include "csg/rwr.h"
#include "graph/graph.h"
#include "graph/subgraph.h"
#include "util/status.h"

namespace gmine::csg {

/// Extraction tunables.
struct ExtractionOptions {
  /// Output size cap in nodes, including the sources (paper demo: 30).
  uint32_t budget = 30;
  /// Candidate pool size = candidate_factor * budget (plus sources).
  uint32_t candidate_factor = 20;
  /// Disable step 3 (candidate pruning) — ablation A2 only; extraction
  /// then runs its DP on the full graph.
  bool prune_candidates = true;
  RwrOptions rwr;
};

/// Extraction output.
struct ConnectionSubgraph {
  /// The extracted subgraph, induced on the original graph.
  graph::Subgraph subgraph;
  /// Goodness per *original* node id for members (parallel to
  /// subgraph.to_parent).
  std::vector<double> member_goodness;
  /// Local ids of the query sources within subgraph.graph.
  std::vector<graph::NodeId> source_locals;
  /// Sum of goodness over members — the captured objective.
  double goodness_capture = 0.0;
  /// Diagnostics: candidate pool size used, paths added.
  uint32_t candidate_size = 0;
  uint32_t paths_added = 0;

  /// Short summary line.
  std::string ToString() const;
};

/// Extracts a connection subgraph for `sources` (>= 1 node; the paper's
/// key claim is support for more than two). Sources must be distinct.
gmine::Result<ConnectionSubgraph> ExtractConnectionSubgraph(
    const graph::Graph& g, const std::vector<graph::NodeId>& sources,
    const ExtractionOptions& options = {});

/// Maximum-goodness path between two nodes where a path's score is the
/// sum over interior nodes of -log(goodness) (lower = better). Runs on
/// any graph; exposed for tests. Returns empty when disconnected.
std::vector<graph::NodeId> BestGoodnessPath(const graph::Graph& g,
                                            const std::vector<double>& goodness,
                                            graph::NodeId from,
                                            graph::NodeId to);

/// The path cost of entering each node: -log(goodness), with goodness
/// floored at 1e-300. Non-negative, since goodness is at most 1.
std::vector<double> GoodnessPathCosts(const std::vector<double>& goodness);

/// Dijkstra from `from` over node costs (entering v costs node_cost[v]):
/// pred[v] is v's predecessor on a cheapest path, kInvalidNode for `from`
/// and for nodes never reached. The search stops once every node in
/// `targets` is settled (at once when `targets` is empty). A settled
/// node's predecessor is final, so every target's chain back to `from`
/// is the one a search run to exhaustion finds; nodes left unsettled may
/// hold tentative predecessors. A target that `from` cannot reach never
/// settles, and the search then runs to exhaustion. `from` and every
/// target must be node ids of `g`; `node_cost` has one entry per node.
std::vector<graph::NodeId> GoodnessPathTree(
    const graph::Graph& g, const std::vector<double>& node_cost,
    graph::NodeId from, const std::vector<graph::NodeId>& targets);

}  // namespace gmine::csg

#endif  // GMINE_CSG_EXTRACTION_H_
