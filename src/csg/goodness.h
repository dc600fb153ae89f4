// Goodness score (§IV): "the goodness score of a node is computed by the
// steady-meeting probability that the random particles will finally meet
// each other at the given node."
//
// With one RWR vector r_s per source s, the meeting probability at node v
// is proportional to the product of the per-source steady-state visiting
// probabilities; we use the geometric mean so scores are comparable
// across query-set sizes and do not vanish numerically for many sources.

#ifndef GMINE_CSG_GOODNESS_H_
#define GMINE_CSG_GOODNESS_H_

#include <vector>

#include "csg/rwr.h"
#include "graph/graph.h"
#include "util/status.h"

namespace gmine::csg {

/// Per-source RWR vectors for a query set.
struct SourceWalks {
  std::vector<graph::NodeId> sources;
  /// walks[i].probability is the RWR vector of sources[i].
  std::vector<RwrResult> walks;
};

/// Runs one RWR per source, sharing one transition matrix, through the
/// lane kernel (RandomWalksWithRestart, rwr.h): up to four sources per
/// sweep, each walk bit-identical to its single-source solve. Sources
/// must be distinct and in range.
gmine::Result<SourceWalks> ComputeSourceWalks(const graph::Graph& g,
                                              const std::vector<graph::NodeId>& sources,
                                              const RwrOptions& options = {});

/// goodness(v) = (prod_s r_s(v))^(1/|S|), the geometric-mean steady
/// meeting probability. Source nodes themselves are included.
std::vector<double> GoodnessScores(const SourceWalks& walks);

/// Total goodness captured by a node set: sum of goodness(v) over `nodes`
/// — the objective the extraction maximizes and the quantity
/// bench_csg_extraction reports ("goodness capture").
double GoodnessCapture(const std::vector<double>& goodness,
                       const std::vector<graph::NodeId>& nodes);

}  // namespace gmine::csg

#endif  // GMINE_CSG_GOODNESS_H_
