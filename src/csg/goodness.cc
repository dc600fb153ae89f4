#include "csg/goodness.h"

#include <cmath>
#include <unordered_set>

#include "util/string_util.h"

namespace gmine::csg {

using graph::Graph;
using graph::NodeId;

gmine::Result<SourceWalks> ComputeSourceWalks(
    const Graph& g, const std::vector<NodeId>& sources,
    const RwrOptions& options) {
  if (sources.empty()) {
    return Status::InvalidArgument("goodness: empty source set");
  }
  std::unordered_set<NodeId> seen;
  for (NodeId s : sources) {
    if (s >= g.num_nodes()) {
      return Status::InvalidArgument(
          StrFormat("goodness: source %u out of range %u", s, g.num_nodes()));
    }
    if (!seen.insert(s).second) {
      return Status::InvalidArgument(
          StrFormat("goodness: duplicate source %u", s));
    }
  }
  const graph::TransitionMatrix trans(g, options.weighted);
  SourceWalks out;
  out.sources = sources;
  GMINE_ASSIGN_OR_RETURN(out.walks,
                         RandomWalksWithRestart(g, trans, sources, options));
  return out;
}

std::vector<double> GoodnessScores(const SourceWalks& walks) {
  if (walks.walks.empty()) return {};
  const size_t n = walks.walks[0].probability.size();
  const double inv_k = 1.0 / static_cast<double>(walks.walks.size());
  std::vector<double> goodness(n, 0.0);
  for (size_t v = 0; v < n; ++v) {
    double log_sum = 0.0;
    bool zero = false;
    for (const RwrResult& w : walks.walks) {
      double p = w.probability[v];
      if (p <= 0.0) {
        zero = true;
        break;
      }
      log_sum += std::log(p);
    }
    goodness[v] = zero ? 0.0 : std::exp(log_sum * inv_k);
  }
  return goodness;
}

double GoodnessCapture(const std::vector<double>& goodness,
                       const std::vector<NodeId>& nodes) {
  double total = 0.0;
  for (NodeId v : nodes) {
    if (v < goodness.size()) total += goodness[v];
  }
  return total;
}

}  // namespace gmine::csg
