#include "csg/extraction.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <unordered_set>

#include "util/string_util.h"

namespace gmine::csg {

using graph::Graph;
using graph::kInvalidNode;
using graph::Neighbor;
using graph::NodeId;
using graph::Subgraph;

std::vector<double> GoodnessPathCosts(const std::vector<double>& goodness) {
  // Interior nodes pay -log(goodness); endpoints are free so paths
  // between high-goodness endpoints are not double-charged.
  constexpr double kFloor = 1e-300;
  std::vector<double> cost(goodness.size());
  for (size_t v = 0; v < goodness.size(); ++v) {
    cost[v] = -std::log(std::max(goodness[v], kFloor));
  }
  return cost;
}

std::vector<NodeId> GoodnessPathTree(const Graph& g,
                                     const std::vector<double>& node_cost,
                                     NodeId from,
                                     const std::vector<NodeId>& targets) {
  const uint32_t n = g.num_nodes();
  std::vector<NodeId> pred(n, kInvalidNode);
  std::vector<char> wanted(n, 0);
  size_t unsettled = 0;
  for (NodeId t : targets) {
    if (!wanted[t]) {
      wanted[t] = 1;
      ++unsettled;
    }
  }
  if (unsettled == 0) return pred;
  std::vector<double> cost(n, std::numeric_limits<double>::infinity());
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  cost[from] = 0.0;
  heap.emplace(0.0, from);
  while (!heap.empty()) {
    auto [c, u] = heap.top();
    heap.pop();
    if (c > cost[u]) continue;
    // u is settled: with non-negative costs no later relaxation improves
    // it, so its predecessor is final.
    if (wanted[u] && --unsettled == 0) break;
    for (const Neighbor& nb : g.Neighbors(u)) {
      double nc = c + node_cost[nb.id];
      if (nc < cost[nb.id]) {
        cost[nb.id] = nc;
        pred[nb.id] = u;
        heap.emplace(nc, nb.id);
      }
    }
  }
  return pred;
}

std::vector<NodeId> BestGoodnessPath(const Graph& g,
                                     const std::vector<double>& goodness,
                                     NodeId from, NodeId to) {
  if (from >= g.num_nodes() || to >= g.num_nodes()) return {};
  if (from == to) return {from};
  const std::vector<NodeId> pred =
      GoodnessPathTree(g, GoodnessPathCosts(goodness), from, {to});
  if (pred[to] == kInvalidNode) return {};
  std::vector<NodeId> path;
  for (NodeId v = to; v != kInvalidNode; v = pred[v]) {
    path.push_back(v);
    if (v == from) break;
  }
  std::reverse(path.begin(), path.end());
  if (path.front() != from) return {};
  return path;
}

std::string ConnectionSubgraph::ToString() const {
  return StrFormat(
      "ConnectionSubgraph{nodes=%u edges=%llu sources=%zu capture=%.3e "
      "candidates=%u paths=%u}",
      subgraph.graph.num_nodes(),
      static_cast<unsigned long long>(subgraph.graph.num_edges()),
      source_locals.size(), goodness_capture, candidate_size, paths_added);
}

gmine::Result<ConnectionSubgraph> ExtractConnectionSubgraph(
    const Graph& g, const std::vector<NodeId>& sources,
    const ExtractionOptions& options) {
  if (options.budget < sources.size()) {
    return Status::InvalidArgument(
        StrFormat("extraction: budget %u smaller than source set %zu",
                  options.budget, sources.size()));
  }
  // Steps 1-2: per-source walks and goodness over the full graph. The
  // walks are dropped once they are scored.
  std::vector<double> goodness;
  {
    auto walks = ComputeSourceWalks(g, sources, options.rwr);
    if (!walks.ok()) return walks.status();
    goodness = GoodnessScores(walks.value());
  }

  // Step 3: candidate pick pool — the highest-goodness nodes. Paths are
  // discovered on the full graph, so pruning bounds only which nodes are
  // *targeted*; low-goodness bridge nodes can still appear as path
  // interiors, which keeps the output connected even under aggressive
  // pruning.
  uint64_t pool = options.prune_candidates
                      ? std::min<uint64_t>(
                            static_cast<uint64_t>(options.candidate_factor) *
                                options.budget,
                            g.num_nodes())
                      : g.num_nodes();
  std::vector<NodeId> pick_order(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) pick_order[v] = v;
  auto by_goodness = [&](NodeId a, NodeId b) {
    if (goodness[a] != goodness[b]) return goodness[a] > goodness[b];
    return a < b;
  };
  if (pool < pick_order.size()) {
    std::partial_sort(pick_order.begin(),
                      pick_order.begin() + static_cast<long>(pool),
                      pick_order.end(), by_goodness);
    pick_order.resize(pool);
  } else {
    std::sort(pick_order.begin(), pick_order.end(), by_goodness);
  }

  // Step 4: iterative important-path discovery. One Dijkstra tree per
  // source (the dynamic program), grown until every pick is settled; the
  // best path from any picked node back to each source is read off the
  // predecessor arrays.
  const std::vector<double> node_cost = GoodnessPathCosts(goodness);
  std::vector<std::vector<NodeId>> src_pred(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    src_pred[i] = GoodnessPathTree(g, node_cost, sources[i], pick_order);
  }

  std::unordered_set<NodeId> output(sources.begin(), sources.end());
  uint32_t paths_added = 0;
  for (NodeId pick : pick_order) {
    if (output.size() >= options.budget) break;
    if (output.count(pick)) continue;
    // The pick must connect to every source, otherwise adding it would
    // break connectivity of the output.
    bool reachable = true;
    for (size_t i = 0; i < sources.size(); ++i) {
      if (src_pred[i][pick] == kInvalidNode && pick != sources[i]) {
        reachable = false;
        break;
      }
    }
    if (!reachable) continue;
    // Union of best paths source -> pick; added only when it fits.
    std::vector<NodeId> additions;
    std::unordered_set<NodeId> add_set;
    for (size_t i = 0; i < sources.size(); ++i) {
      for (NodeId v = pick; v != kInvalidNode; v = src_pred[i][v]) {
        if (!output.count(v) && add_set.insert(v).second) {
          additions.push_back(v);
        }
        if (v == sources[i]) break;
      }
    }
    if (output.size() + additions.size() > options.budget) continue;
    for (NodeId v : additions) output.insert(v);
    if (!additions.empty()) ++paths_added;
  }

  std::vector<NodeId> out_parents(output.begin(), output.end());
  std::sort(out_parents.begin(), out_parents.end());

  ConnectionSubgraph result;
  auto final_sub = graph::InducedSubgraph(g, out_parents);
  if (!final_sub.ok()) return final_sub.status();
  result.subgraph = std::move(final_sub).value();
  result.member_goodness.reserve(out_parents.size());
  for (NodeId p : out_parents) result.member_goodness.push_back(goodness[p]);
  for (NodeId s : sources) {
    result.source_locals.push_back(result.subgraph.LocalId(s));
  }
  result.goodness_capture = GoodnessCapture(goodness, out_parents);
  result.candidate_size = static_cast<uint32_t>(pool);
  result.paths_added = paths_added;
  return result;
}

}  // namespace gmine::csg
