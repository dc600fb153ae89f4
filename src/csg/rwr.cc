#include "csg/rwr.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <type_traits>
#include <utility>

#include "graph/transition.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace gmine::csg {

using graph::Graph;
using graph::InArc;
using graph::Neighbor;
using graph::NodeId;
using graph::TransitionMatrix;

namespace {

// Nodes per ParallelReduce chunk; fixed so every lane's delta reduction
// is bit-identical at every `threads` setting.
constexpr size_t kNodeGrain = 1024;

// Most restart vectors one sweep advances. Sweeps are compiled for widths
// 1, 2 and 4; a group of 3 runs padded to 4, which measured faster than
// a 3-wide sweep.
constexpr int kMaxLanes = 4;

int WidthFor(size_t lanes) { return lanes <= 1 ? 1 : lanes == 2 ? 2 : 4; }

// A restart vector as its entries that are not +0.0, ascending by node.
using RestartEntries = std::vector<std::pair<NodeId, double>>;

// One solve: its restart vector and where its answer goes.
struct Lane {
  RestartEntries restart;
  RwrResult* out = nullptr;
};

// The interleaved state of one lane group: slot j of node v lives at
// r[v * width + j]. A slot whose lane has stopped, or that pads a group
// of 3 to width 4, keeps sweeping but reports nothing.
struct LaneGroup {
  int width = 0;
  std::array<Lane*, kMaxLanes> lane{};  // nullptr: idle slot
  std::vector<double> r, next;
};

// One power-iteration sweep of every slot. The pull-based gather reads
// each in-arc once and applies it to all W slots; a slot's update is
//   c * restart[v] + (1 - c) * (acc + dangling * restart[v]),
// which at the nodes where its restart mass is +0.0 equals (1 - c) * acc
// exactly (acc >= +0 and dangling is finite, because masses and
// transition probabilities are non-negative), so those terms are
// skipped. Returns each slot's L1 change, reduced chunk by chunk in the
// order a single-lane solve uses, and leaves the new state in g.r.
template <int W>
std::array<double, kMaxLanes> Sweep(const TransitionMatrix& trans, double c,
                                    int threads, LaneGroup* g) {
  using Entries = std::span<const std::pair<NodeId, double>>;
  std::array<Entries, W> restart;  // empty for an idle slot
  std::array<double, W> dangling{};
  for (int j = 0; j < W; ++j) {
    if (g->lane[j] != nullptr) restart[j] = g->lane[j]->restart;
  }
  const std::vector<double>& r = g->r;
  for (NodeId v : trans.dangling()) {
    for (int j = 0; j < W; ++j) dangling[j] += r[static_cast<size_t>(v) * W + j];
  }
  double* next = g->next.data();
  const double keep = 1.0 - c;
  using Deltas = std::array<double, W>;
  const Deltas delta = ParallelReduce(
      0, trans.num_nodes(), kNodeGrain, threads, Deltas{},
      [&](size_t b, size_t e) {
        // Each slot's first restart entry at or after node b.
        std::array<Entries::iterator, W> hit;
        for (int j = 0; j < W; ++j) {
          hit[j] = std::lower_bound(
              restart[j].begin(), restart[j].end(), b,
              [](const std::pair<NodeId, double>& x, size_t v) {
                return x.first < v;
              });
        }
        Deltas local{};
        // Updates node v; only a node some slot restarts at needs the
        // restart terms.
        auto update = [&](size_t v, auto restarts_here) {
          Deltas acc{};
          for (const InArc& a : trans.InArcs(static_cast<NodeId>(v))) {
            const double* src = &r[static_cast<size_t>(a.src) * W];
            for (int j = 0; j < W; ++j) acc[j] += src[j] * a.prob;
          }
          for (int j = 0; j < W; ++j) {
            double nv = keep * acc[j];
            if constexpr (decltype(restarts_here)::value) {
              if (hit[j] != restart[j].end() && hit[j]->first == v) {
                const double m = (hit[j]++)->second;
                // Dangling mass restarts entirely.
                nv = c * m + keep * (acc[j] + dangling[j] * m);
              }
            }
            local[j] += std::abs(nv - r[v * W + j]);
            next[v * W + j] = nv;
          }
        };
        for (size_t v = b; v < e; ++v) {
          size_t stop = e;
          for (int j = 0; j < W; ++j) {
            if (hit[j] != restart[j].end()) {
              stop = std::min<size_t>(stop, hit[j]->first);
            }
          }
          for (; v < stop; ++v) update(v, std::false_type{});
          if (v < e) update(v, std::true_type{});
        }
        return local;
      },
      [](Deltas a, const Deltas& b) {
        for (int j = 0; j < W; ++j) a[j] += b[j];
        return a;
      });
  g->r.swap(g->next);
  std::array<double, kMaxLanes> out{};
  std::copy(delta.begin(), delta.end(), out.begin());
  return out;
}

// Hands slot j's vector to its lane's result.
void Emit(LaneGroup* g, int j) {
  std::vector<double>& p = g->lane[j]->out->probability;
  if (g->width == 1) {
    p = std::move(g->r);
  } else {
    const size_t n = g->r.size() / g->width;
    p.resize(n);
    for (size_t v = 0; v < n; ++v) p[v] = g->r[v * g->width + j];
  }
  g->lane[j] = nullptr;
}

// Packs the running lanes into the narrowest width that holds them. The
// state of a running lane moves with it; idle slots start at zero.
void Regroup(LaneGroup* g, size_t n) {
  std::vector<std::pair<Lane*, int>> running;  // lane, old slot
  for (int j = 0; j < g->width; ++j) {
    if (g->lane[j] != nullptr) running.emplace_back(g->lane[j], j);
  }
  const int width = WidthFor(running.size());
  if (width == g->width) return;
  std::vector<double>().swap(g->next);
  std::vector<double> packed(n * width, 0.0);
  for (size_t i = 0; i < running.size(); ++i) {
    const int from = running[i].second;
    for (size_t v = 0; v < n; ++v) {
      packed[v * width + i] = g->r[v * g->width + from];
    }
  }
  g->r.swap(packed);
  std::vector<double>().swap(packed);  // free the old state first
  g->next.assign(n * width, 0.0);
  g->lane = {};
  for (size_t i = 0; i < running.size(); ++i) g->lane[i] = running[i].first;
  g->width = width;
}

// Power iteration for up to kMaxLanes lanes, sharing every sweep of
// `trans`. Each lane keeps its own dangling mass, chunked delta,
// iteration count and stopping test, so it stops at the same iteration
// with the same bits as a solve on its own.
void SolveGroup(const TransitionMatrix& trans, std::span<Lane> lanes,
                const RwrOptions& options) {
  const size_t n = trans.num_nodes();
  LaneGroup g;
  g.width = WidthFor(lanes.size());
  g.r.assign(n * g.width, 0.0);
  g.next.assign(n * g.width, 0.0);
  for (size_t j = 0; j < lanes.size(); ++j) {
    g.lane[j] = &lanes[j];
    for (const auto& [v, m] : lanes[j].restart) {
      g.r[static_cast<size_t>(v) * g.width + j] = m;
    }
  }
  size_t running = lanes.size();
  const int threads = options.context.threads;
  for (int it = 0; running > 0 && it < options.max_iterations; ++it) {
    if (options.context.IsCancelled()) break;  // lanes keep their state
    std::array<double, kMaxLanes> delta;
    switch (g.width) {
      case 1: delta = Sweep<1>(trans, options.restart, threads, &g); break;
      case 2: delta = Sweep<2>(trans, options.restart, threads, &g); break;
      default: delta = Sweep<4>(trans, options.restart, threads, &g); break;
    }
    const size_t was_running = running;
    for (int j = 0; j < g.width; ++j) {
      if (g.lane[j] == nullptr) continue;
      RwrResult* out = g.lane[j]->out;
      out->iterations = it + 1;
      out->final_delta = delta[j];
      out->converged = delta[j] < options.tolerance;
      if (out->converged || it + 1 == options.max_iterations) {
        Emit(&g, j);
        --running;
      }
    }
    if (running > 0 && running < was_running) Regroup(&g, n);
  }
  for (int j = 0; j < g.width; ++j) {
    if (g.lane[j] != nullptr) Emit(&g, j);
  }
}

// Solves every lane, kMaxLanes at a time in the given order.
std::vector<RwrResult> Solve(const TransitionMatrix& trans,
                             std::vector<Lane> lanes,
                             const RwrOptions& options) {
  std::vector<RwrResult> out(lanes.size());
  for (size_t i = 0; i < lanes.size(); ++i) lanes[i].out = &out[i];
  for (size_t i = 0; i < lanes.size(); i += kMaxLanes) {
    const size_t k = std::min<size_t>(kMaxLanes, lanes.size() - i);
    SolveGroup(trans, std::span<Lane>(lanes).subspan(i, k), options);
  }
  return out;
}

Status ValidateOptions(const RwrOptions& options) {
  if (options.restart <= 0.0 || options.restart >= 1.0) {
    return Status::InvalidArgument("RWR: restart must be in (0,1)");
  }
  if (options.max_iterations <= 0) {
    return Status::InvalidArgument("RWR: max_iterations must be positive");
  }
  return Status::OK();
}

}  // namespace

gmine::Result<RwrResult> RandomWalkWithRestart(const Graph& g, NodeId source,
                                               const RwrOptions& options) {
  const TransitionMatrix trans(g, options.weighted);
  return RandomWalkWithRestart(g, trans, source, options);
}

gmine::Result<RwrResult> RandomWalkWithRestart(const Graph& g,
                                               const TransitionMatrix& trans,
                                               NodeId source,
                                               const RwrOptions& options) {
  GMINE_ASSIGN_OR_RETURN(std::vector<RwrResult> walks,
                         RandomWalksWithRestart(g, trans, {source}, options));
  return std::move(walks[0]);
}

gmine::Result<std::vector<RwrResult>> RandomWalksWithRestart(
    const Graph& g, const TransitionMatrix& trans,
    const std::vector<NodeId>& sources, const RwrOptions& options) {
  GMINE_RETURN_IF_ERROR(ValidateOptions(options));
  for (NodeId source : sources) {
    if (source >= g.num_nodes()) {
      return Status::InvalidArgument(
          StrFormat("RWR: source %u out of range %u", source, g.num_nodes()));
    }
  }
  if (trans.num_nodes() != g.num_nodes()) {
    return Status::InvalidArgument(
        "RWR: transition matrix built from a different graph");
  }
  if (trans.weighted() != options.weighted) {
    return Status::InvalidArgument(
        "RWR: transition matrix weighted flag does not match options");
  }
  std::vector<Lane> lanes(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    lanes[i].restart = {{sources[i], 1.0}};
  }
  return Solve(trans, std::move(lanes), options);
}

gmine::Result<RwrResult> RandomWalkWithRestartVector(
    const Graph& g, const std::vector<double>& restart_mass,
    const RwrOptions& options) {
  GMINE_RETURN_IF_ERROR(ValidateOptions(options));
  if (restart_mass.size() != g.num_nodes()) {
    return Status::InvalidArgument("RWR: restart vector size mismatch");
  }
  double sum = 0.0;
  std::vector<Lane> lane(1);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const double m = restart_mass[v];
    if (!(m >= 0.0)) {
      return Status::InvalidArgument("RWR: negative or NaN restart mass");
    }
    sum += m;
    if (m != 0.0 || std::signbit(m)) lane[0].restart.emplace_back(v, m);
  }
  if (std::abs(sum - 1.0) > 1e-6) {
    return Status::InvalidArgument("RWR: restart mass must sum to 1");
  }
  const TransitionMatrix trans(g, options.weighted);
  return std::move(Solve(trans, std::move(lane), options)[0]);
}

gmine::Result<RwrResult> RandomWalkWithRestartExact(const Graph& g,
                                                    NodeId source,
                                                    const RwrOptions& options) {
  GMINE_RETURN_IF_ERROR(ValidateOptions(options));
  const uint32_t n = g.num_nodes();
  if (source >= n) {
    return Status::InvalidArgument("RWR exact: source out of range");
  }
  if (n > 4096) {
    return Status::InvalidArgument("RWR exact: graph too large (n > 4096)");
  }
  const double c = options.restart;
  // Build A = I - (1-c) W^T as a dense matrix; b = c e_s.
  std::vector<double> a(static_cast<size_t>(n) * n, 0.0);
  std::vector<double> b(n, 0.0);
  b[source] = c;
  for (uint32_t i = 0; i < n; ++i) a[static_cast<size_t>(i) * n + i] = 1.0;
  for (NodeId v = 0; v < n; ++v) {
    double norm = options.weighted ? static_cast<double>(g.WeightedDegree(v))
                                   : static_cast<double>(g.Degree(v));
    if (norm <= 0.0) {
      // Dangling: mass restarts — equivalent to an arc back to the source
      // with probability 1.
      a[static_cast<size_t>(source) * n + v] -= (1.0 - c);
      continue;
    }
    for (const Neighbor& nb : g.Neighbors(v)) {
      double w = options.weighted ? nb.weight : 1.0;
      a[static_cast<size_t>(nb.id) * n + v] -= (1.0 - c) * w / norm;
    }
  }
  // Gaussian elimination with partial pivoting.
  std::vector<uint32_t> perm(n);
  for (uint32_t i = 0; i < n; ++i) perm[i] = i;
  for (uint32_t col = 0; col < n; ++col) {
    uint32_t pivot = col;
    double best = std::abs(a[static_cast<size_t>(col) * n + col]);
    for (uint32_t row = col + 1; row < n; ++row) {
      double v = std::abs(a[static_cast<size_t>(row) * n + col]);
      if (v > best) {
        best = v;
        pivot = row;
      }
    }
    if (best < 1e-14) {
      return Status::Internal("RWR exact: singular system");
    }
    if (pivot != col) {
      for (uint32_t j = 0; j < n; ++j) {
        std::swap(a[static_cast<size_t>(col) * n + j],
                  a[static_cast<size_t>(pivot) * n + j]);
      }
      std::swap(b[col], b[pivot]);
    }
    double diag = a[static_cast<size_t>(col) * n + col];
    for (uint32_t row = col + 1; row < n; ++row) {
      double factor = a[static_cast<size_t>(row) * n + col] / diag;
      if (factor == 0.0) continue;
      for (uint32_t j = col; j < n; ++j) {
        a[static_cast<size_t>(row) * n + j] -=
            factor * a[static_cast<size_t>(col) * n + j];
      }
      b[row] -= factor * b[col];
    }
  }
  RwrResult out;
  out.probability.assign(n, 0.0);
  for (uint32_t i = n; i > 0; --i) {
    uint32_t row = i - 1;
    double acc = b[row];
    for (uint32_t j = row + 1; j < n; ++j) {
      acc -= a[static_cast<size_t>(row) * n + j] * out.probability[j];
    }
    out.probability[row] = acc / a[static_cast<size_t>(row) * n + row];
  }
  out.converged = true;
  out.iterations = 0;
  return out;
}

}  // namespace gmine::csg
