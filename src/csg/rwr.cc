#include "csg/rwr.h"

#include <algorithm>
#include <cmath>

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

// Nodes per ParallelReduce chunk; fixed so the delta reduction is
// bit-identical at every `threads` setting.
constexpr size_t kNodeGrain = 1024;

// Pull-based gather over precomputed transition probabilities: each
// node's update is an independent dot product (no per-arc branch or
// division, no atomics when parallel).
RwrResult PowerIterate(const TransitionMatrix& trans,
                       const std::vector<double>& restart,
                       const RwrOptions& options) {
  const uint32_t n = trans.num_nodes();
  RwrResult out;
  std::vector<double> r = restart;
  std::vector<double> next(n, 0.0);
  const double c = options.restart;
  const int threads = options.context.threads;
  for (int it = 0; it < options.max_iterations; ++it) {
    if (options.context.IsCancelled()) break;  // returns current state
    double dangling = 0.0;
    for (NodeId v : trans.dangling()) dangling += r[v];

    double delta = ParallelReduce(
        0, n, kNodeGrain, threads, 0.0,
        [&](size_t b, size_t e) {
          double local = 0.0;
          for (size_t v = b; v < e; ++v) {
            double acc = 0.0;
            for (const InArc& a : trans.InArcs(static_cast<NodeId>(v))) {
              acc += r[a.src] * a.prob;
            }
            // Dangling mass restarts entirely.
            double nv =
                c * restart[v] + (1.0 - c) * (acc + dangling * restart[v]);
            local += std::abs(nv - r[v]);
            next[v] = nv;
          }
          return local;
        },
        [](double a, double b) { return a + b; });

    r.swap(next);
    out.iterations = it + 1;
    out.final_delta = delta;
    if (delta < options.tolerance) {
      out.converged = true;
      break;
    }
  }
  out.probability = std::move(r);
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
  GMINE_RETURN_IF_ERROR(ValidateOptions(options));
  if (source >= g.num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("RWR: source %u out of range %u", source, g.num_nodes()));
  }
  if (trans.num_nodes() != g.num_nodes()) {
    return Status::InvalidArgument(
        "RWR: transition matrix built from a different graph");
  }
  if (trans.weighted() != options.weighted) {
    return Status::InvalidArgument(
        "RWR: transition matrix weighted flag does not match options");
  }
  std::vector<double> restart(g.num_nodes(), 0.0);
  restart[source] = 1.0;
  return PowerIterate(trans, restart, options);
}

gmine::Result<RwrResult> RandomWalkWithRestartVector(
    const Graph& g, const std::vector<double>& restart_mass,
    const RwrOptions& options) {
  GMINE_RETURN_IF_ERROR(ValidateOptions(options));
  if (restart_mass.size() != g.num_nodes()) {
    return Status::InvalidArgument("RWR: restart vector size mismatch");
  }
  double sum = 0.0;
  for (double m : restart_mass) {
    if (m < 0.0) {
      return Status::InvalidArgument("RWR: negative restart mass");
    }
    sum += m;
  }
  if (std::abs(sum - 1.0) > 1e-6) {
    return Status::InvalidArgument("RWR: restart mass must sum to 1");
  }
  const TransitionMatrix trans(g, options.weighted);
  return PowerIterate(trans, restart_mass, options);
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
