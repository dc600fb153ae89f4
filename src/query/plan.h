// GQL planner: lowers a parsed statement onto the engine's kernels
// (docs/QUERY.md "plan lowering").
//
//   MATCH NODES        -> GTreeStore::ScanLeafPages (+ pushdown pruning
//                         from resident tree/label metadata), Degree,
//                         ComputePageRank (only when the statement
//                         mentions pagerank)
//   MATCH NEIGHBORS    -> LoadLeaf(origin) + mining::BfsDistances
//   EXTRACT CSG        -> GTreeStore::FullGraph (shared) +
//                         csg::ExtractConnectionSubgraph
//   SUMMARIZE NODE     -> LoadLeaf + tree path (details on demand)
//   MINE kernel        -> query::MineStore: page-at-a-time kernels over
//                         NewPageScan on streamed stores, else the
//                         in-memory kernels over the store's FullGraph
//
// The planner does every semantic check so the executor can assume a
// well-typed plan: comparison operand types per field, node-reference
// resolution (labels -> ids, ids validated against the tree), LIMIT and
// BUDGET positivity, duplicate EXTRACT sources. Semantic errors reuse
// the AST's source positions, so they carry the same "line:column:"
// prefix as syntax errors.

#ifndef GMINE_QUERY_PLAN_H_
#define GMINE_QUERY_PLAN_H_

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "graph/graph.h"
#include "graph/labels.h"
#include "gtree/gtree.h"
#include "query/ast.h"
#include "util/status.h"

namespace gmine::query {

/// Resident metadata the planner resolves against (no page IO).
struct PlanContext {
  const gtree::GTree* tree = nullptr;
  const graph::LabelStore* labels = nullptr;
};

/// Lowered MATCH: which pages to scan and how to shape the rows.
struct MatchPlan {
  ast::MatchStatement::Source source = ast::MatchStatement::Source::kNodes;
  /// Resolved origin (NEIGHBORS only).
  graph::NodeId origin = graph::kInvalidNode;
  uint32_t depth = 1;
  /// Borrowed from the plan-owned statement; nullptr = no filter.
  const ast::Predicate* where = nullptr;
  std::vector<ast::MatchStatement::OrderKey> order_by;
  std::optional<uint64_t> limit;
  /// The statement mentions pagerank (WHERE or ORDER BY): the executor
  /// must run ComputePageRank on each scanned page.
  bool needs_pagerank = false;
  /// Prune non-matching pages from resident metadata before loading
  /// them (NODES source only; ExecutorOptions can veto).
  bool pushdown = false;
};

/// Lowered EXTRACT CSG: resolved sources + node budget.
struct ExtractPlan {
  std::vector<graph::NodeId> sources;
  uint32_t budget = 30;
};

/// Lowered SUMMARIZE NODE.
struct SummarizePlan {
  graph::NodeId node = graph::kInvalidNode;
};

/// Lowered MINE: which kernel, how many ranked rows to keep.
struct MinePlan {
  ast::MineStatement::Kernel kernel =
      ast::MineStatement::Kernel::kPagerank;
  uint32_t top = 10;
};

/// A validated, resolved statement ready for the executor.
struct Plan {
  /// The statement the plan was built from (owns the predicate tree the
  /// MatchPlan borrows).
  ast::Statement statement;
  bool explain = false;
  std::variant<MatchPlan, ExtractPlan, SummarizePlan, MinePlan> op;
  /// Human-readable lowering, one step per line (EXPLAIN output).
  std::vector<std::string> description;

  const MatchPlan* match() const { return std::get_if<MatchPlan>(&op); }
  const ExtractPlan* extract() const {
    return std::get_if<ExtractPlan>(&op);
  }
  const SummarizePlan* summarize() const {
    return std::get_if<SummarizePlan>(&op);
  }
  const MinePlan* mine() const { return std::get_if<MinePlan>(&op); }
};

/// Validates and lowers `stmt` (consumed by move). InvalidArgument with
/// a "line:column:" prefix on type errors, LIMIT/BUDGET 0 or duplicate
/// sources; NotFound ("line:column: unknown vertex ...") when a node
/// reference does not resolve. `enable_pushdown` mirrors
/// ExecutorOptions::pushdown into MatchPlan::pushdown.
gmine::Result<Plan> PlanStatement(ast::Statement stmt,
                                  const PlanContext& context,
                                  bool enable_pushdown = true);

}  // namespace gmine::query

#endif  // GMINE_QUERY_PLAN_H_
