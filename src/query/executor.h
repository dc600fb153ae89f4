// GQL executor: runs a validated Plan against a G-Tree store
// (docs/QUERY.md).
//
// MATCH rows come straight out of leaf pages streamed through the
// buffer pool (GTreeStore::ScanLeafPages holds at most one pin at a
// time). With pushdown on, pages whose every member definitively fails
// the WHERE clause under three-valued logic — id/label/community known
// from resident metadata, degree/pagerank unknown until the page loads
// — are skipped without IO; the reference (pushdown off) scans every
// page and filters after materializing. Both modes produce identical
// rows; the pushdown mode touches <= pages (strictly fewer for
// selective predicates), which QueryStats proves per query.
//
// Determinism contract: result rows are byte-deterministic for a given
// store. MATCH output columns are id|label|community|degree — no
// float-valued column — so golden transcripts survive any
// compiler/optimization/sanitizer combination; pagerank participates
// only in WHERE and ORDER BY, where ComputePageRank's bit-identical
// guarantee (any thread count) keeps even float comparisons stable
// within a build. Without ORDER BY, rows appear in scan order
// (ascending leaf id, page-local member order); ORDER BY sorts stably
// with ascending id as the final tiebreak.

#ifndef GMINE_QUERY_EXECUTOR_H_
#define GMINE_QUERY_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "gtree/store.h"
#include "mining/components.h"
#include "mining/degree.h"
#include "mining/pagerank.h"
#include "mining/pagescan_kernels.h"
#include "query/plan.h"
#include "util/status.h"

namespace gmine::query {

/// Per-query execution counters (surfaced by the CLI footer, the wire
/// protocol's result body and the server's STATS section).
struct QueryStats {
  uint64_t pages_total = 0;    // leaf pages considered
  uint64_t pages_scanned = 0;  // pages actually loaded
  uint64_t pages_pruned = 0;   // pages skipped by pushdown
  uint64_t rows_scanned = 0;   // member rows enumerated on loaded pages
  uint64_t rows_output = 0;    // rows in the result (after LIMIT)
};

/// A finished query: a rectangular table of strings plus counters.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  QueryStats stats;
};

/// Execution knobs.
struct ExecutorOptions {
  /// Prune leaf pages from resident metadata before loading them
  /// (MATCH NODES). Off = reference filter-after-materialize mode.
  bool pushdown = true;
  /// Threads for page-local PageRank: 0 = auto, 1 = serial. Results
  /// are bit-identical at every setting.
  int threads = 0;
};

/// Executes plans against one store. Const and safe from any number of
/// threads (the store's read surface is). Holds no state of its own, so
/// constructing one per query is free: EXTRACT reads the store's shared
/// full graph (GTreeStore::FullGraph).
class Executor {
 public:
  /// `store` must outlive the executor.
  explicit Executor(const gtree::GTreeStore* store,
                    ExecutorOptions options = {});

  /// Runs a plan built by PlanStatement. EXPLAIN plans return the
  /// lowering description as single-column rows without executing.
  gmine::Result<QueryResult> Execute(const Plan& plan) const;

  /// Parse + plan + execute in one step. Errors keep their
  /// "line:column:" prefixes.
  gmine::Result<QueryResult> ExecuteText(std::string_view statement) const;

  /// The planning context for this store (parser-level tests compose
  /// PlanStatement + Execute directly).
  PlanContext plan_context() const;

  const ExecutorOptions& options() const { return options_; }

 private:
  gmine::Result<QueryResult> ExecuteMatch(const MatchPlan& plan) const;
  gmine::Result<QueryResult> ExecuteExtract(const ExtractPlan& plan) const;
  gmine::Result<QueryResult> ExecuteSummarize(
      const SummarizePlan& plan) const;
  gmine::Result<QueryResult> ExecuteMine(const MinePlan& plan) const;

  const gtree::GTreeStore* store_;
  ExecutorOptions options_;
};

/// What MineStore ran: the engine tag and the result of the requested
/// kernel (the matching variant alternative).
struct MineResult {
  /// MineEngine() of the store.
  const char* engine = "";
  std::variant<mining::PageRankResult, mining::DegreeDistribution,
               mining::ComponentResult>
      value;
};

/// The engine MineStore picks for `store`: "pages" when the store is
/// streamed (complete per-page adjacency), "in-memory" otherwise.
const char* MineEngine(const gtree::GTreeStore& store);

/// Runs one whole-store mining kernel — GQL MINE, the gateway's mine
/// jobs and `gmine mine` all come through here (docs/OUTOFCORE.md).
/// Streamed stores run the page kernels over a fresh NewPageScan(),
/// where `options` applies whole: checkpoint, resume, progress,
/// cancellation. Any other store runs the in-memory kernel over the
/// store's shared FullGraph() with the same PageRank parameters and
/// threads; cancellation is checked before and after it (Aborted).
gmine::Result<MineResult> MineStore(
    const gtree::GTreeStore& store, ast::MineStatement::Kernel kernel,
    const mining::PageRankOverPagesOptions& options = {});

/// Pipe-separated table: one header line, one line per row.
std::string ResultToText(const QueryResult& result);

/// Single-line JSON: {"columns":[...],"rows":[[...],...],"stats":{...}}.
/// The net protocol's length-framed result body.
std::string ResultToJson(const QueryResult& result);

}  // namespace gmine::query

#endif  // GMINE_QUERY_EXECUTOR_H_
