// GQL abstract syntax tree (docs/QUERY.md).
//
// Statements:
//
//   MATCH NODES [WHERE expr] [ORDER BY key [ASC|DESC], ...] [LIMIT n]
//   MATCH NEIGHBORS(ref, depth) [WHERE ...] [ORDER BY ...] [LIMIT n]
//   EXTRACT CSG FROM {ref, ref, ...} [BUDGET n]
//   SUMMARIZE NODE ref
//   MINE PAGERANK|DEGREES|COMPONENTS [TOP n]
//   EXPLAIN <any of the above>
//
// where `ref` is a node id (integer) or a quoted label, and `expr` is an
// OR/AND/NOT tree over comparisons `field op value` with fields
// id / label / degree / pagerank / community and operators
// = != < <= > >= CONTAINS PREFIX. Keywords are case-insensitive.
//
// The tree is produced by the recursive-descent parser (parser.h),
// lowered onto the mining/CSG kernels by the planner (plan.h) and
// executed by the executor (executor.h). Print() emits the canonical
// text form; Parse(Print(ast)) yields a structurally Equal() tree —
// the round-trip property the parser tests and fuzzer lean on. Every
// node carries the source Position its token started at, so semantic
// errors (planner) report line/column exactly like syntax errors;
// positions are ignored by Equal().

#ifndef GMINE_QUERY_AST_H_
#define GMINE_QUERY_AST_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "graph/graph.h"

namespace gmine::query::ast {

/// 1-based source location of a token start.
struct Position {
  uint32_t line = 1;
  uint32_t column = 1;
};

/// Row/predicate fields. id/label/community are decidable from the
/// resident G-Tree metadata (the basis of predicate pushdown); degree
/// and pagerank are page-local and need the leaf payload.
enum class Field : uint8_t {
  kId,
  kLabel,
  kDegree,
  kPagerank,
  kCommunity,
};

/// Comparison operators. CONTAINS/PREFIX apply to string fields only.
enum class CompareOp : uint8_t {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kContains,
  kPrefix,
};

/// A literal value in a comparison.
struct Value {
  enum class Kind : uint8_t { kInt, kFloat, kString };
  Kind kind = Kind::kInt;
  uint64_t int_value = 0;
  double float_value = 0.0;
  std::string string_value;
};

/// A node reference: integer id or quoted label.
struct NodeRef {
  bool is_label = false;
  uint64_t id = 0;
  std::string label;
  Position pos;
};

/// Predicate expression tree.
struct Predicate {
  enum class Kind : uint8_t { kCompare, kAnd, kOr, kNot };
  Kind kind = Kind::kCompare;
  // kCompare:
  Field field = Field::kId;
  CompareOp op = CompareOp::kEq;
  Value value;
  // kAnd/kOr (both), kNot (lhs only):
  std::unique_ptr<Predicate> lhs;
  std::unique_ptr<Predicate> rhs;
  Position pos;
};

/// MATCH: scan rows out of leaf pages.
struct MatchStatement {
  enum class Source : uint8_t { kNodes, kNeighbors };
  Source source = Source::kNodes;
  /// NEIGHBORS origin + BFS depth within the origin's leaf page.
  NodeRef origin;
  uint32_t depth = 1;
  /// Optional WHERE.
  std::unique_ptr<Predicate> where;
  struct OrderKey {
    Field field = Field::kId;
    bool descending = false;
    Position pos;
  };
  std::vector<OrderKey> order_by;
  std::optional<uint64_t> limit;
  Position limit_pos;
};

/// EXTRACT CSG: connection subgraph over the full graph (§IV).
struct ExtractStatement {
  std::vector<NodeRef> sources;
  std::optional<uint64_t> budget;
  Position budget_pos;
};

/// SUMMARIZE NODE: details-on-demand for one node (leaf page only).
struct SummarizeStatement {
  NodeRef node;
};

/// MINE: run a whole-graph mining kernel. Streamed stores run the
/// page-at-a-time kernels (mining/pagescan_kernels.h) under the buffer
/// pool budget; legacy stores fall back to the in-memory kernels.
struct MineStatement {
  enum class Kernel : uint8_t { kPagerank, kDegrees, kComponents };
  Kernel kernel = Kernel::kPagerank;
  /// Row cap for ranked output (PAGERANK top list / COMPONENTS rows).
  std::optional<uint64_t> top;
  Position top_pos;
};

/// Any parsed statement; `explain` asks for the plan instead of rows.
struct Statement {
  bool explain = false;
  std::variant<MatchStatement, ExtractStatement, SummarizeStatement,
               MineStatement>
      node;

  const MatchStatement* match() const {
    return std::get_if<MatchStatement>(&node);
  }
  const ExtractStatement* extract() const {
    return std::get_if<ExtractStatement>(&node);
  }
  const SummarizeStatement* summarize() const {
    return std::get_if<SummarizeStatement>(&node);
  }
  const MineStatement* mine() const {
    return std::get_if<MineStatement>(&node);
  }
};

/// Uppercase kernel keyword ("PAGERANK", "DEGREES", "COMPONENTS").
const char* MineKernelName(MineStatement::Kernel kernel);

/// The kernel a lowercase name ("pagerank", "degrees", "components")
/// selects — the spelling of `gmine mine --kernel` and the REST mine
/// body; nullopt for anything else.
std::optional<MineStatement::Kernel> ParseMineKernel(std::string_view name);

/// Lowercase field name ("id", "pagerank", ...).
const char* FieldName(Field field);

/// Operator spelling ("=", "<=", "CONTAINS", ...).
const char* CompareOpName(CompareOp op);

/// Canonical text form: uppercase keywords, lowercase fields,
/// double-quoted strings, explicit ASC/DESC, minimal parentheses.
/// Parsing the output reproduces the tree (round-trip property).
std::string Print(const Statement& stmt);

/// Canonical form of a predicate subtree (used by Print and EXPLAIN).
std::string PrintPredicate(const Predicate& p);

/// Structural equality, ignoring source positions.
bool Equal(const Statement& a, const Statement& b);

}  // namespace gmine::query::ast

#endif  // GMINE_QUERY_AST_H_
