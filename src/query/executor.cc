#include "query/executor.h"

#include <algorithm>
#include <utility>

#include "csg/extraction.h"
#include "mining/hops.h"
#include "query/parser.h"
#include "storage/page_scan.h"
#include "util/string_util.h"

namespace gmine::query {

namespace {

using ast::CompareOp;
using ast::Field;
using ast::Predicate;
using ast::Value;

/// One candidate MATCH row before projection. pagerank is only
/// populated when the plan needs it (WHERE/ORDER BY).
struct Row {
  graph::NodeId id = graph::kInvalidNode;
  std::string label;
  std::string community;
  uint32_t degree = 0;
  double pagerank = 0.0;
};

template <typename T>
bool CompareOrdered(const T& lhs, CompareOp op, const T& rhs) {
  switch (op) {
    case CompareOp::kEq: return lhs == rhs;
    case CompareOp::kNe: return lhs != rhs;
    case CompareOp::kLt: return lhs < rhs;
    case CompareOp::kLe: return lhs <= rhs;
    case CompareOp::kGt: return lhs > rhs;
    case CompareOp::kGe: return lhs >= rhs;
    default: return false;  // planner rejects CONTAINS/PREFIX here
  }
}

bool CompareString(std::string_view lhs, CompareOp op,
                   const std::string& rhs) {
  switch (op) {
    case CompareOp::kEq: return lhs == rhs;
    case CompareOp::kNe: return lhs != rhs;
    case CompareOp::kContains:
      return lhs.find(rhs) != std::string_view::npos;
    case CompareOp::kPrefix: return StartsWith(lhs, rhs);
    default: return false;  // planner rejects ordering ops on strings
  }
}

double FloatOperand(const Value& v) {
  return v.kind == Value::Kind::kFloat
             ? v.float_value
             : static_cast<double>(v.int_value);
}

/// Full Boolean evaluation against a materialized row.
bool EvalPredicate(const Predicate& p, const Row& row) {
  switch (p.kind) {
    case Predicate::Kind::kNot:
      return !EvalPredicate(*p.lhs, row);
    case Predicate::Kind::kAnd:
      return EvalPredicate(*p.lhs, row) && EvalPredicate(*p.rhs, row);
    case Predicate::Kind::kOr:
      return EvalPredicate(*p.lhs, row) || EvalPredicate(*p.rhs, row);
    case Predicate::Kind::kCompare:
      break;
  }
  switch (p.field) {
    case Field::kId:
      return CompareOrdered<uint64_t>(row.id, p.op, p.value.int_value);
    case Field::kDegree:
      return CompareOrdered<uint64_t>(row.degree, p.op,
                                      p.value.int_value);
    case Field::kPagerank:
      return CompareOrdered<double>(row.pagerank, p.op,
                                    FloatOperand(p.value));
    case Field::kLabel:
      return CompareString(row.label, p.op, p.value.string_value);
    case Field::kCommunity:
      return CompareString(row.community, p.op, p.value.string_value);
  }
  return false;
}

/// Three-valued evaluation from resident metadata only: id, label and
/// community are known before the page loads; degree and pagerank are
/// Unknown. A page is prunable iff every member evaluates to kFalse —
/// Unknown must load the page (the pushdown soundness rule).
enum class Tri : uint8_t { kFalse, kTrue, kUnknown };

Tri Not(Tri t) {
  if (t == Tri::kUnknown) return Tri::kUnknown;
  return t == Tri::kTrue ? Tri::kFalse : Tri::kTrue;
}

Tri PartialEval(const Predicate& p, graph::NodeId id,
                std::string_view label, std::string_view community) {
  switch (p.kind) {
    case Predicate::Kind::kNot:
      return Not(PartialEval(*p.lhs, id, label, community));
    case Predicate::Kind::kAnd: {
      const Tri a = PartialEval(*p.lhs, id, label, community);
      if (a == Tri::kFalse) return Tri::kFalse;
      const Tri b = PartialEval(*p.rhs, id, label, community);
      if (b == Tri::kFalse) return Tri::kFalse;
      if (a == Tri::kUnknown || b == Tri::kUnknown) return Tri::kUnknown;
      return Tri::kTrue;
    }
    case Predicate::Kind::kOr: {
      const Tri a = PartialEval(*p.lhs, id, label, community);
      if (a == Tri::kTrue) return Tri::kTrue;
      const Tri b = PartialEval(*p.rhs, id, label, community);
      if (b == Tri::kTrue) return Tri::kTrue;
      if (a == Tri::kUnknown || b == Tri::kUnknown) return Tri::kUnknown;
      return Tri::kFalse;
    }
    case Predicate::Kind::kCompare:
      break;
  }
  switch (p.field) {
    case Field::kDegree:
    case Field::kPagerank:
      return Tri::kUnknown;
    case Field::kId:
      return CompareOrdered<uint64_t>(id, p.op, p.value.int_value)
                 ? Tri::kTrue
                 : Tri::kFalse;
    case Field::kLabel:
      return CompareString(label, p.op, p.value.string_value)
                 ? Tri::kTrue
                 : Tri::kFalse;
    case Field::kCommunity:
      return CompareString(community, p.op, p.value.string_value)
                 ? Tri::kTrue
                 : Tri::kFalse;
  }
  return Tri::kUnknown;
}

/// ORDER BY comparator: stable over the listed keys, ascending id last.
bool RowLess(const Row& a, const Row& b,
             const std::vector<ast::MatchStatement::OrderKey>& keys) {
  for (const auto& key : keys) {
    int cmp = 0;
    switch (key.field) {
      case Field::kId:
        cmp = a.id < b.id ? -1 : (a.id > b.id ? 1 : 0);
        break;
      case Field::kDegree:
        cmp = a.degree < b.degree ? -1 : (a.degree > b.degree ? 1 : 0);
        break;
      case Field::kPagerank:
        cmp = a.pagerank < b.pagerank ? -1
                                      : (a.pagerank > b.pagerank ? 1 : 0);
        break;
      case Field::kLabel:
        cmp = a.label.compare(b.label);
        break;
      case Field::kCommunity:
        cmp = a.community.compare(b.community);
        break;
    }
    if (cmp != 0) return key.descending ? cmp > 0 : cmp < 0;
  }
  return a.id < b.id;
}

std::vector<std::string> ProjectRow(const Row& row) {
  return {StrFormat("%u", row.id), row.label, row.community,
          StrFormat("%u", row.degree)};
}

void AppendJsonString(std::string_view s, std::string* out) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04x", c);
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

}  // namespace

Executor::Executor(const gtree::GTreeStore* store, ExecutorOptions options)
    : store_(store), options_(options) {}

PlanContext Executor::plan_context() const {
  PlanContext context;
  context.tree = &store_->tree();
  context.labels = &store_->labels();
  return context;
}

gmine::Result<QueryResult> Executor::Execute(const Plan& plan) const {
  if (plan.explain) {
    QueryResult result;
    result.columns = {"plan"};
    for (const std::string& line : plan.description) {
      result.rows.push_back({line});
    }
    result.stats.rows_output = result.rows.size();
    return result;
  }
  if (const MatchPlan* m = plan.match()) return ExecuteMatch(*m);
  if (const ExtractPlan* e = plan.extract()) return ExecuteExtract(*e);
  if (const SummarizePlan* s = plan.summarize()) {
    return ExecuteSummarize(*s);
  }
  if (const MinePlan* mi = plan.mine()) return ExecuteMine(*mi);
  return Status::Internal("unpopulated plan");
}

gmine::Result<QueryResult> Executor::ExecuteText(
    std::string_view statement) const {
  GMINE_ASSIGN_OR_RETURN(ast::Statement stmt, Parse(statement));
  GMINE_ASSIGN_OR_RETURN(
      Plan plan,
      PlanStatement(std::move(stmt), plan_context(), options_.pushdown));
  return Execute(plan);
}

gmine::Result<QueryResult> Executor::ExecuteMatch(
    const MatchPlan& plan) const {
  const graph::LabelStore& labels = store_->labels();
  QueryResult result;
  result.columns = {"id", "label", "community", "degree"};
  std::vector<Row> rows;

  // Builds the candidate rows of one leaf page and filters them.
  auto scan_page = [&](const gtree::TreeNode& node,
                       const gtree::LeafPayload& payload,
                       const std::function<bool(graph::NodeId,
                                                uint32_t)>& admit) {
    const graph::Subgraph& sub = payload.subgraph;
    std::vector<double> pagerank;
    if (plan.needs_pagerank) {
      mining::PageRankOptions pr_options;
      pr_options.context.threads = options_.threads;
      pagerank = mining::ComputePageRank(sub.graph, pr_options).score;
    }
    for (graph::NodeId local = 0; local < sub.graph.num_nodes();
         ++local) {
      if (!admit(local, sub.graph.Degree(local))) continue;
      ++result.stats.rows_scanned;
      Row row;
      row.id = sub.ParentId(local);
      row.label = labels.Label(row.id);
      row.community = node.name;
      row.degree = sub.graph.Degree(local);
      if (plan.needs_pagerank) row.pagerank = pagerank[local];
      if (plan.where != nullptr && !EvalPredicate(*plan.where, row)) {
        continue;
      }
      rows.push_back(std::move(row));
    }
  };

  if (plan.source == ast::MatchStatement::Source::kNeighbors) {
    const gtree::TreeNodeId leaf = store_->tree().LeafOf(plan.origin);
    GMINE_ASSIGN_OR_RETURN(
        std::shared_ptr<const gtree::LeafPayload> payload,
        store_->LoadLeaf(leaf));
    const graph::NodeId local_origin =
        payload->subgraph.LocalId(plan.origin);
    std::vector<uint32_t> dist =
        mining::BfsDistances(payload->subgraph.graph, local_origin);
    scan_page(store_->tree().node(leaf), *payload,
              [&](graph::NodeId local, uint32_t) {
                return dist[local] != mining::kUnreachable &&
                       dist[local] >= 1 && dist[local] <= plan.depth;
              });
    result.stats.pages_total = 1;
    result.stats.pages_scanned = 1;
  } else {
    std::function<bool(const gtree::TreeNode&)> prune;
    if (plan.pushdown && plan.where != nullptr) {
      prune = [&](const gtree::TreeNode& node) {
        for (graph::NodeId member : node.members) {
          if (PartialEval(*plan.where, member, labels.Label(member),
                          node.name) != Tri::kFalse) {
            return false;  // possible match: must load the page
          }
        }
        return true;  // every member definitively fails
      };
    }
    gtree::GTreeStore::LeafScanStats scan_stats;
    GMINE_RETURN_IF_ERROR(store_->ScanLeafPages(
        prune,
        [&](const gtree::TreeNode& node,
            const gtree::LeafPayload& payload) {
          scan_page(node, payload,
                    [](graph::NodeId, uint32_t) { return true; });
          return Status::OK();
        },
        &scan_stats));
    result.stats.pages_total = scan_stats.pages_total;
    result.stats.pages_scanned = scan_stats.pages_scanned;
    result.stats.pages_pruned = scan_stats.pages_pruned;
  }

  if (!plan.order_by.empty()) {
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const Row& a, const Row& b) {
                       return RowLess(a, b, plan.order_by);
                     });
  }
  if (plan.limit.has_value() && rows.size() > *plan.limit) {
    rows.resize(*plan.limit);
  }
  result.rows.reserve(rows.size());
  for (const Row& row : rows) result.rows.push_back(ProjectRow(row));
  result.stats.rows_output = result.rows.size();
  return result;
}

gmine::Result<QueryResult> Executor::ExecuteExtract(
    const ExtractPlan& plan) const {
  GMINE_ASSIGN_OR_RETURN(std::shared_ptr<const graph::Graph> g,
                         store_->FullGraph());
  csg::ExtractionOptions options;
  options.budget = plan.budget;
  GMINE_ASSIGN_OR_RETURN(
      csg::ConnectionSubgraph csg,
      csg::ExtractConnectionSubgraph(*g, plan.sources, options));
  const graph::LabelStore& labels = store_->labels();
  // Members in ascending original-id order (extraction order depends on
  // goodness ties; sorting keeps the output canonical).
  std::vector<graph::NodeId> members = csg.subgraph.to_parent;
  std::sort(members.begin(), members.end());
  QueryResult result;
  result.columns = {"id", "label"};
  for (graph::NodeId id : members) {
    result.rows.push_back(
        {StrFormat("%u", id), std::string(labels.Label(id))});
  }
  result.stats.rows_output = result.rows.size();
  return result;
}

gmine::Result<QueryResult> Executor::ExecuteSummarize(
    const SummarizePlan& plan) const {
  const gtree::GTree& tree = store_->tree();
  const gtree::TreeNodeId leaf = tree.LeafOf(plan.node);
  GMINE_ASSIGN_OR_RETURN(
      std::shared_ptr<const gtree::LeafPayload> payload,
      store_->LoadLeaf(leaf));
  const graph::Subgraph& sub = payload->subgraph;
  const graph::NodeId local = sub.LocalId(plan.node);
  std::vector<graph::NodeId> neighbors;
  for (const auto& arc : sub.graph.Neighbors(local)) {
    neighbors.push_back(sub.ParentId(arc.id));
  }
  std::sort(neighbors.begin(), neighbors.end());
  std::vector<std::string> path_names;
  for (gtree::TreeNodeId id : tree.PathFromRoot(leaf)) {
    path_names.push_back(tree.node(id).name);
  }
  std::string neighbor_list;
  for (size_t i = 0; i < neighbors.size(); ++i) {
    if (i > 0) neighbor_list += ",";
    neighbor_list += StrFormat("%u", neighbors[i]);
  }
  QueryResult result;
  result.columns = {"field", "value"};
  result.rows.push_back({"id", StrFormat("%u", plan.node)});
  result.rows.push_back(
      {"label", std::string(store_->labels().Label(plan.node))});
  result.rows.push_back({"leaf", tree.node(leaf).name});
  result.rows.push_back({"path", JoinStrings(path_names, "/")});
  result.rows.push_back(
      {"degree", StrFormat("%u", sub.graph.Degree(local))});
  result.rows.push_back({"neighbors", std::move(neighbor_list)});
  result.stats.pages_total = 1;
  result.stats.pages_scanned = 1;
  result.stats.rows_output = result.rows.size();
  return result;
}

gmine::Result<QueryResult> Executor::ExecuteMine(
    const MinePlan& plan) const {
  QueryResult result;
  mining::PageRankOverPagesOptions options;
  options.context.threads = options_.threads;
  options.context.progress = [&result](const mining::KernelProgress& p) {
    result.stats.pages_scanned = p.pages_scanned;
    result.stats.pages_total = p.pages_total;
  };
  GMINE_ASSIGN_OR_RETURN(MineResult mined,
                         MineStore(*store_, plan.kernel, options));
  if (const auto* r = std::get_if<mining::PageRankResult>(&mined.value)) {
    result.columns = {"id", "label", "score"};
    const graph::LabelStore& labels = store_->labels();
    for (graph::NodeId v : mining::TopKByScore(r->score, plan.top)) {
      result.rows.push_back({StrFormat("%u", v),
                             std::string(labels.Label(v)),
                             StrFormat("%.8f", r->score[v])});
    }
  } else if (const auto* d =
                 std::get_if<mining::DegreeDistribution>(&mined.value)) {
    result.columns = {"field", "value"};
    result.rows.push_back({"min_degree", StrFormat("%u", d->min_degree)});
    result.rows.push_back({"max_degree", StrFormat("%u", d->max_degree)});
    result.rows.push_back(
        {"mean_degree", StrFormat("%.6f", d->mean_degree)});
    result.rows.push_back(
        {"powerlaw_slope", StrFormat("%.6f", d->powerlaw_slope)});
    result.rows.push_back(
        {"distinct_degrees",
         StrFormat("%llu",
                   static_cast<unsigned long long>(d->count.size()))});
  } else {
    const auto& c = std::get<mining::ComponentResult>(mined.value);
    result.columns = {"component", "size"};
    const uint32_t n = std::min<uint32_t>(c.num_components, plan.top);
    for (uint32_t i = 0; i < n; ++i) {
      result.rows.push_back(
          {StrFormat("%u", i), StrFormat("%u", c.sizes[i])});
    }
  }
  result.stats.rows_output = result.rows.size();
  return result;
}

const char* MineEngine(const gtree::GTreeStore& store) {
  return store.streamed() ? "pages" : "in-memory";
}

gmine::Result<MineResult> MineStore(
    const gtree::GTreeStore& store, ast::MineStatement::Kernel kernel,
    const mining::PageRankOverPagesOptions& options) {
  using Kernel = ast::MineStatement::Kernel;
  const mining::KernelContext& context = options.context;
  MineResult out;
  out.engine = MineEngine(store);
  if (store.streamed()) {
    std::unique_ptr<storage::PageScan> scan = store.NewPageScan();
    if (kernel == Kernel::kPagerank) {
      GMINE_ASSIGN_OR_RETURN(out.value,
                             mining::PageRankOverPages(*scan, options));
    } else if (kernel == Kernel::kDegrees) {
      GMINE_ASSIGN_OR_RETURN(
          out.value, mining::DegreeDistributionOverPages(*scan, context));
    } else {
      GMINE_ASSIGN_OR_RETURN(
          out.value, mining::WeakComponentsOverPages(*scan, context));
    }
    return out;
  }
  GMINE_ASSIGN_OR_RETURN(std::shared_ptr<const graph::Graph> g,
                         store.FullGraph());
  if (context.IsCancelled()) return Status::Aborted("mining cancelled");
  if (kernel == Kernel::kPagerank) {
    mining::PageRankOptions pr;
    pr.damping = options.damping;
    pr.tolerance = options.tolerance;
    pr.max_iterations = options.max_iterations;
    pr.weighted = options.weighted;
    pr.context = context;
    out.value = mining::ComputePageRank(*g, pr);
  } else if (kernel == Kernel::kDegrees) {
    out.value = mining::ComputeDegreeDistribution(*g);
  } else {
    out.value = mining::WeakComponents(*g);
  }
  if (context.IsCancelled()) return Status::Aborted("mining cancelled");
  return out;
}

std::string ResultToText(const QueryResult& result) {
  std::string out = JoinStrings(result.columns, "|");
  out += '\n';
  for (const auto& row : result.rows) {
    out += JoinStrings(row, "|");
    out += '\n';
  }
  return out;
}

std::string ResultToJson(const QueryResult& result) {
  std::string out = "{\"columns\":[";
  for (size_t i = 0; i < result.columns.size(); ++i) {
    if (i > 0) out += ',';
    AppendJsonString(result.columns[i], &out);
  }
  out += "],\"rows\":[";
  for (size_t i = 0; i < result.rows.size(); ++i) {
    if (i > 0) out += ',';
    out += '[';
    for (size_t j = 0; j < result.rows[i].size(); ++j) {
      if (j > 0) out += ',';
      AppendJsonString(result.rows[i][j], &out);
    }
    out += ']';
  }
  out += StrFormat(
      "],\"stats\":{\"pages_total\":%llu,\"pages_scanned\":%llu,"
      "\"pages_pruned\":%llu,\"rows_scanned\":%llu,"
      "\"rows_output\":%llu}}",
      static_cast<unsigned long long>(result.stats.pages_total),
      static_cast<unsigned long long>(result.stats.pages_scanned),
      static_cast<unsigned long long>(result.stats.pages_pruned),
      static_cast<unsigned long long>(result.stats.rows_scanned),
      static_cast<unsigned long long>(result.stats.rows_output));
  return out;
}

}  // namespace gmine::query
