#include "net/session_ops.h"

#include <utility>

#include "core/views.h"
#include "util/string_util.h"

namespace gmine::net {

namespace {

/// Splits off the first space-separated word of `s`; `*rest` gets the
/// trimmed remainder ("" when there is none).
std::string_view SplitWord(std::string_view s, std::string_view* rest) {
  s = TrimWhitespace(s);
  const size_t sp = s.find(' ');
  *rest = sp == std::string_view::npos ? std::string_view()
                                       : TrimWhitespace(s.substr(sp + 1));
  return s.substr(0, sp);
}

}  // namespace

std::string FocusText(const gtree::NavigationSession& nav) {
  return StrFormat("focus=%s display=%zu",
                   nav.store()->tree().node(nav.focus()).name.c_str(),
                   nav.context().DisplaySize());
}

Status ExecuteSessionOp(const Request& request, gtree::NavigationSession& nav,
                        const query::Executor& queries, Response* response,
                        query::QueryStats* query_stats) {
  const gtree::GTree& tree = nav.store()->tree();
  switch (request.op) {
    case RequestOp::kHelp:
      response->text = ProtocolHelpText();
      return Status::OK();
    case RequestOp::kPing:
      response->text = "pong";
      return Status::OK();
    case RequestOp::kClose:
      response->text = "bye";
      return Status::OK();
    case RequestOp::kRoot:
      GMINE_RETURN_IF_ERROR(nav.FocusRoot());
      break;
    case RequestOp::kFocus: {
      const gtree::TreeNodeId id = tree.FindByName(request.arg);
      if (id == gtree::kInvalidTreeNode) {
        return Status::NotFound(
            StrFormat("community '%s' not found", request.arg.c_str()));
      }
      GMINE_RETURN_IF_ERROR(nav.FocusNode(id));
      break;
    }
    case RequestOp::kChild: {
      uint64_t index = 0;
      if (!ParseUint64(request.arg, &index)) {
        return Status::InvalidArgument("child expects an index");
      }
      GMINE_RETURN_IF_ERROR(nav.FocusChild(index));
      break;
    }
    case RequestOp::kParent:
      GMINE_RETURN_IF_ERROR(nav.FocusParent());
      break;
    case RequestOp::kBack:
      GMINE_RETURN_IF_ERROR(nav.Back());
      break;
    case RequestOp::kLocate: {
      auto v = nav.LocateByLabel(request.arg);
      if (!v.ok()) return v.status();
      response->text =
          StrFormat("node %u %s", v.value(), FocusText(nav).c_str());
      return Status::OK();
    }
    case RequestOp::kLoad: {
      auto payload = nav.LoadFocusSubgraph();
      if (!payload.ok()) return payload.status();
      const graph::Graph& g = payload.value()->subgraph.graph;
      response->text = StrFormat(
          "leaf=%s n=%u e=%llu", tree.node(nav.focus()).name.c_str(),
          g.num_nodes(), static_cast<unsigned long long>(g.num_edges()));
      return Status::OK();
    }
    case RequestOp::kSummary: {
      std::vector<std::string> path;
      for (gtree::TreeNodeId id : tree.PathFromRoot(nav.focus())) {
        path.push_back(tree.node(id).name);
      }
      const gtree::TreeNode& focus = tree.node(nav.focus());
      response->text = StrFormat(
          "focus=%s depth=%u children=%zu display=%zu path=%s",
          focus.name.c_str(), focus.depth, focus.children.size(),
          nav.context().DisplaySize(), JoinStrings(path, "/").c_str());
      return Status::OK();
    }
    case RequestOp::kConnectivity:
      response->text =
          StrFormat("edges=%zu", nav.ContextConnectivity().size());
      return Status::OK();
    case RequestOp::kRender: {
      if (request.arg != "svg") {
        return Status::InvalidArgument(
            "render supports exactly one format: 'render svg'");
      }
      auto svg = core::HierarchyViewSvgString(tree, nav.context(),
                                              nav.store()->connectivity());
      if (!svg.ok()) return svg.status();
      response->body = std::move(svg).value();
      response->has_body = true;
      response->text =
          StrFormat("svg %s", tree.node(nav.focus()).name.c_str());
      return Status::OK();
    }
    case RequestOp::kQuery: {
      if (request.arg.empty()) {
        return Status::InvalidArgument("query expects a GQL statement");
      }
      auto result = queries.ExecuteText(request.arg);
      if (!result.ok()) return result.status();
      const query::QueryStats& qs = result.value().stats;
      response->text = StrFormat(
          "rows=%llu pages_scanned=%llu/%llu pruned=%llu",
          static_cast<unsigned long long>(qs.rows_output),
          static_cast<unsigned long long>(qs.pages_scanned),
          static_cast<unsigned long long>(qs.pages_total),
          static_cast<unsigned long long>(qs.pages_pruned));
      response->body = query::ResultToJson(result.value());
      response->has_body = true;
      if (query_stats != nullptr) *query_stats = qs;
      return Status::OK();
    }
    default:
      return Status::NotSupported(
          StrFormat("op '%s' is not served on this transport",
                    RequestOpName(request.op)));
  }
  // Shared tail of the plain focus-moving ops.
  response->text = FocusText(nav);
  return Status::OK();
}

gmine::Result<EditOp> ParseEditOp(std::string_view line) {
  std::string_view rest;
  const std::string_view word = SplitWord(line, &rest);
  EditOp op;
  uint64_t u = 0;
  uint64_t v = 0;
  if (word == "add-node") {
    op.label.assign(rest);
    return op;
  }
  if (word == "add-edge" || word == "remove-edge") {
    const bool add = word == "add-edge";
    std::string_view tail;
    const std::string_view first = SplitWord(rest, &tail);
    const std::string_view second = SplitWord(tail, &tail);
    if (!ParseUint64(first, &u) || !ParseUint64(second, &v) ||
        (!add && !tail.empty())) {
      return Status::InvalidArgument(add ? "expected 'add-edge U V [W]'"
                                         : "expected 'remove-edge U V'");
    }
    double w = 1.0;
    if (!tail.empty() && !ParseDouble(tail, &w)) {
      return Status::InvalidArgument("bad edge weight");
    }
    op.kind = add ? EditOp::Kind::kAddEdge : EditOp::Kind::kRemoveEdge;
    op.u = static_cast<graph::NodeId>(u);
    op.v = static_cast<graph::NodeId>(v);
    op.weight = static_cast<float>(w);
    return op;
  }
  if (word == "remove-node") {
    if (!ParseUint64(rest, &u)) {
      return Status::InvalidArgument("expected 'remove-node V'");
    }
    op.kind = EditOp::Kind::kRemoveNode;
    op.u = static_cast<graph::NodeId>(u);
    return op;
  }
  return Status::InvalidArgument(StrFormat(
      "unknown edit op '%.*s' (ops: add-node add-edge remove-edge "
      "remove-node)",
      static_cast<int>(word.size()), word.data()));
}

graph::NodeId QueueEditOp(const EditOp& op, graph::GraphEdit* edit,
                          std::vector<std::string>* labels) {
  switch (op.kind) {
    case EditOp::Kind::kAddNode:
      labels->push_back(op.label);
      return edit->AddNode();
    case EditOp::Kind::kAddEdge:
      edit->AddEdge(op.u, op.v, op.weight);
      break;
    case EditOp::Kind::kRemoveEdge:
      edit->RemoveEdge(op.u, op.v);
      break;
    case EditOp::Kind::kRemoveNode:
      edit->RemoveNode(op.u);
      break;
  }
  return op.u;
}

}  // namespace gmine::net
