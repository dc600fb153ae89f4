#include "gtree/navigation.h"

#include "util/string_util.h"
#include "util/timer.h"

namespace gmine::gtree {

using graph::NodeId;

NavigationSession::NavigationSession(const GTreeStore* store,
                                     TomahawkOptions tomahawk)
    : store_(store), reader_(store->NewReaderTag()), tomahawk_(tomahawk) {
  FocusRoot();
}

void NavigationSession::Record(std::string op, int64_t micros) {
  if (events_.size() == kMaxHistory) {
    // Drop the older half at once: appends stay amortized O(1).
    events_.erase(events_.begin(), events_.begin() + kMaxHistory / 2);
  }
  events_.push_back(InteractionEvent{std::move(op), micros,
                                     context_.DisplaySize(), focus_});
  ++interactions_;
}

Status NavigationSession::SetFocus(TreeNodeId id, const char* op,
                                   bool push_history) {
  if (id >= store_->tree().size()) {
    return Status::InvalidArgument(
        StrFormat("focus %u out of range %u", id, store_->tree().size()));
  }
  StopWatch watch;
  if (push_history && focus_ != kInvalidTreeNode && focus_ != id) {
    back_stack_.push_back(focus_);
  }
  focus_ = id;
  context_ = ComputeTomahawk(store_->tree(), focus_, tomahawk_);
  Record(op, watch.ElapsedMicros());
  return Status::OK();
}

Status NavigationSession::FocusRoot() {
  return SetFocus(store_->tree().root(), "focus_root", focus_ !=
                                                            kInvalidTreeNode);
}

Status NavigationSession::FocusNode(TreeNodeId id) {
  return SetFocus(id, "focus", true);
}

Status NavigationSession::FocusParent() {
  const TreeNode& f = store_->tree().node(focus_);
  if (f.parent == kInvalidTreeNode) return Status::OK();  // at the root
  return SetFocus(f.parent, "focus_parent", true);
}

Status NavigationSession::FocusChild(size_t index) {
  const TreeNode& f = store_->tree().node(focus_);
  if (index >= f.children.size()) {
    return Status::OutOfRange(
        StrFormat("child %zu of %zu", index, f.children.size()));
  }
  return SetFocus(f.children[index], "focus_child", true);
}

Status NavigationSession::Back() {
  if (back_stack_.empty()) return Status::OK();
  TreeNodeId prev = back_stack_.back();
  back_stack_.pop_back();
  return SetFocus(prev, "back", false);
}

gmine::Result<NodeId> NavigationSession::LocateByLabel(
    std::string_view label) {
  StopWatch watch;
  NodeId v = store_->labels().Find(label);
  if (v == graph::kInvalidNode) {
    return Status::NotFound(
        StrFormat("label '%.*s' not found", static_cast<int>(label.size()),
                  label.data()));
  }
  GMINE_RETURN_IF_ERROR(FocusGraphNode(v));
  // FocusGraphNode recorded a "focus_graph_node" event; amend the op so
  // label queries are distinguishable in the latency log.
  events_.back().op = "label_query";
  events_.back().micros = watch.ElapsedMicros();
  return v;
}

std::vector<std::pair<NodeId, std::string>>
NavigationSession::SearchByPrefix(std::string_view prefix, size_t limit) {
  StopWatch watch;
  std::vector<std::pair<NodeId, std::string>> out;
  for (NodeId v : store_->labels().FindByPrefix(prefix, limit)) {
    out.emplace_back(v, std::string(store_->labels().Label(v)));
  }
  Record("prefix_query", watch.ElapsedMicros());
  return out;
}

Status NavigationSession::FocusGraphNode(NodeId v) {
  TreeNodeId leaf = store_->tree().LeafOf(v);
  if (leaf == kInvalidTreeNode) {
    return Status::NotFound(StrFormat("graph node %u not in tree", v));
  }
  return SetFocus(leaf, "focus_graph_node", true);
}

gmine::Result<std::shared_ptr<const LeafPayload>>
NavigationSession::LoadFocusSubgraph() {
  const TreeNode& f = store_->tree().node(focus_);
  if (!f.IsLeaf()) {
    return Status::InvalidArgument(
        StrFormat("focus %u is not a leaf community", focus_));
  }
  StopWatch watch;
  auto payload = store_->LoadLeaf(focus_, reader_);
  if (!payload.ok()) return payload.status();
  Record("load_subgraph", watch.ElapsedMicros());
  return payload;
}

std::vector<ConnectivityEdge> NavigationSession::ContextConnectivity()
    const {
  return store_->connectivity().EdgesAmong(context_.DisplaySet());
}

Status NavigationSession::Zoom(double factor) {
  if (factor <= 0.0) {
    return Status::InvalidArgument("zoom factor must be positive");
  }
  StopWatch watch;
  view_.zoom *= factor;
  Record("zoom", watch.ElapsedMicros());
  return Status::OK();
}

void NavigationSession::Pan(double dx, double dy) {
  StopWatch watch;
  view_.pan_x += dx;
  view_.pan_y += dy;
  Record("pan", watch.ElapsedMicros());
}

void NavigationSession::ResetView() {
  StopWatch watch;
  view_ = ViewState{};
  Record("reset_view", watch.ElapsedMicros());
}

}  // namespace gmine::gtree
