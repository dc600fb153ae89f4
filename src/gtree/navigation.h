// Interactive navigation session over a G-Tree store (§III-B): "the
// system keeps track of the connectivity among communities ... When the
// user changes the focus position on the tree structure, the system works
// on demand to calculate and present contextual information."
//
// Every user gesture is an API call here; each call records an
// InteractionEvent with its latency and resulting display-set size —
// the raw data behind bench_navigation (Fig. 3) and bench_tomahawk
// (Fig. 4). A session keeps only its most recent events, so a
// long-lived server session's history stays bounded.

#ifndef GMINE_GTREE_NAVIGATION_H_
#define GMINE_GTREE_NAVIGATION_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "gtree/connectivity.h"
#include "gtree/store.h"
#include "gtree/tomahawk.h"
#include "util/status.h"

namespace gmine::gtree {

/// One recorded user interaction.
struct InteractionEvent {
  std::string op;            // "focus", "expand", "label_query", ...
  int64_t micros = 0;        // wall time of the operation
  size_t display_size = 0;   // Tomahawk display-set size afterwards
  TreeNodeId focus = kInvalidTreeNode;
};

/// Camera state of the session ("zoom, pan" in §III-B's basic
/// interaction list). Applied by the engine when rendering views.
struct ViewState {
  double zoom = 1.0;
  double pan_x = 0.0;
  double pan_y = 0.0;
};

/// A navigation session: focus + context + history over an open store.
///
/// Self-contained per-user state over a shared read-only store: the
/// session never mutates the store beyond its internally-synchronized
/// page cache, so any number of sessions can run against one store
/// concurrently — each individual session must still be driven from one
/// thread at a time (core::SessionManager enforces this for pools).
class NavigationSession {
 public:
  /// Starts at the root. Does not own the store, which must outlive the
  /// session.
  explicit NavigationSession(const GTreeStore* store,
                             TomahawkOptions tomahawk = {});

  /// Current focus community.
  TreeNodeId focus() const { return focus_; }

  /// Current Tomahawk context (recomputed on every focus change).
  const TomahawkContext& context() const { return context_; }

  /// Moves the focus to the root.
  Status FocusRoot();

  /// Moves the focus to an arbitrary community.
  Status FocusNode(TreeNodeId id);

  /// Moves the focus to the parent ("zoom out"). No-op at the root.
  Status FocusParent();

  /// Moves the focus to the `index`-th child ("zoom in").
  Status FocusChild(size_t index);

  /// Returns to the previous focus (interaction history).
  Status Back();

  /// Locates a graph node by exact label and focuses its leaf community
  /// (the §III-B label query). Returns the graph node id.
  gmine::Result<graph::NodeId> LocateByLabel(std::string_view label);

  /// Autocomplete support: labels starting with `prefix` (with node
  /// ids), capped at `limit`, in label order. Recorded as
  /// "prefix_query"; does not move the focus.
  std::vector<std::pair<graph::NodeId, std::string>> SearchByPrefix(
      std::string_view prefix, size_t limit = 10);

  /// Focuses the leaf community containing graph node `v`.
  Status FocusGraphNode(graph::NodeId v);

  /// Loads the focused leaf's subgraph from the store ("the system brings
  /// the correspondent graph nodes from disk to memory"). Focus must be
  /// a leaf.
  gmine::Result<std::shared_ptr<const LeafPayload>> LoadFocusSubgraph();

  /// Connectivity edges among the current display set, heaviest first.
  std::vector<ConnectivityEdge> ContextConnectivity() const;

  /// Current camera state.
  const ViewState& view() const { return view_; }

  /// Multiplies the zoom by `factor` (> 0); recorded as "zoom".
  Status Zoom(double factor);

  /// Pans by a device-space delta; recorded as "pan".
  void Pan(double dx, double dy);

  /// Resets zoom and pan; recorded as "reset_view".
  void ResetView();

  /// Most events history() retains; older ones are dropped in bulk.
  static constexpr size_t kMaxHistory = 1024;

  /// The most recent interactions (at most kMaxHistory), oldest first.
  const std::vector<InteractionEvent>& history() const { return events_; }

  /// Interactions recorded over the session's lifetime, dropped ones
  /// included.
  uint64_t interactions() const { return interactions_; }

  /// Underlying store (for rendering and stats).
  const GTreeStore* store() const { return store_; }

  /// This session's identity in the store's cross-session cache
  /// accounting (GTreeStoreStats::shared_hits).
  ReaderTag reader_tag() const { return reader_; }

 private:
  void Record(std::string op, int64_t micros);
  Status SetFocus(TreeNodeId id, const char* op, bool push_history);

  const GTreeStore* store_;
  ReaderTag reader_ = 0;
  TomahawkOptions tomahawk_;
  TreeNodeId focus_ = kInvalidTreeNode;
  TomahawkContext context_;
  ViewState view_;
  std::vector<TreeNodeId> back_stack_;
  std::vector<InteractionEvent> events_;
  uint64_t interactions_ = 0;
};

}  // namespace gmine::gtree

#endif  // GMINE_GTREE_NAVIGATION_H_
