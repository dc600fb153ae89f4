// GMineEngine — the system façade tying everything together, mirroring
// the demo's capabilities end to end:
//
//   * Build: recursive partitioning -> G-Tree -> connectivity edges ->
//     single-file store (§III-A);
//   * Navigate: Tomahawk-bounded focus changes, label queries, on-demand
//     leaf loading (§III-B/C) via NavigationSession;
//   * Details on demand: pop-up node information and edge expansion;
//   * Mining: the five §III-B metrics on the focused community;
//   * Connection subgraph extraction (§IV), alone or combined with the
//     hierarchy (Fig. 6);
//   * Rendering: SVG views of every display.

#ifndef GMINE_CORE_ENGINE_H_
#define GMINE_CORE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/session_manager.h"
#include "csg/extraction.h"
#include "graph/graph.h"
#include "graph/graph_edit.h"
#include "graph/labels.h"
#include "gtree/builder.h"
#include "gtree/edit_repair.h"
#include "gtree/navigation.h"
#include "gtree/store.h"
#include "mining/metrics.h"
#include "query/executor.h"
#include "storage/wal.h"
#include "util/status.h"

namespace gmine::core {

/// ApplyEdit policy. Stores record the shape they were built with
/// (gtree::GTreeBuildHints), and Open adopts it into
/// `EngineOptions::build`, so repairs re-partition with the original
/// levels/fanout/seed even when the opener passed none.
struct EditOptions {
  /// Leaf re-split threshold; 0 = auto (see gtree::RepairOptions).
  uint32_t max_leaf_size = 0;
};

/// Engine construction options.
struct EngineOptions {
  gtree::GTreeBuildOptions build;
  /// Store options. Leaf paging (budget, eviction, pinning) lives in
  /// the process-wide buffer pool (docs/STORAGE.md); set
  /// `store.buffer_pool` to give this engine a private pool.
  gtree::GTreeStoreOptions store;
  /// When > 0, Open/Build re-arm the buffer pool's byte budget to this
  /// value (the pool the store uses — global by default). 0 leaves the
  /// pool's current budget alone.
  uint64_t mem_budget_bytes = 0;
  gtree::TomahawkOptions tomahawk;
  /// Session-pool limits (sessions() manager). The `tomahawk` field
  /// above is the single source of truth for navigation contexts: it is
  /// copied over `sessions.tomahawk` when the engine builds the pool,
  /// so set `tomahawk`, not `sessions.tomahawk`.
  SessionManagerOptions sessions;
  /// Node/edge edition policy (ApplyEdit).
  EditOptions edit;
  /// Write-ahead log (docs/WAL.md). When `wal.enabled`, Open attaches
  /// a WAL next to the store (default "<store>.wal") and replays its
  /// tail past the store's applied LSN before serving anything —
  /// committed edits survive a crash. An EditQueue (core/edit_queue.h)
  /// group-commits through it.
  storage::WalOptions wal;
};

/// What one ApplyEdit did (reported by `gmine edit`).
struct EditStats {
  gtree::EditClassification classification;
  /// Store took its rewrite path (id remap or journal compaction).
  bool compacted = false;
  /// The rewrite was forced by the size-ratio defrag trigger
  /// (GTreeStoreOptions::defrag_wasted_ratio), not the journal.
  bool defragmented = false;
  /// Leaves re-split through the sharded region builder.
  uint32_t subtree_rebuilds = 0;
  /// Dirty pages serialized (incremental append path).
  uint32_t pages_written = 0;
  /// Cache pages invalidated by the update.
  uint32_t pages_invalidated = 0;
  /// Connectivity rows patched in place (0 when rebuilt).
  size_t conn_rows_updated = 0;
  bool connectivity_rebuilt = false;
  /// Journal length after the edit.
  size_t journal_ops = 0;
  /// Pool epoch after the edit.
  uint64_t epoch = 0;
  int64_t micros = 0;
};

/// What Open's WAL replay did (engine.wal_recovery()).
struct WalRecoveryStats {
  uint64_t replayed = 0;  // log records applied to the store
  uint64_t skipped = 0;   // records at or below the store's applied LSN
  uint64_t truncated_bytes = 0;  // torn tail dropped by the WAL scan
};

/// Pop-up node information (details on demand).
struct NodeDetails {
  graph::NodeId id = graph::kInvalidNode;
  std::string label;
  gtree::TreeNodeId leaf = gtree::kInvalidTreeNode;
  /// Community names from the root to the leaf.
  std::vector<std::string> community_path;
  /// Degree within the leaf community subgraph.
  uint32_t degree_in_community = 0;
  /// Neighbors within the leaf community, with labels.
  std::vector<std::pair<graph::NodeId, std::string>> community_neighbors;
};

/// The GMine system.
///
/// Thread-safety: the read-side surface (GetNodeDetails, ExpandNode,
/// ExtractConnectionSubgraph, ResolveLabels, tree/labels accessors) may
/// be called from multiple threads — the store's page cache and its
/// shared full graph are internally synchronized. All navigation goes
/// through the session pool (sessions()): concurrent sessions are safe
/// via SessionManager::WithSession, while the legacy single-session
/// accessor session() hands out the pool's pinned default session and
/// must be driven from one thread at a time. ApplyEdit may run
/// concurrently with pool-driven navigation (sessions()->WithSession):
/// it publishes the repaired store through the pool's epoch bump, which
/// drains in-flight callbacks and re-seats every session. It must still
/// be exclusive against the rest of the engine surface (session(),
/// GetNodeDetails, ExtractConnectionSubgraph, ...), which reads the
/// store without the epoch lock.
class GMineEngine {
 public:
  /// Builds the hierarchy for `g`, writes the single-file store to
  /// `store_path`, and opens it. `labels` may be empty.
  static gmine::Result<std::unique_ptr<GMineEngine>> Build(
      const graph::Graph& g, const graph::LabelStore& labels,
      const std::string& store_path, const EngineOptions& options = {});

  /// Opens an existing store file.
  static gmine::Result<std::unique_ptr<GMineEngine>> Open(
      const std::string& store_path, const EngineOptions& options = {});

  /// The default navigation session (focus, context, history) — a
  /// pinned member of the session pool, kept for single-user callers.
  gtree::NavigationSession& session() { return *default_session_; }
  const gtree::NavigationSession& session() const {
    return *default_session_;
  }

  /// The session pool: open/close/drive additional concurrent sessions
  /// over the same store (multi-user service mode; see docs/SESSIONS.md).
  SessionManager& sessions() { return *sessions_; }
  const SessionManager& sessions() const { return *sessions_; }

  /// The community hierarchy.
  const gtree::GTree& tree() const { return store_->tree(); }

  /// Node labels.
  const graph::LabelStore& labels() const { return store_->labels(); }

  /// The underlying store (IO stats, direct leaf access).
  gtree::GTreeStore& store() { return *store_; }

  /// Pop-up information for a graph node (loads only its leaf page).
  gmine::Result<NodeDetails> GetNodeDetails(graph::NodeId v);

  /// Edge expansion: the node's neighbors in the *full* graph with
  /// labels, strongest edges first, capped at `limit`. Loads the full
  /// graph lazily on first use.
  gmine::Result<std::vector<std::pair<graph::NodeId, std::string>>>
  ExpandNode(graph::NodeId v, size_t limit = 16);

  /// §III-B metrics for the focused community. Leaf focus uses only the
  /// leaf page; non-leaf focus induces the community subgraph from the
  /// full graph.
  gmine::Result<mining::SubgraphMetrics> ComputeFocusMetrics(
      const mining::MetricsRequest& request = {});

  /// §IV connection subgraph extraction over the full graph.
  gmine::Result<csg::ConnectionSubgraph> ExtractConnectionSubgraph(
      const std::vector<graph::NodeId>& sources,
      const csg::ExtractionOptions& options = {});

  /// Resolves exact labels to node ids (for query sets given as names).
  gmine::Result<std::vector<graph::NodeId>> ResolveLabels(
      const std::vector<std::string>& names) const;

  /// Runs one GQL statement (docs/QUERY.md) against this engine's
  /// store: parse -> plan -> execute. MATCH statements stream leaf
  /// pages through the buffer pool (with predicate pushdown unless
  /// `options` vetoes it); EXTRACT uses the store's shared full graph.
  /// Safe from multiple threads, like the rest of the read surface.
  gmine::Result<query::QueryResult> Query(
      std::string_view statement,
      const query::ExecutorOptions& options = {});

  /// Node/edge edition (§III-B): applies `edit` to the graph, names
  /// its added nodes (`new_labels[i]` labels provisional node
  /// `edit.base_nodes() + i`; one the edit removes again is skipped)
  /// and repairs the hierarchy incrementally — rewriting only the
  /// touched subtrees, store pages and connectivity rows
  /// (docs/EDITS.md). Only an edit that removes a real node rebuilds
  /// the label store; any other edit journals just the labels it
  /// added. Live pool sessions survive via an epoch
  /// bump: same ids, reset to the new root. `stats`, when given,
  /// reports what the repair did. Concurrent writers go through one
  /// EditQueue (core/edit_queue.h), the only caller while it runs.
  /// `wal_lsn`, when nonzero, is the write-ahead-log LSN this edit
  /// publishes: the store header records it so recovery replays only
  /// the log past it (callers: EditQueue's group commit, Open's
  /// replay). 0 = no WAL involvement (the watermark is kept as-is).
  Status ApplyEdit(const graph::GraphEdit& edit,
                   const std::vector<std::string>& new_labels = {},
                   EditStats* stats = nullptr, uint64_t wal_lsn = 0);

  /// Renders the current hierarchy view (Tomahawk context) to SVG.
  Status RenderHierarchyView(const std::string& svg_path);

  /// Renders the focused leaf's subgraph to SVG (focus must be a leaf).
  Status RenderFocusSubgraph(const std::string& svg_path);

  /// The store's shared full graph (GTreeStore::FullGraph): built on
  /// first use, replaced by ApplyEdit with the post-edit graph.
  gmine::Result<std::shared_ptr<const graph::Graph>> full_graph() const {
    return store_->FullGraph();
  }

  /// Path of the backing store file.
  const std::string& store_path() const { return store_path_; }

  /// The write-ahead log; nullptr unless EngineOptions::wal.enabled.
  storage::Wal* wal() { return wal_.get(); }

  /// What Open's WAL replay did (all zero when the WAL is off or the
  /// log was empty).
  const WalRecoveryStats& wal_recovery() const { return wal_recovery_; }

 private:
  GMineEngine() = default;

  /// (Re)creates the session pool over store_ and pins the default
  /// session; used by Open.
  Status ResetSessions();

  /// Opens the WAL next to the store and replays its tail
  /// (EngineOptions::wal; called at the end of Open).
  Status AttachWalAndReplay();

  std::unique_ptr<gtree::GTreeStore> store_;
  std::unique_ptr<SessionManager> sessions_;
  SessionId default_session_id_ = 0;
  /// The pool's pinned default session; never evicted, so the raw
  /// pointer stays valid until the pool is replaced.
  gtree::NavigationSession* default_session_ = nullptr;
  std::string store_path_;
  EngineOptions options_;
  std::unique_ptr<storage::Wal> wal_;
  WalRecoveryStats wal_recovery_;
};

}  // namespace gmine::core

#endif  // GMINE_CORE_ENGINE_H_
