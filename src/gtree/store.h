// Single-file persistent G-Tree store (§III-A): "The entire structure is
// stored in a single file and the nodes are transferred to main memory
// only when necessary."
//
// File layout (all little-endian, see store.cc):
//
//   header     magic, version, section table, counts, checksum
//   tree       full topology (parents, children, names, leaf members)
//   conn       serialized ConnectivityIndex
//   labels     serialized LabelStore (may be empty)
//   pages      one blob per leaf: the leaf's induced subgraph + mapping
//   directory  leaf tree-node id -> (absolute offset, size) of its page
//   journal    GraphEdits applied since the graph section was written
//
// Incremental edits (docs/EDITS.md): ApplyUpdate publishes a repaired
// hierarchy by appending only the dirty leaf pages plus fresh metadata
// sections at the end of the file and rewriting the fixed-size header
// last, so clean pages keep their bytes and offsets and a *process*
// crash before the header write leaves the previous state intact
// (power-loss ordering additionally needs the opt-in
// `durable_appends` fdatasync barriers). The embedded graph section
// stays the *base* graph; the journal section records the edits since,
// replayed by LoadFullGraph. Once the journal exceeds
// `journal_compact_ops` (or an edit remaps node ids), the store
// compacts by rewriting itself from scratch through Create + rename.
//
// Opening a store loads only the metadata sections (tree, connectivity,
// labels, directory); leaf subgraphs are read on demand and checked out
// of the process-wide buffer pool (storage::BufferPool, docs/STORAGE.md),
// which is what keeps navigation memory proportional to the display set
// rather than the graph — and, since the pool's byte budget spans every
// open store, bounded for the whole process, not per store.
//
// The whole graph — what connection-subgraph extraction and the
// in-memory mining kernels need — has exactly one resident copy per
// published store state: FullGraph() builds it on first use and shares
// it, ApplyUpdate swaps in the post-edit graph, and it is freed with the
// store. It lives outside the pool's byte budget.
//
// Concurrency: the store is logically read-only, so the whole read
// surface (LoadLeaf, FullGraph, stats) is const and safe from any
// number of threads — this is what lets one store serve a pool of
// NavigationSessions. Frame lookup/insert latching lives in the buffer
// pool (sharded by (store id, leaf id) hash); the shared FILE* keeps its
// own mutex for the (seek, read) pairs, and leaf pages decode outside
// every latch. The metadata accessors (tree/connectivity/labels) are
// immutable after Open and need no locking.
//
// There is exactly one cache knob left: the pool's byte budget
// (BufferPoolOptions::budget_bytes, CLI --mem-budget-mb). The former
// per-store `cache_pages`/`cache_shards` page-count LRU knobs are gone —
// eviction is the pool's clock sweep over bytes, shared fairly across
// stores, and a store that wants isolation passes its own pool via
// GTreeStoreOptions::buffer_pool (tests and benchmarks do).

#ifndef GMINE_GTREE_STORE_H_
#define GMINE_GTREE_STORE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_edit.h"
#include "graph/labels.h"
#include "graph/subgraph.h"
#include "gtree/connectivity.h"
#include "gtree/gtree.h"
#include "storage/buffer_pool.h"
#include "storage/page_scan.h"
#include "util/status.h"

namespace gmine::gtree {

/// A leaf community's materialized payload: the induced subgraph over its
/// members plus the local<->global id mapping — and, for stores written
/// by the streaming out-of-core builder (gtree/stream_build.h), the
/// members' *boundary* arcs (arcs to nodes outside the leaf, global
/// destination ids). With boundary arcs present, a node's complete
/// global adjacency lives in exactly its own leaf page, which is what
/// makes page-at-a-time kernels (mining/pagescan_kernels.h) globally
/// correct without a resident graph. Legacy stores carry no boundary
/// section; their bytes are unchanged.
struct LeafPayload {
  graph::Subgraph subgraph;
  /// CSR offsets into boundary_arcs per local member id; empty when the
  /// page carries no boundary section, size members+1 otherwise.
  std::vector<uint32_t> boundary_offsets;
  /// Boundary arcs: destinations are *global* node ids, ascending per
  /// member.
  std::vector<graph::Neighbor> boundary_arcs;

  bool has_boundary() const { return !boundary_offsets.empty(); }
};

/// Store tunables.
struct GTreeStoreOptions {
  /// Buffer pool this store checks its leaf pages out of; nullptr (the
  /// default) is the process-wide pool, storage::BufferPool::Global().
  /// Budget, eviction and pinning all live in the pool
  /// (docs/STORAGE.md).
  storage::BufferPool* buffer_pool = nullptr;
  /// ApplyUpdate compacts (full rewrite instead of append) once the edit
  /// journal holds at least this many entries. 0 compacts on every
  /// update (journal disabled).
  size_t journal_compact_ops = 64;
  /// Size-ratio defragmentation trigger: ApplyUpdate also compacts when
  /// the file's dead bytes (superseded metadata sections and old copies
  /// of rewritten pages left behind by header-last appends) exceed this
  /// multiple of the live bytes — so a burst of small edits cannot let
  /// the file balloon while the journal is still short. 0 disables the
  /// size trigger (journal-full and id-remap still compact).
  double defrag_wasted_ratio = 2.0;
  /// Issue fdatasync barriers inside ApplyUpdate (between the section
  /// append and the header rewrite, and again after it) so the
  /// header-last ordering also holds across power loss, not just
  /// process crashes. Off by default: barriers cost milliseconds per
  /// edit and interactive editing favors latency.
  bool durable_appends = false;
};

/// The shape a store's hierarchy was built with, recorded in the header
/// so edit repairs (gtree/edit_repair.h) re-partition regions with the
/// original parameters instead of whatever the opener guessed.
/// `levels == 0` means unknown (the writer supplied no hints).
struct GTreeBuildHints {
  uint32_t levels = 0;
  uint32_t fanout = 0;
  /// The original option value verbatim — 0 means the builder derived
  /// its default (2 * fanout), which the repair re-derives identically.
  uint32_t min_partition_size = 0;
  /// partition::PartitionOptions::seed the build used.
  uint64_t partition_seed = 0;
};

/// Identifies a reader (e.g. one NavigationSession) for the
/// cross-session cache accounting. 0 is the anonymous reader.
using ReaderTag = uint64_t;

/// IO statistics (reported by bench_scale, `gmine serve`, `gmine stats`
/// and the wire `stats` op). Counters come from this store's ledger in
/// the buffer pool; the residency fields are a point-in-time snapshot.
struct GTreeStoreStats {
  uint64_t leaf_loads = 0;    // pages read from disk
  uint64_t cache_hits = 0;    // leaf requests served from the pool
  uint64_t shared_hits = 0;   // hits on pages first loaded by a
                              // *different* reader (cross-session reuse)
  uint64_t bytes_read = 0;    // payload bytes read from disk
  uint64_t evictions = 0;     // this store's frames evicted by the clock
  uint64_t resident_bytes = 0;  // this store's bytes resident in the pool
  uint64_t pinned_bytes = 0;    // resident bytes currently checked out
};

/// One repaired state to publish through GTreeStore::ApplyUpdate. All
/// pointers must outlive the call; `tree`, `graph` (and
/// `replacement_conn` when set) are consumed by move.
struct GTreeStoreUpdate {
  /// The post-edit hierarchy (required; moved into the store).
  GTree* tree = nullptr;
  /// Exact connectivity-row deltas to patch into the resident index
  /// (topology unchanged)...
  const std::vector<ConnectivityDelta>* conn_deltas = nullptr;
  /// ...or a freshly built replacement index (topology changed; moved
  /// into the store). Exactly one of the two may be set; neither means
  /// connectivity is unchanged.
  ConnectivityIndex* replacement_conn = nullptr;
  /// Post-edit labels; nullptr = unchanged.
  const graph::LabelStore* labels = nullptr;
  /// The post-edit full graph (required): written by the compaction
  /// path, and adopted as the store's FullGraph() once the update
  /// commits.
  std::shared_ptr<const graph::Graph> graph;
  /// Pages to (re)serialize, keyed by new-tree leaf ids.
  std::vector<std::pair<TreeNodeId, graph::Subgraph>> dirty_pages;
  /// Old tree id -> new tree id for surviving clean pages; nullptr =
  /// identity (topology unchanged).
  const std::vector<TreeNodeId>* old_to_new = nullptr;
  /// The edit itself, appended to the journal on the append path;
  /// nullptr forces a compaction (e.g. node ids remapped).
  const graph::GraphEdit* journal_edit = nullptr;
  /// Highest write-ahead-log LSN this update makes durable
  /// (storage/wal.h); recorded in the header so recovery replays only
  /// the log tail past it. 0 keeps the store's current watermark.
  uint64_t applied_lsn = 0;
};

/// What an ApplyUpdate did (reported by `gmine edit`).
struct GTreeStoreUpdateStats {
  bool compacted = false;        // rewrite path instead of append
  bool defragmented = false;     // compaction forced by the size-ratio
                                 // trigger (defrag_wasted_ratio)
  uint64_t appended_bytes = 0;   // bytes added to the file (append path)
  uint32_t pages_written = 0;    // dirty pages serialized (append path)
  uint32_t pages_invalidated = 0;  // cache entries dropped
  size_t journal_ops = 0;        // journal length after the update
};

/// Read-only handle to a G-Tree file.
class GTreeStore {
 public:
  ~GTreeStore();
  GTreeStore(const GTreeStore&) = delete;
  GTreeStore& operator=(const GTreeStore&) = delete;

  /// Builds every leaf payload from `g` and writes the complete store to
  /// `path` (truncating). The full graph is embedded as its own section
  /// so one file carries everything ("stored in a single file"); it is
  /// only read back to materialize the full graph. `hints`, when given,
  /// records the build shape in the header for later edit repairs.
  /// `applied_lsn` is the WAL watermark to record (0 = no WAL).
  static Status Create(const std::string& path, const graph::Graph& g,
                       const GTree& tree, const ConnectivityIndex& conn,
                       const graph::LabelStore& labels,
                       const GTreeBuildHints* hints = nullptr,
                       uint64_t applied_lsn = 0);

  /// Opens a store file; loads metadata, leaves payloads on disk.
  static gmine::Result<std::unique_ptr<GTreeStore>> Open(
      const std::string& path, const GTreeStoreOptions& options = {});

  /// The community hierarchy (fully resident).
  const GTree& tree() const { return tree_; }
  /// Aggregated connectivity edges (fully resident).
  const ConnectivityIndex& connectivity() const { return conn_; }
  /// Node labels (fully resident; may be empty).
  const graph::LabelStore& labels() const { return labels_; }

  /// Issues a fresh reader identity for the shared-hit accounting.
  ReaderTag NewReaderTag() const { return next_reader_tag_.fetch_add(1); }

  /// Loads the payload of leaf community `leaf`, checking it out of
  /// the buffer pool. The returned pointer is the frame's pin: the
  /// frame cannot be evicted while it is held, and it stays valid
  /// independent of residency. Safe to call from multiple threads.
  /// `reader` attributes the access for the cross-session
  /// `shared_hits` statistic. Returns Aborted (backpressure) when the
  /// pool's byte budget is exhausted by pinned frames — release pages
  /// or raise the budget and retry
  /// (storage::BufferPool::IsBackpressure).
  gmine::Result<std::shared_ptr<const LeafPayload>> LoadLeaf(
      TreeNodeId leaf, ReaderTag reader = 0) const;

  /// True when `leaf` is currently resident in the pool (no IO needed).
  bool IsCached(TreeNodeId leaf) const;

  /// What one ScanLeafPages pass touched (the query executor's
  /// pushdown proof: pruned pages are never loaded).
  struct LeafScanStats {
    uint64_t pages_total = 0;    // leaf pages in the store
    uint64_t pages_scanned = 0;  // pages loaded and visited
    uint64_t pages_pruned = 0;   // pages skipped by the prune callback
  };

  /// Streams every leaf page through `visit`, in ascending tree-node id
  /// order, checking each page out of the buffer pool only for the
  /// duration of its visit. `prune`, when set, sees the leaf's resident
  /// metadata (TreeNode: name, members) *before* any IO and returns
  /// true to skip the page entirely — the predicate-pushdown hook
  /// (docs/QUERY.md). A non-OK status from `visit` aborts the scan.
  /// Safe from multiple threads, like LoadLeaf.
  Status ScanLeafPages(
      const std::function<bool(const TreeNode&)>& prune,
      const std::function<Status(const TreeNode&, const LeafPayload&)>&
          visit,
      LeafScanStats* stats = nullptr, ReaderTag reader = 0) const;

  /// Snapshot of the cumulative IO statistics — this store's ledger in
  /// the buffer pool (shared across every concurrent session) plus its
  /// full-graph read bytes.
  GTreeStoreStats stats() const;

  /// Drops this store's resident pages from the pool (for IO
  /// benchmarks). Other stores' frames are untouched.
  void ClearCache();

  /// The full graph, shared: one copy per published store state, built
  /// by MaterializeFullGraph() on first use (concurrent first callers
  /// wait for the one build) and kept until ApplyUpdate publishes the
  /// next state or the store closes. Global operations — connection
  /// subgraph extraction, the in-memory mining kernels — read this.
  gmine::Result<std::shared_ptr<const graph::Graph>> FullGraph() const;

  /// A fresh copy of the full graph by whichever route this store
  /// supports: the embedded graph section with the journal replayed
  /// (legacy stores) or a reconstruction from the boundary-carrying leaf
  /// pages (streamed stores, which have no graph section). Uncached:
  /// every call pays the read; FullGraph() shares one copy instead.
  gmine::Result<graph::Graph> MaterializeFullGraph() const;

  /// Opens a pull-based scan over this store's leaf pages in ascending
  /// tree-node id order (docs/OUTOFCORE.md). Each Next() pins one page
  /// in the buffer pool for the duration of the call; the scan's
  /// complete_adjacency() reports whether pages carry boundary arcs
  /// (streamed stores) and its checkpoint tokens are bound to this
  /// store's current state. The scan must not outlive the store, and
  /// is invalidated by ApplyUpdate.
  std::unique_ptr<storage::PageScan> NewPageScan(ReaderTag reader = 0) const;

  /// True for stores written by the streaming builder: pages carry
  /// boundary arcs, there is no embedded graph section, and the store
  /// is read-only (ApplyUpdate answers NotSupported — rebuild to edit).
  bool streamed() const { return graph_section_.size == 0; }

  /// Nodes in the stored graph (leaf member sets partition
  /// [0, num_graph_nodes())).
  uint32_t num_graph_nodes() const { return num_graph_nodes_; }

  /// Publishes an incrementally repaired state (gtree/edit_repair.h):
  /// appends dirty pages + fresh metadata sections and rewrites the
  /// header, invalidating only the touched cache pages — or compacts via
  /// a full rewrite when the journal is due or ids remapped. NOT
  /// internally synchronized against the read surface: the caller must
  /// exclude every concurrent reader (core::SessionManager::UpdateEpoch
  /// provides exactly that). On success the update's graph becomes
  /// FullGraph(); on error the store is unchanged in memory (old graph
  /// included) and on disk (the old header still describes the old
  /// sections).
  Status ApplyUpdate(GTreeStoreUpdate& update,
                     GTreeStoreUpdateStats* stats = nullptr);

  /// Edits currently in the journal (replayed by LoadFullGraph).
  size_t journal_ops() const { return journal_.size(); }

  /// The build shape recorded at Create time (levels == 0 if none).
  const GTreeBuildHints& build_hints() const { return hints_; }

  /// Highest WAL LSN durably folded into this store (0 = none): every
  /// edit with an LSN at or below this is part of the store's
  /// sections/journal, everything above must come from WAL replay.
  uint64_t applied_lsn() const { return applied_lsn_; }

  /// Total size of the store file in bytes.
  uint64_t file_size() const { return file_size_; }

  /// Bytes the current header actually references: header + metadata
  /// sections + every live page. The remainder of the file is dead
  /// weight left by append-mode updates.
  uint64_t live_bytes() const { return live_bytes_; }

  /// file_size() - live_bytes(): the fragmentation ApplyUpdate's
  /// size-ratio trigger (GTreeStoreOptions::defrag_wasted_ratio)
  /// watches.
  uint64_t wasted_bytes() const {
    return file_size_ > live_bytes_ ? file_size_ - live_bytes_ : 0;
  }

  /// The buffer pool this store's pages live in (global stats,
  /// budget).
  storage::BufferPool& buffer_pool() const { return *pool_; }

 private:
  GTreeStore() = default;

  struct PageLocation {
    uint64_t offset = 0;
    uint64_t size = 0;
  };

  /// (Re)opens `path` and loads every metadata section into this store,
  /// replacing the previous state. Used by Open and the compaction path.
  Status LoadMetadata(const std::string& path);

  /// Reads `loc` from the backing file under file_mu_.
  Status ReadAt(const PageLocation& loc, std::string* out) const;

  /// Reads the embedded graph section and replays the edit journal on
  /// top (legacy stores; MaterializeFullGraph's first route).
  gmine::Result<graph::Graph> LoadFullGraph() const;

  /// Makes `g` the shared FullGraph() (ApplyUpdate's commit).
  void AdoptFullGraph(std::shared_ptr<const graph::Graph> g);

  /// LoadLeaf through the pool's access path for `scan`
  /// (storage::kNoScan = the ordinary path).
  gmine::Result<std::shared_ptr<const LeafPayload>> LoadLeaf(
      TreeNodeId leaf, ReaderTag reader, storage::ScanId scan) const;

  friend class GTreeLeafPageScan;

  std::FILE* file_ = nullptr;
  uint64_t file_size_ = 0;
  /// Bytes referenced by the current header (see live_bytes()).
  uint64_t live_bytes_ = 0;
  std::string path_;
  GTree tree_;
  ConnectivityIndex conn_;
  graph::LabelStore labels_;
  GTreeStoreOptions options_;
  GTreeBuildHints hints_;
  uint32_t num_graph_nodes_ = 0;
  uint64_t applied_lsn_ = 0;
  /// Edits since the graph section was written (v2 journal).
  std::vector<graph::GraphEdit> journal_;

  std::unordered_map<TreeNodeId, PageLocation> directory_;
  PageLocation graph_section_;
  PageLocation labels_section_;

  // Guards the (seek, read) pairs on the shared file_ handle; every
  // other member above is immutable after Open.
  mutable std::mutex file_mu_;
  // Bytes read for full-graph loads (bypass the page pool); guarded by
  // file_mu_.
  mutable uint64_t graph_bytes_read_ = 0;
  // The shared full graph (FullGraph()); null until first use. Guards
  // both the lazy build and ApplyUpdate's swap.
  mutable std::mutex graph_mu_;
  mutable std::shared_ptr<const graph::Graph> full_graph_;
  // The page pool this store's frames live in, and this store's
  // identity within it. Both immutable after Open.
  storage::BufferPool* pool_ = nullptr;
  storage::StoreId pool_id_ = 0;
  mutable std::atomic<ReaderTag> next_reader_tag_{1};
};

/// Streaming store writer — the out-of-core counterpart of
/// GTreeStore::Create (docs/OUTOFCORE.md). Create materializes every
/// page (and the full graph) in memory before writing; the writer
/// instead streams leaf pages to disk one at a time as the build's
/// merge pass produces them, then seals the file with the metadata
/// sections and the header. The resulting store has no embedded graph
/// section (GTreeStore::streamed()); peak writer memory is one page.
///
/// Usage: Begin(path) -> AddLeafPage(...) per leaf, any order ->
/// Finish(tree, conn, labels, ...). Like Create, the header is written
/// last, so a crash mid-build leaves an unopenable file, never a
/// half-valid store.
class GTreeStoreWriter {
 public:
  /// Opens `path` for writing (truncating) and reserves the header.
  static gmine::Result<std::unique_ptr<GTreeStoreWriter>> Begin(
      const std::string& path);

  ~GTreeStoreWriter();
  GTreeStoreWriter(const GTreeStoreWriter&) = delete;
  GTreeStoreWriter& operator=(const GTreeStoreWriter&) = delete;

  /// Appends one leaf page: the leaf's induced subgraph plus its
  /// members' boundary arcs (global destination ids, CSR-indexed by
  /// local member id — see LeafPayload). `leaf` is the tree-node id the
  /// page will be filed under in the directory.
  Status AddLeafPage(TreeNodeId leaf, const graph::Subgraph& sub,
                     const std::vector<uint32_t>& boundary_offsets,
                     const std::vector<graph::Neighbor>& boundary_arcs);

  /// Appends the metadata sections, writes the header, and closes the
  /// file. Every leaf of `tree` must have received a page.
  Status Finish(const GTree& tree, const ConnectivityIndex& conn,
                const graph::LabelStore& labels, uint32_t num_graph_nodes,
                const GTreeBuildHints* hints = nullptr,
                uint64_t applied_lsn = 0);

  /// Pages written so far.
  uint32_t num_pages() const { return num_pages_; }
  /// Bytes written so far (pages only until Finish).
  uint64_t bytes_written() const { return offset_; }

 private:
  GTreeStoreWriter() = default;
  Status Append(std::string_view blob);

  std::FILE* file_ = nullptr;
  std::string path_;
  uint64_t offset_ = 0;      // next write position (== bytes so far)
  std::string directory_;    // accumulated (leaf, offset, size) entries
  uint32_t num_pages_ = 0;
  bool finished_ = false;
};

}  // namespace gmine::gtree

#endif  // GMINE_GTREE_STORE_H_
