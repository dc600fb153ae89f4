#include "core/engine.h"

#include <algorithm>

#include "core/views.h"
#include "graph/subgraph.h"
#include "gtree/connectivity.h"
#include "storage/buffer_pool.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace gmine::core {

using graph::NodeId;
using gtree::TreeNodeId;

namespace {

gtree::GTreeBuildHints HintsFrom(const gtree::GTreeBuildOptions& build) {
  gtree::GTreeBuildHints hints;
  hints.levels = build.levels;
  hints.fanout = build.fanout;
  hints.min_partition_size = build.min_partition_size;
  hints.partition_seed = build.partition.seed;
  return hints;
}

}  // namespace

gmine::Result<std::unique_ptr<GMineEngine>> GMineEngine::Build(
    const graph::Graph& g, const graph::LabelStore& labels,
    const std::string& store_path, const EngineOptions& options) {
  auto tree = gtree::BuildGTree(g, options.build);
  if (!tree.ok()) return tree.status();
  gtree::ConnectivityIndex conn =
      gtree::ConnectivityIndex::Build(g, tree.value(), options.build.threads);
  gtree::GTreeBuildHints hints = HintsFrom(options.build);
  GMINE_RETURN_IF_ERROR(gtree::GTreeStore::Create(store_path, g, tree.value(),
                                                  conn, labels, &hints));
  return Open(store_path, options);
}

gmine::Result<std::unique_ptr<GMineEngine>> GMineEngine::Open(
    const std::string& store_path, const EngineOptions& options) {
  if (options.mem_budget_bytes > 0) {
    // Re-arm the pool this store will page through (global by default)
    // before any leaf IO happens.
    storage::BufferPool& pool = options.store.buffer_pool != nullptr
                                    ? *options.store.buffer_pool
                                    : storage::BufferPool::Global();
    pool.SetBudgetBytes(options.mem_budget_bytes);
  }
  auto store = gtree::GTreeStore::Open(store_path, options.store);
  if (!store.ok()) return store.status();
  std::unique_ptr<GMineEngine> engine(new GMineEngine());
  engine->store_ = std::move(store).value();
  engine->store_path_ = store_path;
  engine->options_ = options;
  // Adopt the store's recorded build shape: edits must re-partition
  // with the parameters the hierarchy was actually built with, not the
  // opener's defaults.
  const gtree::GTreeBuildHints& hints = engine->store_->build_hints();
  if (hints.levels > 0 && hints.fanout >= 2) {
    engine->options_.build.levels = hints.levels;
    engine->options_.build.fanout = hints.fanout;
    engine->options_.build.min_partition_size = hints.min_partition_size;
    engine->options_.build.partition.seed = hints.partition_seed;
  }
  GMINE_RETURN_IF_ERROR(engine->ResetSessions());
  if (options.wal.enabled) {
    GMINE_RETURN_IF_ERROR(engine->AttachWalAndReplay());
  }
  return engine;
}

Status GMineEngine::AttachWalAndReplay() {
  storage::WalOptions wopts = options_.wal;
  // A fresh log starts right past what the store has already durably
  // applied; an existing log keeps its own header LSN.
  wopts.start_lsn = store_->applied_lsn() + 1;
  GMINE_ASSIGN_OR_RETURN(wal_,
                         storage::Wal::Open(store_path_ + ".wal", wopts));
  wal_recovery_ = WalRecoveryStats();
  wal_recovery_.truncated_bytes = wal_->stats().truncated_bytes;
  for (storage::WalRecord& rec : wal_->TakeRecovered()) {
    if (rec.lsn <= store_->applied_lsn()) {
      // Already in the store (the crash hit after the header rewrite
      // but before the checkpoint truncated the log).
      ++wal_recovery_.skipped;
      continue;
    }
    // Replay must not fail: an acked record applied cleanly once, and
    // failed groups were rewound out of the log before their ack
    // (docs/WAL.md). A failure here means the log and store disagree —
    // surface it rather than serve a half-replayed graph.
    GMINE_RETURN_IF_ERROR(ApplyEdit(rec.edit, rec.labels,
                                    /*stats=*/nullptr, rec.lsn));
    ++wal_recovery_.replayed;
  }
  return Status::OK();
}

Status GMineEngine::ResetSessions() {
  SessionManagerOptions sopts = options_.sessions;
  sopts.tomahawk = options_.tomahawk;
  default_session_ = nullptr;
  sessions_ = std::make_unique<SessionManager>(store_.get(), sopts);
  auto id = sessions_->OpenSession(/*pinned=*/true);
  if (!id.ok()) return id.status();
  default_session_id_ = id.value();
  default_session_ = sessions_->PinnedSession(default_session_id_);
  if (default_session_ == nullptr) {
    return Status::Internal("engine default session missing from pool");
  }
  return Status::OK();
}

Status GMineEngine::ApplyEdit(const graph::GraphEdit& edit,
                              const std::vector<std::string>& new_labels,
                              EditStats* stats, uint64_t wal_lsn) {
  StopWatch watch;
  EditStats local;
  EditStats& out = stats != nullptr ? *stats : local;
  out = EditStats();

  GMINE_ASSIGN_OR_RETURN(std::shared_ptr<const graph::Graph> base,
                         full_graph());
  // Edits without node removals never remap ids, so the cheap CSR merge
  // applies; removals fall back to the general rebuild-through-builder.
  auto edited = edit.removed_nodes().empty() ? edit.ApplyFast(*base)
                                             : edit.Apply(*base);
  if (!edited.ok()) return edited.status();
  graph::EditResult result = std::move(edited).value();

  // Repair only what the edit touched (gtree/edit_repair.h).
  gtree::RepairOptions ropts;
  ropts.build = options_.build;
  ropts.max_leaf_size = options_.edit.max_leaf_size;
  auto repaired =
      gtree::RepairGTree(store_->tree(), *base, edit, result, ropts);
  if (!repaired.ok()) return repaired.status();
  gtree::RepairResult& rep = repaired.value();
  out.classification = rep.classification;
  out.subtree_rebuilds = rep.subtree_rebuilds;

  // new_labels[i] names provisional node base_nodes + i; one the batch
  // itself removed has no post-edit id.
  gtree::AddedLabels added_labels;
  for (size_t i = 0; i < new_labels.size() &&
                     i < edit.added_node_weights().size();
       ++i) {
    const NodeId id = result.old_to_new[edit.base_nodes() + i];
    if (new_labels[i].empty() || id == graph::kInvalidNode) continue;
    added_labels.emplace_back(id, new_labels[i]);
  }
  // Only an edit that renumbers ids rebuilds the label store; every
  // other edit hands the store just the labels it added.
  graph::LabelStore relabeled;
  if (rep.classification.needs_remap) {
    for (NodeId old_id = 0; old_id < store_->labels().size() &&
                            old_id < result.old_to_new.size();
         ++old_id) {
      const NodeId new_id = result.old_to_new[old_id];
      if (new_id == graph::kInvalidNode) continue;
      std::string_view label = store_->labels().Label(old_id);
      if (!label.empty()) relabeled.SetLabel(new_id, std::string(label));
    }
    for (auto& [id, label] : added_labels) {
      relabeled.SetLabel(id, std::move(label));
    }
    added_labels.clear();
  }

  // Materialize only the dirty pages.
  std::vector<std::pair<gtree::TreeNodeId, graph::Subgraph>> pages;
  pages.reserve(rep.dirty_leaves.size());
  for (gtree::TreeNodeId leaf : rep.dirty_leaves) {
    auto sub =
        graph::InducedSubgraph(result.graph, rep.tree.node(leaf).members);
    if (!sub.ok()) return sub.status();
    pages.emplace_back(leaf, std::move(sub).value());
  }
  gtree::ConnectivityIndex rebuilt_conn;
  if (rep.rebuild_connectivity) {
    rebuilt_conn = gtree::ConnectivityIndex::Build(
        result.graph, rep.tree, options_.build.threads);
    out.connectivity_rebuilt = true;
  } else {
    out.conn_rows_updated = rep.conn_deltas.size();
  }

  gtree::GTreeStoreUpdate update;
  update.tree = &rep.tree;
  update.graph = std::make_shared<const graph::Graph>(std::move(result.graph));
  update.dirty_pages = std::move(pages);
  update.old_to_new = rep.topology_changed ? &rep.old_to_new : nullptr;
  if (rep.rebuild_connectivity) {
    update.replacement_conn = &rebuilt_conn;
  } else {
    update.conn_deltas = &rep.conn_deltas;
  }
  update.labels = rep.classification.needs_remap ? &relabeled : nullptr;
  update.added_labels = std::move(added_labels);
  // Id-remapping edits compact the store (every page's global-id
  // mapping shifted); everything else appends + journals.
  update.journal_edit = rep.classification.needs_remap ? nullptr : &edit;
  update.applied_lsn = wal_lsn;

  // Live pool sessions survive through the epoch bump (ids preserved,
  // focus reset to the new root).
  gtree::GTreeStoreUpdateStats ustats;
  GMINE_RETURN_IF_ERROR(sessions_->UpdateEpoch(
      [&]() -> gmine::Result<const gtree::GTreeStore*> {
        GMINE_RETURN_IF_ERROR(store_->ApplyUpdate(update, &ustats));
        return store_.get();
      }));
  out.compacted = ustats.compacted;
  out.defragmented = ustats.defragmented;
  out.pages_written = ustats.compacted
                          ? store_->tree().num_leaves()
                          : ustats.pages_written;
  out.pages_invalidated = ustats.pages_invalidated;
  out.journal_ops = ustats.journal_ops;

  default_session_ = sessions_->PinnedSession(default_session_id_);
  if (default_session_ == nullptr) {
    return Status::Internal("engine default session missing after edit");
  }
  out.epoch = sessions_->epoch();
  out.micros = watch.ElapsedMicros();
  return Status::OK();
}

gmine::Result<NodeDetails> GMineEngine::GetNodeDetails(NodeId v) {
  TreeNodeId leaf = store_->tree().LeafOf(v);
  if (leaf == gtree::kInvalidTreeNode) {
    return Status::NotFound(StrFormat("node %u not in hierarchy", v));
  }
  NodeDetails out;
  out.id = v;
  out.label = std::string(store_->labels().Label(v));
  out.leaf = leaf;
  for (TreeNodeId t : store_->tree().PathFromRoot(leaf)) {
    out.community_path.push_back(store_->tree().node(t).name);
  }
  // Attribute the page access to the default session so shared_hits
  // keeps meaning "paid for by a different user".
  auto payload = store_->LoadLeaf(leaf, default_session_->reader_tag());
  if (!payload.ok()) return payload.status();
  const graph::Subgraph& sub = payload.value()->subgraph;
  NodeId local = sub.LocalId(v);
  if (local == graph::kInvalidNode) {
    return Status::Internal("leaf payload missing its member");
  }
  out.degree_in_community = sub.graph.Degree(local);
  for (const graph::Neighbor& nb : sub.graph.Neighbors(local)) {
    NodeId parent_id = sub.ParentId(nb.id);
    out.community_neighbors.emplace_back(
        parent_id, std::string(store_->labels().Label(parent_id)));
  }
  return out;
}

gmine::Result<std::vector<std::pair<NodeId, std::string>>>
GMineEngine::ExpandNode(NodeId v, size_t limit) {
  auto g = full_graph();
  if (!g.ok()) return g.status();
  if (v >= (*g.value()).num_nodes()) {
    return Status::InvalidArgument(StrFormat("node %u out of range", v));
  }
  auto nbrs = (*g.value()).Neighbors(v);
  std::vector<graph::Neighbor> sorted(nbrs.begin(), nbrs.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const graph::Neighbor& a, const graph::Neighbor& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.id < b.id;
            });
  if (sorted.size() > limit) sorted.resize(limit);
  std::vector<std::pair<NodeId, std::string>> out;
  out.reserve(sorted.size());
  for (const graph::Neighbor& nb : sorted) {
    out.emplace_back(nb.id, std::string(store_->labels().Label(nb.id)));
  }
  return out;
}

gmine::Result<mining::SubgraphMetrics> GMineEngine::ComputeFocusMetrics(
    const mining::MetricsRequest& request) {
  TreeNodeId focus = default_session_->focus();
  const gtree::TreeNode& f = store_->tree().node(focus);
  if (f.IsLeaf()) {
    auto payload =
        store_->LoadLeaf(focus, default_session_->reader_tag());
    if (!payload.ok()) return payload.status();
    return mining::ComputeMetrics(payload.value()->subgraph.graph, request);
  }
  auto g = full_graph();
  if (!g.ok()) return g.status();
  auto members = store_->tree().MembersUnder(focus);
  auto sub = graph::InducedSubgraph(*g.value(), members);
  if (!sub.ok()) return sub.status();
  return mining::ComputeMetrics(sub.value().graph, request);
}

gmine::Result<csg::ConnectionSubgraph>
GMineEngine::ExtractConnectionSubgraph(const std::vector<NodeId>& sources,
                                       const csg::ExtractionOptions& options) {
  auto g = full_graph();
  if (!g.ok()) return g.status();
  return csg::ExtractConnectionSubgraph(*g.value(), sources, options);
}

gmine::Result<std::vector<NodeId>> GMineEngine::ResolveLabels(
    const std::vector<std::string>& names) const {
  std::vector<NodeId> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    NodeId v = store_->labels().Find(name);
    if (v == graph::kInvalidNode) {
      return Status::NotFound(StrFormat("label '%s' not found",
                                        name.c_str()));
    }
    out.push_back(v);
  }
  return out;
}

gmine::Result<query::QueryResult> GMineEngine::Query(
    std::string_view statement, const query::ExecutorOptions& options) {
  return query::Executor(store_.get(), options).ExecuteText(statement);
}

Status GMineEngine::RenderHierarchyView(const std::string& svg_path) {
  ViewOptions vopts;
  vopts.zoom = default_session_->view().zoom;
  vopts.pan_x = default_session_->view().pan_x;
  vopts.pan_y = default_session_->view().pan_y;
  return RenderHierarchyViewSvg(store_->tree(), default_session_->context(),
                                store_->connectivity(), svg_path, vopts);
}

Status GMineEngine::RenderFocusSubgraph(const std::string& svg_path) {
  auto payload = default_session_->LoadFocusSubgraph();
  if (!payload.ok()) return payload.status();
  const graph::Subgraph& sub = payload.value()->subgraph;
  // Remap global labels onto local ids for the view.
  graph::LabelStore local;
  if (!store_->labels().empty()) {
    for (NodeId l = 0; l < sub.to_parent.size(); ++l) {
      std::string_view label = store_->labels().Label(sub.ParentId(l));
      if (!label.empty()) local.SetLabel(l, std::string(label));
    }
  }
  return RenderSubgraphSvg(sub.graph, &local, {}, svg_path);
}

}  // namespace gmine::core
