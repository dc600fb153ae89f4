#include "core/edit_queue.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

namespace gmine::core {

namespace {

/// Shifts an edit built over `old base` nodes onto a graph with
/// `new_base` nodes: provisional ids (>= old base) move up by the
/// difference, real ids stay (sound only when no node removal landed
/// in between — the caller's remap-epoch check).
graph::GraphEdit RebaseEdit(const graph::GraphEdit& edit,
                            uint32_t new_base) {
  const uint32_t old_base = edit.base_nodes();
  if (new_base == old_base) return edit;
  const uint32_t shift = new_base - old_base;
  auto shifted = [&](graph::NodeId v) {
    return v >= old_base ? v + shift : v;
  };
  graph::GraphEdit out(new_base);
  for (float w : edit.added_node_weights()) out.AddNode(w);
  for (const graph::Edge& e : edit.added_edges()) {
    out.AddEdge(shifted(e.src), shifted(e.dst), e.weight);
  }
  for (const auto& [u, v] : edit.removed_edges()) {
    out.RemoveEdge(shifted(u), shifted(v));
  }
  for (graph::NodeId v : edit.removed_nodes()) out.RemoveNode(shifted(v));
  return out;
}

void Resolve(std::promise<EditCommit>& promise, Status status,
             uint64_t lsn = 0, uint64_t epoch = 0, size_t group_size = 0) {
  EditCommit commit;
  commit.status = std::move(status);
  commit.lsn = lsn;
  commit.epoch = epoch;
  commit.group_size = group_size;
  promise.set_value(std::move(commit));
}

}  // namespace

EditQueue::EditQueue(GMineEngine* engine, const EditQueueOptions& options)
    : engine_(engine),
      options_(options),
      tip_nodes_(engine->store().num_graph_nodes()) {
  committer_ = std::thread([this] { CommitterLoop(); });
}

EditQueue::~EditQueue() { Stop(); }

gmine::Result<std::future<EditCommit>> EditQueue::Submit(
    graph::GraphEdit edit, std::vector<std::string> labels) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) return Status::Aborted("edit queue stopped");
  if (queue_.size() >= options_.max_pending) {
    return Status::Aborted("edit queue full");
  }
  Pending pending;
  pending.edit = std::move(edit);
  pending.labels = std::move(labels);
  pending.remap_epoch = remap_epoch_;
  std::future<EditCommit> fut = pending.promise.get_future();
  queue_.push_back(std::move(pending));
  ++stats_.submitted;
  work_cv_.notify_one();
  return fut;
}

void EditQueue::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock, [&] { return queue_.empty() && !committing_; });
}

void EditQueue::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (committer_.joinable()) committer_.join();
}

uint32_t EditQueue::tip_nodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tip_nodes_;
}

uint64_t EditQueue::remap_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return remap_epoch_;
}

EditQueueStats EditQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void EditQueue::CommitterLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    std::vector<Pending> group = NextGroupLocked();
    if (group.empty()) {
      // Everything at the head was rejected.
      if (queue_.empty()) drained_cv_.notify_all();
      continue;
    }
    committing_ = true;
    lock.unlock();
    CommitGroup(std::move(group));
    lock.lock();
    committing_ = false;
    if (queue_.empty()) drained_cv_.notify_all();
  }
}

std::vector<EditQueue::Pending> EditQueue::NextGroupLocked() {
  std::vector<Pending> group;
  // Edges removed by accepted members, in stable (real) id space.
  std::set<std::pair<graph::NodeId, graph::NodeId>> removed_in_group;
  while (!queue_.empty() && group.size() < options_.max_group_edits) {
    Pending& head = queue_.front();
    if (head.remap_epoch != remap_epoch_) {
      // A node removal committed after this edit was built: its real
      // ids may point at renumbered nodes. The submitter must rebuild
      // against the current graph.
      Resolve(head.promise,
              Status::Aborted("edit stale: node ids remapped since"));
      ++stats_.rejected;
      queue_.pop_front();
      continue;
    }
    if (head.edit.base_nodes() > tip_nodes_) {
      Resolve(head.promise,
              Status::InvalidArgument(
                  "edit base exceeds the committed graph"));
      ++stats_.rejected;
      queue_.pop_front();
      continue;
    }
    const bool removes_nodes = !head.edit.removed_nodes().empty();
    // Barrier: removal edits commit alone (their remap must publish
    // before anything that follows is interpreted).
    if (removes_nodes && !group.empty()) break;
    // Barrier: merged application resolves remove-then-add as the
    // removal (it wins within one GraphEdit) while serial application
    // keeps the re-added edge — cut the group so both agree.
    bool readds_removed = false;
    for (const graph::Edge& e : head.edit.added_edges()) {
      if (e.src >= head.edit.base_nodes() ||
          e.dst >= head.edit.base_nodes()) {
        continue;  // provisional endpoint: cannot name a removed edge
      }
      const auto key = std::minmax(e.src, e.dst);
      if (removed_in_group.count({key.first, key.second}) != 0) {
        readds_removed = true;
        break;
      }
    }
    if (readds_removed) break;
    removed_in_group.insert(head.edit.removed_edges().begin(),
                            head.edit.removed_edges().end());
    group.push_back(std::move(head));
    queue_.pop_front();
    if (removes_nodes) break;
  }
  return group;
}

void EditQueue::CommitGroup(std::vector<Pending> group) {
  // nullptr: no log to append to, sync, rewind or checkpoint.
  storage::Wal* wal = engine_->wal();
  uint32_t tip = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tip = tip_nodes_;
  }

  const uint64_t mark = wal != nullptr ? wal->MarkOffset() : 0;
  const uint64_t first_lsn = wal != nullptr ? wal->next_lsn() : 0;
  auto fail_group = [&](const Status& status) {
    if (wal != nullptr) (void)wal->RewindTo(mark, first_lsn);
    std::lock_guard<std::mutex> lock(mu_);
    stats_.failed += group.size();
    for (Pending& p : group) Resolve(p.promise, status);
  };

  // Log each member rebased onto the serial chain: record j's base is
  // the group base plus the nodes added by records before it, so
  // one-at-a-time replay through ApplyEdit reproduces the published
  // graph exactly. (Multi-member groups never remove nodes, so the
  // serial spaces line up with the merged provisional space below.)
  uint32_t serial_base = tip;
  std::vector<graph::GraphEdit> rebased;
  rebased.reserve(group.size());
  for (Pending& p : group) {
    // Align labels with the member's added nodes so the merged
    // concatenation below stays keyed by edit-result order.
    p.labels.resize(p.edit.added_node_weights().size());
    graph::GraphEdit r = RebaseEdit(p.edit, serial_base);
    if (wal != nullptr) {
      auto lsn = wal->Append(r, p.labels);
      if (!lsn.ok()) {
        fail_group(lsn.status());
        return;
      }
    }
    serial_base += static_cast<uint32_t>(r.added_node_weights().size());
    rebased.push_back(std::move(r));
  }
  // The commit barrier: nothing is acked (and nothing is applied)
  // until every record in the group is durable.
  if (wal != nullptr) {
    Status synced = wal->Sync();
    if (!synced.ok()) {
      fail_group(synced);
      return;
    }
  }

  // Merge the serial-chain records into one edit over the group base —
  // their ids are already in the merged provisional space, so the ops
  // transfer verbatim — and repair/publish once for the whole group.
  graph::GraphEdit merged(tip);
  std::vector<std::string> merged_labels;
  for (size_t i = 0; i < rebased.size(); ++i) {
    const graph::GraphEdit& r = rebased[i];
    for (float w : r.added_node_weights()) merged.AddNode(w);
    for (const graph::Edge& e : r.added_edges()) {
      merged.AddEdge(e.src, e.dst, e.weight);
    }
    for (const auto& [u, v] : r.removed_edges()) merged.RemoveEdge(u, v);
    for (graph::NodeId v : r.removed_nodes()) merged.RemoveNode(v);
    merged_labels.insert(merged_labels.end(), group[i].labels.begin(),
                         group[i].labels.end());
  }

  // Without a log the store keeps its watermark (wal_lsn 0).
  const uint64_t last_lsn =
      wal != nullptr ? first_lsn + group.size() - 1 : 0;
  EditStats estats;
  Status applied =
      engine_->ApplyEdit(merged, merged_labels, &estats, last_lsn);
  if (!applied.ok()) {
    // The group never published; rewinding the log keeps "in the log"
    // equivalent to "acked" for the next recovery.
    fail_group(applied);
    return;
  }

  const uint32_t new_tip =
      tip + static_cast<uint32_t>(merged.added_node_weights().size()) -
      static_cast<uint32_t>(merged.removed_nodes().size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    tip_nodes_ = new_tip;
    if (!merged.removed_nodes().empty()) ++remap_epoch_;
    stats_.committed += group.size();
    ++stats_.groups;
    stats_.max_group = std::max(stats_.max_group, group.size());
    for (size_t i = 0; i < group.size(); ++i) {
      Resolve(group[i].promise, Status::OK(),
              wal != nullptr ? first_lsn + i : 0, estats.epoch,
              group.size());
    }
  }
  if (wal != nullptr) MaybeCheckpoint();
}

void EditQueue::MaybeCheckpoint() {
  storage::Wal* wal = engine_->wal();
  if (options_.checkpoint_bytes == 0 ||
      wal->file_size() <= options_.checkpoint_bytes) {
    return;
  }
  // The store header that recorded the group's LSN may still be in the
  // OS page cache; force it down before dropping the log that could
  // otherwise re-create those edits.
  FILE* f = std::fopen(engine_->store_path().c_str(), "rb");
  if (f == nullptr) return;  // keep the log; retry next group
  const bool synced = fdatasync(fileno(f)) == 0;
  std::fclose(f);
  if (!synced) return;
  if (!wal->Reset(wal->next_lsn()).ok()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.checkpoints;
}

}  // namespace gmine::core
