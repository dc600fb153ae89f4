// Group commit for graph edits (docs/WAL.md), and the one committer of
// server edits. Writers Submit() GraphEdits from any thread; a single
// committer thread drains the queue in groups, appends every member to
// the engine's write-ahead log under one fsync barrier (when the engine
// has a log), merges the group into a single GraphEdit, runs ONE
// incremental repair for the whole group, and publishes it with a
// single epoch bump — readers keep navigating the previous epoch
// throughout. Amortizing the fsync and the repair over the group is
// what buys the bench_wal throughput win.
//
// Rebasing. An edit is built against the graph as of its submission
// (base M); by the time the committer reaches it the tip may have
// grown to N through earlier groups or earlier members of its own
// group. Provisional ids (>= M) shift up by N - M; real ids (< M) are
// stable because node REMOVALS — the only id-remapping operation —
// bump the queue's remap epoch, and edits submitted under an older
// epoch are rejected with Aborted instead of silently landing on
// renumbered nodes.
//
// Group barriers keep "merged apply" equivalent to "serial apply":
//   * a node-removal edit always commits alone (its id remap must be
//     visible to everything after it);
//   * the group is cut before an edit that re-adds an edge a prior
//     member removed — merged application would lose it (removal wins
//     within one GraphEdit) while serial application keeps it.
// Duplicate edge additions merge fine (weights sum identically) and
// add-then-remove resolves to the removal both ways, so neither cuts.
//
// WAL contract: each group member is logged as its own record, rebased
// onto the *serial* chain (record j's base = group base + nodes added
// by records before it), so replaying records one at a time through
// GMineEngine::ApplyEdit reproduces exactly the published graph. A
// group whose apply fails is rewound out of the log (Wal::RewindTo)
// before its submitters see the failure — nothing is ever acked that
// recovery would not replay, and nothing left in the log was unacked.
//
// Checkpoint: when the log outgrows `checkpoint_bytes`, the committer
// fdatasyncs the store file (the header rewrite that recorded the
// group's LSN may still be in the page cache) and resets the log.
//
// Without a log (engine->wal() == nullptr) a group skips the append,
// the sync barrier, the rewind and the checkpoint; grouping, rebasing,
// both barriers and the remap-epoch rejection are unchanged, and every
// ack carries lsn=0.

#ifndef GMINE_CORE_EDIT_QUEUE_H_
#define GMINE_CORE_EDIT_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "graph/graph_edit.h"
#include "util/status.h"

namespace gmine::core {

struct EditQueueOptions {
  /// Most edits coalesced into one group (one fsync + one repair).
  size_t max_group_edits = 64;
  /// Submit() rejects (Aborted) beyond this many queued edits.
  size_t max_pending = 4096;
  /// Reset the WAL once it outgrows this many bytes (0 = never;
  /// ignored without a WAL).
  uint64_t checkpoint_bytes = 4u << 20;
};

/// What one committed (or failed) Submit resolved to.
struct EditCommit {
  Status status = Status::OK();
  /// The edit's WAL record LSN (0 when the engine has no WAL, or the
  /// submission never reached the log — rejected or failed before
  /// append).
  uint64_t lsn = 0;
  /// Session-pool epoch that published the edit.
  uint64_t epoch = 0;
  /// How many edits shared the group (1 = committed alone).
  size_t group_size = 0;
};

/// Cumulative queue counters (stats()).
struct EditQueueStats {
  uint64_t submitted = 0;
  uint64_t committed = 0;
  /// Stale-epoch or invalid-base rejections at commit time.
  uint64_t rejected = 0;
  /// Members of groups whose apply failed (rewound out of the WAL).
  uint64_t failed = 0;
  uint64_t groups = 0;
  size_t max_group = 0;
  uint64_t checkpoints = 0;
};

/// Single-committer group-commit front end over GMineEngine::ApplyEdit,
/// with or without the engine's write-ahead log.
///
/// Thread-safety: Submit/Drain/stats are safe from any thread. The
/// committer thread is the only caller of engine->ApplyEdit while the
/// queue is running, so the engine's edit-vs-navigation contract holds
/// as long as other threads stick to sessions()->WithSession.
class EditQueue {
 public:
  /// Starts the committer thread. `engine` must outlive the queue; its
  /// WAL, when attached, logs every group.
  EditQueue(GMineEngine* engine, const EditQueueOptions& options = {});

  /// Stops (draining first) if the caller did not.
  ~EditQueue();
  EditQueue(const EditQueue&) = delete;
  EditQueue& operator=(const EditQueue&) = delete;

  /// Enqueues an edit built against the engine's *current* graph.
  /// `labels` names the edit's added nodes in edit-result order. The
  /// future resolves once the edit's group is published — and durably
  /// logged first, with a WAL — or failed. Aborted when the queue is
  /// stopped or full.
  gmine::Result<std::future<EditCommit>> Submit(
      graph::GraphEdit edit, std::vector<std::string> labels = {});

  /// Blocks until every previously submitted edit has resolved.
  void Drain();

  /// Drains, then joins the committer. Subsequent Submits are Aborted.
  void Stop();

  /// Node count of the graph as of the last committed group.
  uint32_t tip_nodes() const;

  /// Bumped by every committed node-removal; submissions that were
  /// built before the bump are rejected.
  uint64_t remap_epoch() const;

  EditQueueStats stats() const;

 private:
  struct Pending {
    graph::GraphEdit edit{0};
    std::vector<std::string> labels;
    uint64_t remap_epoch = 0;
    std::promise<EditCommit> promise;
  };

  void CommitterLoop();
  /// Pops the next group (barrier rules above). Caller holds mu_.
  std::vector<Pending> NextGroupLocked();
  /// Logs, applies and publishes one group; resolves its promises.
  void CommitGroup(std::vector<Pending> group);
  /// Store fdatasync + WAL reset once the log is past the threshold.
  void MaybeCheckpoint();

  GMineEngine* engine_;
  EditQueueOptions options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;     // committer: queue or stop
  std::condition_variable drained_cv_;  // Drain(): empty and idle
  std::deque<Pending> queue_;
  bool stop_ = false;
  bool committing_ = false;  // a group is in flight outside mu_
  uint32_t tip_nodes_ = 0;
  uint64_t remap_epoch_ = 0;
  EditQueueStats stats_;

  std::thread committer_;
};

}  // namespace gmine::core

#endif  // GMINE_CORE_EDIT_QUEUE_H_
