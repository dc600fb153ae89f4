// Session-aware leaf prefetcher (ROADMAP item): the pool knows every
// session's focus, so when a user lands on a community the pages of its
// child leaves are the likeliest next loads. The prefetcher is a
// best-effort background loader feeding the store's sharded page cache:
// hosts (net::Server's event loops with --prefetch, or any embedding)
// enqueue leaf ids after a focus change, which never blocks; a single
// worker thread pulls them through
// GTreeStore::LoadLeaf under the prefetcher's own ReaderTag, so every
// later session hit on a prefetched page counts in the store's
// cross-reader `shared_hits` statistic.
//
// Best-effort means: the queue is bounded and drops on overflow
// (`dropped`), already-cached leaves are skipped (`already_cached`),
// and load failures are counted (`failed`), never surfaced — a
// prefetch can never fail a user request.

#ifndef GMINE_CORE_PREFETCHER_H_
#define GMINE_CORE_PREFETCHER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "gtree/gtree.h"
#include "gtree/store.h"

namespace gmine::core {

/// Cumulative prefetch counters.
struct PrefetchStats {
  uint64_t enqueued = 0;        // ids accepted into the queue
  uint64_t dropped = 0;         // ids rejected (queue full / not a leaf)
  uint64_t already_cached = 0;  // skipped: page was already resident
  uint64_t loaded = 0;          // pages actually pulled from disk
  uint64_t failed = 0;          // loads that returned an error
};

/// Background leaf-page loader over one read-only store.
class Prefetcher {
 public:
  /// The store must outlive the prefetcher. `queue_capacity` bounds the
  /// backlog; overflow drops, it never blocks the enqueueing thread.
  explicit Prefetcher(const gtree::GTreeStore* store,
                      size_t queue_capacity = 64);
  ~Prefetcher();

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  /// Queues the leaf communities under `focus` that are its direct
  /// children (or `focus` itself when it is a leaf), capped at
  /// `max_leaves`. Non-leaf children are ignored — the hint targets the
  /// pages one `child`/`load` step away. Returns the number queued.
  size_t EnqueueChildren(gtree::TreeNodeId focus, size_t max_leaves);

  /// Queues one leaf id. False when dropped (full queue or not a leaf).
  bool Enqueue(gtree::TreeNodeId leaf);

  /// Blocks until the queue is empty and the worker is idle (tests).
  void Drain();

  /// Stops the worker; pending ids are discarded. Idempotent.
  void Stop();

  PrefetchStats stats() const;

  /// The reader identity prefetch loads are attributed to.
  gtree::ReaderTag reader_tag() const { return reader_; }

 private:
  void WorkerLoop();

  const gtree::GTreeStore* store_;
  gtree::ReaderTag reader_ = 0;
  size_t capacity_;

  mutable std::mutex mu_;
  std::condition_variable cv_;        // wakes the worker
  std::condition_variable drained_;   // wakes Drain()
  std::deque<gtree::TreeNodeId> queue_;
  bool busy_ = false;   // worker is mid-load
  bool stop_ = false;
  PrefetchStats stats_;
  std::thread worker_;
};

}  // namespace gmine::core

#endif  // GMINE_CORE_PREFETCHER_H_
