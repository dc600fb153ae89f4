// Process-wide buffer pool: one page manager shared by every open
// GTreeStore (docs/STORAGE.md). The pool owns the resident copies of
// demand-loaded pages, enforces a single hard *byte* budget across all
// stores, and evicts with a clock (second-chance) sweep — replacing the
// per-store page-count LRUs that could neither bound memory in bytes
// nor share it between stores.
//
// Frames are keyed by (store id, page id). A frame's pin count is its
// payload's external reference count: every Lookup/Insert hands out a
// copy of the frame's shared_ptr, and a frame whose payload is still
// referenced outside the pool (use_count > 1 under the shard latch) is
// pinned — the clock sweep never evicts it. Because handout and
// eviction both happen under the same shard latch, the pin test is
// exact: a frame observed unpinned cannot gain a reference
// concurrently except through the pool itself.
//
// Budget semantics (hard, in bytes of serialized page payload):
//   * The budget splits evenly across the shards; the sum of shard
//     budgets is exactly the configured total, so resident bytes never
//     exceed it. Callers additionally hold at most one decoded
//     page in flight per thread (decode happens outside the latch).
//   * Insert evicts unpinned frames clock-wise until the new page
//     fits. If the budget is exhausted by *pinned* frames, Insert
//     refuses with Status::Aborted — backpressure, not UB; the caller
//     retries after releasing pages (IsBackpressure()).
//   * A page larger than a whole shard's budget can never fit: it is
//     returned to the caller uncached (a "bypass"), keeping tiny
//     budgets usable instead of permanently failing.
//
// Scans (docs/STORAGE.md, "Scans"): a whole-store page scan passes a
// ScanId to Lookup/Insert. Scan accesses never set or clear a clock
// ref bit; a scan insert evicts only unpinned, unreferenced frames that
// this same scan did not insert or last hit, and when none is found
// within a constant number of steps the page is handed back uncached
// (a "private read"). So a cyclic sweep over more pages than the pool
// holds keeps the pages it already holds, and never evicts a page a
// navigator referenced. A non-scan hit promotes a scan frame to an
// ordinary one; non-scan inserts evict scan frames first.
//
// Concurrency: the frame table is split into independently-latched
// shards (hash of (store, page)); stats are shard-local counters merged
// on read. Lookup and Insert are safe from any number of threads.
// DropStore/RekeyStore walk shards one at a time and require the caller
// to exclude concurrent readers *of that store* (the epoch-bump
// contract GTreeStore::ApplyUpdate already has); other stores may keep
// reading concurrently.
//
// The pool stores payloads as shared_ptr<const void> so this layer
// stays below gtree/ (which depends on it); GTreeStore casts back to
// its LeafPayload on checkout.

#ifndef GMINE_STORAGE_BUFFER_POOL_H_
#define GMINE_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace gmine::storage {

/// Identity of a registered store within the pool (never reused).
using StoreId = uint64_t;
/// A store-local page number (GTreeStore uses its leaf tree-node ids).
using PageId = uint64_t;
/// A cached page payload, type-erased. The pool tracks bytes and pins;
/// the owner knows the concrete type.
using PagePayload = std::shared_ptr<const void>;

/// Identity of one page scan (BufferPool::NewScanId); kNoScan marks an
/// ordinary access.
using ScanId = uint64_t;
inline constexpr ScanId kNoScan = 0;

/// RekeyStore sentinel: map a page to this to drop its frame.
inline constexpr PageId kInvalidPage = ~0ull;

/// Pool construction knobs.
struct BufferPoolOptions {
  /// Total resident-page budget in bytes across every store;
  /// 0 = unbounded.
  uint64_t budget_bytes = 64ull << 20;
  /// Independently-latched frame-table shards; 0 = auto
  /// (min(16, MaxParallelism()), clamped so each shard keeps a useful
  /// slice of the budget).
  size_t shards = 0;
};

/// Cumulative counters of one store, or of the whole pool.
struct BufferPoolCounters {
  uint64_t hits = 0;          // lookups served from a resident frame
  uint64_t shared_hits = 0;   // hits by a reader other than the loader
  uint64_t misses = 0;        // lookups that found no frame
  uint64_t loads = 0;         // completed Inserts (disk reads paid)
  uint64_t bytes_loaded = 0;  // payload bytes inserted (incl. bypasses)
  uint64_t evictions = 0;     // frames evicted by the clock sweep
  uint64_t invalidations = 0;  // frames dropped by DropStore/RekeyStore
  uint64_t bypasses = 0;      // pages too large to cache, returned raw
  uint64_t backpressure = 0;  // Inserts refused: budget pinned solid
  uint64_t private_reads = 0;  // scan loads handed back uncached

  BufferPoolCounters& operator+=(const BufferPoolCounters& o);
};

/// One store's counters plus a point-in-time residency snapshot
/// (resident/pinned fields are computed at the stats() call).
struct BufferPoolStoreStats : BufferPoolCounters {
  uint64_t resident_bytes = 0;
  uint64_t resident_pages = 0;
  uint64_t pinned_bytes = 0;
  uint64_t pinned_pages = 0;
};

/// Pool-wide aggregate of the per-store stats (those of unregistered
/// stores included) plus configuration.
struct BufferPoolStats : BufferPoolStoreStats {
  uint64_t budget_bytes = 0;  // 0 = unbounded
  size_t shards = 0;
  size_t stores = 0;  // registered stores
};

/// The page manager. One instance normally serves the whole process
/// (Global()); tests and benchmarks construct private pools.
class BufferPool {
 public:
  explicit BufferPool(const BufferPoolOptions& options = {});
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// The process-wide pool every store uses by default. Constructed on
  /// first use with default options; never destroyed (stores may
  /// unregister during static teardown).
  static BufferPool& Global();

  /// Registers a page owner; the returned id is never reused.
  StoreId RegisterStore();

  /// Drops the store's frames and stats and retires its id. Its
  /// counters stay in the pool-wide stats().
  void UnregisterStore(StoreId store);

  /// A fresh id for one page scan; never kNoScan, never reused.
  ScanId NewScanId() { return next_scan_id_.fetch_add(1); }

  /// Returns the resident payload for (store, page), or nullptr on a
  /// miss. `reader` attributes the hit for the cross-reader
  /// shared_hits statistic. An ordinary access (scan == kNoScan) marks
  /// the frame recently-used and promotes a scan frame; a scan access
  /// only re-tags a scan frame with `scan`.
  PagePayload Lookup(StoreId store, PageId page, uint64_t reader = 0,
                     ScanId scan = kNoScan);

  /// Inserts a freshly decoded page of `bytes` serialized size,
  /// evicting unpinned frames as needed. Returns the winning payload:
  /// `payload` itself, or the already-resident copy when another
  /// thread won the insert race (the loser's copy dies with its
  /// shared_ptr). Aborted = backpressure (budget exhausted by pinned
  /// frames); see IsBackpressure(). A scan insert never returns
  /// Aborted: when it may evict nothing, it hands `payload` back
  /// uncached (a private read).
  gmine::Result<PagePayload> Insert(StoreId store, PageId page,
                                    PagePayload payload, uint64_t bytes,
                                    uint64_t reader = 0,
                                    ScanId scan = kNoScan);

  /// True when (store, page) is resident. Does not touch recency or
  /// the hit counters (used by prefetchers to skip useless work).
  bool Contains(StoreId store, PageId page) const;

  /// Drops every frame of `store` (other stores' frames survive —
  /// clearing one store's cache must not empty its neighbors').
  /// Counters survive; returns the number of frames dropped.
  size_t DropStore(StoreId store);

  /// Renumbers `store`'s frames through `remap` (old page id -> new
  /// page id, kInvalidPage = drop), preserving payloads, loader and
  /// scan tags and recency of surviving frames. Used by ApplyUpdate to
  /// invalidate only the touched pages on an epoch bump. The caller
  /// must exclude concurrent readers of this store. Returns the number
  /// of frames dropped.
  size_t RekeyStore(StoreId store,
                    const std::function<PageId(PageId)>& remap);

  /// Re-arms the byte budget (0 = unbounded) and evicts unpinned
  /// frames down to it. Pinned frames cannot be evicted, so resident
  /// bytes may exceed a shrunken budget until readers release pages.
  void SetBudgetBytes(uint64_t budget_bytes);

  uint64_t budget_bytes() const;

  /// Pool-wide counters + residency snapshot.
  BufferPoolStats stats() const;

  /// One store's counters + residency snapshot.
  BufferPoolStoreStats store_stats(StoreId store) const;

  /// True for the Status Insert returns when the budget is exhausted
  /// by pinned frames (retry after releasing pages).
  static bool IsBackpressure(const Status& status) {
    return status.IsAborted();
  }

 private:
  struct FrameKey {
    StoreId store = 0;
    PageId page = 0;
    bool operator==(const FrameKey& o) const {
      return store == o.store && page == o.page;
    }
  };
  struct FrameKeyHash {
    size_t operator()(const FrameKey& k) const;
  };

  struct Frame {
    PagePayload payload;
    uint64_t bytes = 0;
    uint64_t loader = 0;      // reader that paid the disk read
    bool referenced = false;  // clock ref bit; scan frames never set it
    ScanId scan = kNoScan;    // scan that inserted or last hit it
    std::list<FrameKey>::iterator pos;  // in ring, or scan_ring if scan
  };

  /// One independently-latched slice of the frame table. The ring
  /// holds the clock order of ordinary frames (insertion order, hand
  /// sweeping forward); scan_ring holds scan frames, least recently
  /// scanned first.
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<FrameKey, Frame, FrameKeyHash> frames;
    std::list<FrameKey> ring;
    std::list<FrameKey>::iterator hand = ring.end();
    std::list<FrameKey> scan_ring;
    uint64_t budget = 0;  // this shard's slice; 0 = unbounded
    uint64_t resident = 0;
    std::unordered_map<StoreId, BufferPoolCounters> stats;
  };

  Shard& ShardFor(StoreId store, PageId page) const {
    return *shards_[FrameKeyHash{}(FrameKey{store, page}) % shards_.size()];
  }

  /// True when the frame's payload is referenced outside the pool.
  /// Exact under the shard latch (see file comment).
  static bool Pinned(const Frame& f) { return f.payload.use_count() > 1; }

  /// Removes one frame (shard latch held), keeping ring/hand/resident
  /// consistent.
  static void RemoveFrameLocked(
      Shard& shard,
      std::unordered_map<FrameKey, Frame, FrameKeyHash>::iterator it);

  /// Records an access to a resident frame (shard latch held): see
  /// Lookup for what an ordinary and a scan access change.
  static void TouchLocked(Shard& shard, Frame& f, ScanId scan);

  /// Files a new frame on the ring its tag names (shard latch held).
  static void AddFrameLocked(Shard& shard, const FrameKey& key, Frame f);

  /// Ordinary eviction (shard latch held): evicts unpinned scan frames,
  /// then clock-sweeps ordinary ones, until `need` more bytes fit in
  /// the shard budget. Best effort — stops when only pinned frames
  /// remain.
  static void EvictForLocked(Shard& shard, uint64_t need);

  /// Scan eviction (shard latch held): evicts only unpinned frames
  /// whose ref bit is clear and that `scan` did not insert or last
  /// hit, examining a constant number of frames. Returns whether
  /// `need` more bytes now fit.
  static bool EvictForScanLocked(Shard& shard, uint64_t need, ScanId scan);

  /// The eviction rule for a frame tagged `scan`; returns whether
  /// `need` more bytes now fit.
  static bool MakeRoomLocked(Shard& shard, uint64_t need, ScanId scan);

  /// Splits budget_bytes_ across the shards (base + remainder, summing
  /// exactly to the total) and evicts each shard down to its slice.
  void RearmShardBudgets();

  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex registry_mu_;  // guards next_store_id_/stores_;
                                    // taken before any shard latch
  StoreId next_store_id_ = 1;
  size_t registered_stores_ = 0;
  uint64_t budget_bytes_ = 0;  // guarded by registry_mu_
  // Unregistered stores' counters; guarded by registry_mu_.
  BufferPoolCounters retired_;
  std::atomic<ScanId> next_scan_id_{kNoScan + 1};
};

}  // namespace gmine::storage

#endif  // GMINE_STORAGE_BUFFER_POOL_H_
