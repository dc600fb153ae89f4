// Buffer-pool contract tests (storage/buffer_pool.h): clock eviction,
// pinning, budget backpressure, multi-store fairness/isolation, epoch
// rekeying, the scan access path, and a concurrent
// checkout/evict/invalidate hammer meant to run under TSan (see
// .github/workflows/ci.yml).

#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.h"
#include "gtree/builder.h"
#include "gtree/store.h"

namespace gmine::storage {
namespace {

/// A payload of `bytes` real bytes (so budgets mean what they say).
PagePayload MakePage(uint64_t bytes) {
  return PagePayload(new char[bytes](),
                     [](const void* p) { delete[] static_cast<const char*>(p); });
}

/// Insert that must succeed (no pins in the way).
void MustInsert(BufferPool& pool, StoreId s, PageId p, uint64_t bytes) {
  auto r = pool.Insert(s, p, MakePage(bytes), bytes);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST(BufferPoolTest, LookupMissThenHit) {
  BufferPool pool(BufferPoolOptions{.budget_bytes = 1 << 20, .shards = 1});
  StoreId s = pool.RegisterStore();
  EXPECT_EQ(pool.Lookup(s, 1), nullptr);
  MustInsert(pool, s, 1, 100);
  EXPECT_NE(pool.Lookup(s, 1), nullptr);
  BufferPoolStoreStats st = pool.store_stats(s);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.loads, 1u);
  EXPECT_EQ(st.resident_pages, 1u);
  EXPECT_EQ(st.resident_bytes, 100u);
}

TEST(BufferPoolTest, ClockEvictsColdestUnpinned) {
  // Three 100-byte pages into a 250-byte shard: inserting page 3 must
  // evict page 1 (both ref bits get cleared on the first lap; page 1 is
  // reached first on the second).
  BufferPool pool(BufferPoolOptions{.budget_bytes = 250, .shards = 1});
  StoreId s = pool.RegisterStore();
  MustInsert(pool, s, 1, 100);
  MustInsert(pool, s, 2, 100);
  MustInsert(pool, s, 3, 100);
  EXPECT_FALSE(pool.Contains(s, 1));
  EXPECT_TRUE(pool.Contains(s, 2));
  EXPECT_TRUE(pool.Contains(s, 3));
  EXPECT_EQ(pool.store_stats(s).evictions, 1u);
  EXPECT_LE(pool.stats().resident_bytes, 250u);
}

TEST(BufferPoolTest, RecentlyUsedPageSurvivesEviction) {
  // Second chance: a page whose ref bit is set when the hand passes is
  // spared for that lap. Build the distinguishing state — ring
  // {2(clear), 3(clear), 4(set)}, hand at 2 — by letting the insert of
  // page 4 clear 2 and 3 on its eviction lap, then re-arm page 2.
  BufferPool pool(BufferPoolOptions{.budget_bytes = 300, .shards = 1});
  StoreId s = pool.RegisterStore();
  MustInsert(pool, s, 1, 100);
  MustInsert(pool, s, 2, 100);
  MustInsert(pool, s, 3, 100);
  MustInsert(pool, s, 4, 100);  // clears every bit, evicts 1
  ASSERT_FALSE(pool.Contains(s, 1));
  EXPECT_NE(pool.Lookup(s, 2), nullptr);  // re-arm page 2's ref bit
  MustInsert(pool, s, 5, 100);  // hand: 2 spared (bit set), 3 evicted
  EXPECT_TRUE(pool.Contains(s, 2));
  EXPECT_FALSE(pool.Contains(s, 3));
  EXPECT_TRUE(pool.Contains(s, 4));
  EXPECT_TRUE(pool.Contains(s, 5));
}

TEST(BufferPoolTest, PinnedFramesNeverEvictedAndBackpressure) {
  BufferPool pool(BufferPoolOptions{.budget_bytes = 250, .shards = 1});
  StoreId s = pool.RegisterStore();
  auto r1 = pool.Insert(s, 1, MakePage(100), 100);
  ASSERT_TRUE(r1.ok());
  PagePayload pin1 = std::move(r1).value();  // pinned: use_count > 1
  auto r2 = pool.Insert(s, 2, MakePage(100), 100);
  ASSERT_TRUE(r2.ok());
  PagePayload pin2 = std::move(r2).value();

  // 200/250 bytes pinned; a 100-byte insert cannot fit and cannot
  // evict -> backpressure, not budget overrun.
  auto refused = pool.Insert(s, 3, MakePage(100), 100);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(BufferPool::IsBackpressure(refused.status()));
  EXPECT_TRUE(pool.Contains(s, 1));
  EXPECT_TRUE(pool.Contains(s, 2));
  EXPECT_LE(pool.stats().resident_bytes, 250u);
  EXPECT_EQ(pool.store_stats(s).backpressure, 1u);
  EXPECT_EQ(pool.store_stats(s).pinned_pages, 2u);

  // Releasing one pin unblocks the retry.
  pin1.reset();
  auto retry = pool.Insert(s, 3, MakePage(100), 100);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE(pool.Contains(s, 3));
  EXPECT_TRUE(pool.Contains(s, 2));  // still pinned
  EXPECT_LE(pool.stats().resident_bytes, 250u);
}

TEST(BufferPoolTest, OversizePageBypassesUncached) {
  BufferPool pool(BufferPoolOptions{.budget_bytes = 100, .shards = 1});
  StoreId s = pool.RegisterStore();
  auto r = pool.Insert(s, 1, MakePage(1000), 1000);
  ASSERT_TRUE(r.ok());           // the caller still gets the payload...
  EXPECT_NE(r.value(), nullptr);
  EXPECT_FALSE(pool.Contains(s, 1));  // ...but nothing was cached
  EXPECT_EQ(pool.store_stats(s).bypasses, 1u);
  EXPECT_EQ(pool.stats().resident_bytes, 0u);
}

TEST(BufferPoolTest, InsertRaceReturnsResidentCopy) {
  BufferPool pool(BufferPoolOptions{.budget_bytes = 1 << 20, .shards = 1});
  StoreId s = pool.RegisterStore();
  auto first = pool.Insert(s, 1, MakePage(100), 100);
  ASSERT_TRUE(first.ok());
  PagePayload winner = first.value();
  auto second = pool.Insert(s, 1, MakePage(100), 100);
  ASSERT_TRUE(second.ok());
  // The loser's copy is discarded; both callers see the same frame.
  EXPECT_EQ(second.value().get(), winner.get());
  BufferPoolStoreStats st = pool.store_stats(s);
  EXPECT_EQ(st.loads, 2u);  // both paid a disk read
  EXPECT_EQ(st.resident_pages, 1u);
}

TEST(BufferPoolTest, MultiStoreFairnessHotAndCold) {
  // A hot store hammering its pages must not starve a cold store out
  // of residency entirely, and dropping one store leaves the other's
  // frames resident (per-store isolation).
  BufferPool pool(BufferPoolOptions{.budget_bytes = 1000, .shards = 1});
  StoreId hot = pool.RegisterStore();
  StoreId cold = pool.RegisterStore();
  for (PageId p = 0; p < 4; ++p) MustInsert(pool, hot, p, 100);
  MustInsert(pool, cold, 100, 100);
  // Hammer the hot pages; the cold page's ref bit stays set from its
  // insert, so a few more hot inserts must not pick it first.
  for (int lap = 0; lap < 8; ++lap) {
    for (PageId p = 0; p < 4; ++p) EXPECT_NE(pool.Lookup(hot, p), nullptr);
  }
  for (PageId p = 4; p < 12; ++p) MustInsert(pool, hot, p, 100);
  EXPECT_TRUE(pool.Contains(cold, 100));
  EXPECT_GT(pool.store_stats(hot).evictions, 0u);  // pressure was real
  EXPECT_LE(pool.stats().resident_bytes, 1000u);

  // DropStore(hot) clears hot only.
  size_t dropped = pool.DropStore(hot);
  EXPECT_GT(dropped, 0u);
  EXPECT_TRUE(pool.Contains(cold, 100));
  EXPECT_EQ(pool.store_stats(hot).resident_pages, 0u);
  EXPECT_EQ(pool.store_stats(cold).resident_pages, 1u);
}

TEST(BufferPoolTest, RekeyStoreMovesAndDrops) {
  BufferPool pool(BufferPoolOptions{.budget_bytes = 1 << 20, .shards = 2});
  StoreId s = pool.RegisterStore();
  StoreId other = pool.RegisterStore();
  MustInsert(pool, s, 1, 100);
  MustInsert(pool, s, 2, 100);
  MustInsert(pool, s, 3, 100);
  MustInsert(pool, other, 1, 100);
  PagePayload before = pool.Lookup(s, 2);
  ASSERT_NE(before, nullptr);

  // 1 -> 10 (move), 2 -> 2 (keep), 3 -> dropped.
  size_t dropped = pool.RekeyStore(s, [](PageId p) {
    if (p == 1) return PageId{10};
    if (p == 2) return PageId{2};
    return kInvalidPage;
  });
  EXPECT_EQ(dropped, 1u);
  EXPECT_TRUE(pool.Contains(s, 10));
  EXPECT_TRUE(pool.Contains(s, 2));
  EXPECT_FALSE(pool.Contains(s, 1));
  EXPECT_FALSE(pool.Contains(s, 3));
  // Payload identity survives the move (warm cache across an epoch).
  EXPECT_EQ(pool.Lookup(s, 2).get(), before.get());
  // The other store is untouched.
  EXPECT_TRUE(pool.Contains(other, 1));
  EXPECT_EQ(pool.store_stats(s).invalidations, 1u);
}

TEST(BufferPoolTest, SetBudgetShrinkEvictsDown) {
  BufferPool pool(BufferPoolOptions{.budget_bytes = 1000, .shards = 1});
  StoreId s = pool.RegisterStore();
  for (PageId p = 0; p < 10; ++p) MustInsert(pool, s, p, 100);
  EXPECT_EQ(pool.stats().resident_bytes, 1000u);
  pool.SetBudgetBytes(300);
  EXPECT_LE(pool.stats().resident_bytes, 300u);
  EXPECT_EQ(pool.budget_bytes(), 300u);
  // Growing it back admits new pages again.
  pool.SetBudgetBytes(1000);
  MustInsert(pool, s, 42, 100);
  EXPECT_TRUE(pool.Contains(s, 42));
}

// ---------------------------------------------------------------- scans

/// One scan page request as GTreeStore makes it: Lookup, then Insert on
/// a miss. Returns true on a hit.
bool ScanRead(BufferPool& pool, StoreId s, PageId p, uint64_t bytes,
              ScanId scan) {
  if (pool.Lookup(s, p, /*reader=*/0, scan) != nullptr) return true;
  auto r = pool.Insert(s, p, MakePage(bytes), bytes, /*reader=*/0, scan);
  EXPECT_TRUE(r.ok() && r.value() != nullptr) << r.status().ToString();
  return false;
}

/// Hits of one cyclic sweep over pages [0, pages).
uint64_t ScanSweep(BufferPool& pool, StoreId s, PageId pages, ScanId scan) {
  uint64_t hits = 0;
  for (PageId p = 0; p < pages; ++p) hits += ScanRead(pool, s, p, 100, scan);
  return hits;
}

TEST(BufferPoolScanTest, CyclicSweepOverBudgetHitsOnSecondSweep) {
  // 14 pages of 100 bytes over a 1000-byte shard: plain clock evicts
  // each page just before the sweep comes back to it (0 hits); the
  // scan keeps the ten pages it holds and reads the other four
  // privately.
  BufferPool pool(BufferPoolOptions{.budget_bytes = 1000, .shards = 1});
  StoreId s = pool.RegisterStore();
  const ScanId scan = pool.NewScanId();
  EXPECT_EQ(ScanSweep(pool, s, 14, scan), 0u);
  EXPECT_EQ(ScanSweep(pool, s, 14, scan), 10u);
  EXPECT_EQ(ScanSweep(pool, s, 14, scan), 10u);
  BufferPoolStoreStats st = pool.store_stats(s);
  EXPECT_EQ(st.private_reads, 12u);
  EXPECT_EQ(st.evictions, 0u);
  EXPECT_EQ(st.resident_bytes, 1000u);
  // A later scan (the next job) hits the same pages from its first
  // sweep on.
  EXPECT_EQ(ScanSweep(pool, s, 14, pool.NewScanId()), 10u);
}

TEST(BufferPoolScanTest, ReferencedFrameSurvivesScanSweeps) {
  BufferPool pool(BufferPoolOptions{.budget_bytes = 1000, .shards = 1});
  StoreId s = pool.RegisterStore();
  MustInsert(pool, s, 100, 100);  // a navigator's page: ref bit set
  MustInsert(pool, s, 101, 100);
  EXPECT_NE(pool.Lookup(s, 101), nullptr);  // ...and re-referenced
  const ScanId scan = pool.NewScanId();
  for (int sweep = 0; sweep < 3; ++sweep) ScanSweep(pool, s, 14, scan);
  EXPECT_TRUE(pool.Contains(s, 100));
  EXPECT_TRUE(pool.Contains(s, 101));
  // The scan holds the rest of the budget: 8 of its 14 pages.
  EXPECT_EQ(ScanSweep(pool, s, 14, scan), 8u);
  EXPECT_LE(pool.stats().resident_bytes, 1000u);
}

TEST(BufferPoolScanTest, ScanThatFitsHitsEveryPageFromSecondSweep) {
  // No share caps a scan: pages that fit the pool all stay resident.
  BufferPool pool(BufferPoolOptions{.budget_bytes = 1000, .shards = 1});
  StoreId s = pool.RegisterStore();
  const ScanId scan = pool.NewScanId();
  EXPECT_EQ(ScanSweep(pool, s, 10, scan), 0u);
  EXPECT_EQ(ScanSweep(pool, s, 10, scan), 10u);
  EXPECT_EQ(ScanSweep(pool, s, 10, scan), 10u);
  EXPECT_EQ(pool.store_stats(s).private_reads, 0u);
}

TEST(BufferPoolScanTest, NonScanHitPromotesScanFrame) {
  BufferPool pool(BufferPoolOptions{.budget_bytes = 300, .shards = 1});
  StoreId s = pool.RegisterStore();
  const ScanId first = pool.NewScanId();
  ScanSweep(pool, s, 3, first);             // pages 0-2, scan frames
  EXPECT_NE(pool.Lookup(s, 1), nullptr);    // a navigator reads page 1
  // A second scan may evict the first scan's frames, but page 1 is now
  // an ordinary, referenced frame.
  const ScanId second = pool.NewScanId();
  for (PageId p = 3; p < 6; ++p) ScanRead(pool, s, p, 100, second);
  EXPECT_TRUE(pool.Contains(s, 1));
  EXPECT_FALSE(pool.Contains(s, 0));
  EXPECT_FALSE(pool.Contains(s, 2));
  EXPECT_EQ(pool.store_stats(s).private_reads, 1u);
}

TEST(BufferPoolScanTest, NonScanInsertEvictsScanFramesFirst) {
  // Ring {11 (bit clear), 12 (bit clear), 13 (bit set)} with the hand
  // at 11, plus scan frame 0: plain clock would evict 12 next; the
  // navigator's insert takes the scan frame instead.
  BufferPool pool(BufferPoolOptions{.budget_bytes = 300, .shards = 1});
  StoreId s = pool.RegisterStore();
  for (PageId p = 10; p < 14; ++p) MustInsert(pool, s, p, 100);  // evicts 10
  ScanRead(pool, s, 0, 100, pool.NewScanId());  // evicts 11 (bit clear)
  ASSERT_TRUE(pool.Contains(s, 0));
  ASSERT_FALSE(pool.Contains(s, 11));
  MustInsert(pool, s, 14, 100);
  EXPECT_FALSE(pool.Contains(s, 0));
  EXPECT_TRUE(pool.Contains(s, 12));
  EXPECT_TRUE(pool.Contains(s, 13));
  EXPECT_TRUE(pool.Contains(s, 14));
}

TEST(BufferPoolScanTest, PrivateReadsKeepHitsPlusLoadsEqualRequests) {
  BufferPool pool(BufferPoolOptions{.budget_bytes = 1000, .shards = 1});
  StoreId s = pool.RegisterStore();
  const ScanId scan = pool.NewScanId();
  for (int sweep = 0; sweep < 3; ++sweep) ScanSweep(pool, s, 14, scan);
  BufferPoolStoreStats st = pool.store_stats(s);
  EXPECT_GT(st.private_reads, 0u);
  EXPECT_EQ(st.hits + st.loads, 3u * 14u);
  EXPECT_EQ(st.misses, st.loads);
  EXPECT_EQ(st.bypasses, 0u);
  EXPECT_EQ(st.backpressure, 0u);
  EXPECT_EQ(st.bytes_loaded, st.loads * 100u);
}

TEST(BufferPoolScanTest, RekeyStoreKeepsScanTags) {
  // Frames moved by an epoch bump stay the scan's: its next miss still
  // finds nothing it may evict.
  BufferPool pool(BufferPoolOptions{.budget_bytes = 300, .shards = 1});
  StoreId s = pool.RegisterStore();
  const ScanId scan = pool.NewScanId();
  ScanSweep(pool, s, 2, scan);
  MustInsert(pool, s, 10, 100);
  EXPECT_EQ(pool.RekeyStore(s, [](PageId p) { return p; }), 0u);
  EXPECT_FALSE(ScanRead(pool, s, 5, 100, scan));
  EXPECT_EQ(pool.store_stats(s).private_reads, 1u);
  EXPECT_TRUE(pool.Contains(s, 0));
  EXPECT_TRUE(pool.Contains(s, 1));
  EXPECT_TRUE(pool.Contains(s, 10));
  // DropStore leaves no scan frame behind.
  EXPECT_EQ(pool.DropStore(s), 3u);
  EXPECT_EQ(ScanSweep(pool, s, 3, scan), 0u);
  EXPECT_EQ(pool.store_stats(s).resident_pages, 3u);
}

TEST(BufferPoolTest, UnregisterStoreDropsFramesAndStats) {
  BufferPool pool(BufferPoolOptions{.budget_bytes = 1 << 20, .shards = 2});
  StoreId a = pool.RegisterStore();
  StoreId b = pool.RegisterStore();
  MustInsert(pool, a, 1, 100);
  MustInsert(pool, b, 1, 100);
  EXPECT_EQ(pool.stats().stores, 2u);
  pool.UnregisterStore(a);
  EXPECT_EQ(pool.stats().stores, 1u);
  EXPECT_FALSE(pool.Contains(a, 1));
  EXPECT_TRUE(pool.Contains(b, 1));
  BufferPoolStoreStats gone = pool.store_stats(a);
  EXPECT_EQ(gone.loads, 0u);
  EXPECT_EQ(gone.resident_pages, 0u);
  // The pool-wide counters keep what the retired store did.
  EXPECT_EQ(pool.stats().loads, 2u);
}

// ------------------------------------------------------------ with stores
// Integration through GTreeStore: per-store isolation of ClearCache and
// stats, and shared_hits reader attribution — the regressions satellite
// 2 guards against now that every store shares one pool.

struct StorePair {
  std::unique_ptr<gtree::GTreeStore> a;
  std::unique_ptr<gtree::GTreeStore> b;
  std::vector<gtree::TreeNodeId> leaves_a;
  std::vector<gtree::TreeNodeId> leaves_b;
  std::string path_a;
  std::string path_b;

  StorePair() = default;
  StorePair(StorePair&&) = default;
  StorePair& operator=(StorePair&&) = default;

  ~StorePair() {
    a.reset();
    b.reset();
    if (!path_a.empty()) std::remove(path_a.c_str());
    if (!path_b.empty()) std::remove(path_b.c_str());
  }
};

StorePair MakeStorePair(BufferPool* pool, const char* name) {
  StorePair out;
  for (int i = 0; i < 2; ++i) {
    auto graph = std::move(gen::ErdosRenyiM(90, 360, 7 + i)).value();
    gtree::GTreeBuildOptions bopts;
    bopts.levels = 2;
    bopts.fanout = 3;
    gtree::GTree tree = std::move(gtree::BuildGTree(graph, bopts)).value();
    auto conn = gtree::ConnectivityIndex::Build(graph, tree);
    std::string path = std::string(::testing::TempDir()) + "/" + name +
                       (i == 0 ? "_a" : "_b") + ".gtree";
    graph::LabelStore labels;
    EXPECT_TRUE(
        gtree::GTreeStore::Create(path, graph, tree, conn, labels).ok());
    gtree::GTreeStoreOptions sopts;
    sopts.buffer_pool = pool;
    auto store = gtree::GTreeStore::Open(path, sopts);
    EXPECT_TRUE(store.ok());
    auto leaves =
        store.value()->tree().LeavesUnder(store.value()->tree().root());
    if (i == 0) {
      out.a = std::move(store).value();
      out.leaves_a = std::move(leaves);
      out.path_a = std::move(path);
    } else {
      out.b = std::move(store).value();
      out.leaves_b = std::move(leaves);
      out.path_b = std::move(path);
    }
  }
  return out;
}

TEST(BufferPoolStoreTest, ClearCacheIsolatedPerStore) {
  BufferPool pool(BufferPoolOptions{.budget_bytes = 8 << 20, .shards = 2});
  StorePair s = MakeStorePair(&pool, "clear_iso");
  ASSERT_TRUE(s.a->LoadLeaf(s.leaves_a[0]).ok());
  ASSERT_TRUE(s.b->LoadLeaf(s.leaves_b[0]).ok());
  ASSERT_TRUE(s.a->IsCached(s.leaves_a[0]));
  ASSERT_TRUE(s.b->IsCached(s.leaves_b[0]));

  s.a->ClearCache();
  EXPECT_FALSE(s.a->IsCached(s.leaves_a[0]));
  // Clearing store A's cache must not touch store B's frames.
  EXPECT_TRUE(s.b->IsCached(s.leaves_b[0]));

  // And stats stay per-store: B never loaded A's leaves.
  EXPECT_EQ(s.b->stats().leaf_loads, 1u);
  EXPECT_EQ(s.a->stats().leaf_loads, 1u);
}

TEST(BufferPoolStoreTest, SharedHitsAttributionSurvivesPool) {
  BufferPool pool(BufferPoolOptions{.budget_bytes = 8 << 20, .shards = 2});
  StorePair s = MakeStorePair(&pool, "shared_hits");
  // Reader 1 pays the load; reader 2's hit is a shared hit; reader 1's
  // own re-read is a plain hit.
  ASSERT_TRUE(s.a->LoadLeaf(s.leaves_a[0], /*reader=*/1).ok());
  ASSERT_TRUE(s.a->LoadLeaf(s.leaves_a[0], /*reader=*/2).ok());
  ASSERT_TRUE(s.a->LoadLeaf(s.leaves_a[0], /*reader=*/1).ok());
  gtree::GTreeStoreStats st = s.a->stats();
  EXPECT_EQ(st.leaf_loads, 1u);
  EXPECT_EQ(st.cache_hits, 2u);
  EXPECT_EQ(st.shared_hits, 1u);
  // Store B saw none of it.
  EXPECT_EQ(s.b->stats().cache_hits, 0u);
}

// --------------------------------------------------------------- hammer
// Concurrent checkout/evict/epoch-bump torture: reader threads hammer
// Lookup/Insert on two stores under a tight budget, scan readers sweep
// both stores cyclically through the scan path, and a maintenance
// thread cycles DropStore / RekeyStore(identity) / SetBudgetBytes.
// Run under TSan this is the data-race proof for the sharded latches;
// the invariant checks catch budget overruns and lost frames.

TEST(BufferPoolHammerTest, ConcurrentCheckoutEvictInvalidate) {
  BufferPool pool(BufferPoolOptions{.budget_bytes = 64 << 10, .shards = 4});
  StoreId stores[2] = {pool.RegisterStore(), pool.RegisterStore()};
  constexpr int kReaders = 4;
  constexpr int kScanReaders = 2;
  constexpr int kOpsPerReader = 2000;
  constexpr PageId kPages = 64;
  constexpr uint64_t kPageBytes = 512;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checkouts{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      // Per-thread LCG so threads touch different page sequences.
      uint64_t rng = 0x9e3779b97f4a7c15ull * (t + 1);
      for (int i = 0; i < kOpsPerReader; ++i) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        StoreId s = stores[(rng >> 33) & 1];
        PageId p = (rng >> 17) % kPages;
        PagePayload got = pool.Lookup(s, p, /*reader=*/t);
        if (got == nullptr) {
          auto r = pool.Insert(s, p, MakePage(kPageBytes), kPageBytes,
                               /*reader=*/t);
          if (r.ok()) got = r.value();
          // Backpressure is a legal outcome under a tight budget.
        }
        if (got != nullptr) ++checkouts;
        // `got` drops here — the pin releases promptly, as LoadLeaf
        // callers do.
      }
    });
  }
  for (int t = 0; t < kScanReaders; ++t) {
    readers.emplace_back([&, t] {
      // Each scan reader runs a new scan every sweep over both stores'
      // pages, as a sequence of mine jobs would.
      ScanId scan = kNoScan;
      for (int i = 0; i < kOpsPerReader; ++i) {
        if (i % (2 * kPages) == 0) scan = pool.NewScanId();
        StoreId s = stores[(i / kPages) & 1];
        PageId p = i % kPages;
        PagePayload got = pool.Lookup(s, p, /*reader=*/kReaders + t, scan);
        if (got == nullptr) {
          auto r = pool.Insert(s, p, MakePage(kPageBytes), kPageBytes,
                               /*reader=*/kReaders + t, scan);
          // A scan insert never refuses: it reads privately instead.
          EXPECT_TRUE(r.ok()) << r.status().ToString();
          if (r.ok()) got = r.value();
        }
        if (got != nullptr) ++checkouts;
      }
    });
  }

  std::thread maintenance([&] {
    int cycle = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      switch (cycle++ % 4) {
        case 0:
          pool.DropStore(stores[0]);
          break;
        case 1:
          // Readers are not excluded here, stricter than the contract
          // GTreeStore::ApplyUpdate honors — the pool must stay
          // memory-safe anyway (racing re-loads resolve as drops).
          pool.RekeyStore(stores[0], [](PageId p) { return p; });
          break;
        case 2:
          pool.SetBudgetBytes(32 << 10);
          break;
        default:
          pool.SetBudgetBytes(64 << 10);
          break;
      }
      std::this_thread::yield();
    }
  });

  for (auto& r : readers) r.join();
  stop.store(true);
  maintenance.join();

  EXPECT_GT(checkouts.load(), 0u);
  // No pins remain, so residency must respect the final (larger)
  // budget, and the counters must be internally consistent.
  BufferPoolStats st = pool.stats();
  EXPECT_LE(st.resident_bytes, 64u << 10);
  EXPECT_EQ(st.pinned_pages, 0u);
  EXPECT_EQ(st.hits + st.misses,
            static_cast<uint64_t>(kReaders + kScanReaders) * kOpsPerReader);
}

TEST(BufferPoolHammerTest, PoolCountersNeverRunBackwardsAcrossUnregister) {
  // A catalog closes a store while /stats reads the pool: the closed
  // store's counters must be counted exactly once at every read.
  BufferPool pool(BufferPoolOptions{.budget_bytes = 1 << 20, .shards = 4});
  constexpr int kStores = 300;
  constexpr PageId kPages = 16;
  std::atomic<bool> done{false};
  std::thread churn([&] {
    for (int i = 0; i < kStores; ++i) {
      StoreId s = pool.RegisterStore();
      for (PageId p = 0; p < kPages; ++p) MustInsert(pool, s, p, 64);
      pool.UnregisterStore(s);
    }
    done.store(true);
  });
  uint64_t last = 0;
  int backwards = 0;
  while (!done.load()) {
    const uint64_t loads = pool.stats().loads;
    if (loads < last) ++backwards;
    last = loads;
  }
  churn.join();
  EXPECT_EQ(backwards, 0);
  EXPECT_EQ(pool.stats().loads, static_cast<uint64_t>(kStores) * kPages);
}

}  // namespace
}  // namespace gmine::storage
