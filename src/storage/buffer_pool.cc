#include "storage/buffer_pool.h"

#include <algorithm>

#include "util/parallel.h"
#include "util/string_util.h"

namespace gmine::storage {

namespace {

// A shard slice smaller than this caches so few pages it devolves into
// bypasses; auto shard counts are clamped so every slice stays useful.
constexpr uint64_t kMinShardBudget = 256 * 1024;

// Frames a scan insert examines on each ring before it reads the page
// privately: a constant, so a private read never walks the whole ring.
constexpr size_t kScanEvictSteps = 8;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

size_t BufferPool::FrameKeyHash::operator()(const FrameKey& k) const {
  return static_cast<size_t>(SplitMix64(k.store * 0x9e3779b97f4a7c15ull +
                                        SplitMix64(k.page)));
}

BufferPool::BufferPool(const BufferPoolOptions& options) {
  budget_bytes_ = options.budget_bytes;
  size_t num_shards = options.shards;
  if (num_shards == 0) {
    num_shards = std::min<size_t>(16, static_cast<size_t>(MaxParallelism()));
    if (options.budget_bytes > 0) {
      num_shards = std::min<size_t>(
          num_shards,
          std::max<uint64_t>(1, options.budget_bytes / kMinShardBudget));
    }
  }
  num_shards = std::max<size_t>(1, num_shards);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  RearmShardBudgets();
}

BufferPool& BufferPool::Global() {
  // Leaked on purpose: stores may still unregister during static
  // teardown, so the pool must outlive every static store.
  static BufferPool* pool = new BufferPool();
  return *pool;
}

StoreId BufferPool::RegisterStore() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  ++registered_stores_;
  return next_store_id_++;
}

void BufferPool::UnregisterStore(StoreId store) {
  DropStore(store);
  // The counters move to retired_ under registry_mu_, which stats()
  // holds across its shard walk too, so no reader sees them twice or
  // not at all.
  std::lock_guard<std::mutex> registry(registry_mu_);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    auto it = shard->stats.find(store);
    if (it == shard->stats.end()) continue;
    retired_ += it->second;
    shard->stats.erase(it);
  }
  if (registered_stores_ > 0) --registered_stores_;
}

PagePayload BufferPool::Lookup(StoreId store, PageId page, uint64_t reader,
                              ScanId scan) {
  Shard& shard = ShardFor(store, page);
  std::lock_guard<std::mutex> lock(shard.mu);
  BufferPoolCounters& c = shard.stats[store];
  auto it = shard.frames.find(FrameKey{store, page});
  if (it == shard.frames.end()) {
    ++c.misses;
    return nullptr;
  }
  Frame& f = it->second;
  TouchLocked(shard, f, scan);
  ++c.hits;
  if (f.loader != reader) ++c.shared_hits;
  return f.payload;
}

void BufferPool::TouchLocked(Shard& shard, Frame& f, ScanId scan) {
  if (scan == kNoScan) {
    if (f.scan != kNoScan) {
      // Promotion: someone other than a scan wants this page.
      shard.ring.splice(shard.ring.end(), shard.scan_ring, f.pos);
      f.scan = kNoScan;
    }
    f.referenced = true;
  } else if (f.scan != kNoScan) {
    // Re-tag: this scan keeps the page for its next sweep.
    f.scan = scan;
    shard.scan_ring.splice(shard.scan_ring.end(), shard.scan_ring, f.pos);
  }
}

void BufferPool::AddFrameLocked(Shard& shard, const FrameKey& key, Frame f) {
  std::list<FrameKey>& ring =
      f.scan == kNoScan ? shard.ring : shard.scan_ring;
  ring.push_back(key);
  f.pos = std::prev(ring.end());
  shard.resident += f.bytes;
  shard.frames.emplace(key, std::move(f));
  if (shard.hand == shard.ring.end()) shard.hand = shard.ring.begin();
}

void BufferPool::RemoveFrameLocked(
    Shard& shard,
    std::unordered_map<FrameKey, Frame, FrameKeyHash>::iterator it) {
  if (it->second.scan != kNoScan) {
    shard.scan_ring.erase(it->second.pos);
  } else {
    if (shard.hand == it->second.pos) {
      ++shard.hand;
      if (shard.hand == shard.ring.end()) shard.hand = shard.ring.begin();
    }
    shard.ring.erase(it->second.pos);
    if (shard.ring.empty()) shard.hand = shard.ring.end();
  }
  shard.resident -= it->second.bytes;
  shard.frames.erase(it);
}

void BufferPool::EvictForLocked(Shard& shard, uint64_t need) {
  if (shard.budget == 0) return;
  // Scan frames go first, least recently scanned first: their scan
  // comes back for them a sweep later at the soonest. Only a scan's
  // in-flight pages are pinned, so this walk stays short.
  for (auto pos = shard.scan_ring.begin();
       shard.resident + need > shard.budget && pos != shard.scan_ring.end();) {
    auto it = shard.frames.find(*pos++);
    if (Pinned(it->second)) continue;
    ++shard.stats[it->first.store].evictions;
    RemoveFrameLocked(shard, it);
  }
  // Bounded sweep: every frame's ref bit can be cleared once and the
  // frame revisited once, so two laps (plus slack) reach every
  // evictable frame.
  size_t steps = 2 * shard.ring.size() + 2;
  while (shard.resident + need > shard.budget && !shard.ring.empty() &&
         steps-- > 0) {
    if (shard.hand == shard.ring.end()) shard.hand = shard.ring.begin();
    auto it = shard.frames.find(*shard.hand);
    Frame& f = it->second;
    if (Pinned(f)) {
      ++shard.hand;
      continue;
    }
    if (f.referenced) {
      f.referenced = false;
      ++shard.hand;
      continue;
    }
    ++shard.stats[it->first.store].evictions;
    RemoveFrameLocked(shard, it);
  }
}

bool BufferPool::EvictForScanLocked(Shard& shard, uint64_t need,
                                    ScanId scan) {
  if (shard.budget == 0) return true;
  // Pages other scans left behind, least recently scanned first...
  size_t steps = kScanEvictSteps;
  for (auto pos = shard.scan_ring.begin();
       shard.resident + need > shard.budget &&
       pos != shard.scan_ring.end() && steps-- > 0;) {
    auto it = shard.frames.find(*pos++);
    if (Pinned(it->second) || it->second.scan == scan) continue;
    ++shard.stats[it->first.store].evictions;
    RemoveFrameLocked(shard, it);
  }
  // ...then ordinary frames whose ref bit is already clear. The shared
  // hand moves on but clears no bit, so a navigator's page survives
  // any number of sweeps.
  steps = kScanEvictSteps;
  while (shard.resident + need > shard.budget && !shard.ring.empty() &&
         steps-- > 0) {
    if (shard.hand == shard.ring.end()) shard.hand = shard.ring.begin();
    auto it = shard.frames.find(*shard.hand);
    if (Pinned(it->second) || it->second.referenced) {
      ++shard.hand;
      continue;
    }
    ++shard.stats[it->first.store].evictions;
    RemoveFrameLocked(shard, it);
  }
  return shard.resident + need <= shard.budget;
}

bool BufferPool::MakeRoomLocked(Shard& shard, uint64_t need, ScanId scan) {
  if (scan != kNoScan) return EvictForScanLocked(shard, need, scan);
  EvictForLocked(shard, need);
  return shard.budget == 0 || shard.resident + need <= shard.budget;
}

gmine::Result<PagePayload> BufferPool::Insert(StoreId store, PageId page,
                                              PagePayload payload,
                                              uint64_t bytes,
                                              uint64_t reader, ScanId scan) {
  Shard& shard = ShardFor(store, page);
  std::lock_guard<std::mutex> lock(shard.mu);
  BufferPoolCounters& c = shard.stats[store];
  const FrameKey key{store, page};
  auto existing = shard.frames.find(key);
  if (existing != shard.frames.end()) {
    // Lost the insert race; this call still paid the disk read, so it
    // counts as a load and not also a hit — hits + loads stays equal
    // to the number of page requests.
    ++c.loads;
    c.bytes_loaded += bytes;
    TouchLocked(shard, existing->second, scan);
    return existing->second.payload;
  }
  if (shard.budget > 0 && bytes > shard.budget) {
    // Can never fit, even into an empty shard: hand the page to the
    // caller uncached instead of evicting everyone else for nothing.
    ++c.loads;
    c.bytes_loaded += bytes;
    ++c.bypasses;
    return payload;
  }
  if (!MakeRoomLocked(shard, bytes, scan)) {
    if (scan != kNoScan) {
      // Nothing this scan may evict: it reads the page privately and
      // keeps the pages it already holds.
      ++c.loads;
      c.bytes_loaded += bytes;
      ++c.private_reads;
      return payload;
    }
    // Everything still resident is pinned: refuse rather than break
    // the budget. The caller releases pages and retries.
    ++c.backpressure;
    return Status::Aborted(
        StrFormat("buffer pool: byte budget exhausted (%llu of %llu bytes "
                  "pinned in shard); release pages or raise the budget",
                  static_cast<unsigned long long>(shard.resident),
                  static_cast<unsigned long long>(shard.budget)));
  }
  ++c.loads;
  c.bytes_loaded += bytes;
  Frame f;
  f.payload = payload;
  f.bytes = bytes;
  f.loader = reader;
  f.referenced = scan == kNoScan;
  f.scan = scan;
  AddFrameLocked(shard, key, std::move(f));
  return payload;
}

bool BufferPool::Contains(StoreId store, PageId page) const {
  Shard& shard = ShardFor(store, page);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.frames.count(FrameKey{store, page}) > 0;
}

size_t BufferPool::DropStore(StoreId store) {
  size_t dropped = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->frames.begin(); it != shard->frames.end();) {
      if (it->first.store != store) {
        ++it;
        continue;
      }
      auto victim = it++;
      RemoveFrameLocked(*shard, victim);
      ++dropped;
    }
  }
  if (dropped > 0) {
    // The per-store ledger is sharded; account the drops on shard 0.
    std::lock_guard<std::mutex> lock(shards_[0]->mu);
    shards_[0]->stats[store].invalidations += dropped;
  }
  return dropped;
}

size_t BufferPool::RekeyStore(StoreId store,
                              const std::function<PageId(PageId)>& remap) {
  // Extract every frame of this store (the caller excludes its
  // readers, so no Lookup for `store` races this walk), then reinsert
  // the survivors under their new keys — which may live on different
  // shards.
  std::vector<std::pair<PageId, Frame>> moved;
  size_t dropped = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->frames.begin(); it != shard->frames.end();) {
      if (it->first.store != store) {
        ++it;
        continue;
      }
      PageId new_page = remap(it->first.page);
      if (new_page != kInvalidPage) {
        moved.emplace_back(new_page, std::move(it->second));
      } else {
        ++dropped;
      }
      auto victim = it++;
      RemoveFrameLocked(*shard, victim);
    }
  }
  for (auto& [page, frame] : moved) {
    Shard& shard = ShardFor(store, page);
    std::lock_guard<std::mutex> lock(shard.mu);
    const FrameKey key{store, page};
    if (shard.frames.count(key) > 0) {
      // Someone re-loaded this page under its new id between the
      // extraction and this reinsert (contract violation, but stay
      // memory-safe): keep the resident copy, drop the moved one.
      ++dropped;
      continue;
    }
    if (!MakeRoomLocked(shard, frame.bytes, frame.scan)) {
      // The new shard's slice has no room this frame's tag may take;
      // dropping a clean frame only costs a reload later.
      ++dropped;
      continue;
    }
    AddFrameLocked(shard, key, std::move(frame));
  }
  if (dropped > 0) {
    std::lock_guard<std::mutex> lock(shards_[0]->mu);
    shards_[0]->stats[store].invalidations += dropped;
  }
  return dropped;
}

void BufferPool::RearmShardBudgets() {
  uint64_t budget;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    budget = budget_bytes_;
  }
  const size_t n = shards_.size();
  const uint64_t base = budget / n;
  const uint64_t remainder = budget % n;
  for (size_t i = 0; i < n; ++i) {
    Shard& shard = *shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.budget = budget == 0 ? 0 : base + (i < remainder ? 1 : 0);
    EvictForLocked(shard, 0);
  }
}

void BufferPool::SetBudgetBytes(uint64_t budget_bytes) {
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    budget_bytes_ = budget_bytes;
  }
  RearmShardBudgets();
}

uint64_t BufferPool::budget_bytes() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return budget_bytes_;
}

BufferPoolCounters& BufferPoolCounters::operator+=(
    const BufferPoolCounters& o) {
  hits += o.hits;
  shared_hits += o.shared_hits;
  misses += o.misses;
  loads += o.loads;
  bytes_loaded += o.bytes_loaded;
  evictions += o.evictions;
  invalidations += o.invalidations;
  bypasses += o.bypasses;
  backpressure += o.backpressure;
  private_reads += o.private_reads;
  return *this;
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats total;
  // registry_mu_ before any shard latch, the one order anywhere: see
  // UnregisterStore.
  std::lock_guard<std::mutex> registry(registry_mu_);
  total += retired_;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [store, c] : shard->stats) total += c;
    for (const auto& [key, frame] : shard->frames) {
      total.resident_bytes += frame.bytes;
      ++total.resident_pages;
      if (Pinned(frame)) {
        total.pinned_bytes += frame.bytes;
        ++total.pinned_pages;
      }
    }
  }
  total.budget_bytes = budget_bytes_;
  total.shards = shards_.size();
  total.stores = registered_stores_;
  return total;
}

BufferPoolStoreStats BufferPool::store_stats(StoreId store) const {
  BufferPoolStoreStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    auto it = shard->stats.find(store);
    if (it != shard->stats.end()) total += it->second;
    for (const auto& [key, frame] : shard->frames) {
      if (key.store != store) continue;
      total.resident_bytes += frame.bytes;
      ++total.resident_pages;
      if (Pinned(frame)) {
        total.pinned_bytes += frame.bytes;
        ++total.pinned_pages;
      }
    }
  }
  return total;
}

}  // namespace gmine::storage
