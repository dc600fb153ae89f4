// Kill-and-resume sweep for the restartable out-of-core PageRank
// (mining/pagescan_kernels.h): cancel the kernel at every page
// boundary of the first sweeps, resume each time from the emitted
// checkpoint, and require the resumed scores to be bit-identical to an
// uninterrupted run — plus buffer-pool coverage: the same kernel under
// a 1 MiB pool budget on a store far larger than that, and page scans
// that keep their pages and a navigator's leaf in a pool the store
// outgrows.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "gtree/navigation.h"
#include "gtree/store.h"
#include "gtree/stream_build.h"
#include "mining/pagerank.h"
#include "mining/pagescan_kernels.h"
#include "storage/buffer_pool.h"
#include "storage/page_scan.h"
#include "util/string_util.h"

namespace gmine::mining {
namespace {

struct Fixture {
  std::string edges_path;
  std::string store_path;
  std::unique_ptr<gtree::GTreeStore> store;
};

Fixture MakeStreamedStore(const char* name, uint32_t n, uint64_t m,
                          uint32_t leaf_size) {
  Fixture f;
  graph::Graph g = std::move(gen::ErdosRenyiM(n, m, 99)).value();
  std::string lines;
  for (uint32_t u = 0; u < g.num_nodes(); ++u) {
    for (const auto& arc : g.Neighbors(u)) {
      if (u < arc.id) lines += StrFormat("%u %u\n", u, arc.id);
    }
  }
  f.edges_path = std::string(::testing::TempDir()) + "/" + name + ".edges";
  f.store_path = std::string(::testing::TempDir()) + "/" + name + ".gtree";
  EXPECT_TRUE(graph::WriteStringToFile(lines, f.edges_path).ok());
  gtree::StreamBuildOptions options;
  options.leaf_size = leaf_size;
  EXPECT_TRUE(gtree::StreamBuildStore(f.edges_path, f.store_path, {},
                                      options, nullptr)
                  .ok());
  f.store = std::move(gtree::GTreeStore::Open(f.store_path)).value();
  return f;
}

void Cleanup(const Fixture& f) {
  std::remove(f.edges_path.c_str());
  std::remove(f.store_path.c_str());
}

TEST(OutOfCoreResumeTest, KillAtEveryPageBoundaryResumesBitIdentical) {
  Fixture f = MakeStreamedStore("oc_kill", 300, 1200, 32);
  auto scan = f.store->NewPageScan();
  ASSERT_TRUE(scan->complete_adjacency());
  const uint64_t pages = scan->pages_total();
  ASSERT_GT(pages, 3u);

  PageRankOverPagesOptions base;
  base.max_iterations = 20;
  auto uninterrupted = PageRankOverPages(*scan, base);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();

  // Kill after k pages for every k within the first two sweeps.
  for (uint64_t kill_after = 1; kill_after <= 2 * pages; ++kill_after) {
    scan->Reset();
    std::string checkpoint;
    uint64_t seen = 0;
    PageRankOverPagesOptions killed = base;
    killed.context.cancelled = [&]() { return seen >= kill_after; };
    killed.context.progress = [&](const KernelProgress& p) {
      seen = p.iteration * pages + p.pages_scanned;
    };
    killed.checkpoint_sink = [&](const std::string& bytes) {
      checkpoint = bytes;
      return Status::OK();
    };
    auto aborted = PageRankOverPages(*scan, killed);
    ASSERT_FALSE(aborted.ok()) << "kill_after=" << kill_after;
    ASSERT_TRUE(aborted.status().IsAborted()) << aborted.status().ToString();
    ASSERT_FALSE(checkpoint.empty()) << "kill_after=" << kill_after;

    scan->Reset();
    PageRankOverPagesOptions resumed = base;
    resumed.resume_from = checkpoint;
    auto result = PageRankOverPages(*scan, resumed);
    ASSERT_TRUE(result.ok())
        << "kill_after=" << kill_after << ": "
        << result.status().ToString();
    ASSERT_EQ(result.value().score.size(),
              uninterrupted.value().score.size());
    for (size_t v = 0; v < result.value().score.size(); ++v) {
      // Bit-identical, not just close: same page order, same float
      // operation sequence.
      EXPECT_EQ(std::memcmp(&result.value().score[v],
                            &uninterrupted.value().score[v],
                            sizeof(double)),
                0)
          << "kill_after=" << kill_after << " node " << v;
    }
    EXPECT_EQ(result.value().iterations, uninterrupted.value().iterations);
    EXPECT_EQ(result.value().converged, uninterrupted.value().converged);
  }
  Cleanup(f);
}

TEST(OutOfCoreResumeTest, PeriodicCheckpointsAlsoResumeExactly) {
  Fixture f = MakeStreamedStore("oc_periodic", 300, 1200, 32);
  auto scan = f.store->NewPageScan();

  PageRankOverPagesOptions base;
  base.max_iterations = 15;
  auto uninterrupted = PageRankOverPages(*scan, base);
  ASSERT_TRUE(uninterrupted.ok());

  scan->Reset();
  std::vector<std::string> checkpoints;
  PageRankOverPagesOptions periodic = base;
  periodic.checkpoint_every_pages = 3;
  periodic.checkpoint_sink = [&](const std::string& bytes) {
    checkpoints.push_back(bytes);
    return Status::OK();
  };
  auto full = PageRankOverPages(*scan, periodic);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(checkpoints.size(), 2u);

  // Resuming from any periodic checkpoint finishes with the same bits.
  for (size_t i = 0; i < checkpoints.size(); i += 5) {
    scan->Reset();
    PageRankOverPagesOptions resumed = base;
    resumed.resume_from = checkpoints[i];
    auto result = PageRankOverPages(*scan, resumed);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().score, uninterrupted.value().score)
        << "checkpoint " << i;
  }
  Cleanup(f);
}

TEST(OutOfCoreResumeTest, CheckpointRejectedOnOptionOrStoreMismatch) {
  Fixture f = MakeStreamedStore("oc_reject", 200, 800, 32);
  auto scan = f.store->NewPageScan();

  std::string checkpoint;
  uint64_t pages_seen = 0;
  PageRankOverPagesOptions killed;
  killed.context.cancelled = [&]() { return pages_seen >= 2; };
  killed.context.progress = [&](const KernelProgress& p) {
    pages_seen = p.pages_scanned;
  };
  killed.checkpoint_sink = [&](const std::string& bytes) {
    checkpoint = bytes;
    return Status::OK();
  };
  ASSERT_TRUE(PageRankOverPages(*scan, killed).status().IsAborted());
  ASSERT_FALSE(checkpoint.empty());

  // Different damping -> different options hash -> rejected.
  scan->Reset();
  PageRankOverPagesOptions wrong_options;
  wrong_options.damping = 0.5;
  wrong_options.resume_from = checkpoint;
  auto r1 = PageRankOverPages(*scan, wrong_options);
  ASSERT_FALSE(r1.ok());
  EXPECT_TRUE(r1.status().IsInvalidArgument()) << r1.status().ToString();

  // Truncated blob -> rejected.
  scan->Reset();
  PageRankOverPagesOptions truncated;
  truncated.resume_from = checkpoint.substr(0, checkpoint.size() / 2);
  auto r2 = PageRankOverPages(*scan, truncated);
  ASSERT_FALSE(r2.ok());
  EXPECT_TRUE(r2.status().IsInvalidArgument());

  // A checkpoint minted against a different store -> rejected (the
  // scan token's fingerprint differs).
  Fixture other = MakeStreamedStore("oc_reject_other", 200, 801, 32);
  auto other_scan = other.store->NewPageScan();
  PageRankOverPagesOptions foreign;
  foreign.resume_from = checkpoint;
  auto r3 = PageRankOverPages(*other_scan, foreign);
  ASSERT_FALSE(r3.ok());
  EXPECT_TRUE(r3.status().IsInvalidArgument()) << r3.status().ToString();
  Cleanup(other);
  Cleanup(f);
}

TEST(OutOfCoreResumeTest, KernelRunsUnderOneMebibytePoolBudget) {
  // Backpressure: a 1 MiB pool budget on a store with hundreds of
  // pages. Every page is checked out one at a time, so the kernel
  // completes — and completes correctly — while the pool stays at its
  // budget and keeps evicting.
  storage::BufferPool& pool = storage::BufferPool::Global();
  const uint64_t old_budget = pool.stats().budget_bytes;
  pool.SetBudgetBytes(1 << 20);

  Fixture f = MakeStreamedStore("oc_pressure", 4000, 20000, 16);
  auto scan = f.store->NewPageScan();
  ASSERT_GT(scan->pages_total(), 100u);

  auto pr_pages = PageRankOverPages(*scan);
  ASSERT_TRUE(pr_pages.ok()) << pr_pages.status().ToString();

  auto materialized = f.store->MaterializeFullGraph();
  ASSERT_TRUE(materialized.ok());
  PageRankResult pr_mem = ComputePageRank(materialized.value());
  ASSERT_EQ(pr_pages.value().score.size(), pr_mem.score.size());
  for (size_t v = 0; v < pr_mem.score.size(); ++v) {
    EXPECT_NEAR(pr_pages.value().score[v], pr_mem.score[v], 1e-7);
  }

  const storage::BufferPoolStats stats = pool.stats();
  EXPECT_LE(stats.resident_bytes, stats.budget_bytes);
  pool.SetBudgetBytes(old_budget);
  Cleanup(f);
}

TEST(OutOfCoreResumeTest, PageRankKeepsItsPagesAndTheNavigatorsLeaf) {
  Fixture f = MakeStreamedStore("oc_scan", 4000, 20000, 16);
  // The store's page bytes, from one walk under an unbounded pool.
  uint64_t page_bytes = 0;
  {
    storage::BufferPool probe(
        storage::BufferPoolOptions{.budget_bytes = 0, .shards = 1});
    gtree::GTreeStoreOptions sopts;
    sopts.buffer_pool = &probe;
    auto store = std::move(gtree::GTreeStore::Open(f.store_path, sopts))
                     .value();
    for (gtree::TreeNodeId leaf :
         store->tree().LeavesUnder(store->tree().root())) {
      ASSERT_TRUE(store->LoadLeaf(leaf).ok());
    }
    page_bytes = probe.stats().resident_bytes;
  }
  // A one-shard pool the pages outgrow 1.4 times.
  storage::BufferPool pool(storage::BufferPoolOptions{
      .budget_bytes = page_bytes * 5 / 7, .shards = 1});
  gtree::GTreeStoreOptions sopts;
  sopts.buffer_pool = &pool;
  auto store =
      std::move(gtree::GTreeStore::Open(f.store_path, sopts)).value();

  gtree::NavigationSession nav(store.get());
  ASSERT_TRUE(nav.FocusGraphNode(0).ok());
  ASSERT_TRUE(nav.LoadFocusSubgraph().ok());  // the pin drops here
  const gtree::TreeNodeId nav_leaf = nav.focus();
  ASSERT_TRUE(store->IsCached(nav_leaf));

  auto first_scan = store->NewPageScan();
  auto first = PageRankOverPages(*first_scan);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(store->IsCached(nav_leaf));

  const storage::BufferPoolStats before = pool.stats();
  auto second_scan = store->NewPageScan();
  auto second = PageRankOverPages(*second_scan);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(store->IsCached(nav_leaf));
  const storage::BufferPoolStats after = pool.stats();
  // Most of the second run's page visits hit: the pool holds 5/7 of
  // the pages, and every sweep keeps the ones it holds.
  const uint64_t visits = static_cast<uint64_t>(second.value().iterations) *
                          second_scan->pages_total();
  EXPECT_GT(2 * (after.hits - before.hits), visits);
  EXPECT_EQ(after.hits + after.loads - before.hits - before.loads, visits);
  EXPECT_LE(after.resident_bytes, after.budget_bytes);

  ASSERT_EQ(first.value().iterations, second.value().iterations);
  ASSERT_EQ(first.value().score.size(), second.value().score.size());
  EXPECT_EQ(std::memcmp(first.value().score.data(),
                        second.value().score.data(),
                        first.value().score.size() * sizeof(double)),
            0);
  Cleanup(f);
}

}  // namespace
}  // namespace gmine::mining
