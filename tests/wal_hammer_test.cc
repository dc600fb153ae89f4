// Concurrency hammer for the group-commit path (docs/WAL.md): several
// writer threads Submit() edits while navigating sessions read through
// the pool, across dozens of group commits. Built for the TSan job in
// the CI sanitizer matrix — the assertions here are secondary to the
// data-race coverage of EditQueue's committer against Submit/Drain,
// the engine's epoch publish, and the session pool.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/edit_queue.h"
#include "core/engine.h"
#include "core/session_manager.h"
#include "gen/dblp.h"
#include "util/rng.h"

namespace gmine {
namespace {

using core::EditQueue;
using core::EditQueueOptions;
using core::EngineOptions;
using core::GMineEngine;

constexpr int kWriters = 4;
constexpr int kEditsPerWriter = 30;
constexpr int kNavigators = 2;

TEST(WalHammerTest, ConcurrentWritersAndNavigators) {
  gen::DblpOptions gopts;
  gopts.levels = 2;
  gopts.fanout = 3;
  gopts.leaf_size = 30;
  gopts.seed = 21;
  gen::DblpGraph dblp = std::move(gen::GenerateDblp(gopts)).value();
  const uint32_t n = dblp.graph.num_nodes();

  const std::string store =
      std::string(::testing::TempDir()) + "/wal_hammer.gtree";
  std::remove((store + ".wal").c_str());
  EngineOptions opts;
  opts.build.levels = 2;
  opts.build.fanout = 3;
  opts.wal.enabled = true;
  auto built = GMineEngine::Build(dblp.graph, dblp.labels, store, opts);
  ASSERT_TRUE(built.ok());
  GMineEngine& engine = *built.value();

  // Small groups force many commits (>= 120/4 = 30 group barriers).
  EditQueueOptions qopts;
  qopts.max_group_edits = 4;
  EditQueue queue(&engine, qopts);
  const uint64_t remap_epoch = queue.tip().remap_epoch;

  std::atomic<bool> done{false};
  std::atomic<int> committed{0};
  std::atomic<int> failures{0};

  // Writers: edge-only edits (ids and tree membership stay stable, so
  // navigators never race a renumbering) built over the constant base.
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(1000 + w);
      std::vector<std::future<core::EditCommit>> futures;
      for (int i = 0; i < kEditsPerWriter; ++i) {
        graph::GraphEdit edit(n);
        const auto u = static_cast<graph::NodeId>(rng.Uniform(n));
        auto v = static_cast<graph::NodeId>(rng.Uniform(n));
        if (u == v) v = (v + 1) % n;
        if (rng.Bernoulli(0.7)) {
          edit.AddEdge(u, v, 1.0f + static_cast<float>(rng.Uniform(4)));
        } else {
          edit.RemoveEdge(u, v);
        }
        auto fut = queue.Submit(std::move(edit), remap_epoch);
        if (!fut.ok()) {
          ++failures;
          continue;
        }
        futures.push_back(std::move(fut).value());
      }
      for (auto& f : futures) {
        core::EditCommit commit = f.get();
        if (commit.status.ok()) {
          ++committed;
        } else {
          ++failures;
        }
      }
    });
  }

  // Navigators: each opens its own pool session and walks the tree
  // while groups publish epoch bumps underneath it.
  std::vector<std::thread> navigators;
  std::atomic<int> nav_errors{0};
  std::atomic<uint64_t> nav_ops{0};
  for (int t = 0; t < kNavigators; ++t) {
    navigators.emplace_back([&, t] {
      auto sid = engine.sessions().OpenSession();
      if (!sid.ok()) {
        ++nav_errors;
        return;
      }
      Rng rng(77 + t);
      while (!done.load(std::memory_order_relaxed)) {
        Status st = engine.sessions().WithSession(
            sid.value(), [&](gtree::NavigationSession& nav) {
              GMINE_RETURN_IF_ERROR(nav.FocusRoot());
              // Random walk a few levels down, loading leaf payloads.
              for (int d = 0; d < 3; ++d) {
                if (!nav.FocusChild(rng.Uniform(3)).ok()) break;
              }
              auto payload = nav.LoadFocusSubgraph();
              if (payload.ok()) {
                nav_ops += payload.value()->subgraph.graph.num_nodes();
              }
              return Status::OK();
            });
        if (!st.ok()) ++nav_errors;
        ++nav_ops;
      }
      (void)engine.sessions().CloseSession(sid.value());
    });
  }

  for (std::thread& w : writers) w.join();
  queue.Drain();
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : navigators) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(committed.load(), kWriters * kEditsPerWriter);
  EXPECT_EQ(nav_errors.load(), 0);
  EXPECT_GT(nav_ops.load(), 0u);

  core::EditQueueStats qstats = queue.stats();
  EXPECT_EQ(qstats.committed, static_cast<uint64_t>(kWriters * kEditsPerWriter));
  EXPECT_GE(qstats.groups, 20u);  // the barrier actually exercised
  queue.Stop();

  // The WAL agrees with the commit count.
  ASSERT_NE(engine.wal(), nullptr);
  EXPECT_EQ(engine.wal()->next_lsn(),
            static_cast<uint64_t>(kWriters * kEditsPerWriter) + 1);

  built.value().reset();
  std::remove(store.c_str());
  std::remove((store + ".wal").c_str());
}

}  // namespace
}  // namespace gmine
