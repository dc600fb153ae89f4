// WAL group-commit sweep (docs/WAL.md): one fdatasync barrier and one
// incremental repair serve a whole group, so edit throughput must rise
// nearly linearly with batch depth while per-edit latency falls. The
// acceptance bar for the subsystem is >= 5x the serial (depth-1)
// throughput at depth 8.
//
// BM_WalGroupCommit (arg = burst depth) feeds the "wal_group_commit"
// sweep of BENCH_kernels.json via tools/run_benches.sh.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/edit_queue.h"
#include "core/engine.h"
#include "util/timer.h"

namespace {

using namespace gmine;  // NOLINT
using bench::CachedDblp;

constexpr uint32_t kLevels = 2;
constexpr uint32_t kFanout = 5;
constexpr uint32_t kLeafSize = 60;  // 5^2 * 60 = 1,500 nodes

// One persistent engine + queue per burst depth. Each iteration toggles
// `depth` distinct cross-leaf edges (submitted as one burst, awaited
// together), so the store stays bounded, every record is a real edit,
// and no group-barrier rule (remove-then-re-add) ever splits a burst.
struct WalBench {
  std::unique_ptr<core::GMineEngine> engine;
  std::unique_ptr<core::EditQueue> queue;
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  std::vector<bool> present;
  size_t cursor = 0;
  std::string path;
};

std::string BenchStorePath(int64_t depth) {
  return StrFormat("/tmp/gmine_bm_wal_%lld.gtree",
                   static_cast<long long>(depth));
}

WalBench* GetWalBench(int64_t depth) {
  static std::map<int64_t, WalBench> cache;
  auto it = cache.find(depth);
  if (it != cache.end()) return &it->second;

  const gen::DblpGraph& data = CachedDblp(kLevels, kFanout, kLeafSize);
  WalBench bench;
  bench.path = BenchStorePath(depth);
  std::remove((bench.path + ".wal").c_str());
  core::EngineOptions opts;
  opts.build.levels = kLevels;
  opts.build.fanout = kFanout;
  opts.wal.enabled = true;
  auto engine =
      core::GMineEngine::Build(data.graph, data.labels, bench.path, opts);
  if (!engine.ok()) return nullptr;
  bench.engine = std::move(engine).value();
  core::EditQueueOptions qopts;
  qopts.max_group_edits = static_cast<size_t>(depth);
  bench.queue = std::make_unique<core::EditQueue>(bench.engine.get(), qopts);

  // A pool of absent cross-leaf pairs, each toggled independently.
  const gtree::GTree& tree = bench.engine->tree();
  const uint32_t n = data.graph.num_nodes();
  for (graph::NodeId u = 0; bench.pairs.size() < 64 && u < n; u += 17) {
    for (graph::NodeId v = u + 1; v < n; ++v) {
      if (tree.LeafOf(v) != tree.LeafOf(u) && !data.graph.HasEdge(u, v)) {
        bench.pairs.emplace_back(u, v);
        break;
      }
    }
  }
  bench.present.assign(bench.pairs.size(), false);
  auto [pos, _] = cache.emplace(depth, std::move(bench));
  return &pos->second;
}

// Submits one burst of `depth` edits and waits for every ack. Returns
// false on any commit failure.
bool RunBurst(WalBench* bench, size_t depth) {
  const core::EditTip tip = bench->queue->tip();
  std::vector<std::future<core::EditCommit>> acks;
  acks.reserve(depth);
  for (size_t j = 0; j < depth; ++j) {
    const size_t p = bench->cursor++ % bench->pairs.size();
    graph::GraphEdit edit(tip.nodes);
    if (bench->present[p]) {
      edit.RemoveEdge(bench->pairs[p].first, bench->pairs[p].second);
    } else {
      edit.AddEdge(bench->pairs[p].first, bench->pairs[p].second, 2.0f);
    }
    bench->present[p] = !bench->present[p];
    auto fut = bench->queue->Submit(std::move(edit), tip.remap_epoch);
    if (!fut.ok()) return false;
    acks.push_back(std::move(fut).value());
  }
  for (auto& ack : acks) {
    if (!ack.get().status.ok()) return false;
  }
  return true;
}

void BM_WalGroupCommit(benchmark::State& state) {
  WalBench* bench = GetWalBench(state.range(0));
  if (bench == nullptr || bench->engine == nullptr ||
      bench->pairs.empty()) {
    state.SkipWithError("bench engine setup failed");
    return;
  }
  const auto depth = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    if (!RunBurst(bench, depth)) {
      state.SkipWithError("group commit failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(depth));
  state.counters["edits_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(depth),
      benchmark::Counter::kIsRate);
}

// UseRealTime: the submitting thread sleeps while the committer does
// the work, so CPU time would undercount the commit path wildly.
BENCHMARK(BM_WalGroupCommit)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime()
    ->MinTime(0.05);

void PrintReport() {
  bench::ReportHeader(
      "WAL group commit (docs/WAL.md)",
      "one fsync + one repair per group amortizes the commit cost over "
      "the batch; depth-8 throughput must be >= 5x serial");
  std::printf("%-8s %14s %16s %12s\n", "depth", "commit us/edit",
              "edits/sec", "vs depth 1");
  double base_rate = 0.0;
  for (int64_t depth : {int64_t{1}, int64_t{2}, int64_t{4}, int64_t{8},
                        int64_t{16}}) {
    WalBench* bench = GetWalBench(depth);
    if (bench == nullptr || bench->engine == nullptr ||
        bench->pairs.empty()) {
      continue;
    }
    constexpr int kBursts = 12;
    StopWatch watch;
    for (int r = 0; r < kBursts; ++r) {
      if (!RunBurst(bench, static_cast<size_t>(depth))) break;
    }
    const double micros = static_cast<double>(watch.ElapsedMicros());
    const double edits = static_cast<double>(kBursts * depth);
    const double per_edit = micros / edits;
    const double rate = edits / (micros / 1e6);
    if (depth == 1) base_rate = rate;
    std::printf("%-8lld %12.1fus %16.0f %11.1fx\n",
                static_cast<long long>(depth), per_edit, rate,
                base_rate > 0 ? rate / base_rate : 0.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (gmine::bench::ShouldPrintReport()) PrintReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  for (int64_t depth : {int64_t{1}, int64_t{2}, int64_t{4}, int64_t{8},
                        int64_t{16}}) {
    std::remove(BenchStorePath(depth).c_str());
    std::remove((BenchStorePath(depth) + ".wal").c_str());
  }
  return 0;
}
