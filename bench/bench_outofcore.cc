// Out-of-core PageRank sweep (docs/OUTOFCORE.md): the page-at-a-time
// kernel over a streamed store many times larger than the buffer-pool
// budget it runs under. The paper-facing claim: mining completes on a
// graph that never materializes, the pool's resident set stays at or
// below the configured budget while the store is >= 10x larger, and
// the process's peak RSS is recorded alongside so the sweep is honest
// about total footprint (pool + O(n) rank vectors + code). The fixture
// is built in a forked child, so that peak is the kernel's and not the
// build's. Feeds the "outofcore_pagerank" entry of BENCH_kernels.json
// via tools/run_benches.sh (columns: budget_bytes, graph_bytes,
// peak_rss, pool_resident_bytes, hit_rate = pool hits / page visits);
// tools/check_bench_json.sh gates graph_bytes >= 10x budget_bytes,
// pool_resident_bytes <= budget_bytes and peak_rss <= budget_bytes +
// the allowance docs/OUTOFCORE.md documents.
//
// The sweep argument is the pool budget in MiB.

#include <benchmark/benchmark.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "bench_common.h"
#include "gen/generators.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "gtree/store.h"
#include "gtree/stream_build.h"
#include "mining/pagescan_kernels.h"
#include "storage/buffer_pool.h"
#include "storage/page_scan.h"
#include "util/string_util.h"

namespace {

using namespace gmine;  // NOLINT

/// Large enough that the store file dwarfs the sweep's budgets (the
/// check script gates >= 10x), small enough that the one-time streamed
/// build finishes in seconds.
constexpr uint32_t kNodes = 300000;
constexpr uint64_t kEdges = 1500000;

uint64_t PeakRssBytes() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
}

/// Writes the fixture's edge list and stream-builds it into `path`.
bool BuildFixture(const std::string& path) {
  const std::string edges = "/tmp/gmine_bm_outofcore.edges";
  graph::Graph g = std::move(gen::ErdosRenyiM(kNodes, kEdges, 4242)).value();
  std::string lines;
  lines.reserve(kEdges * 14);
  for (uint32_t u = 0; u < g.num_nodes(); ++u) {
    for (const auto& arc : g.Neighbors(u)) {
      if (u < arc.id) lines += StrFormat("%u %u\n", u, arc.id);
    }
  }
  if (!graph::WriteStringToFile(lines, edges).ok()) {
    std::fprintf(stderr, "bench_outofcore: cannot write %s\n",
                 edges.c_str());
    return false;
  }
  gtree::StreamBuildOptions options;
  Status st = gtree::StreamBuildStore(edges, path, {}, options, nullptr);
  std::remove(edges.c_str());
  if (!st.ok()) {
    std::fprintf(stderr, "bench_outofcore: %s\n", st.ToString().c_str());
    return false;
  }
  return true;
}

constexpr char kStorePath[] = "/tmp/gmine_bm_outofcore.gtree";

/// Builds the streamed store once per process, in a forked child: the
/// in-memory graph and edge list the build needs never count toward
/// this process's peak RSS. The child forks before this process has
/// started any thread.
const char* StorePath() {
  static const bool built = [] {
    const pid_t child = fork();
    if (child == 0) _exit(BuildFixture(kStorePath) ? 0 : 1);
    int status = 0;
    return child > 0 && waitpid(child, &status, 0) == child &&
           WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }();
  if (!built) {
    std::fprintf(stderr, "bench_outofcore: fixture build failed\n");
    std::exit(1);
  }
  return kStorePath;
}

void BM_OutOfCorePageRank(benchmark::State& state) {
  const uint64_t budget_bytes = static_cast<uint64_t>(state.range(0)) << 20;
  const uint64_t graph_bytes = std::filesystem::file_size(StorePath());

  storage::BufferPool pool(
      storage::BufferPoolOptions{.budget_bytes = budget_bytes});
  gtree::GTreeStoreOptions sopts;
  sopts.buffer_pool = &pool;
  auto store = gtree::GTreeStore::Open(StorePath(), sopts);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    std::exit(1);
  }
  auto scan = store.value()->NewPageScan();

  uint64_t pool_resident_peak = 0;
  const storage::BufferPoolStats before = pool.stats();
  for (auto _ : state) {
    scan->Reset();
    mining::PageRankOverPagesOptions options;
    options.max_iterations = 3;  // fixed sweep count: stable ns/op
    auto r = mining::PageRankOverPages(*scan, options);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      std::exit(1);
    }
    benchmark::DoNotOptimize(r.value().score.data());
    pool_resident_peak =
        std::max(pool_resident_peak, pool.stats().resident_bytes);
  }
  state.counters["budget_bytes"] = static_cast<double>(budget_bytes);
  state.counters["graph_bytes"] = static_cast<double>(graph_bytes);
  state.counters["peak_rss"] = static_cast<double>(PeakRssBytes());
  state.counters["pool_resident_bytes"] =
      static_cast<double>(pool_resident_peak);
  const storage::BufferPoolStats after = pool.stats();
  const uint64_t hits = after.hits - before.hits;
  const uint64_t visits = hits + after.loads - before.loads;
  state.counters["hit_rate"] =
      visits > 0 ? static_cast<double>(hits) / static_cast<double>(visits)
                 : 0.0;
}

BENCHMARK(BM_OutOfCorePageRank)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

/// Paper-facing report: one line per budget proving the store-to-budget
/// ratio and the bounded resident set.
void PrintReport() {
  const uint64_t graph_bytes = std::filesystem::file_size(StorePath());
  std::printf("out-of-core PageRank: store %.1f MiB, %u nodes, "
              "%llu edges\n",
              graph_bytes / (1024.0 * 1024.0), kNodes,
              static_cast<unsigned long long>(kEdges));
  for (uint64_t budget_mb : {1, 2}) {
    storage::BufferPool pool(storage::BufferPoolOptions{
        .budget_bytes = budget_mb << 20});
    gtree::GTreeStoreOptions sopts;
    sopts.buffer_pool = &pool;
    auto store = gtree::GTreeStore::Open(StorePath(), sopts);
    if (!store.ok()) return;
    auto scan = store.value()->NewPageScan();
    mining::PageRankOverPagesOptions options;
    options.max_iterations = 3;
    auto r = mining::PageRankOverPages(*scan, options);
    if (!r.ok()) return;
    const auto stats = pool.stats();
    std::printf("  budget %llu MiB: ratio %.1fx, pool resident "
                "%llu bytes (<= budget), hit rate %.3f, peak RSS "
                "%.1f MiB\n",
                static_cast<unsigned long long>(budget_mb),
                static_cast<double>(graph_bytes) / (budget_mb << 20),
                static_cast<unsigned long long>(stats.resident_bytes),
                static_cast<double>(stats.hits) /
                    static_cast<double>(stats.hits + stats.loads),
                PeakRssBytes() / (1024.0 * 1024.0));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (gmine::bench::ShouldPrintReport()) PrintReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::remove(kStorePath);
  return 0;
}
