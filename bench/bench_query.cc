// GQL pushdown sweep: a selective MATCH through the query executor
// (query/executor.h) with predicate pushdown on, against stores of
// growing leaf-page counts. The claim under test (docs/QUERY.md): for a
// predicate decidable from resident metadata, pushdown loads only the
// page(s) that can match — time and IO track the *result*, not the
// store — while the reference mode materializes every page and filters
// afterwards. Feeds the "query_pushdown" entry of BENCH_kernels.json
// via tools/run_benches.sh (columns: pages_scanned, pages_total,
// speedup_vs_full).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gtree/builder.h"
#include "gtree/store.h"
#include "query/executor.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace gmine;  // NOLINT
using bench::CachedDblp;

// Sweep arg = leaf-page count: levels=3 at fanout F gives F^3 leaves.
constexpr uint32_t kFanouts[] = {4, 8};

// A one-page predicate: the label index rules every other page out
// before it is read (the DBLP surrogate names exactly one author
// "Jiawei ...", whichever leaf they land in).
constexpr const char* kSelectiveQuery =
    "MATCH NODES WHERE label PREFIX \"Jiawei\"";

/// Store files are built once per process, one per fanout; each run
/// opens its own handle (pages go through the process-wide pool).
const std::string& StorePath(uint32_t fanout) {
  static std::vector<std::string>* paths = [] {
    auto* out = new std::vector<std::string>();
    for (uint32_t f : kFanouts) {
      const gen::DblpGraph& d = CachedDblp(3, f, 60);
      gtree::GTreeBuildOptions bopts;
      bopts.levels = 3;
      bopts.fanout = f;
      auto tree = gtree::BuildGTree(d.graph, bopts);
      auto conn = gtree::ConnectivityIndex::Build(d.graph, tree.value());
      std::string path = StrFormat("/tmp/gmine_bm_query_%u.gtree", f);
      (void)gtree::GTreeStore::Create(path, d.graph, tree.value(), conn,
                                      d.labels);
      out->push_back(std::move(path));
    }
    return out;
  }();
  for (size_t i = 0; i < std::size(kFanouts); ++i) {
    if (kFanouts[i] == fanout) return (*paths)[i];
  }
  std::fprintf(stderr, "bench_query: unknown fanout %u\n", fanout);
  std::exit(1);
}

struct QueryRun {
  query::QueryStats stats;
  int64_t micros = 0;
};

QueryRun RunOnce(const gtree::GTreeStore& store, bool pushdown) {
  query::ExecutorOptions opts;
  opts.pushdown = pushdown;
  opts.threads = 1;
  query::Executor exec(&store, opts);
  StopWatch watch;
  auto result = exec.ExecuteText(kSelectiveQuery);
  QueryRun run;
  run.micros = watch.ElapsedMicros();
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  if (result.value().rows.empty()) {
    std::fprintf(stderr, "bench_query: selective query matched 0 rows\n");
    std::exit(1);
  }
  run.stats = result.value().stats;
  return run;
}

void PrintReport() {
  bench::ReportHeader(
      "Q1: predicate pushdown (selective MATCH, docs/QUERY.md)",
      "pushdown reads only the pages the predicate can match, so a "
      "selective query's IO tracks the result size, not the store size");
  std::printf("%-8s %-8s %14s %14s %14s %10s\n", "leaves", "mode",
              "wall time", "pages read", "rows", "speedup");
  for (uint32_t f : kFanouts) {
    auto store = gtree::GTreeStore::Open(StorePath(f));
    if (!store.ok()) {
      std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
      std::exit(1);
    }
    const QueryRun full = RunOnce(*store.value(), /*pushdown=*/false);
    const QueryRun push = RunOnce(*store.value(), /*pushdown=*/true);
    const double speedup =
        push.micros > 0 ? static_cast<double>(full.micros) /
                              static_cast<double>(push.micros)
                        : 0.0;
    std::printf("%-8llu %-8s %14s %10llu/%-3llu %14llu %10s\n",
                static_cast<unsigned long long>(full.stats.pages_total),
                "full",
                HumanMicros(full.micros).c_str(),
                static_cast<unsigned long long>(full.stats.pages_scanned),
                static_cast<unsigned long long>(full.stats.pages_total),
                static_cast<unsigned long long>(full.stats.rows_output),
                "-");
    std::printf("%-8llu %-8s %14s %10llu/%-3llu %14llu %9.2fx\n",
                static_cast<unsigned long long>(push.stats.pages_total),
                "pushdown",
                HumanMicros(push.micros).c_str(),
                static_cast<unsigned long long>(push.stats.pages_scanned),
                static_cast<unsigned long long>(push.stats.pages_total),
                static_cast<unsigned long long>(push.stats.rows_output),
                speedup);
  }
}

// JSON kernel: ns/op of the selective MATCH with pushdown on; arg =
// leaf-page count (fanout^3). Counters carry the pushdown contract for
// tools/check_bench_json.sh — pages_scanned < pages_total, and
// speedup_vs_full from a reference full-scan run of the same query.
void BM_QueryPushdown(benchmark::State& state) {
  const auto leaves = static_cast<uint64_t>(state.range(0));
  uint32_t fanout = 0;
  for (uint32_t f : kFanouts) {
    if (static_cast<uint64_t>(f) * f * f == leaves) fanout = f;
  }
  if (fanout == 0) {
    state.SkipWithError("arg must be fanout^3 for a known fanout");
    return;
  }
  auto store = gtree::GTreeStore::Open(StorePath(fanout));
  if (!store.ok()) {
    state.SkipWithError(store.status().ToString().c_str());
    return;
  }
  uint64_t scanned = 0, total = 0;
  int64_t push_micros = 0;
  uint64_t runs = 0;
  for (auto _ : state) {
    QueryRun r = RunOnce(*store.value(), /*pushdown=*/true);
    scanned = r.stats.pages_scanned;
    total = r.stats.pages_total;
    push_micros += r.micros;
    ++runs;
  }
  // Reference mode, measured outside the timed loop: a handful of runs
  // is plenty for a counter.
  int64_t full_micros = 0;
  const uint64_t full_runs = std::min<uint64_t>(std::max<uint64_t>(runs, 1),
                                                 16);
  for (uint64_t i = 0; i < full_runs; ++i) {
    full_micros += RunOnce(*store.value(), /*pushdown=*/false).micros;
  }
  state.counters["pages_scanned"] = static_cast<double>(scanned);
  state.counters["pages_total"] = static_cast<double>(total);
  const double push_per_run =
      runs > 0 ? static_cast<double>(push_micros) /
                     static_cast<double>(runs)
               : 0.0;
  const double full_per_run =
      static_cast<double>(full_micros) / static_cast<double>(full_runs);
  state.counters["speedup_vs_full"] =
      push_per_run > 0.0 ? full_per_run / push_per_run : 0.0;
}

BENCHMARK(BM_QueryPushdown)
    ->Arg(64)
    ->Arg(512)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  if (gmine::bench::ShouldPrintReport()) PrintReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  for (uint32_t f : kFanouts) {
    std::remove(StorePath(f).c_str());
  }
  return 0;
}
