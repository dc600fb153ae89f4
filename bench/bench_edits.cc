// Experiment E1 (incremental maintenance, docs/EDITS.md): a single-edge
// edit through the incremental repair re-partitions nothing — it touches
// one page and a handful of connectivity rows however big the rest of
// the store is; what still grows with the graph is the linear CSR merge
// and the metadata sections the append rewrites.
//
// BM_GTreeEditIncremental (arg = graph size) feeds the
// "gtree_edit_incremental" sweep of BENCH_kernels.json via
// tools/run_benches.sh.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>

#include "bench_common.h"
#include "core/engine.h"
#include "util/timer.h"

namespace {

using namespace gmine;  // NOLINT
using bench::CachedDblp;

struct SizeConfig {
  uint32_t levels, fanout, leaf_size;
};

// arg (approx node count) -> generator shape: n = fanout^levels * leaf.
const std::map<int64_t, SizeConfig>& Sizes() {
  static const std::map<int64_t, SizeConfig> sizes = {
      {1500, {2, 5, 60}},
      {7500, {3, 5, 60}},
      {30000, {3, 5, 240}},
  };
  return sizes;
}

// One persistent engine per size: edits toggle a single cross-leaf edge
// back and forth, so the store stays bounded while every iteration
// measures exactly one ApplyEdit.
struct EditBench {
  std::unique_ptr<core::GMineEngine> engine;
  graph::NodeId u = 0;
  graph::NodeId v = 0;
  bool present = false;
  std::string path;
};

std::string EditBenchPath(int64_t size) {
  return StrFormat("/tmp/gmine_bm_edit_%lld.gtree",
                   static_cast<long long>(size));
}

EditBench* GetEditBench(int64_t size) {
  static std::map<int64_t, EditBench> cache;
  auto it = cache.find(size);
  if (it != cache.end()) return &it->second;

  const SizeConfig& cfg = Sizes().at(size);
  const gen::DblpGraph& data =
      CachedDblp(cfg.levels, cfg.fanout, cfg.leaf_size);
  EditBench bench;
  bench.path = EditBenchPath(size);
  core::EngineOptions opts;
  opts.build.levels = cfg.levels;
  opts.build.fanout = cfg.fanout;
  auto engine =
      core::GMineEngine::Build(data.graph, data.labels, bench.path, opts);
  if (!engine.ok()) return nullptr;
  bench.engine = std::move(engine).value();
  // A cross-leaf pair with no existing edge: adds/removes alternate.
  const gtree::GTree& tree = bench.engine->tree();
  bench.u = 0;
  for (graph::NodeId cand = 1; cand < data.graph.num_nodes(); ++cand) {
    if (tree.LeafOf(cand) != tree.LeafOf(bench.u) &&
        !data.graph.HasEdge(bench.u, cand)) {
      bench.v = cand;
      break;
    }
  }
  auto [pos, _] = cache.emplace(size, std::move(bench));
  return &pos->second;
}

// Toggles the bench's edge once: one single-edge ApplyEdit.
Status ToggleEdge(EditBench* bench) {
  auto g = bench->engine->full_graph();
  if (!g.ok()) return g.status();
  graph::GraphEdit edit(g.value()->num_nodes());
  if (bench->present) {
    edit.RemoveEdge(bench->u, bench->v);
  } else {
    edit.AddEdge(bench->u, bench->v, 2.0f);
  }
  GMINE_RETURN_IF_ERROR(bench->engine->ApplyEdit(edit));
  bench->present = !bench->present;
  return Status::OK();
}

void BM_GTreeEditIncremental(benchmark::State& state) {
  EditBench* bench = GetEditBench(state.range(0));
  if (bench == nullptr || bench->engine == nullptr) {
    state.SkipWithError("engine build failed");
    return;
  }
  for (auto _ : state) {
    Status st = ToggleEdge(bench);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
}

BENCHMARK(BM_GTreeEditIncremental)
    ->Arg(1500)
    ->Arg(7500)
    ->Arg(30000)
    ->Unit(benchmark::kMicrosecond);

void PrintReport() {
  bench::ReportHeader(
      "E1: incremental edit maintenance (docs/EDITS.md)",
      "a single-edge edit repairs one subtree + a few connectivity rows; "
      "nothing is re-partitioned at any graph size");
  std::printf("%-10s %16s\n", "nodes", "incremental");
  for (const auto& [size, cfg] : Sizes()) {
    (void)cfg;
    EditBench* bench = GetEditBench(size);
    if (bench == nullptr || bench->engine == nullptr) continue;
    constexpr int kReps = 4;
    StopWatch watch;
    for (int r = 0; r < kReps; ++r) {
      if (!ToggleEdge(bench).ok()) break;
    }
    std::printf("%-10lld %13.0fus\n", static_cast<long long>(size),
                static_cast<double>(watch.ElapsedMicros()) / kReps);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (gmine::bench::ShouldPrintReport()) PrintReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  for (const auto& [size, cfg] : Sizes()) {
    (void)cfg;
    std::remove(EditBenchPath(size).c_str());
  }
  return 0;
}
