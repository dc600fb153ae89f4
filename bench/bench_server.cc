// Network front end: loopback round-trip sweep. A fixed budget of
// protocol requests (navigate + leaf loads) splits across N concurrent
// `net::Client` connections against one in-process `net::Server` over
// one store — the socket-level analogue of the session_pool_navigate
// sweep, adding framing, syscalls and the worker pool to the measured
// path. Feeds the "server_navigate" entry of BENCH_kernels.json via
// tools/run_benches.sh.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/session_manager.h"
#include "gtree/builder.h"
#include "net/client.h"
#include "net/server.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace {

using namespace gmine;  // NOLINT
using bench::CachedDblp;

constexpr char kStorePath[] = "/tmp/gmine_bm_server.gtree";
// Total protocol round-trips per measurement, split across the clients.
constexpr size_t kRequests = 128;

/// One shared store for every benchmark in this binary.
const gtree::GTreeStore* SharedStore() {
  static std::unique_ptr<gtree::GTreeStore> store = [] {
    const gen::DblpGraph& d = CachedDblp();
    gtree::GTreeBuildOptions bopts;
    bopts.levels = 3;
    bopts.fanout = 5;
    auto tree = gtree::BuildGTree(d.graph, bopts);
    auto conn = gtree::ConnectivityIndex::Build(d.graph, tree.value());
    (void)gtree::GTreeStore::Create(kStorePath, d.graph, tree.value(),
                                    conn, d.labels);
    return std::move(gtree::GTreeStore::Open(kStorePath)).value();
  }();
  return store.get();
}

/// Runs this client's slice of the request budget: a deterministic
/// descend / load / ascend cycle. Returns completed round-trips.
size_t RunClientSlice(uint16_t port, size_t client, size_t num_clients) {
  net::Client c;
  if (!c.Connect("127.0.0.1", port).ok()) return 0;
  static const char* kCycle[] = {"child 0", "child 0", "load", "root"};
  size_t done = 0;
  for (size_t k = client; k < kRequests; k += num_clients) {
    if (c.Roundtrip(kCycle[k % 4]).ok()) ++done;
  }
  (void)c.Roundtrip("close");
  c.Close();
  return done;
}

/// One measurement: N clients connect, burn the shared budget, close.
double RunSweep(const net::Server& server, size_t clients) {
  StopWatch watch;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t i = 0; i < clients; ++i) {
    threads.emplace_back([&server, i, clients] {
      (void)RunClientSlice(server.port(), i, clients);
    });
  }
  for (std::thread& t : threads) t.join();
  return static_cast<double>(watch.ElapsedMicros());
}

void PrintReport() {
  bench::ReportHeader(
      "S2: network front end round-trips (docs/SERVER.md)",
      "remote clients map onto pool sessions; socket framing adds "
      "microseconds, not milliseconds, to a navigation gesture");
  core::SessionManager pool(SharedStore());
  net::ServerOptions sopts;
  sopts.max_clients = 256;  // never reject a sweep client on big hosts
  net::Server server(&pool, sopts);
  if (!server.Start().ok()) return;
  bench::PrintThreadSweep(
      StrFormat("loopback round-trip sweep (%zu requests split across N "
                "clients):",
                kRequests)
          .c_str(),
      [&](int clients) {
        return RunSweep(server,
                        static_cast<size_t>(ResolveThreads(clients)));
      });
  server.Stop();
  std::printf(
      "server: accepted=%llu requests=%llu avg latency=%lluus\n",
      static_cast<unsigned long long>(server.stats().accepted),
      static_cast<unsigned long long>(server.stats().requests),
      static_cast<unsigned long long>(
          server.stats().requests
              ? server.stats().total_latency_micros /
                    server.stats().requests
              : 0));
}

// The benchmark server outlives every iteration; main() stops it before
// static destruction tears the store down under its threads.
net::Server* g_bm_server = nullptr;

// Loopback navigation through the server: arg = concurrent client count
// (0 = auto). The request budget is fixed, so wall time tracks how well
// the listener/worker/session stack overlaps clients. UseRealTime: the
// main thread only waits on the client threads, so its CPU time is a
// small fraction of a sweep and would size the iteration count.
void BM_ServerNavigate(benchmark::State& state) {
  static core::SessionManager* pool =
      new core::SessionManager(SharedStore());
  static net::Server* server = [] {
    net::ServerOptions sopts;
    sopts.max_clients = 256;  // the cap must never skew the sweep
    auto* s = new net::Server(pool, sopts);
    if (!s->Start().ok()) std::abort();
    g_bm_server = s;
    return s;
  }();
  const size_t clients =
      static_cast<size_t>(ResolveThreads(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunSweep(*server, clients));
  }
  state.counters["requests"] = static_cast<double>(kRequests);
}

BENCHMARK(BM_ServerNavigate)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(0)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  if (gmine::bench::ShouldPrintReport()) PrintReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (g_bm_server != nullptr) g_bm_server->Stop();
  std::remove(kStorePath);
  return 0;
}
