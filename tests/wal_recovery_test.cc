// WAL crash-recovery tests (docs/WAL.md): scan-and-truncate over every
// torn-tail shape, fault-injected torn writes through util::FaultFs,
// and the full "acked => replayed" invariant — a forked writer is
// killed (deterministically, via GMINE_WAL_CRASH_AFTER_SYNCS) at every
// group-commit barrier of a 200+-edit script, and the reopened engine
// must hold at least every acked edit, at most every logged one, and
// match the serial reference at exactly the recovered prefix.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/edit_queue.h"
#include "core/engine.h"
#include "gen/dblp.h"
#include "graph/graph_io.h"
#include "storage/wal.h"
#include "util/fault_fs.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace gmine {
namespace {

using core::EditQueue;
using core::EditQueueOptions;
using core::EngineOptions;
using core::GMineEngine;
using storage::Wal;
using storage::WalOptions;
using storage::WalRecord;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

graph::GraphEdit SmallEdit(uint32_t base, uint32_t i) {
  graph::GraphEdit edit(base);
  edit.AddEdge(i % base, (i * 7 + 1) % base, 1.0f + i);
  return edit;
}

// ------------------------------------------------------- framing sweep

// Every byte-truncation of a valid log must recover exactly the records
// that are fully contained, and truncate the torn tail off the file.
TEST(WalRecoveryTest, TruncationSweepRecoversExactPrefix) {
  const std::string path = TempPath("wal_sweep.wal");
  std::remove(path.c_str());
  constexpr int kRecords = 5;
  std::vector<uint64_t> record_ends;  // file size after each record
  {
    auto wal = Wal::Open(path, WalOptions());
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < kRecords; ++i) {
      auto lsn = wal.value()->Append(SmallEdit(50, i),
                                     {StrFormat("label-%d", i)});
      ASSERT_TRUE(lsn.ok());
      EXPECT_EQ(lsn.value(), static_cast<uint64_t>(i + 1));
      record_ends.push_back(wal.value()->file_size());
    }
    ASSERT_TRUE(wal.value()->Sync().ok());
  }
  auto bytes = graph::ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  const std::string& full = bytes.value();
  ASSERT_EQ(full.size(), record_ends.back());

  const std::string probe = TempPath("wal_sweep_probe.wal");
  for (size_t cut = 0; cut <= full.size(); ++cut) {
    std::remove(probe.c_str());
    ASSERT_TRUE(
        graph::WriteStringToFile(full.substr(0, cut), probe).ok());
    auto wal = Wal::Open(probe, WalOptions());
    ASSERT_TRUE(wal.ok()) << "cut=" << cut << ": "
                          << wal.status().ToString();
    // Records fully contained in the prefix.
    size_t expect = 0;
    while (expect < record_ends.size() && record_ends[expect] <= cut) {
      ++expect;
    }
    std::vector<WalRecord> recovered = wal.value()->TakeRecovered();
    EXPECT_EQ(recovered.size(), expect) << "cut=" << cut;
    EXPECT_EQ(wal.value()->next_lsn(), expect + 1) << "cut=" << cut;
    for (size_t i = 0; i < recovered.size(); ++i) {
      EXPECT_EQ(recovered[i].lsn, i + 1);
      ASSERT_EQ(recovered[i].labels.size(), 1u);
      EXPECT_EQ(recovered[i].labels[0],
                StrFormat("label-%zu", i));
    }
    // The torn tail is gone from disk: reopening again recovers the
    // same prefix with nothing left to truncate.
    wal = Wal::Open(probe, WalOptions());
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(wal.value()->stats().recovered_records, expect);
    EXPECT_EQ(wal.value()->stats().truncated_bytes, 0u) << "cut=" << cut;
  }
  std::remove(path.c_str());
  std::remove(probe.c_str());
}

// A corrupt *header* must be an error, never a silent wipe.
TEST(WalRecoveryTest, CorruptHeaderIsAnError) {
  const std::string path = TempPath("wal_header.wal");
  std::remove(path.c_str());
  {
    auto wal = Wal::Open(path, WalOptions());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(SmallEdit(10, 0), {}).ok());
    ASSERT_TRUE(wal.value()->Sync().ok());
  }
  auto bytes = graph::ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = bytes.value();
  corrupted[5] ^= 0x40;  // inside the header
  ASSERT_TRUE(graph::WriteStringToFile(corrupted, path).ok());
  auto wal = Wal::Open(path, WalOptions());
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

// ------------------------------------------------- fault-injected tears

// A write budget tears an Append mid-record, exactly like a crash
// between write(2) and fdatasync: recovery must keep the synced prefix
// and drop the torn record.
TEST(WalRecoveryTest, FaultFsTornWriteRecoversSyncedPrefix) {
  const std::string path = TempPath("wal_faultfs.wal");
  std::remove(path.c_str());
  util::FaultFs fault(util::FileSystem::Posix());
  {
    WalOptions options;
    options.fs = &fault;
    auto wal = Wal::Open(path, options);
    ASSERT_TRUE(wal.ok());
    // Two durable records...
    ASSERT_TRUE(wal.value()->Append(SmallEdit(50, 0), {"a"}).ok());
    ASSERT_TRUE(wal.value()->Append(SmallEdit(50, 1), {"b"}).ok());
    ASSERT_TRUE(wal.value()->Sync().ok());
    // ...then tear the third halfway: allow 10 more bytes through,
    // swallow the rest (fail_after_budget=false mimics the kernel
    // dropping the tail at power loss, not an IO error the writer
    // would see).
    fault.injection().write_budget_bytes = 10;
    ASSERT_TRUE(wal.value()->Append(SmallEdit(50, 2), {"c"}).ok());
    (void)wal.value()->Sync();
    EXPECT_GT(fault.injection().torn_bytes, 0);
  }
  // Reopen through the real filesystem: only the synced prefix exists.
  auto wal = Wal::Open(path, WalOptions());
  ASSERT_TRUE(wal.ok());
  std::vector<WalRecord> recovered = wal.value()->TakeRecovered();
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[0].labels[0], "a");
  EXPECT_EQ(recovered[1].labels[0], "b");
  EXPECT_GT(wal.value()->stats().truncated_bytes, 0u);
  EXPECT_EQ(wal.value()->next_lsn(), 3u);
  std::remove(path.c_str());
}

// Dropped fsyncs (power loss with lying caches) still recover cleanly:
// whatever bytes survived parse as a prefix.
TEST(WalRecoveryTest, FaultFsSyncFailureSurfacesToCaller) {
  const std::string path = TempPath("wal_syncfail.wal");
  std::remove(path.c_str());
  util::FaultFs fault(util::FileSystem::Posix());
  WalOptions options;
  options.fs = &fault;
  auto wal = Wal::Open(path, options);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->Append(SmallEdit(50, 0), {}).ok());
  fault.injection().sync_failures = 1;
  EXPECT_FALSE(wal.value()->Sync().ok());  // the barrier must report it
  EXPECT_TRUE(wal.value()->Sync().ok());   // next barrier succeeds
  std::remove(path.c_str());
}

// --------------------------------------------- acked => replayed sweep

// Shared fixture for the crash sweep: a small DBLP store plus a
// deterministic 220-edit edge-only script (edge-only keeps node ids and
// tree membership stable, so grouped, serial and replayed repairs must
// agree byte-for-byte on the graph and transcript).
struct CrashFixture {
  gen::DblpGraph dblp;
  std::string base_store;           // pristine store file (bytes kept)
  std::string base_bytes;
  std::vector<graph::GraphEdit> edits;

  static constexpr size_t kEdits = 220;

  CrashFixture() {
    gen::DblpOptions gopts;
    gopts.levels = 2;
    gopts.fanout = 3;
    gopts.leaf_size = 30;
    gopts.seed = 21;
    dblp = std::move(gen::GenerateDblp(gopts)).value();
    base_store = TempPath("wal_crash_base.gtree");
    EngineOptions opts;
    opts.build.levels = 2;
    opts.build.fanout = 3;
    // Serial, so that no kernel-pool thread exists at the sweep's
    // forks (a fork after threads exist is undefined under TSan).
    opts.build.threads = 1;
    auto engine =
        GMineEngine::Build(dblp.graph, dblp.labels, base_store, opts);
    EXPECT_TRUE(engine.ok());
    engine.value().reset();
    base_bytes = std::move(graph::ReadFileToString(base_store)).value();

    const uint32_t n = dblp.graph.num_nodes();
    Rng rng(2006);
    for (size_t i = 0; i < kEdits; ++i) {
      graph::GraphEdit edit(n);
      const size_t ops = 1 + rng.Uniform(3);
      for (size_t k = 0; k < ops; ++k) {
        const auto u = static_cast<graph::NodeId>(rng.Uniform(n));
        const auto v = static_cast<graph::NodeId>(rng.Uniform(n));
        if (u == v) continue;
        if (rng.Bernoulli(0.7)) {
          edit.AddEdge(u, v, 1.0f + static_cast<float>(rng.Uniform(5)));
        } else {
          edit.RemoveEdge(u, v);
        }
      }
      if (edit.empty()) edit.AddEdge(i % n, (i + 1) % n, 1.0f);
      edits.push_back(std::move(edit));
    }
  }

  ~CrashFixture() { std::remove(base_store.c_str()); }
};

std::string GraphFingerprint(const graph::Graph& g) {
  std::string out = StrFormat(
      "n=%u e=%llu;", g.num_nodes(),
      static_cast<unsigned long long>(g.num_edges()));
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const graph::Neighbor& nb : g.Neighbors(v)) {
      if (nb.id < v) continue;
      out += StrFormat("%u-%u:%.3f;", v, nb.id,
                       static_cast<double>(nb.weight));
    }
  }
  return out;
}

// Deterministic navigation transcript: focus every leaf, load its
// subgraph, record sizes plus the context connectivity count.
std::string NavigationTranscript(GMineEngine& engine) {
  std::string out;
  gtree::NavigationSession& nav = engine.session();
  EXPECT_TRUE(nav.FocusRoot().ok());
  const gtree::GTree& tree = engine.tree();
  for (gtree::TreeNodeId t = 0;
       t < static_cast<gtree::TreeNodeId>(tree.nodes().size()); ++t) {
    if (!tree.node(t).IsLeaf()) continue;
    if (!nav.FocusNode(t).ok()) {
      out += StrFormat("%u:focus-fail;", t);
      continue;
    }
    auto payload = nav.LoadFocusSubgraph();
    if (!payload.ok()) {
      out += StrFormat("%u:load-fail;", t);
      continue;
    }
    out += StrFormat(
        "%u:%s,n=%u,e=%llu,d=%zu;", t, tree.node(t).name.c_str(),
        payload.value()->subgraph.graph.num_nodes(),
        static_cast<unsigned long long>(
            payload.value()->subgraph.graph.num_edges()),
        nav.context().DisplaySize());
  }
  return out;
}

// Appends an LSN line to a progress file and makes it durable.
void RecordLsn(FILE* f, uint64_t lsn) {
  std::fprintf(f, "%llu\n", static_cast<unsigned long long>(lsn));
  std::fflush(f);
  fdatasync(fileno(f));
}

// The crash child's WAL filesystem: passes everything through, and at
// every sync records the highest LSN appended so far. The WAL's crash
// hook runs right after a sync, so the file's last line is the highest
// LSN logged when the child died — an upper bound on what recovery may
// replay. Each WAL Append writes one whole record, so it decodes here.
class LsnRecordingFs : public util::FileSystem {
 public:
  explicit LsnRecordingFs(FILE* logged) : logged_(logged) {}

  gmine::Result<std::unique_ptr<util::WritableFile>> OpenAppend(
      const std::string& path) override {
    GMINE_ASSIGN_OR_RETURN(std::unique_ptr<util::WritableFile> base,
                           util::FileSystem::Posix()->OpenAppend(path));
    return std::unique_ptr<util::WritableFile>(
        new File(std::move(base), this));
  }
  gmine::Result<std::string> ReadFileToString(
      const std::string& path) override {
    return util::FileSystem::Posix()->ReadFileToString(path);
  }
  Status Truncate(const std::string& path, uint64_t size) override {
    return util::FileSystem::Posix()->Truncate(path, size);
  }
  Status Remove(const std::string& path) override {
    return util::FileSystem::Posix()->Remove(path);
  }
  bool Exists(const std::string& path) override {
    return util::FileSystem::Posix()->Exists(path);
  }

 private:
  class File : public util::WritableFile {
   public:
    File(std::unique_ptr<util::WritableFile> base, LsnRecordingFs* fs)
        : base_(std::move(base)), fs_(fs) {}
    Status Append(std::string_view data) override {
      std::string_view record = data;
      auto decoded = Wal::DecodeRecord(&record);  // fails on the header
      if (decoded.ok()) {
        fs_->highest_ = std::max(fs_->highest_, decoded.value().lsn);
      }
      return base_->Append(data);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      GMINE_RETURN_IF_ERROR(base_->Sync());
      RecordLsn(fs_->logged_, fs_->highest_);
      return Status::OK();
    }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<util::WritableFile> base_;
    LsnRecordingFs* fs_;
  };

  FILE* logged_;
  uint64_t highest_ = 0;
};

// Child body for one crash point: open the store with the WAL enabled,
// group-commit the whole script, record every ack and every synced
// LSN in progress files, and die (_exit(137) in the WAL's sync hook)
// at the Kth barrier. Exits 0 when K exceeds the script's total syncs
// — the sweep is done.
void RunCrashChild(const CrashFixture& fx, const std::string& store,
                   const std::string& acked_path,
                   const std::string& logged_path, int crash_at) {
  ::setenv("GMINE_WAL_CRASH_AFTER_SYNCS",
           StrFormat("%d", crash_at).c_str(), 1);
  FILE* logged = std::fopen(logged_path.c_str(), "ab");
  if (logged == nullptr) _exit(44);
  LsnRecordingFs fs(logged);
  EngineOptions opts;
  opts.wal.enabled = true;
  opts.wal.fs = &fs;
  auto engine = GMineEngine::Open(store, opts);
  if (!engine.ok()) _exit(42);
  EditQueueOptions qopts;
  qopts.max_group_edits = 16;
  EditQueue queue(engine.value().get(), qopts);
  const uint64_t remap_epoch = queue.tip().remap_epoch;
  std::vector<std::future<core::EditCommit>> futures;
  for (const graph::GraphEdit& edit : fx.edits) {
    auto fut = queue.Submit(edit, remap_epoch);
    if (!fut.ok()) _exit(43);
    futures.push_back(std::move(fut).value());
  }
  FILE* acked = std::fopen(acked_path.c_str(), "ab");
  if (acked == nullptr) _exit(44);
  for (auto& fut : futures) {
    core::EditCommit commit = fut.get();
    if (!commit.status.ok()) _exit(45);
    RecordLsn(acked, commit.lsn);
  }
  std::fclose(acked);
  queue.Stop();
  _exit(0);
}

uint64_t MaxRecordedLsn(const std::string& path) {
  uint64_t max_lsn = 0;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  unsigned long long lsn = 0;
  while (std::fscanf(f, "%llu", &lsn) == 1) {
    max_lsn = std::max<uint64_t>(max_lsn, lsn);
  }
  std::fclose(f);
  return max_lsn;
}

TEST(WalCrashSweepTest, EveryCrashPointRecoversTheAckedPrefix) {
  CrashFixture fx;
  ASSERT_FALSE(fx.base_bytes.empty());

  // What each crash point recovered; checked against the serial
  // reference after the sweep.
  struct Recovered {
    int crash_at = 0;
    uint64_t applied = 0;
    std::string fingerprint;
    std::string transcript;
  };
  std::vector<Recovered> points;

  const std::string store = TempPath("wal_crash_run.gtree");
  const std::string wal_path = store + ".wal";
  const std::string acked_path = TempPath("wal_crash_acked.txt");
  const std::string logged_path = TempPath("wal_crash_logged.txt");
  bool script_completed = false;
  int crash_points = 0;
  for (int crash_at = 1; !script_completed; ++crash_at) {
    ASSERT_LT(crash_at, 256) << "sweep failed to terminate";
    std::remove(wal_path.c_str());
    std::remove(acked_path.c_str());
    std::remove(logged_path.c_str());
    ASSERT_TRUE(graph::WriteStringToFile(fx.base_bytes, store).ok());

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Never returns.
      RunCrashChild(fx, store, acked_path, logged_path, crash_at);
    }
    int wstatus = 0;
    ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    const int code = WEXITSTATUS(wstatus);
    if (code == 0) {
      script_completed = true;  // crash_at exceeded the script's syncs
    } else {
      ASSERT_EQ(code, 137) << "child setup failed";
      ++crash_points;
    }

    const uint64_t acked = MaxRecordedLsn(acked_path);
    const uint64_t logged = MaxRecordedLsn(logged_path);
    EngineOptions opts;
    opts.wal.enabled = true;
    opts.build.threads = 1;  // recovery stays on this thread
    auto recovered = GMineEngine::Open(store, opts);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    const uint64_t applied =
        recovered.value()->store().applied_lsn();
    // The invariant: every acked edit is in the recovered store, and
    // the store never contains more than the log's synced prefix.
    EXPECT_GE(applied, acked) << "crash_at=" << crash_at;
    EXPECT_LE(applied, logged) << "crash_at=" << crash_at;
    ASSERT_LE(applied, fx.edits.size());
    auto g = recovered.value()->full_graph();
    ASSERT_TRUE(g.ok());
    points.push_back({crash_at, applied, GraphFingerprint(*g.value()),
                      NavigationTranscript(*recovered.value())});
  }
  EXPECT_GE(crash_points, 10);  // the sweep actually exercised crashes

  // Each crash point's state == the serial reference after exactly its
  // `applied` edits: graph bytes and navigation behavior. How a child
  // groups its edits races its submitting thread, so a later crash
  // point may recover fewer edits than an earlier one; the points are
  // visited in `applied` order, so the reference — which applies the
  // records one at a time, like WAL replay — only moves forward.
  std::sort(points.begin(), points.end(),
            [](const Recovered& a, const Recovered& b) {
              return a.applied < b.applied;
            });
  const std::string ref_store = TempPath("wal_crash_ref.gtree");
  ASSERT_TRUE(graph::WriteStringToFile(fx.base_bytes, ref_store).ok());
  auto ref = GMineEngine::Open(ref_store);
  ASSERT_TRUE(ref.ok());
  uint64_t ref_applied = 0;
  for (const Recovered& point : points) {
    while (ref_applied < point.applied) {
      ASSERT_TRUE(ref.value()->ApplyEdit(fx.edits[ref_applied]).ok());
      ++ref_applied;
    }
    auto ref_g = ref.value()->full_graph();
    ASSERT_TRUE(ref_g.ok());
    EXPECT_EQ(point.fingerprint, GraphFingerprint(*ref_g.value()))
        << "crash_at=" << point.crash_at << " applied=" << point.applied;
    EXPECT_EQ(point.transcript, NavigationTranscript(*ref.value()))
        << "crash_at=" << point.crash_at;
  }
  ref.value().reset();
  std::remove(ref_store.c_str());
  std::remove(store.c_str());
  std::remove(wal_path.c_str());
  std::remove(acked_path.c_str());
  std::remove(logged_path.c_str());
}

}  // namespace
}  // namespace gmine
