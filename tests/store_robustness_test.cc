// Failure-injection sweep for the single-file store: truncate the file
// at many points and corrupt bytes at many offsets; opening or reading
// must fail cleanly with a Status (never crash, never return success
// with silently wrong metadata counts).

#include <gtest/gtest.h>

#include <cstdio>

#include "core/engine.h"
#include "gen/dblp.h"
#include "gen/generators.h"
#include "graph/graph_io.h"
#include "gtree/builder.h"
#include "gtree/store.h"
#include "util/coding.h"

namespace gmine::gtree {
namespace {

struct StoreImage {
  graph::Graph graph;
  GTree tree;
  std::string bytes;
};

const StoreImage& Image() {
  static StoreImage* image = [] {
    auto* img = new StoreImage();
    img->graph = std::move(gen::ErdosRenyiM(100, 400, 77)).value();
    GTreeBuildOptions opts;
    opts.levels = 2;
    opts.fanout = 3;
    img->tree = std::move(BuildGTree(img->graph, opts)).value();
    auto conn = ConnectivityIndex::Build(img->graph, img->tree);
    graph::LabelStore labels;
    for (uint32_t v = 0; v < 100; ++v) {
      labels.SetLabel(v, gen::SyntheticAuthorName(v));
    }
    std::string path =
        std::string(::testing::TempDir()) + "/robust_base.gtree";
    EXPECT_TRUE(
        GTreeStore::Create(path, img->graph, img->tree, conn, labels).ok());
    img->bytes = std::move(graph::ReadFileToString(path)).value();
    std::remove(path.c_str());
    return img;
  }();
  return *image;
}

// Opens the (possibly damaged) image and exercises every read path.
// Returns true when all operations succeeded.
bool FullyReadable(const std::string& bytes, const char* name) {
  std::string path =
      std::string(::testing::TempDir()) + "/" + name + ".gtree";
  EXPECT_TRUE(graph::WriteStringToFile(bytes, path).ok());
  auto store = GTreeStore::Open(path);
  bool ok = store.ok();
  if (ok) {
    for (const TreeNode& tn : store.value()->tree().nodes()) {
      if (!tn.IsLeaf()) continue;
      if (!store.value()->LoadLeaf(tn.id).ok()) ok = false;
    }
    if (!store.value()->MaterializeFullGraph().ok()) ok = false;
  }
  std::remove(path.c_str());
  return ok;
}

TEST(StoreRobustnessTest, PristineImageFullyReadable) {
  EXPECT_TRUE(FullyReadable(Image().bytes, "pristine"));
}

class TruncationSweep : public ::testing::TestWithParam<int> {};

TEST_P(TruncationSweep, TruncatedFileFailsCleanly) {
  const std::string& base = Image().bytes;
  // Truncate at fraction p/16 of the file.
  size_t cut = base.size() * static_cast<size_t>(GetParam()) / 16;
  if (cut >= base.size()) GTEST_SKIP();
  std::string damaged = base.substr(0, cut);
  // Must not be fully readable (and, implicitly, must not crash).
  EXPECT_FALSE(FullyReadable(damaged, "trunc"));
}

INSTANTIATE_TEST_SUITE_P(Fractions, TruncationSweep,
                         ::testing::Range(0, 16));

class CorruptionSweep : public ::testing::TestWithParam<int> {};

TEST_P(CorruptionSweep, FlippedBytesNeverCrash) {
  const std::string& base = Image().bytes;
  std::string damaged = base;
  // Flip 16 bytes starting at fraction p/16.
  size_t start = base.size() * static_cast<size_t>(GetParam()) / 16;
  for (size_t i = start; i < std::min(start + 16, damaged.size()); ++i) {
    damaged[i] ^= 0xa5;
  }
  // Readability may or may not fail depending on where the flip landed
  // (label text has no checksum), but nothing may crash and metadata
  // counts must stay consistent when Open succeeds.
  std::string path = std::string(::testing::TempDir()) + "/corrupt.gtree";
  ASSERT_TRUE(graph::WriteStringToFile(damaged, path).ok());
  auto store = GTreeStore::Open(path);
  if (store.ok()) {
    const GTree& t = store.value()->tree();
    EXPECT_EQ(t.size(), Image().tree.size());
    EXPECT_EQ(t.num_leaves(), Image().tree.num_leaves());
    for (const TreeNode& tn : t.nodes()) {
      if (!tn.IsLeaf()) continue;
      auto payload = store.value()->LoadLeaf(tn.id);
      if (payload.ok()) {
        EXPECT_EQ(payload.value()->subgraph.graph.num_nodes(),
                  tn.members.size());
      }
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Offsets, CorruptionSweep, ::testing::Range(0, 16));

constexpr char kJournalLabel[] = "Journal Label";

// A store whose last journal entry names one added node, written by the
// engine's append path.
std::string JournaledLabelImage() {
  gen::DblpOptions gopts;
  gopts.levels = 2;
  gopts.fanout = 3;
  gopts.leaf_size = 20;
  gopts.seed = 5;
  gen::DblpGraph dblp = std::move(gen::GenerateDblp(gopts)).value();
  const std::string path =
      std::string(::testing::TempDir()) + "/journal_label.gtree";
  core::EngineOptions opts;
  opts.build.levels = 2;
  opts.build.fanout = 3;
  {
    auto engine = std::move(core::GMineEngine::Build(
                                dblp.graph, dblp.labels, path, opts))
                      .value();
    graph::GraphEdit edit(dblp.graph.num_nodes());
    edit.AddEdge(edit.AddNode(), dblp.jiawei_han, 1.0f);
    core::EditStats stats;
    EXPECT_TRUE(engine->ApplyEdit(edit, {kJournalLabel}, &stats).ok());
    EXPECT_FALSE(stats.compacted);
  }
  std::string bytes = std::move(graph::ReadFileToString(path)).value();
  std::remove(path.c_str());
  return bytes;
}

// The header (store.cc) starts with magic and version, then twelve
// fixed64 section fields: the journal's offset and size are the last
// two, at bytes 88 and 96. Its checksum, Hash64 of the bytes before it,
// is the last 8 bytes of the 148-byte header.
constexpr size_t kJournalOffField = 88;
constexpr size_t kJournalSizeField = 96;
constexpr size_t kChecksumField = 140;

std::string WithJournalSize(std::string bytes, uint64_t size) {
  std::string field;
  PutFixed64(&field, size);
  bytes.replace(kJournalSizeField, 8, field);
  std::string checksum;
  PutFixed64(&checksum,
             Hash64(std::string_view(bytes.data(), kChecksumField)));
  bytes.replace(kChecksumField, 8, checksum);
  return bytes;
}

Status OpenImage(const std::string& bytes) {
  const std::string path =
      std::string(::testing::TempDir()) + "/journal_cut.gtree";
  EXPECT_TRUE(graph::WriteStringToFile(bytes, path).ok());
  Status st = GTreeStore::Open(path).status();
  std::remove(path.c_str());
  return st;
}

TEST(StoreRobustnessTest, TruncatedJournalLabelIsCorruption) {
  const std::string base = JournaledLabelImage();
  std::string_view fields(base.data() + kJournalOffField, 16);
  uint64_t journal_off = 0;
  uint64_t journal_size = 0;
  ASSERT_TRUE(GetFixed64(&fields, &journal_off));
  ASSERT_TRUE(GetFixed64(&fields, &journal_size));
  // The journal is the file's tail, and it ends with the label's text.
  ASSERT_EQ(journal_off + journal_size, base.size());
  const size_t label_size = sizeof(kJournalLabel) - 1;
  ASSERT_EQ(base.substr(base.size() - label_size), kJournalLabel);
  // Rewriting the field unchanged opens: the patch itself is sound.
  ASSERT_TRUE(OpenImage(WithJournalSize(base, journal_size)).ok());
  // Cut the section anywhere in the label's text, its length prefix or
  // its node id: the entry is truncated, never silently shortened.
  for (size_t cut = 1; cut <= label_size + 2; ++cut) {
    const Status st = OpenImage(WithJournalSize(base, journal_size - cut));
    EXPECT_TRUE(st.IsCorruption()) << "cut " << cut << ": " << st.ToString();
  }
}

}  // namespace
}  // namespace gmine::gtree
