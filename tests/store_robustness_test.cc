// Failure-injection sweep for the single-file store: truncate the file
// at many points and corrupt bytes at many offsets; opening or reading
// must fail cleanly with a Status (never crash, never return success
// with silently wrong metadata counts).

#include <gtest/gtest.h>

#include <cstdio>

#include "gen/dblp.h"
#include "gen/generators.h"
#include "graph/graph_io.h"
#include "gtree/builder.h"
#include "gtree/store.h"

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

}  // namespace
}  // namespace gmine::gtree
