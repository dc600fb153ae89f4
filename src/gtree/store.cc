#include "gtree/store.h"

#include <unistd.h>

#include <algorithm>
#include <unordered_set>

#include "graph/graph_io.h"
#include "util/coding.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace gmine::gtree {

using graph::Graph;
using graph::NodeId;
using graph::Subgraph;

namespace {

constexpr uint32_t kStoreMagic = 0x47545246;  // "GTRF"
// v2: directory offsets became absolute, and a journal section plus the
// build-shape hints were added for incremental edits (ApplyUpdate).
// v3: the applied write-ahead-log LSN joined the header (storage/wal.h)
// so crash recovery knows which log records the store already covers.
// v4: each journal entry carries the labels of the nodes its edit
// added, so only a compaction writes the label section.
constexpr uint32_t kStoreVersion = 4;
// magic, version, 12 fixed64 section fields, 2 fixed32 counts,
// build hints (3 fixed32 + 1 fixed64), applied_lsn, checksum.
constexpr size_t kHeaderSize =
    4 + 4 + 12 * 8 + 4 + 4 + (3 * 4 + 8) + 8 + 8;

// Every section location in one place so the header can be (re)written
// by Create and by ApplyUpdate's append path alike.
struct SectionTable {
  uint64_t tree_off = 0, tree_size = 0;
  uint64_t conn_off = 0, conn_size = 0;
  uint64_t labels_off = 0, labels_size = 0;
  uint64_t dir_off = 0, dir_size = 0;
  uint64_t graph_off = 0, graph_size = 0;
  uint64_t journal_off = 0, journal_size = 0;
  uint32_t num_pages = 0;
  uint32_t num_graph_nodes = 0;
  GTreeBuildHints hints;
  uint64_t applied_lsn = 0;
};

std::string SerializeHeader(const SectionTable& t) {
  std::string header;
  PutFixed32(&header, kStoreMagic);
  PutFixed32(&header, kStoreVersion);
  PutFixed64(&header, t.tree_off);
  PutFixed64(&header, t.tree_size);
  PutFixed64(&header, t.conn_off);
  PutFixed64(&header, t.conn_size);
  PutFixed64(&header, t.labels_off);
  PutFixed64(&header, t.labels_size);
  PutFixed64(&header, t.dir_off);
  PutFixed64(&header, t.dir_size);
  PutFixed64(&header, t.graph_off);
  PutFixed64(&header, t.graph_size);
  PutFixed64(&header, t.journal_off);
  PutFixed64(&header, t.journal_size);
  PutFixed32(&header, t.num_pages);
  PutFixed32(&header, t.num_graph_nodes);
  PutFixed32(&header, t.hints.levels);
  PutFixed32(&header, t.hints.fanout);
  PutFixed32(&header, t.hints.min_partition_size);
  PutFixed64(&header, t.hints.partition_seed);
  PutFixed64(&header, t.applied_lsn);
  PutFixed64(&header, Hash64(header));
  return header;
}

std::string SerializeTree(const GTree& tree) {
  std::string blob;
  PutVarint32(&blob, tree.size());
  for (const TreeNode& tn : tree.nodes()) {
    // parent encoded +1 so the root's kInvalidTreeNode fits a varint.
    PutVarint32(&blob, tn.parent == kInvalidTreeNode ? 0 : tn.parent + 1);
    PutVarint32(&blob, tn.depth);
    PutVarint64(&blob, tn.subtree_size);
    PutLengthPrefixed(&blob, tn.name);
    PutVarint32(&blob, static_cast<uint32_t>(tn.children.size()));
    for (TreeNodeId c : tn.children) PutVarint32(&blob, c);
    PutVarint32(&blob, static_cast<uint32_t>(tn.members.size()));
    NodeId prev = 0;
    for (NodeId m : tn.members) {  // members are sorted ascending
      PutVarint32(&blob, m - prev);
      prev = m;
    }
  }
  return blob;
}

gmine::Result<GTree> DeserializeTree(std::string_view blob,
                                     uint32_t num_graph_nodes) {
  uint32_t count = 0;
  if (!GetVarint32(&blob, &count)) {
    return Status::Corruption("gtree store: bad tree node count");
  }
  std::vector<TreeNode> nodes(count);
  for (uint32_t i = 0; i < count; ++i) {
    TreeNode& tn = nodes[i];
    tn.id = i;
    uint32_t parent_plus1 = 0;
    uint32_t nchildren = 0;
    uint32_t nmembers = 0;
    std::string_view name;
    if (!GetVarint32(&blob, &parent_plus1) || !GetVarint32(&blob, &tn.depth) ||
        !GetVarint64(&blob, &tn.subtree_size) ||
        !GetLengthPrefixed(&blob, &name) || !GetVarint32(&blob, &nchildren)) {
      return Status::Corruption("gtree store: truncated tree node");
    }
    tn.parent = parent_plus1 == 0 ? kInvalidTreeNode : parent_plus1 - 1;
    tn.name.assign(name);
    tn.children.resize(nchildren);
    for (uint32_t c = 0; c < nchildren; ++c) {
      if (!GetVarint32(&blob, &tn.children[c])) {
        return Status::Corruption("gtree store: truncated child list");
      }
    }
    if (!GetVarint32(&blob, &nmembers)) {
      return Status::Corruption("gtree store: truncated member count");
    }
    tn.members.resize(nmembers);
    NodeId prev = 0;
    for (uint32_t m = 0; m < nmembers; ++m) {
      uint32_t delta = 0;
      if (!GetVarint32(&blob, &delta)) {
        return Status::Corruption("gtree store: truncated members");
      }
      prev += delta;
      tn.members[m] = prev;
    }
  }
  return GTree::FromNodes(std::move(nodes), num_graph_nodes);
}

/// Serializes a leaf page. The optional boundary section (streamed
/// stores) trails the graph blob: per member, a varint arc count
/// followed by delta-encoded global destination ids and float weights.
/// Legacy pages end at the graph blob, so their bytes are unchanged and
/// presence of trailing bytes is what signals a boundary section.
std::string SerializeLeafPayload(
    const Subgraph& sub,
    const std::vector<uint32_t>* boundary_offsets = nullptr,
    const std::vector<graph::Neighbor>* boundary_arcs = nullptr) {
  std::string blob;
  PutVarint32(&blob, static_cast<uint32_t>(sub.to_parent.size()));
  NodeId prev = 0;
  for (NodeId p : sub.to_parent) {  // ascending (leaf members are sorted)
    PutVarint32(&blob, p - prev);
    prev = p;
  }
  PutLengthPrefixed(&blob, graph::SerializeGraph(sub.graph));
  if (boundary_offsets != nullptr && !boundary_offsets->empty()) {
    for (size_t i = 0; i + 1 < boundary_offsets->size(); ++i) {
      const uint32_t begin = (*boundary_offsets)[i];
      const uint32_t end = (*boundary_offsets)[i + 1];
      PutVarint32(&blob, end - begin);
      NodeId prev_dst = 0;
      for (uint32_t a = begin; a < end; ++a) {
        const graph::Neighbor& nb = (*boundary_arcs)[a];
        PutVarint32(&blob, nb.id - prev_dst);  // ascending per member
        PutFloat(&blob, nb.weight);
        prev_dst = nb.id;
      }
    }
  }
  return blob;
}

gmine::Result<LeafPayload> DeserializeLeafPayload(std::string_view blob) {
  LeafPayload out;
  uint32_t count = 0;
  if (!GetVarint32(&blob, &count)) {
    return Status::Corruption("leaf payload: bad member count");
  }
  out.subgraph.to_parent.resize(count);
  NodeId prev = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t delta = 0;
    if (!GetVarint32(&blob, &delta)) {
      return Status::Corruption("leaf payload: truncated members");
    }
    prev += delta;
    out.subgraph.to_parent[i] = prev;
    out.subgraph.to_local.emplace(prev, i);
  }
  std::string_view graph_blob;
  if (!GetLengthPrefixed(&blob, &graph_blob)) {
    return Status::Corruption("leaf payload: missing graph blob");
  }
  auto g = graph::DeserializeGraph(graph_blob);
  if (!g.ok()) return g.status();
  out.subgraph.graph = std::move(g).value();
  if (out.subgraph.graph.num_nodes() != count) {
    return Status::Corruption("leaf payload: member/graph size mismatch");
  }
  if (!blob.empty()) {
    // Boundary section (streamed stores): per-member global arcs.
    out.boundary_offsets.reserve(count + 1);
    out.boundary_offsets.push_back(0);
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t degree = 0;
      if (!GetVarint32(&blob, &degree)) {
        return Status::Corruption("leaf payload: truncated boundary degree");
      }
      NodeId prev_dst = 0;
      for (uint32_t a = 0; a < degree; ++a) {
        uint32_t delta = 0;
        float w = 0.0f;
        if (!GetVarint32(&blob, &delta) || !GetFloat(&blob, &w)) {
          return Status::Corruption("leaf payload: truncated boundary arc");
        }
        prev_dst += delta;
        out.boundary_arcs.push_back(graph::Neighbor{prev_dst, w});
      }
      out.boundary_offsets.push_back(
          static_cast<uint32_t>(out.boundary_arcs.size()));
    }
    if (!blob.empty()) {
      return Status::Corruption("leaf payload: trailing bytes after boundary");
    }
  }
  return out;
}

/// One journal entry: the edit blob, then its added labels as a varint
/// count of (varint node id, length-prefixed label) pairs.
void PutJournalEntry(std::string* out, const graph::GraphEdit& edit,
                     const AddedLabels& labels) {
  PutLengthPrefixed(out, edit.Serialize());
  PutVarint32(out, static_cast<uint32_t>(labels.size()));
  for (const auto& [id, label] : labels) {
    PutVarint32(out, id);
    PutLengthPrefixed(out, label);
  }
}

/// Bytes a header at `t` actually references (the live set): header +
/// metadata sections + every page in `directory`. Everything else in
/// the file is dead weight from superseded appends. (Templated because
/// PageLocation is private to GTreeStore.)
template <typename Directory>
uint64_t ComputeLiveBytes(const SectionTable& t, const Directory& directory) {
  uint64_t live = kHeaderSize + t.tree_size + t.conn_size + t.labels_size +
                  t.dir_size + t.journal_size + t.graph_size;
  for (const auto& [leaf, loc] : directory) live += loc.size;
  return live;
}

}  // namespace

GTreeStore::~GTreeStore() {
  if (pool_ != nullptr) pool_->UnregisterStore(pool_id_);
  if (file_ != nullptr) std::fclose(file_);
}

Status GTreeStore::Create(const std::string& path, const Graph& g,
                          const GTree& tree, const ConnectivityIndex& conn,
                          const graph::LabelStore& labels,
                          const GTreeBuildHints* hints,
                          uint64_t applied_lsn) {
  // Build section blobs.
  std::string tree_blob = SerializeTree(tree);
  std::string conn_blob = conn.Serialize();
  std::string labels_blob = labels.Serialize();

  uint64_t pages_off =
      kHeaderSize + tree_blob.size() + conn_blob.size() + labels_blob.size();
  std::string pages;
  std::string directory;
  uint32_t num_pages = 0;
  for (const TreeNode& tn : tree.nodes()) {
    if (!tn.IsLeaf()) continue;
    auto sub = graph::InducedSubgraph(g, tn.members);
    if (!sub.ok()) return sub.status();
    std::string page = SerializeLeafPayload(sub.value());
    PutVarint32(&directory, tn.id);
    PutVarint64(&directory, pages_off + pages.size());  // absolute offset
    PutVarint64(&directory, page.size());
    pages += page;
    ++num_pages;
  }

  std::string graph_blob = graph::SerializeGraph(g);

  SectionTable t;
  t.tree_off = kHeaderSize;
  t.tree_size = tree_blob.size();
  t.conn_off = t.tree_off + tree_blob.size();
  t.conn_size = conn_blob.size();
  t.labels_off = t.conn_off + conn_blob.size();
  t.labels_size = labels_blob.size();
  t.dir_off = pages_off + pages.size();
  t.dir_size = directory.size();
  t.graph_off = t.dir_off + directory.size();
  t.graph_size = graph_blob.size();
  t.journal_off = t.graph_off + graph_blob.size();
  t.journal_size = 0;  // a fresh store has no pending edits
  t.num_pages = num_pages;
  t.num_graph_nodes = g.num_nodes();
  if (hints != nullptr) t.hints = *hints;
  t.applied_lsn = applied_lsn;

  std::string file = SerializeHeader(t);
  file += tree_blob;
  file += conn_blob;
  file += labels_blob;
  file += pages;
  file += directory;
  file += graph_blob;
  return graph::WriteStringToFile(file, path);
}

Status GTreeStore::LoadMetadata(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError(StrFormat("cannot open %s", path.c_str()));
  }
  auto read_at = [f](uint64_t off, uint64_t size,
                     std::string* out) -> Status {
    out->resize(size);
    if (std::fseek(f, static_cast<long>(off), SEEK_SET) != 0) {
      return Status::IOError("seek failed");
    }
    if (std::fread(out->data(), 1, size, f) != size) {
      return Status::IOError("short read");
    }
    return Status::OK();
  };
  // The new handle replaces the old one only after the whole load
  // succeeds, so a failed reload leaves the store usable.
  struct Closer {
    std::FILE* f;
    ~Closer() {
      if (f != nullptr) std::fclose(f);
    }
  } closer{f};

  std::fseek(f, 0, SEEK_END);
  const uint64_t file_size = static_cast<uint64_t>(std::ftell(f));

  std::string header;
  GMINE_RETURN_IF_ERROR(read_at(0, kHeaderSize, &header));
  std::string_view in = header;
  uint32_t magic = 0;
  uint32_t version = 0;
  GetFixed32(&in, &magic);
  GetFixed32(&in, &version);
  if (magic != kStoreMagic) {
    return Status::Corruption("gtree store: bad magic");
  }
  if (version != kStoreVersion) {
    return Status::Corruption("gtree store: unsupported version");
  }
  SectionTable t;
  uint64_t checksum = 0;
  GetFixed64(&in, &t.tree_off);
  GetFixed64(&in, &t.tree_size);
  GetFixed64(&in, &t.conn_off);
  GetFixed64(&in, &t.conn_size);
  GetFixed64(&in, &t.labels_off);
  GetFixed64(&in, &t.labels_size);
  GetFixed64(&in, &t.dir_off);
  GetFixed64(&in, &t.dir_size);
  GetFixed64(&in, &t.graph_off);
  GetFixed64(&in, &t.graph_size);
  GetFixed64(&in, &t.journal_off);
  GetFixed64(&in, &t.journal_size);
  GetFixed32(&in, &t.num_pages);
  GetFixed32(&in, &t.num_graph_nodes);
  GetFixed32(&in, &t.hints.levels);
  GetFixed32(&in, &t.hints.fanout);
  GetFixed32(&in, &t.hints.min_partition_size);
  GetFixed64(&in, &t.hints.partition_seed);
  GetFixed64(&in, &t.applied_lsn);
  GetFixed64(&in, &checksum);
  if (Hash64(std::string_view(header.data(), kHeaderSize - 8)) != checksum) {
    return Status::Corruption("gtree store: header checksum mismatch");
  }

  GTree tree;
  ConnectivityIndex conn;
  graph::LabelStore labels;
  std::vector<JournalEntry> journal;
  std::unordered_map<TreeNodeId, PageLocation> directory;

  std::string blob;
  GMINE_RETURN_IF_ERROR(read_at(t.tree_off, t.tree_size, &blob));
  {
    auto parsed = DeserializeTree(blob, t.num_graph_nodes);
    if (!parsed.ok()) return parsed.status();
    tree = std::move(parsed).value();
  }
  GMINE_RETURN_IF_ERROR(read_at(t.conn_off, t.conn_size, &blob));
  {
    auto parsed = ConnectivityIndex::Deserialize(blob);
    if (!parsed.ok()) return parsed.status();
    conn = std::move(parsed).value();
  }
  if (t.labels_size > 0) {
    GMINE_RETURN_IF_ERROR(read_at(t.labels_off, t.labels_size, &blob));
    auto parsed = graph::LabelStore::Deserialize(blob);
    if (!parsed.ok()) return parsed.status();
    labels = std::move(parsed).value();
  }
  GMINE_RETURN_IF_ERROR(read_at(t.dir_off, t.dir_size, &blob));
  {
    std::string_view dir = blob;
    for (uint32_t i = 0; i < t.num_pages; ++i) {
      uint32_t leaf = 0;
      uint64_t off = 0;
      uint64_t size = 0;
      if (!GetVarint32(&dir, &leaf) || !GetVarint64(&dir, &off) ||
          !GetVarint64(&dir, &size)) {
        return Status::Corruption("gtree store: truncated directory");
      }
      if (off + size > file_size) {
        return Status::Corruption("gtree store: page outside the file");
      }
      directory[leaf] = PageLocation{off, size};
    }
  }
  if (t.journal_size > 0) {
    GMINE_RETURN_IF_ERROR(read_at(t.journal_off, t.journal_size, &blob));
    std::string_view body = blob;
    uint32_t count = 0;
    if (!GetVarint32(&body, &count)) {
      return Status::Corruption("gtree store: bad journal count");
    }
    // Every entry takes at least two bytes, so a damaged count cannot
    // reserve more than the section could hold.
    journal.reserve(std::min<size_t>(count, body.size()));
    for (uint32_t i = 0; i < count; ++i) {
      std::string_view entry;
      uint32_t num_labels = 0;
      if (!GetLengthPrefixed(&body, &entry) ||
          !GetVarint32(&body, &num_labels)) {
        return Status::Corruption("gtree store: truncated journal");
      }
      auto edit = graph::GraphEdit::Deserialize(entry);
      if (!edit.ok()) return edit.status();
      JournalEntry je{std::move(edit).value(), {}};
      for (uint32_t j = 0; j < num_labels; ++j) {
        uint32_t id = 0;
        std::string_view label;
        if (!GetVarint32(&body, &id) || !GetLengthPrefixed(&body, &label)) {
          return Status::Corruption("gtree store: truncated journal label");
        }
        if (id >= t.num_graph_nodes) {
          return Status::Corruption(
              "gtree store: journal label past the graph");
        }
        je.labels.emplace_back(id, std::string(label));
      }
      journal.push_back(std::move(je));
    }
    if (!body.empty()) {
      return Status::Corruption("gtree store: trailing bytes after journal");
    }
    // The label section is the base; each entry's labels go on top, in
    // journal order.
    for (const JournalEntry& je : journal) {
      for (const auto& [id, label] : je.labels) labels.SetLabel(id, label);
    }
  }

  if (file_ != nullptr) std::fclose(file_);
  file_ = f;
  closer.f = nullptr;
  path_ = path;
  file_size_ = file_size;
  hints_ = t.hints;
  num_graph_nodes_ = t.num_graph_nodes;
  applied_lsn_ = t.applied_lsn;
  tree_ = std::move(tree);
  conn_ = std::move(conn);
  labels_ = std::move(labels);
  journal_ = std::move(journal);
  directory_ = std::move(directory);
  graph_section_ = PageLocation{t.graph_off, t.graph_size};
  labels_section_ = PageLocation{t.labels_off, t.labels_size};
  live_bytes_ = ComputeLiveBytes(t, directory_);
  return Status::OK();
}

gmine::Result<std::unique_ptr<GTreeStore>> GTreeStore::Open(
    const std::string& path, const GTreeStoreOptions& options) {
  std::unique_ptr<GTreeStore> store(new GTreeStore());
  store->options_ = options;
  // Every leaf read goes through a buffer pool: the caller's private
  // one when given, the process-wide pool otherwise. The pool keys
  // frames by (store id, leaf id), so id registration is what keeps
  // two stores' pages apart.
  store->pool_ = options.buffer_pool != nullptr
                     ? options.buffer_pool
                     : &storage::BufferPool::Global();
  store->pool_id_ = store->pool_->RegisterStore();
  GMINE_RETURN_IF_ERROR(store->LoadMetadata(path));
  return store;
}

Status GTreeStore::ReadAt(const PageLocation& loc, std::string* out) const {
  out->resize(loc.size);
  std::lock_guard<std::mutex> lock(file_mu_);
  if (std::fseek(file_, static_cast<long>(loc.offset), SEEK_SET) != 0) {
    return Status::IOError("gtree store: seek failed");
  }
  if (std::fread(out->data(), 1, out->size(), file_) != out->size()) {
    return Status::IOError("gtree store: short read");
  }
  return Status::OK();
}

gmine::Result<graph::Graph> GTreeStore::LoadFullGraph() const {
  if (graph_section_.size == 0) {
    return Status::NotFound("gtree store: no embedded graph section");
  }
  std::string blob;
  GMINE_RETURN_IF_ERROR(ReadAt(graph_section_, &blob));
  {
    std::lock_guard<std::mutex> lock(file_mu_);
    graph_bytes_read_ += blob.size();
  }
  auto g = graph::DeserializeGraph(blob);
  if (!g.ok() || journal_.empty()) return g;
  // Replay the edit journal: the graph section is the base state and
  // each journaled edit was validated when it was applied live.
  graph::Graph current = std::move(g).value();
  for (const JournalEntry& entry : journal_) {
    auto replayed = entry.edit.Apply(current);
    if (!replayed.ok()) {
      return Status::Corruption(
          StrFormat("gtree store: journal replay failed: %s",
                    replayed.status().ToString().c_str()));
    }
    current = std::move(replayed).value().graph;
  }
  return current;
}

gmine::Result<std::shared_ptr<const graph::Graph>> GTreeStore::FullGraph()
    const {
  std::lock_guard<std::mutex> lock(graph_mu_);
  if (full_graph_ == nullptr) {
    GMINE_ASSIGN_OR_RETURN(graph::Graph g, MaterializeFullGraph());
    full_graph_ = std::make_shared<const graph::Graph>(std::move(g));
  }
  return full_graph_;
}

void GTreeStore::AdoptFullGraph(std::shared_ptr<const graph::Graph> g) {
  std::lock_guard<std::mutex> lock(graph_mu_);
  full_graph_ = std::move(g);
}

gmine::Result<std::shared_ptr<const LeafPayload>> GTreeStore::LoadLeaf(
    TreeNodeId leaf, ReaderTag reader) const {
  return LoadLeaf(leaf, reader, storage::kNoScan);
}

gmine::Result<std::shared_ptr<const LeafPayload>> GTreeStore::LoadLeaf(
    TreeNodeId leaf, ReaderTag reader, storage::ScanId scan) const {
  if (storage::PagePayload hit =
          pool_->Lookup(pool_id_, leaf, reader, scan)) {
    return std::static_pointer_cast<const LeafPayload>(hit);
  }
  // directory_ is immutable except under ApplyUpdate, whose contract
  // excludes every concurrent reader, so the miss path reads it
  // latch-free.
  auto it = directory_.find(leaf);
  if (it == directory_.end()) {
    return Status::NotFound(
        StrFormat("leaf %u has no page (not a leaf community?)", leaf));
  }
  // The disk read serializes on the file mutex only, so a load never
  // blocks pool hits on other pages.
  std::string blob;
  GMINE_RETURN_IF_ERROR(ReadAt(it->second, &blob));
  // Deserialization runs outside every latch: it is the expensive part
  // and touches only local state. Two threads racing on the same
  // non-resident leaf both read and decode it; the first Insert wins
  // the frame and the loser's copy simply dies with its shared_ptr.
  auto payload = DeserializeLeafPayload(blob);
  if (!payload.ok()) return payload.status();
  auto shared =
      std::make_shared<const LeafPayload>(std::move(payload).value());
  GMINE_ASSIGN_OR_RETURN(
      storage::PagePayload winner,
      pool_->Insert(pool_id_, leaf, shared, blob.size(), reader, scan));
  return std::static_pointer_cast<const LeafPayload>(winner);
}

Status GTreeStore::ScanLeafPages(
    const std::function<bool(const TreeNode&)>& prune,
    const std::function<Status(const TreeNode&, const LeafPayload&)>& visit,
    LeafScanStats* stats, ReaderTag reader) const {
  LeafScanStats local;
  for (const TreeNode& node : tree_.nodes()) {
    if (!node.IsLeaf()) continue;
    ++local.pages_total;
    if (prune && prune(node)) {
      ++local.pages_pruned;
      continue;
    }
    GMINE_ASSIGN_OR_RETURN(std::shared_ptr<const LeafPayload> payload,
                           LoadLeaf(node.id, reader));
    ++local.pages_scanned;
    GMINE_RETURN_IF_ERROR(visit(node, *payload));
    // The pin (shared_ptr) drops here, before the next page loads:
    // the scan holds at most one frame at a time, so it runs within
    // any pool budget that fits the largest single page.
  }
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

Status GTreeStore::ApplyUpdate(GTreeStoreUpdate& update,
                               GTreeStoreUpdateStats* stats) {
  if (streamed()) {
    // Streamed stores have no embedded base graph for the journal to
    // replay against, so in-place edits are off the table by design
    // (docs/OUTOFCORE.md) — rebuild through the streaming pipeline.
    // Checked before update validation: it is a property of the store,
    // not of this particular update.
    return Status::NotSupported(
        "streamed (out-of-core) store is read-only; rebuild to edit");
  }
  if (update.tree == nullptr || update.graph == nullptr) {
    return Status::InvalidArgument("ApplyUpdate: tree and graph required");
  }
  if (update.conn_deltas != nullptr && update.replacement_conn != nullptr) {
    return Status::InvalidArgument(
        "ApplyUpdate: conn_deltas and replacement_conn are exclusive");
  }
  if (update.labels != nullptr && !update.added_labels.empty()) {
    return Status::InvalidArgument(
        "ApplyUpdate: labels and added_labels are exclusive");
  }
  GTreeStoreUpdateStats local;
  GTreeStoreUpdateStats& out = stats != nullptr ? *stats : local;

  // Size-ratio defragmentation trigger: when the dead bytes accumulated
  // by prior appends already dwarf the live set, compact now instead of
  // waiting for the journal to fill — a burst of page-heavy edits can
  // triple the file long before journal_compact_ops edits have landed.
  const bool defrag_due =
      options_.defrag_wasted_ratio > 0 && live_bytes_ > 0 &&
      static_cast<double>(wasted_bytes()) >
          options_.defrag_wasted_ratio * static_cast<double>(live_bytes_);
  const bool compact = update.journal_edit == nullptr ||
                       update.labels != nullptr ||
                       options_.journal_compact_ops == 0 ||
                       journal_.size() >= options_.journal_compact_ops ||
                       defrag_due;
  if (compact) {
    out.defragmented = defrag_due;
    // Compaction: materialize the post-edit state and rewrite the whole
    // file through Create + atomic rename; memory commits only after
    // the rename so a failure leaves the store on its old state.
    GTree new_tree = std::move(*update.tree);
    ConnectivityIndex new_conn;
    if (update.replacement_conn != nullptr) {
      new_conn = std::move(*update.replacement_conn);
    } else {
      new_conn = conn_;
      if (update.conn_deltas != nullptr) {
        new_conn.ApplyDeltas(*update.conn_deltas);
      }
    }
    // The new section holds the live labels plus the edit's; the copy
    // keeps the live store untouched until the rewrite commits.
    graph::LabelStore merged;
    const graph::LabelStore* labels = update.labels;
    if (labels == nullptr) {
      labels = &labels_;
      if (!update.added_labels.empty()) {
        merged = labels_;
        for (const auto& [id, label] : update.added_labels) {
          merged.SetLabel(id, label);
        }
        labels = &merged;
      }
    }
    const std::string tmp = path_ + ".tmp";
    const uint64_t new_lsn =
        update.applied_lsn != 0 ? update.applied_lsn : applied_lsn_;
    Status created = Create(tmp, *update.graph, new_tree, new_conn, *labels,
                            &hints_, new_lsn);
    if (!created.ok()) {
      std::remove(tmp.c_str());
      return created;
    }
    if (options_.durable_appends) {
      // Push the replacement to disk before it takes the store's name.
      std::FILE* t = std::fopen(tmp.c_str(), "rb");
      if (t != nullptr) {
        (void)fdatasync(fileno(t));
        std::fclose(t);
      }
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
      std::remove(tmp.c_str());
      return Status::IOError(
          StrFormat("ApplyUpdate: cannot replace %s", path_.c_str()));
    }
    GMINE_RETURN_IF_ERROR(LoadMetadata(path_));
    AdoptFullGraph(std::move(update.graph));
    // Every page was rewritten, so every resident frame of *this*
    // store is stale; other stores' frames are untouched.
    out.pages_invalidated +=
        static_cast<uint32_t>(pool_->DropStore(pool_id_));
    out.compacted = true;
    out.journal_ops = 0;
    return Status::OK();
  }

  // Append path: dirty pages + fresh metadata sections go at the end of
  // the file; the header is rewritten last. Everything fallible
  // (serialization, IO) runs before any in-memory commit.
  std::string tree_blob = SerializeTree(*update.tree);
  ConnectivityIndex new_conn;
  if (update.replacement_conn != nullptr) {
    new_conn = std::move(*update.replacement_conn);
  } else {
    new_conn = conn_;
    if (update.conn_deltas != nullptr) {
      new_conn.ApplyDeltas(*update.conn_deltas);
    }
  }
  std::string conn_blob = new_conn.Serialize();
  std::string journal_blob;
  PutVarint32(&journal_blob, static_cast<uint32_t>(journal_.size() + 1));
  for (const JournalEntry& e : journal_) {
    PutJournalEntry(&journal_blob, e.edit, e.labels);
  }
  PutJournalEntry(&journal_blob, *update.journal_edit, update.added_labels);

  // Layout: dirty pages first, then tree/conn/directory/journal. The
  // label section stays where the last compaction wrote it.
  const uint64_t append_base = file_size_;
  std::string appended;
  std::unordered_map<TreeNodeId, PageLocation> new_directory;
  std::unordered_set<TreeNodeId> dirty;
  for (auto& [leaf, sub] : update.dirty_pages) {
    std::string page = SerializeLeafPayload(sub);
    new_directory[leaf] =
        PageLocation{append_base + appended.size(), page.size()};
    dirty.insert(leaf);
    appended += page;
    ++out.pages_written;
  }
  // Clean pages carry over at their old offsets under their new ids.
  std::unordered_map<TreeNodeId, TreeNodeId> new_to_old;
  if (update.old_to_new != nullptr) {
    new_to_old.reserve(update.old_to_new->size());
    for (TreeNodeId o = 0;
         o < static_cast<TreeNodeId>(update.old_to_new->size()); ++o) {
      if ((*update.old_to_new)[o] != kInvalidTreeNode) {
        new_to_old[(*update.old_to_new)[o]] = o;
      }
    }
  }
  for (const TreeNode& tn : update.tree->nodes()) {
    if (!tn.IsLeaf() || dirty.count(tn.id) > 0) continue;
    TreeNodeId old_id = tn.id;
    if (update.old_to_new != nullptr) {
      auto mapped = new_to_old.find(tn.id);
      old_id = mapped == new_to_old.end() ? kInvalidTreeNode
                                          : mapped->second;
    }
    auto it = old_id == kInvalidTreeNode ? directory_.end()
                                         : directory_.find(old_id);
    if (it == directory_.end()) {
      return Status::Internal(
          StrFormat("ApplyUpdate: clean leaf %u has no prior page", tn.id));
    }
    new_directory[tn.id] = it->second;
  }
  std::string directory_blob;
  {
    // Deterministic directory order (ascending leaf id).
    std::vector<TreeNodeId> leaves;
    leaves.reserve(new_directory.size());
    for (const auto& [leaf, _] : new_directory) leaves.push_back(leaf);
    std::sort(leaves.begin(), leaves.end());
    for (TreeNodeId leaf : leaves) {
      const PageLocation& loc = new_directory.at(leaf);
      PutVarint32(&directory_blob, leaf);
      PutVarint64(&directory_blob, loc.offset);
      PutVarint64(&directory_blob, loc.size);
    }
  }

  SectionTable t;
  t.tree_off = append_base + appended.size();
  t.tree_size = tree_blob.size();
  appended += tree_blob;
  t.conn_off = append_base + appended.size();
  t.conn_size = conn_blob.size();
  appended += conn_blob;
  t.labels_off = labels_section_.offset;
  t.labels_size = labels_section_.size;
  t.dir_off = append_base + appended.size();
  t.dir_size = directory_blob.size();
  appended += directory_blob;
  t.journal_off = append_base + appended.size();
  t.journal_size = journal_blob.size();
  appended += journal_blob;
  t.graph_off = graph_section_.offset;
  t.graph_size = graph_section_.size;
  t.num_pages = static_cast<uint32_t>(new_directory.size());
  t.num_graph_nodes = update.graph->num_nodes();
  t.hints = hints_;
  t.applied_lsn =
      update.applied_lsn != 0 ? update.applied_lsn : applied_lsn_;
  std::string header = SerializeHeader(t);

  {
    // Appends land before the header write, so a *process* crash in
    // between leaves the old header describing the old sections — the
    // previous consistent state. For power-loss safety the kernel must
    // not reorder the header ahead of the appends: durable_appends
    // inserts fdatasync barriers around the header write (costing
    // milliseconds per edit, hence opt-in).
    std::FILE* w = std::fopen(path_.c_str(), "r+b");
    if (w == nullptr) {
      return Status::IOError(
          StrFormat("ApplyUpdate: cannot reopen %s for writing",
                    path_.c_str()));
    }
    bool ok = std::fseek(w, 0, SEEK_END) == 0 &&
              static_cast<uint64_t>(std::ftell(w)) == append_base &&
              std::fwrite(appended.data(), 1, appended.size(), w) ==
                  appended.size() &&
              std::fflush(w) == 0;
    if (ok && options_.durable_appends) ok = fdatasync(fileno(w)) == 0;
    ok = ok && std::fseek(w, 0, SEEK_SET) == 0 &&
         std::fwrite(header.data(), 1, header.size(), w) ==
             header.size() &&
         std::fflush(w) == 0;
    if (ok && options_.durable_appends) ok = fdatasync(fileno(w)) == 0;
    std::fclose(w);
    if (!ok) {
      return Status::IOError(
          StrFormat("ApplyUpdate: write to %s failed", path_.c_str()));
    }
  }

  // Commit (infallible from here).
  tree_ = std::move(*update.tree);
  conn_ = std::move(new_conn);
  for (const auto& [id, label] : update.added_labels) {
    labels_.SetLabel(id, label);
  }
  journal_.push_back(
      JournalEntry{*update.journal_edit, std::move(update.added_labels)});
  num_graph_nodes_ = t.num_graph_nodes;
  applied_lsn_ = t.applied_lsn;
  AdoptFullGraph(std::move(update.graph));
  file_size_ = append_base + appended.size();
  out.appended_bytes = appended.size();
  out.journal_ops = journal_.size();
  live_bytes_ = ComputeLiveBytes(t, new_directory);

  // Invalidate only the touched frames; clean frames survive in the
  // pool, re-keyed when the repair renumbered the tree.
  out.pages_invalidated += static_cast<uint32_t>(pool_->RekeyStore(
      pool_id_,
      [&](storage::PageId old_page) -> storage::PageId {
        const TreeNodeId old_id = static_cast<TreeNodeId>(old_page);
        const TreeNodeId new_id =
            update.old_to_new != nullptr
                ? (old_id < update.old_to_new->size()
                       ? (*update.old_to_new)[old_id]
                       : kInvalidTreeNode)
                : old_id;
        if (new_id == kInvalidTreeNode || dirty.count(new_id) > 0 ||
            new_directory.count(new_id) == 0) {
          return storage::kInvalidPage;
        }
        return new_id;
      }));
  directory_ = std::move(new_directory);
  return Status::OK();
}

namespace {
/// Resume-token magic: "GPS1".
constexpr uint32_t kPageScanTokenMagic = 0x47505331;
}  // namespace

/// The store-backed PageScan (storage/page_scan.h): ascending leaf-id
/// walk, one pinned page per Next() call, tokens fingerprinted against
/// the store state they were minted from. Every sweep reads through the
/// pool's scan path under one scan id, so it keeps the pages it holds
/// and never evicts a navigator's (docs/STORAGE.md, "Scans").
class GTreeLeafPageScan final : public storage::PageScan {
 public:
  GTreeLeafPageScan(const GTreeStore* store, ReaderTag reader)
      : store_(store), reader_(reader), scan_(store->pool_->NewScanId()) {
    for (const TreeNode& tn : store->tree_.nodes()) {
      if (tn.IsLeaf()) leaves_.push_back(tn.id);
    }
    std::sort(leaves_.begin(), leaves_.end());
    // Any ApplyUpdate changes file_size_ (append or rewrite), so this
    // is enough to invalidate tokens across store mutations.
    std::string fp;
    PutFixed64(&fp, leaves_.size());
    PutFixed32(&fp, store->num_graph_nodes_);
    PutFixed64(&fp, store->applied_lsn_);
    PutFixed64(&fp, store->file_size_);
    PutFixed64(&fp, store->journal_.size());
    fingerprint_ = Hash64(fp);
  }

  gmine::Result<bool> Next(storage::GraphPage* page) override {
    if (next_ >= leaves_.size()) return false;
    const TreeNodeId leaf = leaves_[next_];
    GMINE_ASSIGN_OR_RETURN(std::shared_ptr<const LeafPayload> payload,
                           store_->LoadLeaf(leaf, reader_, scan_));
    Convert(leaf, *payload, page);
    ++next_;
    return true;
    // The pin (shared_ptr) drops here: at most one frame is held per
    // call, so the scan runs under any budget fitting one page.
  }

  void Reset() override { next_ = 0; }

  std::string Checkpoint() const override {
    std::string token;
    PutFixed32(&token, kPageScanTokenMagic);
    PutFixed64(&token, fingerprint_);
    PutVarint64(&token, next_);
    return token;
  }

  Status Restore(std::string_view token) override {
    uint32_t magic = 0;
    uint64_t fp = 0;
    uint64_t pos = 0;
    if (!GetFixed32(&token, &magic) || !GetFixed64(&token, &fp) ||
        !GetVarint64(&token, &pos) || !token.empty() ||
        magic != kPageScanTokenMagic) {
      return Status::InvalidArgument("page scan: malformed resume token");
    }
    if (fp != fingerprint_) {
      return Status::InvalidArgument(
          "page scan: resume token does not match this store state");
    }
    if (pos > leaves_.size()) {
      return Status::InvalidArgument("page scan: token position out of range");
    }
    next_ = pos;
    return Status::OK();
  }

  uint32_t num_nodes() const override { return store_->num_graph_nodes_; }
  uint64_t pages_total() const override { return leaves_.size(); }
  bool complete_adjacency() const override { return store_->streamed(); }

 private:
  /// Flattens a leaf payload into global-id CSR rows. Intra arcs map
  /// through to_parent (ascending, so mapped ids stay sorted); boundary
  /// arcs are already global and sorted — a two-way merge keeps each
  /// row sorted by destination.
  static void Convert(TreeNodeId leaf, const LeafPayload& p,
                      storage::GraphPage* out) {
    const Subgraph& sub = p.subgraph;
    const size_t n = sub.to_parent.size();
    out->page_id = leaf;
    out->nodes.assign(sub.to_parent.begin(), sub.to_parent.end());
    out->arc_offsets.clear();
    out->arc_offsets.reserve(n + 1);
    out->arc_offsets.push_back(0);
    out->arc_dst.clear();
    out->arc_weight.clear();
    for (NodeId v = 0; v < n; ++v) {
      std::span<const graph::Neighbor> intra = sub.graph.Neighbors(v);
      size_t ii = 0;
      size_t bi = p.has_boundary() ? p.boundary_offsets[v] : 0;
      const size_t be = p.has_boundary() ? p.boundary_offsets[v + 1] : 0;
      while (ii < intra.size() || bi < be) {
        bool take_intra;
        NodeId intra_global = 0;
        if (ii < intra.size()) intra_global = sub.to_parent[intra[ii].id];
        if (ii >= intra.size()) {
          take_intra = false;
        } else if (bi >= be) {
          take_intra = true;
        } else {
          take_intra = intra_global < p.boundary_arcs[bi].id;
        }
        if (take_intra) {
          out->arc_dst.push_back(intra_global);
          out->arc_weight.push_back(intra[ii].weight);
          ++ii;
        } else {
          out->arc_dst.push_back(p.boundary_arcs[bi].id);
          out->arc_weight.push_back(p.boundary_arcs[bi].weight);
          ++bi;
        }
      }
      out->arc_offsets.push_back(static_cast<uint32_t>(out->arc_dst.size()));
    }
  }

  const GTreeStore* store_;
  ReaderTag reader_;
  storage::ScanId scan_;
  std::vector<TreeNodeId> leaves_;
  size_t next_ = 0;
  uint64_t fingerprint_ = 0;
};

std::unique_ptr<storage::PageScan> GTreeStore::NewPageScan(
    ReaderTag reader) const {
  return std::make_unique<GTreeLeafPageScan>(this, reader);
}

gmine::Result<graph::Graph> GTreeStore::MaterializeFullGraph() const {
  if (!streamed()) return LoadFullGraph();
  // Streamed store: every node's complete adjacency lives in its own
  // page, so two page scans rebuild the CSR — degrees first, then fill.
  // O(n + m) memory in the *result*, by definition of materializing.
  const uint32_t n = num_graph_nodes_;
  std::vector<uint64_t> offsets(n + 1, 0);
  std::unique_ptr<storage::PageScan> scan = NewPageScan();
  storage::GraphPage page;
  while (true) {
    GMINE_ASSIGN_OR_RETURN(bool more, scan->Next(&page));
    if (!more) break;
    for (size_t i = 0; i < page.nodes.size(); ++i) {
      offsets[page.nodes[i] + 1] =
          page.arc_offsets[i + 1] - page.arc_offsets[i];
    }
  }
  for (uint32_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<graph::Neighbor> arcs(offsets[n]);
  scan->Reset();
  while (true) {
    GMINE_ASSIGN_OR_RETURN(bool more, scan->Next(&page));
    if (!more) break;
    for (size_t i = 0; i < page.nodes.size(); ++i) {
      uint64_t at = offsets[page.nodes[i]];
      for (uint32_t a = page.arc_offsets[i]; a < page.arc_offsets[i + 1];
           ++a) {
        arcs[at++] = graph::Neighbor{page.arc_dst[a], page.arc_weight[a]};
      }
    }
  }
  return graph::Graph(std::move(offsets), std::move(arcs), {},
                      /*directed=*/false);
}

gmine::Result<std::unique_ptr<GTreeStoreWriter>> GTreeStoreWriter::Begin(
    const std::string& path) {
  std::unique_ptr<GTreeStoreWriter> w(new GTreeStoreWriter());
  w->path_ = path;
  w->file_ = std::fopen(path.c_str(), "wb");
  if (w->file_ == nullptr) {
    return Status::IOError(
        StrFormat("gtree writer: cannot create %s", path.c_str()));
  }
  // Header placeholder; the real header lands last (crash safety: a
  // zeroed header never parses as a store).
  const std::string placeholder(kHeaderSize, '\0');
  GMINE_RETURN_IF_ERROR(w->Append(placeholder));
  return w;
}

GTreeStoreWriter::~GTreeStoreWriter() {
  if (file_ != nullptr) std::fclose(file_);
  // An abandoned (unfinished) build leaves no half-written store behind.
  if (!finished_ && !path_.empty()) std::remove(path_.c_str());
}

Status GTreeStoreWriter::Append(std::string_view blob) {
  if (std::fwrite(blob.data(), 1, blob.size(), file_) != blob.size()) {
    return Status::IOError(
        StrFormat("gtree writer: write to %s failed", path_.c_str()));
  }
  offset_ += blob.size();
  return Status::OK();
}

Status GTreeStoreWriter::AddLeafPage(
    TreeNodeId leaf, const graph::Subgraph& sub,
    const std::vector<uint32_t>& boundary_offsets,
    const std::vector<graph::Neighbor>& boundary_arcs) {
  if (finished_) {
    return Status::InvalidArgument("gtree writer: AddLeafPage after Finish");
  }
  const std::string page =
      SerializeLeafPayload(sub, &boundary_offsets, &boundary_arcs);
  PutVarint32(&directory_, leaf);
  PutVarint64(&directory_, offset_);  // absolute, like Create's directory
  PutVarint64(&directory_, page.size());
  ++num_pages_;
  return Append(page);
}

Status GTreeStoreWriter::Finish(const GTree& tree,
                                const ConnectivityIndex& conn,
                                const graph::LabelStore& labels,
                                uint32_t num_graph_nodes,
                                const GTreeBuildHints* hints,
                                uint64_t applied_lsn) {
  if (finished_) {
    return Status::InvalidArgument("gtree writer: Finish called twice");
  }
  if (num_pages_ != tree.num_leaves()) {
    return Status::InvalidArgument(
        StrFormat("gtree writer: %u pages for %u leaves", num_pages_,
                  tree.num_leaves()));
  }
  SectionTable t;
  const std::string tree_blob = SerializeTree(tree);
  t.tree_off = offset_;
  t.tree_size = tree_blob.size();
  GMINE_RETURN_IF_ERROR(Append(tree_blob));
  const std::string conn_blob = conn.Serialize();
  t.conn_off = offset_;
  t.conn_size = conn_blob.size();
  GMINE_RETURN_IF_ERROR(Append(conn_blob));
  const std::string labels_blob = labels.Serialize();
  t.labels_off = offset_;
  t.labels_size = labels_blob.size();
  GMINE_RETURN_IF_ERROR(Append(labels_blob));
  t.dir_off = offset_;
  t.dir_size = directory_.size();
  GMINE_RETURN_IF_ERROR(Append(directory_));
  // No embedded graph and no journal: the pages (with their boundary
  // arcs) *are* the graph — that is what GTreeStore::streamed() keys on.
  t.graph_off = offset_;
  t.graph_size = 0;
  t.journal_off = offset_;
  t.journal_size = 0;
  t.num_pages = num_pages_;
  t.num_graph_nodes = num_graph_nodes;
  if (hints != nullptr) t.hints = *hints;
  t.applied_lsn = applied_lsn;

  const std::string header = SerializeHeader(t);
  bool ok = std::fflush(file_) == 0 && std::fseek(file_, 0, SEEK_SET) == 0 &&
            std::fwrite(header.data(), 1, header.size(), file_) ==
                header.size() &&
            std::fflush(file_) == 0;
  ok = std::fclose(file_) == 0 && ok;
  file_ = nullptr;
  if (!ok) {
    std::remove(path_.c_str());
    return Status::IOError(
        StrFormat("gtree writer: sealing %s failed", path_.c_str()));
  }
  finished_ = true;
  return Status::OK();
}

bool GTreeStore::IsCached(TreeNodeId leaf) const {
  return pool_->Contains(pool_id_, leaf);
}

GTreeStoreStats GTreeStore::stats() const {
  const storage::BufferPoolStoreStats pool = pool_->store_stats(pool_id_);
  GTreeStoreStats total;
  total.leaf_loads = pool.loads;
  total.cache_hits = pool.hits;
  total.shared_hits = pool.shared_hits;
  total.bytes_read = pool.bytes_loaded;
  total.evictions = pool.evictions;
  total.resident_bytes = pool.resident_bytes;
  total.pinned_bytes = pool.pinned_bytes;
  std::lock_guard<std::mutex> lock(file_mu_);
  total.bytes_read += graph_bytes_read_;
  return total;
}

void GTreeStore::ClearCache() { pool_->DropStore(pool_id_); }

}  // namespace gmine::gtree
