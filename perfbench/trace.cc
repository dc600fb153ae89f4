// The benchmark's traced replay: runs the same seeded op scripts as the
// wire load generator, in-process against a store built from the same
// generated files, with spans around every call into a GMine module and
// counters read at the same boundaries. It prints the per-layer metrics,
// the end-to-end metrics as seen in-process, and the counts that must
// repeat exactly for a seed, as one JSON object.
//
//   perfbench_trace --workload W --seed S --seconds T --graph PREFIX
//                   --dir DIR [--served-store PATH]
//
// Two passes per workload: a timed pass with the same clients and
// pacing as the wire run, and a single-client pass over a fixed script
// prefix whose page, WAL, RWR and PageRank counts are deterministic.
// Spans are kept in memory and written to DIR/spans.csv at the end. Only
// public module functions are called (no net::Server, no LoadFullGraph).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/catalog.h"
#include "core/edit_queue.h"
#include "core/engine.h"
#include "core/views.h"
#include "csg/extraction.h"
#include "csg/rwr.h"
#include "graph/graph_edit.h"
#include "graph/graph_io.h"
#include "graph/labels.h"
#include "gtree/builder.h"
#include "gtree/connectivity.h"
#include "gtree/store.h"
#include "gtree/stream_build.h"
#include "mining/pagescan_kernels.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/plan.h"
#include "storage/buffer_pool.h"
#include "storage/wal.h"

namespace perfbench {
namespace {

namespace core = gmine::core;
namespace csg = gmine::csg;
namespace graph = gmine::graph;
namespace gtree = gmine::gtree;
namespace mining = gmine::mining;
namespace query = gmine::query;
namespace storage = gmine::storage;
using Clock = std::chrono::steady_clock;
using gmine::Status;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double MsBetween(int64_t a, int64_t b) { return static_cast<double>(b - a) / 1e6; }

void SleepMs(double ms) {
  std::this_thread::sleep_for(std::chrono::microseconds(static_cast<int64_t>(ms * 1000)));
}

// ----------------------------------------------------------------- spans

struct Span {
  const char* name;
  int64_t start;
  int64_t end;
  int32_t parent;    // index in the same thread's log, -1 for a root
  uint64_t request;  // spans of one op share it
};

/// One thread's spans, kept in memory until the run ends.
class SpanLog {
 public:
  explicit SpanLog(uint64_t thread) : request_(thread << 40) {}

  void NewRequest() { ++request_; }
  size_t Begin(const char* name) {
    spans_.push_back(Span{name, NowNs(), 0, Parent(), request_});
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return spans_.size() - 1;
  }
  void End(size_t index) {
    spans_[index].end = NowNs();
    open_.pop_back();
  }
  /// A finished interval under the currently open span.
  void Add(const char* name, int64_t start, int64_t end) {
    spans_.push_back(Span{name, start, end, Parent(), request_});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int32_t Parent() const { return open_.empty() ? -1 : open_.back(); }

  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t request_;
};

class Scoped {
 public:
  Scoped(SpanLog* log, const char* name) : log_(log), index_(log->Begin(name)) {}
  ~Scoped() { log_->End(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  size_t index_;
};

struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

/// Aggregates spans by name: count, total and self time (duration minus
/// the part its child spans cover; children never overlap in a thread).
std::map<std::string, SpanTotals> Aggregate(const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTotals> out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ms[s.parent] += MsBetween(s.start, s.end);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      SpanTotals& t = out[spans[i].name];
      const double ms = MsBetween(spans[i].start, spans[i].end);
      ++t.count;
      t.total_ms += ms;
      t.self_ms += ms - child_ms[i];
    }
  }
  return out;
}

void WriteSpans(const std::vector<const SpanLog*>& logs, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "thread,index,name,start_ns,end_ns,parent,request\n");
  size_t written = 0;
  for (size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t]->spans();
    for (size_t i = 0; i < spans.size() && written < 400000; ++i, ++written) {
      std::fprintf(f, "%zu,%zu,%s,%lld,%lld,%d,%llu\n", t, i, spans[i].name,
                   static_cast<long long>(spans[i].start),
                   static_cast<long long>(spans[i].end), spans[i].parent,
                   static_cast<unsigned long long>(spans[i].request));
    }
  }
  std::fclose(f);
}

// --------------------------------------------------------------- results

/// Everything one traced workload reports.
struct Report {
  std::map<std::string, double> layers;
  std::map<std::string, double> e2e;
  std::map<std::string, double> repeat;
  std::vector<std::string> errors;  // guarded by mu
  std::mutex mu;
  std::vector<std::unique_ptr<SpanLog>> logs;

  SpanLog* NewLog() {
    logs.push_back(std::make_unique<SpanLog>(logs.size() + 1));
    return logs.back().get();
  }
  /// Safe from any thread.
  void Error(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (errors.size() < 10) errors.push_back(what);
  }
  std::vector<const SpanLog*> Logs() const {
    std::vector<const SpanLog*> out;
    for (const auto& l : logs) out.push_back(l.get());
    return out;
  }
};

/// Sets layer `metric` to the mean duration of span `name` (ms * scale),
/// when that span ran.
void LayerMean(Report* r, const std::map<std::string, SpanTotals>& spans,
               const char* metric, const char* name, double scale) {
  auto it = spans.find(name);
  if (it == spans.end() || it->second.count == 0) return;
  r->layers[metric] =
      it->second.total_ms * scale / static_cast<double>(it->second.count);
}

/// Latency samples of one op class in the replay.
struct OpLog {
  std::vector<double> nav_ms;      // timed from due time when paced
  std::vector<double> service_ms;  // in-process service time only
  std::vector<double> work_ms;
  std::vector<double> mine_ms;
  double display_sum = 0;
  uint64_t display_count = 0;
  uint64_t peak_resident = 0;
  uint64_t load_pages = 0;  // pool traffic of navigation loads
  uint64_t load_hits = 0;
  uint64_t load_bytes = 0;
  uint64_t load_evictions = 0;
};

void MergeOps(OpLog* into, const OpLog& from) {
  auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  cat(&into->nav_ms, from.nav_ms);
  cat(&into->service_ms, from.service_ms);
  cat(&into->work_ms, from.work_ms);
  cat(&into->mine_ms, from.mine_ms);
  into->display_sum += from.display_sum;
  into->display_count += from.display_count;
  into->peak_resident = std::max(into->peak_resident, from.peak_resident);
  into->load_pages += from.load_pages;
  into->load_hits += from.load_hits;
  into->load_bytes += from.load_bytes;
  into->load_evictions += from.load_evictions;
}

void ReplayE2e(Report* r, const Config& c, const OpLog& ops, double seconds) {
  const LatencySummary nav = Summarize(ops.nav_ms, c.nav_tail_q);
  const LatencySummary work = Summarize(ops.work_ms, c.work_tail_q);
  r->e2e["nav_p50_ms"] = nav.p50;
  r->e2e["nav_tail_ms"] = nav.tail;
  r->e2e["nav_per_s"] = static_cast<double>(nav.count) / seconds;
  r->e2e["nav_service_p50_ms"] = Summarize(ops.service_ms).p50;
  r->e2e["work_p50_ms"] = work.p50;
  r->e2e["work_mean_ms"] = work.mean;
  r->e2e["work_tail_ms"] = work.tail;
  r->e2e["work_per_s"] = static_cast<double>(work.count) / seconds;
  if (!ops.mine_ms.empty()) r->e2e["mine_s"] = Summarize(ops.mine_ms).p50 / 1000;
  if (ops.display_count > 0) {
    r->layers["gtree.display_size"] =
        ops.display_sum / static_cast<double>(ops.display_count);
  }
  r->layers["storage.pool_resident_mb"] =
      static_cast<double>(ops.peak_resident) / (1 << 20);
}

// -------------------------------------------------------------- building

gmine::Result<graph::LabelStore> ReadLabels(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read " + path);
  graph::LabelStore labels;
  std::string line;
  while (std::getline(in, line)) {
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    labels.SetLabel(static_cast<graph::NodeId>(std::stoul(line.substr(0, tab))),
                    line.substr(tab + 1));
  }
  return labels;
}

/// Builds the store exactly as `gmine build` does for this workload,
/// with a span per build stage.
Status BuildStore(const Config& c, const std::string& graph_prefix,
                  const std::string& path, SpanLog* log, Report* r) {
  GMINE_ASSIGN_OR_RETURN(graph::LabelStore labels,
                         ReadLabels(graph_prefix + ".labels"));
  const int64_t t0 = NowNs();
  if (c.stream_build) {
    gtree::StreamBuildOptions opts;
    opts.leaf_size = c.stream_leaf_size;
    opts.fanout = c.stream_fanout;
    opts.mem_budget_bytes = static_cast<uint64_t>(c.stream_sort_mb) << 20;
    gtree::StreamBuildStats stats;
    {
      Scoped s(log, "gtree.stream_build");
      GMINE_RETURN_IF_ERROR(gtree::StreamBuildStore(
          graph_prefix + ".edges", path, labels, opts, &stats));
    }
    r->layers["gtree.stream_build_s"] = MsBetween(t0, NowNs()) / 1000;
    r->layers["storage.sort_runs"] = stats.sort_runs;
    r->layers["storage.spilled_mb"] =
        static_cast<double>(stats.spilled_bytes) / (1 << 20);
  } else {
    graph::Graph g;
    {
      Scoped s(log, "graph.read");
      GMINE_ASSIGN_OR_RETURN(g, graph::ReadEdgeListFile(graph_prefix + ".edges"));
    }
    gtree::GTreeBuildOptions opts;
    opts.levels = c.build_levels;
    opts.fanout = c.build_fanout;
    opts.shards = 1;
    opts.threads = c.gmine_threads;
    int64_t a = NowNs();
    gtree::GTree tree;
    {
      Scoped s(log, "gtree.build");
      GMINE_ASSIGN_OR_RETURN(tree, gtree::BuildGTree(g, opts));
    }
    r->layers["gtree.build_s"] = MsBetween(a, NowNs()) / 1000;
    a = NowNs();
    gtree::ConnectivityIndex conn;
    {
      Scoped s(log, "gtree.connectivity");
      conn = gtree::ConnectivityIndex::Build(g, tree, c.gmine_threads);
    }
    r->layers["gtree.connectivity_s"] = MsBetween(a, NowNs()) / 1000;
    gtree::GTreeBuildHints hints;
    hints.levels = opts.levels;
    hints.fanout = opts.fanout;
    hints.min_partition_size = opts.min_partition_size;
    hints.partition_seed = opts.partition.seed;
    a = NowNs();
    {
      Scoped s(log, "gtree.store_write");
      GMINE_RETURN_IF_ERROR(
          gtree::GTreeStore::Create(path, g, tree, conn, labels, &hints));
    }
    r->layers["gtree.store_write_s"] = MsBetween(a, NowNs()) / 1000;
  }
  // Open once on its own, for the open cost alone.
  const int64_t a = NowNs();
  {
    Scoped s(log, "gtree.open");
    GMINE_ASSIGN_OR_RETURN(auto store, gtree::GTreeStore::Open(path));
  }
  r->layers["gtree.open_ms"] = MsBetween(a, NowNs());
  r->e2e["setup_s"] = MsBetween(t0, NowNs()) / 1000;
  return Status::OK();
}

bool SameBytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  std::stringstream sa;
  std::stringstream sb;
  sa << fa.rdbuf();
  sb << fb.rdbuf();
  return fa && fb && sa.str() == sb.str();
}

/// The walkers' tree model, numbered in the same depth-first order the
/// load generator discovers it in over the wire.
TreeModel ModelOf(const gtree::GTree& tree, uint32_t graph_nodes) {
  TreeModel m;
  m.leaf_of.assign(graph_nodes, -1);
  std::vector<std::pair<gtree::TreeNodeId, int32_t>> stack = {{tree.root(), -1}};
  while (!stack.empty()) {
    const auto [id, parent] = stack.back();
    stack.pop_back();
    const gtree::TreeNode& node = tree.node(id);
    const int32_t index = static_cast<int32_t>(m.name.size());
    m.name.push_back(node.name);
    m.parent.push_back(parent);
    m.depth.push_back(node.depth);
    m.children.emplace_back();
    m.members.push_back(node.IsLeaf() ? static_cast<uint32_t>(node.members.size()) : 0);
    if (parent >= 0) m.children[parent].push_back(index);
    if (node.IsLeaf()) {
      for (graph::NodeId v : node.members) {
        if (v < graph_nodes) m.leaf_of[v] = index;
      }
    }
    for (auto it = node.children.rbegin(); it != node.children.rend(); ++it) {
      stack.emplace_back(*it, index);
    }
  }
  return m;
}

// ------------------------------------------------------------ navigation

struct QueryCounts {
  uint64_t pages_scanned = 0;
  uint64_t pages_total = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_output = 0;
};

/// Runs one GQL statement the way the front ends do: parse and plan,
/// then Executor::Execute, each under its own span.
gmine::Result<query::QueryResult> RunQuery(const query::Executor& executor,
                                           const std::string& statement,
                                           SpanLog* log, QueryCounts* counts) {
  query::Plan plan;
  {
    Scoped s(log, "query.parse_plan");
    GMINE_ASSIGN_OR_RETURN(query::ast::Statement stmt, query::Parse(statement));
    GMINE_ASSIGN_OR_RETURN(
        plan, query::PlanStatement(std::move(stmt), executor.plan_context()));
  }
  gmine::Result<query::QueryResult> result = Status::Internal("unset");
  {
    Scoped s(log, "query.execute");
    result = executor.Execute(plan);
  }
  if (result.ok() && counts != nullptr) {
    const query::QueryStats& q = result.value().stats;
    counts->pages_scanned += q.pages_scanned;
    counts->pages_total += q.pages_total;
    counts->rows_scanned += q.rows_scanned;
    counts->rows_output += q.rows_output;
  }
  return result;
}

/// Executes one navigation gesture (or render) inside a session the
/// way the front ends do; returns the community focused afterwards.
/// `with` wraps the session dispatch (CatalogSession::With or
/// SessionManager::WithSession).
template <typename WithFn>
gmine::Result<std::string> RunGesture(const ScriptOp& op, WithFn&& with,
                                      SpanLog* log, OpLog* ops,
                                      std::string* summary) {
  std::string focus;
  const int64_t call = NowNs();
  Status status = with([&](gtree::NavigationSession& nav) -> Status {
    log->Add("core.session_wait", call, NowNs());
    const gtree::GTreeStore& store = *nav.store();
    const gtree::GTree& tree = store.tree();
    auto moved = [&](Status s) -> Status {
      if (s.ok()) {
        ops->display_sum += static_cast<double>(nav.context().DisplaySize());
        ++ops->display_count;
      }
      return s;
    };
    switch (op.kind) {
      case OpKind::kChild: {
        Scoped s(log, "gtree.focus");
        GMINE_RETURN_IF_ERROR(moved(nav.FocusChild(std::stoul(op.line.substr(6)))));
        break;
      }
      case OpKind::kParent: {
        Scoped s(log, "gtree.focus");
        GMINE_RETURN_IF_ERROR(moved(nav.FocusParent()));
        break;
      }
      case OpKind::kBack: {
        Scoped s(log, "gtree.focus");
        GMINE_RETURN_IF_ERROR(moved(nav.Back()));
        break;
      }
      case OpKind::kFocus: {
        Scoped s(log, "gtree.focus");
        const gtree::TreeNodeId id = tree.FindByName(op.line.substr(6));
        if (id == gtree::kInvalidTreeNode) return Status::NotFound(op.line);
        GMINE_RETURN_IF_ERROR(moved(nav.FocusNode(id)));
        break;
      }
      case OpKind::kLocate: {
        Scoped s(log, "gtree.focus");
        auto v = nav.LocateByLabel(op.line.substr(7));
        if (!v.ok()) return v.status();
        moved(Status::OK());
        if (v.value() != op.node) return Status::Internal(op.line + " found another node");
        break;
      }
      case OpKind::kLoad: {
        const bool cached = store.IsCached(nav.focus());
        const gtree::GTreeStoreStats before = store.stats();
        {
          Scoped s(log, cached ? "gtree.leaf_hit" : "gtree.leaf_miss");
          auto payload = nav.LoadFocusSubgraph();
          if (!payload.ok()) return payload.status();
        }
        const gtree::GTreeStoreStats after = store.stats();
        ops->load_pages += after.leaf_loads - before.leaf_loads;
        ops->load_hits += after.cache_hits - before.cache_hits;
        ops->load_bytes += after.bytes_read - before.bytes_read;
        ops->load_evictions += after.evictions - before.evictions;
        ops->peak_resident = std::max(ops->peak_resident, after.resident_bytes);
        break;
      }
      case OpKind::kSummary: {
        std::string path;
        for (gtree::TreeNodeId id : tree.PathFromRoot(nav.focus())) {
          if (!path.empty()) path += '/';
          path += tree.node(id).name;
        }
        if (summary != nullptr) {
          *summary = "depth=" + std::to_string(tree.node(nav.focus()).depth) +
                     " children=" + std::to_string(tree.node(nav.focus()).children.size()) +
                     " path=" + path;
        }
        break;
      }
      case OpKind::kConnectivity: {
        Scoped s(log, "gtree.connectivity_edges");
        (void)nav.ContextConnectivity();
        break;
      }
      case OpKind::kRender: {
        Scoped s(log, "core.render");
        auto svg = core::HierarchyViewSvgString(tree, nav.context(), store.connectivity());
        if (!svg.ok()) return svg.status();
        break;
      }
      default:
        return Status::Internal("not a session op: " + op.line);
    }
    focus = tree.node(nav.focus()).name;
    return Status::OK();
  });
  if (!status.ok()) return status;
  return focus;
}

uint64_t ResidentBytes(const gtree::GTreeStore& store) {
  return store.buffer_pool().stats().resident_bytes;
}

/// One walker client of the catalog workloads (explore and the summarize
/// navigator): closed loop when rate_hz is 0, else paced.
void CatalogWalker(core::Catalog* catalog, const TreeModel* tree, const Graph* g,
                   uint64_t seed, bool with_work, double rate_hz, int64_t stop_ns,
                   SpanLog* log, OpLog* ops, QueryCounts* qc, Report* report) {
  auto lease = catalog->AcquireSession("g");
  if (!lease.ok()) {
    report->Error(lease.status().ToString());
    return;
  }
  core::CatalogSession session = std::move(lease).value();
  const gtree::GTreeStore& store = *session.store();
  Walker walker(tree, g, seed, with_work);
  const int64_t start = NowNs();
  for (uint64_t k = 0; NowNs() < stop_ns; ++k) {
    const ScriptOp op = walker.Next();
    int64_t due = NowNs();
    if (rate_hz > 0) {
      due = start + static_cast<int64_t>(1e9 * static_cast<double>(k) / rate_hz);
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
    }
    log->NewRequest();
    const int64_t begin = NowNs();
    std::string error;
    {
      Scoped s(log, OpKindName(op.kind));
      if (op.kind == OpKind::kNeighbors || op.kind == OpKind::kPrefix) {
        auto result = RunQuery(query::Executor(&store), op.line.substr(6), log, qc);
        if (!result.ok()) error = op.line + ": " + result.status().ToString();
      } else {
        auto focus = RunGesture(
            op,
            [&](const std::function<Status(gtree::NavigationSession&)>& fn) {
              return session.With(fn);
            },
            log, ops, nullptr);
        if (!focus.ok()) {
          error = op.line + ": " + focus.status().ToString();
        } else if (focus.value() != tree->name[op.expect_focus]) {
          error = op.line + " focused " + focus.value() + ", expected " +
                  tree->name[op.expect_focus];
        }
      }
    }
    const int64_t end = NowNs();
    if (!error.empty()) {
      report->Error(error);
      continue;
    }
    (IsNavigation(op.kind) ? ops->nav_ms : ops->work_ms).push_back(MsBetween(due, end));
    if (IsNavigation(op.kind)) ops->service_ms.push_back(MsBetween(begin, end));
    if ((k & 63) == 0) ops->peak_resident = std::max(ops->peak_resident, ResidentBytes(store));
  }
}

struct PoolDelta {
  uint64_t loads = 0;
  uint64_t hits = 0;
  uint64_t bytes = 0;
  uint64_t evictions = 0;
};

PoolDelta Delta(const gtree::GTreeStoreStats& a, const gtree::GTreeStoreStats& b) {
  return PoolDelta{b.leaf_loads - a.leaf_loads, b.cache_hits - a.cache_hits,
                   b.bytes_read - a.bytes_read, b.evictions - a.evictions};
}

void QueryLayers(Report* r, const QueryCounts& q) {
  if (q.pages_total > 0) {
    r->layers["query.pages_scanned_ratio"] =
        static_cast<double>(q.pages_scanned) / static_cast<double>(q.pages_total);
  }
  if (q.rows_output > 0) {
    r->layers["query.rows_scanned_per_row"] =
        static_cast<double>(q.rows_scanned) / static_cast<double>(q.rows_output);
  }
}

gmine::Result<std::unique_ptr<core::Catalog>> OpenCatalog(const Config& c,
                                                          const std::string& dir) {
  core::CatalogOptions copts;
  copts.mem_budget_bytes = static_cast<uint64_t>(c.mem_budget_mb) << 20;
  return core::Catalog::OpenDirectory(dir, copts);
}

// --------------------------------------------------------------- explore

/// Single-client pass over client 0's script prefix from a cold pool:
/// exact page counts per op class.
void CountExplore(const Config& c, uint64_t seed, const Graph& g,
                  const TreeModel& tree, const std::string& dir, Report* r) {
  auto catalog = OpenCatalog(c, dir);
  if (!catalog.ok()) return r->Error(catalog.status().ToString());
  auto lease = catalog.value()->AcquireSession("g");
  if (!lease.ok()) return r->Error(lease.status().ToString());
  core::CatalogSession session = std::move(lease).value();
  const gtree::GTreeStore& store = *session.store();
  Walker walker(&tree, &g, SubSeed(seed, 100), /*with_work=*/true);
  SpanLog* log = r->NewLog();
  OpLog ops;
  PoolDelta nav_d;
  PoolDelta work_d;
  uint64_t nav_n = 0;
  uint64_t work_n = 0;
  for (int k = 0; k < 4000; ++k) {
    const ScriptOp op = walker.Next();
    const gtree::GTreeStoreStats s0 = store.stats();
    if (op.kind == OpKind::kNeighbors || op.kind == OpKind::kPrefix) {
      auto result = RunQuery(query::Executor(&store), op.line.substr(6), log, nullptr);
      if (!result.ok()) return r->Error(result.status().ToString());
    } else {
      auto focus = RunGesture(
          op,
          [&](const std::function<Status(gtree::NavigationSession&)>& fn) {
            return session.With(fn);
          },
          log, &ops, nullptr);
      if (!focus.ok()) return r->Error(focus.status().ToString());
    }
    const PoolDelta d = Delta(s0, store.stats());
    const bool nav = IsNavigation(op.kind);
    PoolDelta& into = nav ? nav_d : work_d;
    (nav ? nav_n : work_n) += 1;
    into.loads += d.loads;
    into.bytes += d.bytes;
    into.evictions += d.evictions;
  }
  const double navs = static_cast<double>(std::max<uint64_t>(nav_n, 1));
  r->repeat["explore.nav_pages_read"] = static_cast<double>(nav_d.loads);
  r->repeat["explore.work_pages_read"] = static_cast<double>(work_d.loads);
  r->repeat["explore.bytes_read"] = static_cast<double>(nav_d.bytes + work_d.bytes);
  r->layers["storage.pages_read_per_op"] = static_cast<double>(nav_d.loads) / navs;
  r->layers["storage.bytes_read_per_op"] = static_cast<double>(nav_d.bytes) / navs;
  r->layers["storage.evictions_per_op"] = static_cast<double>(nav_d.evictions) / navs;
  r->layers["storage.work_pages_read_per_op"] =
      static_cast<double>(work_d.loads) / static_cast<double>(std::max<uint64_t>(work_n, 1));
}

void TraceExplore(const Config& c, uint64_t seed, const Graph& g,
                  const std::string& dir, Report* r) {
  auto catalog = OpenCatalog(c, dir);
  if (!catalog.ok()) return r->Error(catalog.status().ToString());
  auto probe = catalog.value()->AcquireSession("g");
  if (!probe.ok()) return r->Error(probe.status().ToString());
  const TreeModel tree = ModelOf(probe.value().store()->tree(), g.n);
  probe.value().Release();
  catalog.value().reset();
  CountExplore(c, seed, g, tree, dir, r);

  // Timed pass: the wire run's clients, in-process.
  catalog = OpenCatalog(c, dir);
  if (!catalog.ok()) return r->Error(catalog.status().ToString());
  probe = catalog.value()->AcquireSession("g");
  if (!probe.ok()) return r->Error(probe.status().ToString());
  const gtree::GTreeStoreStats before = probe.value().store()->stats();
  std::vector<OpLog> ops(static_cast<size_t>(Clients(c)));
  std::vector<QueryCounts> qc(ops.size());
  std::vector<SpanLog*> logs;
  for (size_t i = 0; i < ops.size(); ++i) logs.push_back(r->NewLog());
  const int64_t t0 = NowNs();
  const int64_t stop = t0 + static_cast<int64_t>(c.seconds) * 1000000000;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < ops.size(); ++i) {
    threads.emplace_back([&, i] {
      CatalogWalker(catalog.value().get(), &tree, &g, SubSeed(seed, 100 + i),
                    /*with_work=*/true, 0, stop, logs[i], &ops[i],
                    &qc[i], r);
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = MsBetween(t0, NowNs()) / 1000;
  OpLog all;
  QueryCounts queries;
  for (size_t i = 0; i < ops.size(); ++i) {
    MergeOps(&all, ops[i]);
    queries.pages_scanned += qc[i].pages_scanned;
    queries.pages_total += qc[i].pages_total;
    queries.rows_scanned += qc[i].rows_scanned;
    queries.rows_output += qc[i].rows_output;
  }
  const PoolDelta timed = Delta(before, probe.value().store()->stats());
  r->layers["storage.pool_hit_ratio"] =
      timed.hits + timed.loads > 0
          ? static_cast<double>(timed.hits) / static_cast<double>(timed.hits + timed.loads)
          : 0;
  QueryLayers(r, queries);

  // mine_s as on the wire: PageRank after the measured phase.
  SpanLog* mine_log = r->NewLog();
  for (int i = 0; i < c.post_mine_jobs; ++i) {
    if (i > 0) SleepMs(c.post_mine_gap_ms);
    const int64_t a = NowNs();
    auto result = RunQuery(query::Executor(probe.value().store()),
                           "MINE PAGERANK TOP 20", mine_log, nullptr);
    if (!result.ok()) return r->Error("MINE PAGERANK: " + result.status().ToString());
    all.mine_ms.push_back(MsBetween(a, NowNs()));
  }
  ReplayE2e(r, c, all, seconds);
}

// ------------------------------------------------------------- summarize

/// Single-client pass from a cold pool: the first extractions and one
/// PageRank, each layer called on its own, with exact counts.
void CountSummarize(const Config& c, uint64_t seed,
                    const std::vector<uint32_t>& giant, const std::string& dir,
                    Report* r) {
  auto catalog = OpenCatalog(c, dir);
  if (!catalog.ok()) return r->Error(catalog.status().ToString());
  auto lease = catalog.value()->AcquireSession("g");
  if (!lease.ok()) return r->Error(lease.status().ToString());
  const gtree::GTreeStore& store = *lease.value().store();
  SpanLog* log = r->NewLog();
  ExtractScript script(giant, c, SubSeed(seed, 200));
  std::vector<uint32_t> sources;
  PoolDelta extract_d;
  uint64_t extractions = 0;
  double rwr_iterations = 0;
  double rwr_solves = 0;
  double candidates = 0;
  while (extractions < 6) {
    const ScriptOp op = script.Next(&sources);
    if (op.kind != OpKind::kExtract) continue;
    const gtree::GTreeStoreStats s0 = store.stats();
    gmine::Result<graph::Graph> full = Status::Internal("unset");
    {
      Scoped s(log, "gtree.materialize");
      full = store.MaterializeFullGraph();
    }
    if (!full.ok()) return r->Error(full.status().ToString());
    const PoolDelta d = Delta(s0, store.stats());
    extract_d.loads += d.loads;
    extract_d.bytes += d.bytes;
    extract_d.evictions += d.evictions;
    csg::ExtractionOptions eopts;
    eopts.budget = c.csg_budget;
    const std::vector<graph::NodeId> src(sources.begin(), sources.end());
    {
      Scoped s(log, "csg.extract");
      auto csg = csg::ExtractConnectionSubgraph(full.value(), src, eopts);
      if (!csg.ok()) return r->Error(csg.status().ToString());
      candidates += csg.value().candidate_size;
    }
    for (graph::NodeId v : src) {
      auto rwr = csg::RandomWalkWithRestart(full.value(), v, eopts.rwr);
      if (!rwr.ok()) return r->Error(rwr.status().ToString());
      rwr_iterations += rwr.value().iterations;
      rwr_solves += 1;
    }
    ++extractions;
  }
  const gtree::GTreeStoreStats s0 = store.stats();
  {
    Scoped s(log, "mining.pagerank");
    std::unique_ptr<storage::PageScan> scan = store.NewPageScan();
    auto pr = mining::PageRankOverPages(*scan, mining::PageRankOverPagesOptions{});
    if (!pr.ok()) return r->Error(pr.status().ToString());
    r->repeat["summarize.pagerank_sweeps"] = pr.value().iterations;
    r->layers["mining.sweeps"] = pr.value().iterations;
  }
  const PoolDelta pr_d = Delta(s0, store.stats());
  const double n = static_cast<double>(extractions);
  r->layers["mining.pages_read_per_sweep"] =
      static_cast<double>(pr_d.loads) / std::max(r->layers["mining.sweeps"], 1.0);
  r->repeat["summarize.pagerank_pages_read"] = static_cast<double>(pr_d.loads);
  r->repeat["summarize.extract_pages_read"] = static_cast<double>(extract_d.loads);
  r->repeat["summarize.rwr_iterations"] = rwr_iterations;
  r->layers["csg.rwr_iterations"] = rwr_iterations / std::max(rwr_solves, 1.0);
  r->layers["csg.candidates"] = candidates / n;
  r->layers["storage.pages_read_per_op"] = static_cast<double>(extract_d.loads) / n;
  r->layers["storage.bytes_read_per_op"] = static_cast<double>(extract_d.bytes) / n;
  r->layers["storage.evictions_per_op"] = static_cast<double>(extract_d.evictions) / n;
}

void TraceSummarize(const Config& c, uint64_t seed, const Graph& g,
                    const std::string& dir, Report* r) {
  const std::vector<uint32_t> giant = GiantComponent(g);
  CountSummarize(c, seed, giant, dir, r);

  // Timed pass: the paced navigator and the extractor, in-process.
  auto catalog = OpenCatalog(c, dir);
  if (!catalog.ok()) return r->Error(catalog.status().ToString());
  // Holds the store open for the whole pass, as the wire run's tree
  // discovery connection does.
  auto probe = catalog.value()->AcquireSession("g");
  if (!probe.ok()) return r->Error(probe.status().ToString());
  const TreeModel tree = ModelOf(probe.value().store()->tree(), g.n);
  const gtree::GTreeStoreStats before = probe.value().store()->stats();
  OpLog nav_ops;
  OpLog rest_ops;
  QueryCounts queries;
  SpanLog* nav_log = r->NewLog();
  SpanLog* rest_log = r->NewLog();
  const int64_t t0 = NowNs();
  const int64_t stop = t0 + static_cast<int64_t>(c.seconds) * 1000000000;
  std::thread navigator([&] {
    CatalogWalker(catalog.value().get(), &tree, &g, SubSeed(seed, 100),
                  /*with_work=*/false, c.paced_nav_hz, stop, nav_log,
                  &nav_ops, &queries, r);
  });
  // As on the wire, the navigator holds its lease before the extractor
  // starts, so the store stays open between extractions.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ExtractScript script(giant, c, SubSeed(seed, 200));
  std::vector<uint32_t> sources;
  while (NowNs() < stop) {
    const ScriptOp op = script.Next(&sources);
    rest_log->NewRequest();
    // A REST request leases the store for its own duration.
    auto lease = catalog.value()->AcquireSession("g");
    if (!lease.ok()) {
      r->Error(lease.status().ToString());
      break;
    }
    const gtree::GTreeStore* store = lease.value().store();
    const int64_t a = NowNs();
    if (op.kind == OpKind::kMine) {
      Scoped s(rest_log, "mining.pagerank");
      std::unique_ptr<storage::PageScan> scan = store->NewPageScan();
      auto pr = mining::PageRankOverPages(*scan, mining::PageRankOverPagesOptions{});
      if (!pr.ok()) {
        r->Error("pagerank: " + pr.status().ToString());
        break;
      }
      rest_ops.mine_ms.push_back(MsBetween(a, NowNs()));
    } else {
      Scoped s(rest_log, "extract");
      auto result = RunQuery(query::Executor(store), op.line, rest_log, &queries);
      if (!result.ok()) {
        r->Error(op.line + ": " + result.status().ToString());
        break;
      }
      rest_ops.work_ms.push_back(MsBetween(a, NowNs()));
    }
    lease.value().Release();
    SleepMs(c.think_ms);
  }
  navigator.join();
  const double seconds = MsBetween(t0, NowNs()) / 1000;
  const PoolDelta timed = Delta(before, probe.value().store()->stats());
  r->layers["storage.pool_hit_ratio"] =
      timed.hits + timed.loads > 0
          ? static_cast<double>(timed.hits) / static_cast<double>(timed.hits + timed.loads)
          : 0;
  OpLog all;
  MergeOps(&all, nav_ops);
  MergeOps(&all, rest_ops);
  ReplayE2e(r, c, all, seconds);
  QueryLayers(r, queries);
}

// ------------------------------------------------------------------ edit

/// Turns a batch's wire lines into the GraphEdit the server would build.
graph::GraphEdit EditOf(const std::vector<std::string>& lines, uint32_t base,
                        std::vector<std::string>* labels) {
  graph::GraphEdit edit(base);
  for (const std::string& line : lines) {
    std::istringstream in(line.substr(5));  // after "edit "
    std::string sub;
    in >> sub;
    if (sub == "add-node") {
      edit.AddNode();
      labels->push_back(line.substr(5 + 9));
    } else if (sub == "add-edge" || sub == "remove-edge") {
      uint32_t u = 0;
      uint32_t v = 0;
      in >> u >> v;
      if (sub == "add-edge") edit.AddEdge(u, v);
      else edit.RemoveEdge(u, v);
    } else if (sub == "remove-node") {
      uint32_t v = 0;
      in >> v;
      edit.RemoveNode(v);
    }
  }
  return edit;
}

/// The edit workload's paced reader, in-process against the session pool.
void EditNavigator(core::GMineEngine* engine, const Graph* g, const Config& c,
                   uint64_t seed, const std::atomic<bool>& stop, SpanLog* log,
                   OpLog* ops, Report* report) {
  core::SessionManager& pool = engine->sessions();
  auto id = pool.OpenSession();
  if (!id.ok()) {
    report->Error(id.status().ToString());
    return;
  }
  auto with = [&](const std::function<Status(gtree::NavigationSession&)>& fn) {
    return pool.WithSession(id.value(), fn);
  };
  SteeringWalker walker(g, seed);
  const int64_t start = NowNs();
  for (uint64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
    const int64_t due =
        start + static_cast<int64_t>(1e9 * static_cast<double>(k) / c.paced_nav_hz);
    std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
    if (stop.load(std::memory_order_relaxed)) break;
    const ScriptOp op = walker.Next();
    log->NewRequest();
    const int64_t begin = NowNs();
    std::string summary;
    gmine::Result<std::string> focus = Status::Internal("unset");
    {
      Scoped s(log, OpKindName(op.kind));
      focus = RunGesture(op, with, log, ops, &summary);
      if (!focus.ok() && (op.kind == OpKind::kChild || op.kind == OpKind::kLoad)) {
        // As on the wire: a failure right after an epoch bump re-seated
        // the session at the root is expected; a summary tells which.
        ScriptOp probe;
        auto again = RunGesture(probe, with, log, ops, &summary);
        if (again.ok() && summary.rfind("depth=0 ", 0) == 0) focus = again;
      }
    }
    const int64_t end = NowNs();
    if (!focus.ok()) {
      report->Error(op.line + ": " + focus.status().ToString());
      continue;
    }
    if (!summary.empty()) {
      const std::string path = summary.substr(summary.find("path=") + 5);
      const std::string error = walker.Observe(
          focus.value(), path, std::atoi(summary.c_str() + 6),
          std::atoi(summary.c_str() + summary.find("children=") + 9));
      if (!error.empty()) {
        report->Error(error);
      }
    }
    ops->nav_ms.push_back(MsBetween(due, end));
    ops->service_ms.push_back(MsBetween(begin, end));
  }
  (void)pool.CloseSession(id.value());
}

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  const uint64_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

void TraceEdit(const Config& c, uint64_t seed, const Graph& g,
               const std::string& path, Report* r) {
  const std::string counted_path = path + ".counted";
  std::filesystem::copy_file(path, counted_path,
                             std::filesystem::copy_options::overwrite_existing);

  // Timed pass: the server's path, group commit through the EditQueue
  // onto a WAL-attached engine, beside the paced reader.
  {
    core::EngineOptions eopts;
    eopts.sessions.max_sessions = 0;
    eopts.wal.enabled = true;
    auto opened = core::GMineEngine::Open(path, eopts);
    if (!opened.ok()) return r->Error(opened.status().ToString());
    std::unique_ptr<core::GMineEngine> engine = std::move(opened).value();
    core::EditQueue queue(engine.get());
    const uint64_t epoch0 = engine->sessions().epoch();
    OpLog nav_ops;
    OpLog writer_ops;
    SpanLog* nav_log = r->NewLog();
    SpanLog* writer_log = r->NewLog();
    std::atomic<bool> stop{false};
    std::thread navigator([&] {
      EditNavigator(engine.get(), &g, c, SubSeed(seed, 300), stop, nav_log,
                    &nav_ops, r);
    });
    EditModel model(g, SubSeed(seed, 400));
    double bytes_per_edge_sum = 0;
    const int64_t t0 = NowNs();
    for (int b = 0; b < c.edit_batches; ++b) {
      std::vector<std::string> lines = model.NextBatch();
      lines.pop_back();  // "edit apply"
      writer_log->NewRequest();
      const int64_t a = NowNs();
      std::vector<std::string> labels;
      graph::GraphEdit edit = EditOf(lines, queue.tip_nodes(), &labels);
      Scoped s(writer_log, "core.edit_commit");
      auto future = queue.Submit(std::move(edit), std::move(labels));
      if (!future.ok()) {
        r->Error(future.status().ToString());
        break;
      }
      const core::EditCommit commit = future.value().get();
      if (!commit.status.ok()) {
        r->Error("commit: " + commit.status.ToString());
        break;
      }
      writer_ops.work_ms.push_back(MsBetween(a, NowNs()));
      bytes_per_edge_sum += static_cast<double>(FileSize(path) + FileSize(path + ".wal")) /
                            static_cast<double>(model.edges());
      SleepMs(c.think_ms);
    }
    const double seconds = MsBetween(t0, NowNs()) / 1000;
    stop.store(true);
    navigator.join();
    queue.Stop();
    const core::EditQueueStats qs = queue.stats();
    const double bumps = static_cast<double>(engine->sessions().epoch() - epoch0);
    r->layers["core.epoch_bumps"] = bumps;
    r->layers["core.edits_per_group"] =
        qs.groups > 0 ? static_cast<double>(qs.committed) / static_cast<double>(qs.groups) : 0;
    const auto nav_spans = Aggregate({nav_log});
    auto wait = nav_spans.find("core.session_wait");
    if (wait != nav_spans.end() && bumps > 0) {
      r->layers["core.epoch_park_ms"] = wait->second.total_ms / bumps;
    }
    const uint64_t loads = nav_ops.load_pages + nav_ops.load_hits;
    r->layers["storage.pool_hit_ratio"] =
        loads > 0 ? static_cast<double>(nav_ops.load_hits) / static_cast<double>(loads) : 0;
    const double navs = static_cast<double>(std::max<size_t>(nav_ops.nav_ms.size(), 1));
    r->layers["storage.pages_read_per_op"] = static_cast<double>(nav_ops.load_pages) / navs;
    r->layers["storage.bytes_read_per_op"] = static_cast<double>(nav_ops.load_bytes) / navs;
    r->layers["storage.evictions_per_op"] = static_cast<double>(nav_ops.load_evictions) / navs;
    r->e2e["store_bytes_per_edge"] = bytes_per_edge_sum / c.edit_batches;
    // One executor for every query, as the line-protocol server keeps.
    SpanLog* mine_log = r->NewLog();
    const query::Executor executor(&engine->store());
    for (int i = 0; i < c.post_mine_jobs; ++i) {
      if (i > 0) SleepMs(c.post_mine_gap_ms);
      const int64_t a = NowNs();
      auto result = RunQuery(executor, "MINE PAGERANK TOP 20", mine_log, nullptr);
      if (!result.ok()) return r->Error("MINE PAGERANK: " + result.status().ToString());
      writer_ops.mine_ms.push_back(MsBetween(a, NowNs()));
    }
    OpLog all;
    MergeOps(&all, nav_ops);
    MergeOps(&all, writer_ops);
    ReplayE2e(r, c, all, seconds);
  }

  // Counted pass: the same script prefix applied one batch at a time,
  // each layer called on its own: WAL append, WAL sync, repair.
  core::EngineOptions eopts;
  eopts.sessions.max_sessions = 0;
  auto opened = core::GMineEngine::Open(counted_path, eopts);
  if (!opened.ok()) return r->Error(opened.status().ToString());
  std::unique_ptr<core::GMineEngine> engine = std::move(opened).value();
  storage::WalOptions wopts;
  wopts.enabled = true;
  wopts.durable = true;
  auto wal = storage::Wal::Open(counted_path + ".wal", wopts);
  if (!wal.ok()) return r->Error(wal.status().ToString());
  SpanLog* log = r->NewLog();
  EditModel model(g, SubSeed(seed, 400));
  const int batches = std::min(c.edit_batches, 150);
  uint64_t appended = 0;
  uint64_t append_edits = 0;
  uint64_t pages_written = 0;
  uint64_t compactions = 0;
  for (int b = 0; b < batches; ++b) {
    const uint32_t base = model.nodes();
    std::vector<std::string> lines = model.NextBatch();
    lines.pop_back();
    std::vector<std::string> labels;
    const graph::GraphEdit edit = EditOf(lines, base, &labels);
    log->NewRequest();
    uint64_t lsn = 0;
    {
      Scoped s(log, "storage.wal_append");
      auto appended_lsn = wal.value()->Append(edit, labels);
      if (!appended_lsn.ok()) return r->Error(appended_lsn.status().ToString());
      lsn = appended_lsn.value();
    }
    {
      Scoped s(log, "storage.wal_sync");
      const Status synced = wal.value()->Sync();
      if (!synced.ok()) return r->Error(synced.ToString());
    }
    const uint64_t size0 = engine->store().file_size();
    core::EditStats stats;
    {
      Scoped s(log, "gtree.repair");
      const Status applied = engine->ApplyEdit(edit, labels, &stats, lsn);
      if (!applied.ok()) return r->Error("ApplyEdit: " + applied.ToString());
    }
    if (!stats.compacted) {
      appended += engine->store().file_size() - size0;
      ++append_edits;
    }
    pages_written += stats.pages_written;
    compactions += (stats.compacted ? 1 : 0) + (stats.defragmented ? 1 : 0);
  }
  const uint64_t wal_bytes = wal.value()->stats().bytes_appended;
  r->layers["gtree.bytes_appended_per_edit"] =
      static_cast<double>(appended) / static_cast<double>(std::max<uint64_t>(append_edits, 1));
  r->layers["gtree.pages_written_per_edit"] =
      static_cast<double>(pages_written) / batches;
  r->layers["gtree.compactions"] = static_cast<double>(compactions);
  r->layers["gtree.live_fraction"] =
      static_cast<double>(engine->store().live_bytes()) /
      static_cast<double>(engine->store().file_size());
  r->layers["storage.wal_bytes_per_edit"] = static_cast<double>(wal_bytes) / batches;
  r->repeat["edit.wal_bytes"] = static_cast<double>(wal_bytes);
  r->repeat["edit.pages_written"] = static_cast<double>(pages_written);
  r->repeat["edit.compactions"] = static_cast<double>(compactions);
  r->repeat["edit.store_bytes"] = static_cast<double>(engine->store().file_size());
}

// ------------------------------------------------------------------ main

std::string MapJson(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out += JsonQuote(k) + ":" + buf;
  }
  return out + "}";
}

int Run(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return 2;
    flags[argv[i] + 2] = argv[i + 1];
  }
  Workload workload;
  if (!ParseWorkload(flags["workload"], &workload) || flags["graph"].empty() ||
      flags["dir"].empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_trace --workload W --seed S --seconds T "
                 "--graph PREFIX --dir DIR [--served-store PATH]\n");
    return 2;
  }
  const Config c = MakeConfig(workload, std::atoi(flags["seconds"].c_str()));
  const uint64_t seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  const Graph g = GenerateGraph(c, seed);
  const std::string dir = flags["dir"];
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/g.gtree";
  storage::BufferPool::Global().SetBudgetBytes(static_cast<uint64_t>(c.mem_budget_mb) << 20);

  Report r;
  const Status built = BuildStore(c, flags["graph"], path, r.NewLog(), &r);
  if (!built.ok()) r.Error("build: " + built.ToString());
  // The served stores of the read-only workloads are never modified, so
  // the replay must run against the very same bytes.
  if (built.ok() && workload != Workload::kEdit && !flags["served-store"].empty() &&
      !SameBytes(path, flags["served-store"])) {
    r.Error("the in-process build differs from the served store");
  }
  if (r.errors.empty()) {
    switch (workload) {
      case Workload::kExplore: TraceExplore(c, seed, g, dir, &r); break;
      case Workload::kSummarize: TraceSummarize(c, seed, g, dir, &r); break;
      case Workload::kEdit: TraceEdit(c, seed, g, path, &r); break;
    }
  }
  if (workload != Workload::kEdit) {
    r.e2e["store_bytes_per_edge"] =
        static_cast<double>(FileSize(path)) / static_cast<double>(g.edges.size());
  }
  const std::vector<const SpanLog*> logs = r.Logs();
  const auto spans = Aggregate(logs);
  LayerMean(&r, spans, "core.session_wait_us", "core.session_wait", 1e3);
  LayerMean(&r, spans, "core.render_us", "core.render", 1e3);
  LayerMean(&r, spans, "core.edit_commit_ms", "core.edit_commit", 1);
  LayerMean(&r, spans, "gtree.focus_us", "gtree.focus", 1e3);
  LayerMean(&r, spans, "gtree.leaf_hit_us", "gtree.leaf_hit", 1e3);
  LayerMean(&r, spans, "gtree.leaf_miss_us", "gtree.leaf_miss", 1e3);
  LayerMean(&r, spans, "gtree.materialize_ms", "gtree.materialize", 1);
  LayerMean(&r, spans, "gtree.repair_ms", "gtree.repair", 1);
  LayerMean(&r, spans, "storage.wal_append_us", "storage.wal_append", 1e3);
  LayerMean(&r, spans, "storage.wal_sync_us", "storage.wal_sync", 1e3);
  LayerMean(&r, spans, "query.parse_plan_us", "query.parse_plan", 1e3);
  LayerMean(&r, spans, "query.execute_ms", "query.execute", 1);
  LayerMean(&r, spans, "csg.extract_ms", "csg.extract", 1);
  LayerMean(&r, spans, "mining.pagerank_ms", "mining.pagerank", 1);
  WriteSpans(logs, dir + "/spans.csv");

  std::string span_json = "{";
  for (const auto& [name, t] : spans) {
    if (span_json.size() > 1) span_json += ",";
    char buf[160];
    std::snprintf(buf, sizeof(buf), "{\"count\":%llu,\"total_ms\":%.6f,\"self_ms\":%.6f}",
                  static_cast<unsigned long long>(t.count), t.total_ms, t.self_ms);
    span_json += JsonQuote(name) + ":" + buf;
  }
  span_json += "}";
  std::string errors = "[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    if (i > 0) errors += ",";
    errors += JsonQuote(r.errors[i]);
  }
  errors += "]";
  std::printf("{\"layers\":%s,\"e2e\":%s,\"repeat\":%s,\"spans\":%s,\"errors\":%s}\n",
              MapJson(r.layers).c_str(), MapJson(r.e2e).c_str(),
              MapJson(r.repeat).c_str(), span_json.c_str(), errors.c_str());
  return r.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
