#include "cli/commands.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "core/catalog.h"
#include "core/edit_queue.h"
#include "core/engine.h"
#include "core/prefetcher.h"
#include "core/session_manager.h"
#include "core/views.h"
#include "gen/dblp.h"
#include "graph/graph_export.h"
#include "graph/graph_io.h"
#include "gtree/stream_build.h"
#include "http/client.h"
#include "http/gateway.h"
#include "net/client.h"
#include "net/server.h"
#include "net/session_ops.h"
#include "query/executor.h"
#include "storage/buffer_pool.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace gmine::cli {

namespace {

using core::EngineOptions;
using core::GMineEngine;

Status UsageError(const std::string& msg) {
  return Status::InvalidArgument(msg + "\n" + UsageText());
}

std::string ReadAllStdin() {
  std::string body;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), stdin)) > 0) {
    body.append(buf, n);
  }
  return body;
}

gmine::Result<uint64_t> FlagUint(const CommandLine& cmd,
                                 const std::string& flag,
                                 uint64_t fallback) {
  std::string raw = cmd.Get(flag);
  if (raw.empty()) return fallback;
  uint64_t v = 0;
  if (!ParseUint64(raw, &v)) {
    return UsageError(StrFormat("--%s expects an integer", flag.c_str()));
  }
  return v;
}

// Loads labels from a "<id>\t<name>" file.
gmine::Result<graph::LabelStore> LoadLabelsFile(const std::string& path) {
  auto text = graph::ReadFileToString(path);
  if (!text.ok()) return text.status();
  graph::LabelStore labels;
  size_t pos = 0;
  const std::string& body = text.value();
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    std::string_view line(body.data() + pos, eol - pos);
    pos = eol + 1;
    line = TrimWhitespace(line);
    if (line.empty()) continue;
    size_t tab = line.find('\t');
    if (tab == std::string_view::npos) {
      return Status::Corruption("labels file: expected '<id>\\t<name>'");
    }
    uint64_t id = 0;
    if (!ParseUint64(line.substr(0, tab), &id)) {
      return Status::Corruption("labels file: bad node id");
    }
    labels.SetLabel(static_cast<graph::NodeId>(id),
                    std::string(line.substr(tab + 1)));
  }
  return labels;
}

std::string FormatLabelsFile(const graph::LabelStore& labels) {
  std::string out;
  for (graph::NodeId v = 0; v < labels.size(); ++v) {
    std::string_view label = labels.Label(v);
    if (label.empty()) continue;
    out += StrFormat("%u\t%.*s\n", v, static_cast<int>(label.size()),
                     label.data());
  }
  return out;
}

Status CmdGenerate(const CommandLine& cmd, std::string* out) {
  std::string prefix = cmd.Get("out");
  if (prefix.empty()) return UsageError("generate: --out PREFIX required");
  gen::DblpOptions opts;
  GMINE_ASSIGN_OR_RETURN(uint64_t levels, FlagUint(cmd, "levels", 3));
  GMINE_ASSIGN_OR_RETURN(uint64_t fanout, FlagUint(cmd, "fanout", 5));
  GMINE_ASSIGN_OR_RETURN(uint64_t leaf, FlagUint(cmd, "leaf-size", 60));
  GMINE_ASSIGN_OR_RETURN(uint64_t seed, FlagUint(cmd, "seed", 2006));
  opts.levels = static_cast<uint32_t>(levels);
  opts.fanout = static_cast<uint32_t>(fanout);
  opts.leaf_size = static_cast<uint32_t>(leaf);
  opts.seed = seed;
  auto dblp = gen::GenerateDblp(opts);
  if (!dblp.ok()) return dblp.status();
  GMINE_RETURN_IF_ERROR(
      graph::WriteEdgeListFile(dblp.value().graph, prefix + ".edges"));
  GMINE_RETURN_IF_ERROR(graph::WriteStringToFile(
      FormatLabelsFile(dblp.value().labels), prefix + ".labels"));
  *out += StrFormat("generated %s -> %s.edges + %s.labels\n",
                    dblp.value().graph.DebugString().c_str(),
                    prefix.c_str(), prefix.c_str());
  return Status::OK();
}

Status CmdBuild(const CommandLine& cmd, std::string* out) {
  std::string graph_path = cmd.Get("graph");
  std::string store_path = cmd.Get("out");
  if (graph_path.empty() || store_path.empty()) {
    return UsageError("build: --graph FILE and --out STORE required");
  }
  if (cmd.Has("stream")) {
    // Out-of-core pipeline (docs/OUTOFCORE.md): the edge list streams
    // through an external sort into leaf pages; the input never
    // materializes in memory.
    gtree::StreamBuildOptions sopts;
    GMINE_ASSIGN_OR_RETURN(uint64_t leaf, FlagUint(cmd, "leaf-size", 2048));
    GMINE_ASSIGN_OR_RETURN(uint64_t fanout, FlagUint(cmd, "fanout", 8));
    GMINE_ASSIGN_OR_RETURN(uint64_t budget,
                           FlagUint(cmd, "mem-budget-mb", 64));
    if (leaf == 0) return UsageError("build: --leaf-size must be > 0");
    if (fanout < 2) return UsageError("build: --fanout must be >= 2");
    sopts.leaf_size = static_cast<uint32_t>(leaf);
    sopts.fanout = static_cast<uint32_t>(fanout);
    sopts.mem_budget_bytes = budget << 20;
    graph::LabelStore labels;
    if (cmd.Has("labels")) {
      GMINE_ASSIGN_OR_RETURN(labels, LoadLabelsFile(cmd.Get("labels")));
    }
    gtree::StreamBuildStats stats;
    StopWatch watch;
    GMINE_RETURN_IF_ERROR(gtree::StreamBuildStore(
        graph_path, store_path, labels, sopts, &stats));
    *out += StrFormat(
        "stream-built n=%u e=%llu -> %s (%s) in %s\n"
        "  leaves=%u cross_edges=%llu sort_runs=%llu spilled=%s\n",
        stats.num_nodes, (unsigned long long)stats.num_edges,
        store_path.c_str(), HumanBytes(stats.store_bytes).c_str(),
        HumanMicros(watch.ElapsedMicros()).c_str(), stats.num_leaves,
        (unsigned long long)stats.cross_edges,
        (unsigned long long)stats.sort_runs,
        HumanBytes(stats.spilled_bytes).c_str());
    return Status::OK();
  }
  auto g = graph::ReadEdgeListFile(graph_path);
  if (!g.ok()) return g.status();
  graph::LabelStore labels;
  if (cmd.Has("labels")) {
    GMINE_ASSIGN_OR_RETURN(labels, LoadLabelsFile(cmd.Get("labels")));
  }
  EngineOptions opts;
  GMINE_ASSIGN_OR_RETURN(uint64_t levels, FlagUint(cmd, "levels", 3));
  GMINE_ASSIGN_OR_RETURN(uint64_t fanout, FlagUint(cmd, "fanout", 5));
  GMINE_ASSIGN_OR_RETURN(uint64_t shards, FlagUint(cmd, "shards", 1));
  GMINE_ASSIGN_OR_RETURN(uint64_t threads, FlagUint(cmd, "threads", 0));
  opts.build.levels = static_cast<uint32_t>(levels);
  opts.build.fanout = static_cast<uint32_t>(fanout);
  opts.build.shards = static_cast<uint32_t>(shards);
  opts.build.threads = static_cast<int>(threads);
  StopWatch watch;
  auto engine = GMineEngine::Build(g.value(), labels, store_path, opts);
  if (!engine.ok()) return engine.status();
  *out += StrFormat("built %s in %s -> %s (%s)\n",
                    engine.value()->tree().DebugString().c_str(),
                    HumanMicros(watch.ElapsedMicros()).c_str(),
                    store_path.c_str(),
                    HumanBytes(engine.value()->store().file_size()).c_str());
  return Status::OK();
}

// ------------------------------------------------------------------ mine
// Whole-store mining kernels through query::MineStore
// (docs/OUTOFCORE.md): streamed stores run the page kernels, whose peak
// memory is O(nodes) scalars plus the buffer-pool budget, so the store
// may be arbitrarily larger than --mem-budget-mb; legacy stores (no
// per-page complete adjacency) run the in-memory kernels over the
// store's full graph. Page-path PageRank runs restartable:
// --checkpoint FILE persists progress every --checkpoint-every pages,
// and --resume continues from that file bit-identically.

Status CmdMine(const CommandLine& cmd, std::string* out) {
  if (cmd.positional.empty()) {
    return UsageError("mine: STORE path required");
  }
  GMINE_ASSIGN_OR_RETURN(uint64_t mem_budget_mb,
                         FlagUint(cmd, "mem-budget-mb", 64));
  storage::BufferPool::Global().SetBudgetBytes(mem_budget_mb << 20);
  const std::optional<query::ast::MineStatement::Kernel> kernel =
      query::ast::ParseMineKernel(cmd.Get("kernel", "pagerank"));
  if (!kernel.has_value()) {
    return UsageError(
        "mine: --kernel expects pagerank, degrees or components");
  }
  GMINE_ASSIGN_OR_RETURN(uint64_t top, FlagUint(cmd, "top", 10));
  GMINE_ASSIGN_OR_RETURN(std::unique_ptr<gtree::GTreeStore> store,
                         gtree::GTreeStore::Open(cmd.positional[0]));
  StopWatch watch;

  mining::PageRankOverPagesOptions options;
  if (*kernel == query::ast::MineStatement::Kernel::kPagerank) {
    const std::string ckpt_path = cmd.Get("checkpoint");
    if (!ckpt_path.empty()) {
      GMINE_ASSIGN_OR_RETURN(uint64_t every,
                             FlagUint(cmd, "checkpoint-every", 8));
      options.checkpoint_every_pages = every;
      options.checkpoint_sink = [ckpt_path](const std::string& blob) {
        return graph::WriteStringToFile(blob, ckpt_path);
      };
    }
    if (cmd.Has("resume")) {
      if (ckpt_path.empty()) {
        return UsageError("mine: --resume needs --checkpoint FILE");
      }
      auto blob = graph::ReadFileToString(ckpt_path);
      if (!blob.ok()) return blob.status();
      options.resume_from = std::move(blob).value();
    }
  }
  GMINE_ASSIGN_OR_RETURN(query::MineResult mined,
                         query::MineStore(*store, *kernel, options));
  const std::string took = HumanMicros(watch.ElapsedMicros());

  if (const auto* r = std::get_if<mining::PageRankResult>(&mined.value)) {
    *out += StrFormat(
        "pagerank (%s): %s after %d sweep(s), delta=%.3e, %s\n",
        mined.engine, r->converged ? "converged" : "stopped", r->iterations,
        r->final_delta, took.c_str());
    for (graph::NodeId v :
         mining::TopKByScore(r->score, static_cast<uint32_t>(top))) {
      const std::string label(store->labels().Label(v));
      *out += StrFormat("  %u %.8f%s%s\n", v, r->score[v],
                        label.empty() ? "" : " ", label.c_str());
    }
  } else if (const auto* d =
                 std::get_if<mining::DegreeDistribution>(&mined.value)) {
    *out += StrFormat("degrees (%s): %s, %s\n", mined.engine,
                      d->ToString().c_str(), took.c_str());
  } else {
    const auto& c = std::get<mining::ComponentResult>(mined.value);
    *out += StrFormat("components (%s): %u component(s), largest=%u, %s\n",
                      mined.engine, c.num_components, c.LargestSize(),
                      took.c_str());
  }
  return Status::OK();
}

gmine::Result<std::unique_ptr<GMineEngine>> OpenStore(
    const CommandLine& cmd) {
  if (cmd.positional.empty()) {
    return UsageError(cmd.command + ": STORE path required");
  }
  return GMineEngine::Open(cmd.positional[0]);
}

Status CmdInfo(const CommandLine& cmd, std::string* out) {
  GMINE_ASSIGN_OR_RETURN(std::unique_ptr<GMineEngine> engine,
                         OpenStore(cmd));
  const gtree::GTree& tree = engine->tree();
  *out += StrFormat("%s\n", tree.DebugString().c_str());
  *out += StrFormat("store file: %s\n",
                    HumanBytes(engine->store().file_size()).c_str());
  *out += StrFormat("labels: %u\n", engine->labels().size());
  *out += StrFormat("connectivity pairs: %zu\n",
                    engine->store().connectivity().num_pairs());
  // Top-level overview.
  const gtree::TreeNode& root = tree.node(tree.root());
  for (gtree::TreeNodeId c : root.children) {
    *out += StrFormat("  %s: %llu nodes, %llu tree nodes\n",
                      tree.node(c).name.c_str(),
                      static_cast<unsigned long long>(
                          tree.node(c).subtree_size),
                      static_cast<unsigned long long>(
                          tree.SubtreeNodeCount(c)));
  }
  return Status::OK();
}

// ------------------------------------------------------------------ query
// GQL front end (docs/QUERY.md): one statement as a positional
// argument, or a script (--script FILE or stdin) running one statement
// per line. Script mode echoes each statement, reports errors inline
// and keeps going — a query typo must not abort the session — while
// single-statement mode propagates the error (nonzero exit, the CI
// negative-path contract). The legacy `--label NAME` details lookup is
// kept verbatim.

Status CmdQuery(const CommandLine& cmd, std::string* out) {
  GMINE_ASSIGN_OR_RETURN(std::unique_ptr<GMineEngine> engine,
                         OpenStore(cmd));
  if (cmd.Has("label")) {
    const std::string label = cmd.Get("label");
    auto located = engine->session().LocateByLabel(label);
    if (!located.ok()) return located.status();
    auto details = engine->GetNodeDetails(located.value());
    if (!details.ok()) return details.status();
    *out += StrFormat("node %u '%s'\n", details.value().id,
                      details.value().label.c_str());
    *out += "community path:";
    for (const std::string& p : details.value().community_path) {
      *out += " " + p;
    }
    *out += StrFormat("\nco-authors in community (%u):\n",
                      details.value().degree_in_community);
    for (const auto& [id, name] : details.value().community_neighbors) {
      *out += StrFormat("  %u '%s'\n", id, name.c_str());
    }
    return Status::OK();
  }

  query::ExecutorOptions qopts;
  const std::string pushdown = cmd.Get("pushdown", "on");
  if (pushdown != "on" && pushdown != "off") {
    return UsageError("query: --pushdown expects 'on' or 'off'");
  }
  qopts.pushdown = pushdown == "on";
  GMINE_ASSIGN_OR_RETURN(uint64_t threads, FlagUint(cmd, "threads", 0));
  qopts.threads = static_cast<int>(threads);

  auto run_one = [&](std::string_view statement) -> Status {
    auto result = engine->Query(statement, qopts);
    if (!result.ok()) return result.status();
    *out += query::ResultToText(result.value());
    const query::QueryStats& s = result.value().stats;
    *out += StrFormat(
        "-- %llu row(s); pages scanned=%llu/%llu pruned=%llu\n",
        static_cast<unsigned long long>(s.rows_output),
        static_cast<unsigned long long>(s.pages_scanned),
        static_cast<unsigned long long>(s.pages_total),
        static_cast<unsigned long long>(s.pages_pruned));
    return Status::OK();
  };

  if (cmd.positional.size() > 1) {
    if (cmd.Has("script")) {
      return UsageError("query: give a statement or --script, not both");
    }
    return run_one(cmd.positional[1]);
  }

  std::string script;
  if (cmd.Has("script")) {
    auto text = graph::ReadFileToString(cmd.Get("script"));
    if (!text.ok()) return text.status();
    script = std::move(text).value();
  } else {
    script = ReadAllStdin();
  }
  size_t pos = 0;
  while (pos < script.size()) {
    size_t eol = script.find('\n', pos);
    if (eol == std::string::npos) eol = script.size();
    std::string_view line(script.data() + pos, eol - pos);
    pos = eol + 1;
    line = TrimWhitespace(line);
    if (line.empty() || line[0] == '#') continue;
    *out += StrFormat("query> %.*s\n", static_cast<int>(line.size()),
                      line.data());
    Status st = run_one(line);
    if (!st.ok()) {
      // Keep the session alive: report and move to the next statement.
      *out += StrFormat("error: %s\n", st.ToString().c_str());
    }
  }
  return Status::OK();
}

Status CmdExtract(const CommandLine& cmd, std::string* out) {
  GMINE_ASSIGN_OR_RETURN(std::unique_ptr<GMineEngine> engine,
                         OpenStore(cmd));
  std::vector<std::string> names = cmd.GetAll("source");
  if (names.empty()) {
    return UsageError("extract: at least one --source NAME required");
  }
  auto sources = engine->ResolveLabels(names);
  if (!sources.ok()) return sources.status();
  csg::ExtractionOptions opts;
  GMINE_ASSIGN_OR_RETURN(uint64_t budget, FlagUint(cmd, "budget", 30));
  opts.budget = static_cast<uint32_t>(budget);
  StopWatch watch;
  auto cs = engine->ExtractConnectionSubgraph(sources.value(), opts);
  if (!cs.ok()) return cs.status();
  *out += StrFormat("%s in %s\n", cs.value().ToString().c_str(),
                    HumanMicros(watch.ElapsedMicros()).c_str());
  for (size_t i = 0; i < cs.value().subgraph.to_parent.size(); ++i) {
    graph::NodeId orig = cs.value().subgraph.to_parent[i];
    *out += StrFormat("  %.3e  '%s'\n", cs.value().member_goodness[i],
                      std::string(engine->labels().Label(orig)).c_str());
  }
  if (cmd.Has("svg")) {
    GMINE_RETURN_IF_ERROR(core::RenderConnectionSubgraphSvg(
        cs.value(), &engine->labels(), cmd.Get("svg")));
    *out += StrFormat("figure: %s\n", cmd.Get("svg").c_str());
  }
  return Status::OK();
}

Status CmdRender(const CommandLine& cmd, std::string* out) {
  std::string svg = cmd.Get("svg");
  if (svg.empty()) return UsageError("render: --svg FILE required");
  GMINE_ASSIGN_OR_RETURN(std::unique_ptr<GMineEngine> engine,
                         OpenStore(cmd));
  if (cmd.Has("focus")) {
    gtree::TreeNodeId id = engine->tree().FindByName(cmd.Get("focus"));
    if (id == gtree::kInvalidTreeNode) {
      return Status::NotFound(
          StrFormat("community '%s' not found", cmd.Get("focus").c_str()));
    }
    GMINE_RETURN_IF_ERROR(engine->session().FocusNode(id));
  }
  if (cmd.Has("zoom")) {
    double zoom = 1.0;
    if (!ParseDouble(cmd.Get("zoom"), &zoom)) {
      return UsageError("render: --zoom expects a number");
    }
    GMINE_RETURN_IF_ERROR(engine->session().Zoom(zoom));
  }
  GMINE_RETURN_IF_ERROR(engine->RenderHierarchyView(svg));
  *out += StrFormat("rendered focus %s (display=%zu) -> %s\n",
                    engine->tree().node(engine->session().focus()).name
                        .c_str(),
                    engine->session().context().DisplaySize(), svg.c_str());
  return Status::OK();
}

Status CmdExport(const CommandLine& cmd, std::string* out) {
  GMINE_ASSIGN_OR_RETURN(std::unique_ptr<GMineEngine> engine,
                         OpenStore(cmd));
  std::string community = cmd.Get("community");
  if (community.empty()) {
    return UsageError("export: --community NAME required");
  }
  gtree::TreeNodeId id = engine->tree().FindByName(community);
  if (id == gtree::kInvalidTreeNode) {
    return Status::NotFound(
        StrFormat("community '%s' not found", community.c_str()));
  }
  if (!engine->tree().node(id).IsLeaf()) {
    return Status::InvalidArgument(
        StrFormat("community '%s' is not a leaf", community.c_str()));
  }
  auto payload = engine->store().LoadLeaf(id);
  if (!payload.ok()) return payload.status();
  const graph::Subgraph& sub = payload.value()->subgraph;
  // Remap global labels onto the local ids.
  graph::LabelStore local;
  for (graph::NodeId v = 0; v < sub.to_parent.size(); ++v) {
    std::string_view label = engine->labels().Label(sub.ParentId(v));
    if (!label.empty()) local.SetLabel(v, std::string(label));
  }
  graph::ExportOptions eopts;
  eopts.graph_name = community;
  bool wrote = false;
  if (cmd.Has("dot")) {
    GMINE_RETURN_IF_ERROR(
        graph::WriteDotFile(sub.graph, cmd.Get("dot"), &local, eopts));
    *out += StrFormat("dot: %s\n", cmd.Get("dot").c_str());
    wrote = true;
  }
  if (cmd.Has("graphml")) {
    GMINE_RETURN_IF_ERROR(graph::WriteGraphMlFile(
        sub.graph, cmd.Get("graphml"), &local, eopts));
    *out += StrFormat("graphml: %s\n", cmd.Get("graphml").c_str());
    wrote = true;
  }
  if (!wrote) return UsageError("export: --dot FILE or --graphml FILE");
  return Status::OK();
}

// ------------------------------------------------------------------- edit
// Batch edit driver over a store: script lines queue node/edge
// mutations, `apply` closes a batch into one GMineEngine::ApplyEdit, and
// the transcript reports what the incremental repair did (classified
// ops, rebuilt subtrees, rewritten pages, patched connectivity rows).
// docs/EDITS.md walks through a full session.
//
// With `queue` set (--wal on), batches are instead Submitted to the
// group-commit queue as the script parses and acked after a final
// Drain — so consecutive batches coalesce into WAL groups exactly as
// concurrent writers would. Queued batches must be independent: a
// batch may reference pre-script nodes and its own provisional ids,
// but not ids minted by an earlier unacked batch (docs/WAL.md).

Status RunEditScript(GMineEngine* engine, core::EditQueue* queue,
                     const std::string& script, std::string* out) {
  std::optional<graph::GraphEdit> edit;
  std::vector<std::string> pending_labels;
  size_t batch = 0;
  size_t line_no = 0;
  // Queued mode: acks collected here and reported after the drain.
  std::vector<std::pair<size_t, std::future<core::EditCommit>>> acks;

  auto ensure_edit = [&]() -> Status {
    if (edit.has_value()) return Status::OK();
    if (queue != nullptr) {
      // The committer thread owns the engine's graph while the queue
      // runs; base the batch on the queue's committed tip instead.
      edit.emplace(queue->tip_nodes());
      return Status::OK();
    }
    edit.emplace(engine->store().num_graph_nodes());
    return Status::OK();
  };
  auto apply_batch = [&]() -> Status {
    if (!edit.has_value() || edit->empty()) {
      edit.reset();
      pending_labels.clear();
      return Status::OK();
    }
    ++batch;
    if (queue != nullptr) {
      const size_t ops = edit->num_ops();
      auto fut = queue->Submit(std::move(*edit), pending_labels);
      if (!fut.ok()) return fut.status();
      *out += StrFormat("[batch %zu] ops=%zu submitted\n", batch, ops);
      acks.emplace_back(batch, std::move(fut).value());
      edit.reset();
      pending_labels.clear();
      return Status::OK();
    }
    core::EditStats stats;
    GMINE_RETURN_IF_ERROR(
        engine->ApplyEdit(*edit, pending_labels, &stats));
    const gtree::EditClassification& cls = stats.classification;
    *out += StrFormat(
        "[batch %zu] ops=%zu intra-leaf=%llu cross-leaf=%llu v+=%llu "
        "v-=%llu\n",
        batch, edit->num_ops(),
        static_cast<unsigned long long>(cls.intra_leaf_edge_ops),
        static_cast<unsigned long long>(cls.cross_leaf_edge_ops),
        static_cast<unsigned long long>(cls.added_vertices),
        static_cast<unsigned long long>(cls.removed_vertices));
    *out += StrFormat(
        "  repaired: subtrees=%u pages=%u conn-rows=%zu%s%s "
        "journal=%zu epoch=%llu wall=%s\n",
        stats.subtree_rebuilds, stats.pages_written,
        stats.conn_rows_updated,
        stats.connectivity_rebuilt ? " conn-rebuilt" : "",
        stats.defragmented ? " compacted(defrag)"
                           : (stats.compacted ? " compacted" : ""),
        stats.journal_ops,
        static_cast<unsigned long long>(stats.epoch),
        HumanMicros(stats.micros).c_str());
    edit.reset();
    pending_labels.clear();
    return Status::OK();
  };

  size_t pos = 0;
  while (pos < script.size()) {
    size_t eol = script.find('\n', pos);
    if (eol == std::string::npos) eol = script.size();
    std::string_view line(script.data() + pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    line = TrimWhitespace(line);
    if (line.empty() || line[0] == '#') continue;
    if (line.substr(0, line.find(' ')) == "apply") {
      GMINE_RETURN_IF_ERROR(apply_batch());
      continue;
    }
    auto op = net::ParseEditOp(line);
    if (!op.ok()) {
      return Status::InvalidArgument(
          StrFormat("edit script line %zu: %s in '%.*s'", line_no,
                    op.status().message().c_str(),
                    static_cast<int>(line.size()), line.data()));
    }
    GMINE_RETURN_IF_ERROR(ensure_edit());
    const graph::NodeId id =
        net::QueueEditOp(op.value(), &*edit, &pending_labels);
    if (op.value().kind == net::EditOp::Kind::kAddNode) {
      const std::string& label = op.value().label;
      *out += StrFormat("add-node -> provisional id %u%s%s\n", id,
                        label.empty() ? "" : " label=", label.c_str());
    }
  }
  // A trailing unapplied batch applies implicitly.
  GMINE_RETURN_IF_ERROR(apply_batch());
  if (queue != nullptr) {
    queue->Drain();
    Status first_failure = Status::OK();
    for (auto& [n, fut] : acks) {
      core::EditCommit commit = fut.get();
      if (commit.status.ok()) {
        *out += StrFormat(
            "[batch %zu] committed lsn=%llu epoch=%llu group=%zu\n", n,
            static_cast<unsigned long long>(commit.lsn),
            static_cast<unsigned long long>(commit.epoch),
            commit.group_size);
      } else {
        *out += StrFormat("[batch %zu] failed: %s\n", n,
                          commit.status.ToString().c_str());
        if (first_failure.ok()) first_failure = commit.status;
      }
    }
    GMINE_RETURN_IF_ERROR(first_failure);
  }
  return Status::OK();
}

Status CmdEdit(const CommandLine& cmd, std::string* out) {
  if (cmd.positional.empty()) {
    return UsageError("edit: STORE path required");
  }
  EngineOptions opts;
  GMINE_ASSIGN_OR_RETURN(uint64_t max_leaf,
                         FlagUint(cmd, "max-leaf-size", 0));
  opts.edit.max_leaf_size = static_cast<uint32_t>(max_leaf);
  GMINE_ASSIGN_OR_RETURN(
      uint64_t compact_ops,
      FlagUint(cmd, "compact-ops", opts.store.journal_compact_ops));
  opts.store.journal_compact_ops = static_cast<size_t>(compact_ops);
  if (cmd.Has("mem-budget-mb")) {
    GMINE_ASSIGN_OR_RETURN(uint64_t mem_budget_mb,
                           FlagUint(cmd, "mem-budget-mb", 64));
    opts.mem_budget_bytes = mem_budget_mb << 20;
  }
  const std::string wal_raw = cmd.Get("wal", "off");
  if (wal_raw != "on" && wal_raw != "off") {
    return UsageError("edit: --wal expects 'on' or 'off'");
  }
  opts.wal.enabled = wal_raw == "on";
  const std::string wal_durable = cmd.Get("wal-durable", "on");
  if (wal_durable != "on" && wal_durable != "off") {
    return UsageError("edit: --wal-durable expects 'on' or 'off'");
  }
  opts.wal.durable = wal_durable == "on";
  GMINE_ASSIGN_OR_RETURN(uint64_t group_ops,
                         FlagUint(cmd, "group-ops", 64));
  if (opts.wal.enabled && group_ops == 0) {
    return UsageError("edit: --group-ops must be at least 1");
  }

  // Open adopts the build shape the store records in its header, so
  // repairs re-split with the store's own levels/fanout/seed.
  auto engine = GMineEngine::Open(cmd.positional[0], opts);
  if (!engine.ok()) return engine.status();

  std::string script;
  if (cmd.Has("script")) {
    auto text = graph::ReadFileToString(cmd.Get("script"));
    if (!text.ok()) return text.status();
    script = std::move(text).value();
  } else {
    script = ReadAllStdin();
  }

  std::unique_ptr<core::EditQueue> queue;
  if (opts.wal.enabled) {
    const core::WalRecoveryStats& rec = engine.value()->wal_recovery();
    if (rec.replayed > 0 || rec.skipped > 0 || rec.truncated_bytes > 0) {
      *out += StrFormat(
          "wal: recovered replayed=%llu skipped=%llu truncated=%llu\n",
          static_cast<unsigned long long>(rec.replayed),
          static_cast<unsigned long long>(rec.skipped),
          static_cast<unsigned long long>(rec.truncated_bytes));
    }
    core::EditQueueOptions qopts;
    qopts.max_group_edits = static_cast<size_t>(group_ops);
    queue = std::make_unique<core::EditQueue>(engine.value().get(), qopts);
  }
  GMINE_RETURN_IF_ERROR(
      RunEditScript(engine.value().get(), queue.get(), script, out));
  if (queue != nullptr) {
    queue->Stop();
    const core::EditQueueStats qstats = queue->stats();
    const storage::WalStats& wstats = engine.value()->wal()->stats();
    *out += StrFormat(
        "queue: committed=%llu groups=%llu max_group=%zu rejected=%llu "
        "failed=%llu\n",
        static_cast<unsigned long long>(qstats.committed),
        static_cast<unsigned long long>(qstats.groups), qstats.max_group,
        static_cast<unsigned long long>(qstats.rejected),
        static_cast<unsigned long long>(qstats.failed));
    *out += StrFormat(
        "wal: %s appended=%llu syncs=%llu next_lsn=%llu checkpoints=%llu\n",
        HumanBytes(engine.value()->wal()->file_size()).c_str(),
        static_cast<unsigned long long>(wstats.records_appended),
        static_cast<unsigned long long>(wstats.syncs),
        static_cast<unsigned long long>(engine.value()->wal()->next_lsn()),
        static_cast<unsigned long long>(qstats.checkpoints));
  }
  *out += StrFormat("%s\n", engine.value()->tree().DebugString().c_str());
  *out += StrFormat(
      "store: %s journal=%zu\n",
      HumanBytes(engine.value()->store().file_size()).c_str(),
      engine.value()->store().journal_ops());
  return Status::OK();
}

// ------------------------------------------------------------------ stats
// Buffer-pool visibility from the command line: opens the store, walks
// every leaf once (the pages a full navigation would touch), and prints
// the per-store counters plus the pool-wide aggregate. With a small
// --mem-budget-mb the output shows eviction/bypass behavior; the walk
// releases each page before loading the next, so it needs only one
// resident page to make progress.

Status CmdStats(const CommandLine& cmd, std::string* out) {
  if (cmd.positional.empty()) {
    return UsageError("stats: STORE path required");
  }
  GMINE_ASSIGN_OR_RETURN(uint64_t mem_budget_mb,
                         FlagUint(cmd, "mem-budget-mb", 64));
  storage::BufferPool::Global().SetBudgetBytes(mem_budget_mb << 20);
  auto store = gtree::GTreeStore::Open(cmd.positional[0]);
  if (!store.ok()) return store.status();

  const gtree::GTree& tree = store.value()->tree();
  size_t walked = 0;
  for (gtree::TreeNodeId t = 0;
       t < static_cast<gtree::TreeNodeId>(tree.nodes().size()); ++t) {
    if (!tree.node(t).IsLeaf()) continue;
    auto leaf = store.value()->LoadLeaf(t);
    if (!leaf.ok()) return leaf.status();
    ++walked;
    // `leaf` drops here: the page unpins before the next load, so the
    // walk works under any budget that fits one page.
  }

  const gtree::GTreeStoreStats sstats = store.value()->stats();
  const storage::BufferPoolStats bstats =
      store.value()->buffer_pool().stats();
  *out += StrFormat("leaves walked: %zu\n", walked);
  *out += StrFormat(
      "store: leaf_loads=%llu cache_hits=%llu shared_hits=%llu "
      "bytes_read=%llu evictions=%llu resident_bytes=%llu "
      "pinned_bytes=%llu\n",
      static_cast<unsigned long long>(sstats.leaf_loads),
      static_cast<unsigned long long>(sstats.cache_hits),
      static_cast<unsigned long long>(sstats.shared_hits),
      static_cast<unsigned long long>(sstats.bytes_read),
      static_cast<unsigned long long>(sstats.evictions),
      static_cast<unsigned long long>(sstats.resident_bytes),
      static_cast<unsigned long long>(sstats.pinned_bytes));
  *out += StrFormat(
      "buffer_pool: budget_bytes=%llu resident_bytes=%llu "
      "pinned_bytes=%llu resident_pages=%llu stores=%zu shards=%zu\n",
      static_cast<unsigned long long>(bstats.budget_bytes),
      static_cast<unsigned long long>(bstats.resident_bytes),
      static_cast<unsigned long long>(bstats.pinned_bytes),
      static_cast<unsigned long long>(bstats.resident_pages),
      bstats.stores, bstats.shards);
  *out += StrFormat(
      "buffer_pool: hits=%llu misses=%llu loads=%llu evictions=%llu "
      "invalidations=%llu bypasses=%llu backpressure=%llu "
      "private_reads=%llu\n",
      static_cast<unsigned long long>(bstats.hits),
      static_cast<unsigned long long>(bstats.misses),
      static_cast<unsigned long long>(bstats.loads),
      static_cast<unsigned long long>(bstats.evictions),
      static_cast<unsigned long long>(bstats.invalidations),
      static_cast<unsigned long long>(bstats.bypasses),
      static_cast<unsigned long long>(bstats.backpressure),
      static_cast<unsigned long long>(bstats.private_reads));
  return Status::OK();
}

// ------------------------------------------------------------------ serve
// Batch/REPL driver multiplexing scripted navigation commands across a
// pool of sessions over one store. Script lines look like
//
//   <session> <op> [arg]     e.g.  "0 focus s003", "1 locate Jiawei Han"
//
// with one session per index in [0, --sessions). Lines for different
// sessions execute concurrently on the thread pool; lines for the same
// session execute in script order. Transcripts print in session order,
// so output is reproducible regardless of interleaving. Ops run through
// the line protocol's dispatcher (net/session_ops.h) and print its
// reply text; only `help` and `quit` are serve's own.

/// One parsed script line.
struct ServeOp {
  size_t line = 0;       // 1-based script line (for error messages)
  std::string op;        // the op keyword as written
  std::string text;      // "<op> [arg]", parsed by net::ParseRequest
};

/// `gmine serve`'s own help: the session ops plus `quit`.
constexpr char kServeHelp[] =
    "ops: root focus child parent back locate load summary connectivity "
    "render query ping close help quit";

/// Splits a script into per-session op queues. Lines: blank and
/// #-comments skipped; otherwise `<session> <op> [arg]`.
Status ParseServeScript(const std::string& body, size_t num_sessions,
                        std::vector<std::vector<ServeOp>>* queues) {
  queues->assign(num_sessions, {});
  size_t pos = 0;
  size_t line_no = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    std::string_view line(body.data() + pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    line = TrimWhitespace(line);
    if (line.empty() || line[0] == '#') continue;
    size_t sp = line.find(' ');
    if (sp == std::string_view::npos) {
      return Status::InvalidArgument(
          StrFormat("serve script line %zu: expected '<session> <op> "
                    "[arg]', got '%.*s'",
                    line_no, static_cast<int>(line.size()), line.data()));
    }
    uint64_t session = 0;
    if (!ParseUint64(line.substr(0, sp), &session) ||
        session >= num_sessions) {
      return Status::InvalidArgument(
          StrFormat("serve script line %zu: session index out of range "
                    "[0, %zu) in '%.*s'",
                    line_no, num_sessions, static_cast<int>(line.size()),
                    line.data()));
    }
    std::string_view rest = TrimWhitespace(line.substr(sp + 1));
    ServeOp op;
    op.line = line_no;
    op.op.assign(rest.substr(0, rest.find(' ')));
    op.text.assign(rest);
    (*queues)[session].push_back(std::move(op));
  }
  return Status::OK();
}

Status CmdServe(const CommandLine& cmd, std::string* out) {
  if (cmd.positional.empty()) {
    return UsageError("serve: STORE path required");
  }
  GMINE_ASSIGN_OR_RETURN(uint64_t num_sessions,
                         FlagUint(cmd, "sessions", 4));
  GMINE_ASSIGN_OR_RETURN(uint64_t threads, FlagUint(cmd, "threads", 0));
  GMINE_ASSIGN_OR_RETURN(uint64_t mem_budget_mb,
                         FlagUint(cmd, "mem-budget-mb", 64));
  if (num_sessions == 0) {
    return UsageError("serve: --sessions must be at least 1");
  }

  // One store serves every session; leaf pages go through the
  // process-wide buffer pool (docs/STORAGE.md), re-armed here to the
  // requested byte budget (0 = unbounded).
  storage::BufferPool::Global().SetBudgetBytes(mem_budget_mb << 20);
  gtree::GTreeStoreOptions sopts;
  auto store = gtree::GTreeStore::Open(cmd.positional[0], sopts);
  if (!store.ok()) return store.status();

  core::SessionManagerOptions mopts;
  mopts.max_sessions = num_sessions;
  core::SessionManager pool(store.value().get(), mopts);
  std::vector<core::SessionId> ids;
  ids.reserve(num_sessions);
  for (uint64_t i = 0; i < num_sessions; ++i) {
    auto id = pool.OpenSession();
    if (!id.ok()) return id.status();
    ids.push_back(id.value());
  }

  std::string script;
  if (cmd.Has("script")) {
    auto text = graph::ReadFileToString(cmd.Get("script"));
    if (!text.ok()) return text.status();
    script = std::move(text).value();
  } else {
    script = ReadAllStdin();
  }
  std::vector<std::vector<ServeOp>> queues;
  GMINE_RETURN_IF_ERROR(ParseServeScript(script, ids.size(), &queues));

  // Shared GQL executor for `query` ops (const, thread-safe; EXTRACT
  // reads the store's shared full graph).
  query::Executor executor(store.value().get());

  // Multiplex: each session's queue runs in script order; different
  // sessions run concurrently on the thread pool. Transcripts are
  // per-session, printed in session order below.
  std::vector<std::string> transcripts(ids.size());
  std::vector<size_t> executed(ids.size(), 0);
  StopWatch watch;
  ParallelFor(0, ids.size(), 1, static_cast<int>(threads), [&](size_t i) {
    for (const ServeOp& op : queues[i]) {
      ++executed[i];
      if (op.op == "quit") {
        // Stop this session's queue; other sessions keep running.
        transcripts[i] += StrFormat("[s%zu] quit -> done\n", i);
        break;
      }
      net::Response response;
      auto request = net::ParseRequest(op.text);
      if (!request.ok()) {
        response.status = request.status();
      } else if (request.value().op == net::RequestOp::kHelp) {
        response.text = kServeHelp;
      } else {
        response.status = pool.WithSession(
            ids[i], [&](gtree::NavigationSession& nav) {
              return net::ExecuteSessionOp(request.value(), nav, executor,
                                           &response);
            });
      }
      if (!response.status.ok()) {
        transcripts[i] += StrFormat(
            "[s%zu] %s (script line %zu) -> error: %s\n", i, op.op.c_str(),
            op.line, response.status.ToString().c_str());
        continue;
      }
      transcripts[i] += StrFormat("[s%zu] %s -> %s\n", i, op.op.c_str(),
                                  response.text.c_str());
      // `close` ends this session's queue, like `quit`.
      if (request.value().op == net::RequestOp::kClose) break;
    }
  });
  const int64_t elapsed = watch.ElapsedMicros();

  // Count executed ops, not queued ones — `quit` skips the rest of its
  // session's queue.
  size_t total_ops = 0;
  for (size_t i = 0; i < transcripts.size(); ++i) {
    *out += transcripts[i];
    total_ops += executed[i];
  }

  const gtree::GTree& tree = store.value()->tree();
  *out += "--- sessions ---\n";
  auto infos = pool.ListSessions();
  std::sort(infos.begin(), infos.end(),
            [](const core::SessionInfo& a, const core::SessionInfo& b) {
              return a.id < b.id;
            });
  for (const core::SessionInfo& info : infos) {
    *out += StrFormat("s%llu: interactions=%zu focus=%s\n",
                      static_cast<unsigned long long>(info.id - 1),
                      info.interactions,
                      tree.node(info.focus).name.c_str());
  }
  const core::SessionPoolStats pstats = pool.stats();
  const gtree::GTreeStoreStats sstats = store.value()->stats();
  *out += StrFormat(
      "pool: open=%zu opened=%llu evicted=%llu ops=%zu wall=%s\n",
      pstats.open_now, static_cast<unsigned long long>(pstats.opened),
      static_cast<unsigned long long>(pstats.evicted), total_ops,
      HumanMicros(elapsed).c_str());
  *out += StrFormat(
      "store: leaf loads=%llu cache hits=%llu shared hits=%llu "
      "bytes read=%s evictions=%llu resident=%s pinned=%s\n",
      static_cast<unsigned long long>(sstats.leaf_loads),
      static_cast<unsigned long long>(sstats.cache_hits),
      static_cast<unsigned long long>(sstats.shared_hits),
      HumanBytes(sstats.bytes_read).c_str(),
      static_cast<unsigned long long>(sstats.evictions),
      HumanBytes(sstats.resident_bytes).c_str(),
      HumanBytes(sstats.pinned_bytes).c_str());
  return Status::OK();
}

// ----------------------------------------------------------------- server
// TCP front end: the session-pool service published on a loopback port
// (docs/SERVER.md). Runs until a client sends `shutdown` (or the
// process is killed); --port-file is the live channel scripts use to
// learn an ephemeral port while the command is still running.

Status CmdServer(const CommandLine& cmd, std::string* out) {
  if (cmd.positional.empty()) {
    return UsageError("server: STORE path required");
  }
  GMINE_ASSIGN_OR_RETURN(uint64_t port, FlagUint(cmd, "port", 0));
  if (port > 65535) return UsageError("server: --port must be <= 65535");
  GMINE_ASSIGN_OR_RETURN(uint64_t max_clients,
                         FlagUint(cmd, "max-clients", 32));
  GMINE_ASSIGN_OR_RETURN(uint64_t threads, FlagUint(cmd, "threads", 0));
  GMINE_ASSIGN_OR_RETURN(uint64_t mem_budget_mb,
                         FlagUint(cmd, "mem-budget-mb", 64));
  GMINE_ASSIGN_OR_RETURN(uint64_t idle_ms,
                         FlagUint(cmd, "idle-timeout-ms", 0));
  if (max_clients == 0) {
    return UsageError("server: --max-clients must be at least 1");
  }
  const std::string prefetch_raw = cmd.Get("prefetch", "off");
  if (prefetch_raw != "on" && prefetch_raw != "off") {
    return UsageError("server: --prefetch expects 'on' or 'off'");
  }
  const bool prefetch = prefetch_raw == "on";
  const std::string wal_raw = cmd.Get("wal", "off");
  if (wal_raw != "on" && wal_raw != "off") {
    return UsageError("server: --wal expects 'on' or 'off'");
  }
  const bool wal = wal_raw == "on";
  const std::string writable_raw = cmd.Get("writable", "off");
  if (writable_raw != "on" && writable_raw != "off") {
    return UsageError("server: --writable expects 'on' or 'off'");
  }
  const bool writable = writable_raw == "on";

  // Concurrent clients page through the process-wide buffer pool,
  // bounded in bytes (0 = unbounded); see docs/STORAGE.md.
  storage::BufferPool::Global().SetBudgetBytes(mem_budget_mb << 20);

  // Connection count bounds live sessions, so the pool itself is
  // unbounded — eviction must never yank a connected client's state.
  // With --wal on the store is served through a full engine, so any
  // log tail left by a crashed writer replays before the first client
  // connects; --wal off keeps the lean store-plus-pool path.
  std::unique_ptr<GMineEngine> engine;
  std::unique_ptr<gtree::GTreeStore> raw_store;
  std::unique_ptr<core::SessionManager> raw_pool;
  gtree::GTreeStore* store = nullptr;
  core::SessionManager* pool = nullptr;
  if (wal || writable) {
    // Remote mutation always goes through the full engine.
    EngineOptions eopts;
    eopts.sessions.max_sessions = 0;
    eopts.sessions.idle_timeout_micros = static_cast<int64_t>(idle_ms) * 1000;
    eopts.wal.enabled = wal;
    auto opened = GMineEngine::Open(cmd.positional[0], eopts);
    if (!opened.ok()) return opened.status();
    engine = std::move(opened).value();
    store = &engine->store();
    pool = &engine->sessions();
    if (wal) {
      const core::WalRecoveryStats& rec = engine->wal_recovery();
      *out += StrFormat(
          "wal: replayed=%llu skipped=%llu truncated=%llu next_lsn=%llu\n",
          static_cast<unsigned long long>(rec.replayed),
          static_cast<unsigned long long>(rec.skipped),
          static_cast<unsigned long long>(rec.truncated_bytes),
          static_cast<unsigned long long>(engine->wal()->next_lsn()));
    }
  } else {
    gtree::GTreeStoreOptions sopts;
    auto opened = gtree::GTreeStore::Open(cmd.positional[0], sopts);
    if (!opened.ok()) return opened.status();
    raw_store = std::move(opened).value();
    store = raw_store.get();
    core::SessionManagerOptions mopts;
    mopts.max_sessions = 0;
    mopts.idle_timeout_micros = static_cast<int64_t>(idle_ms) * 1000;
    raw_pool = std::make_unique<core::SessionManager>(store, mopts);
    pool = raw_pool.get();
  }

  std::unique_ptr<core::Prefetcher> prefetcher;
  if (prefetch) {
    prefetcher = std::make_unique<core::Prefetcher>(store);
  }

  net::ServerOptions nopts;
  nopts.port = static_cast<uint16_t>(port);
  nopts.max_clients = static_cast<int>(max_clients);
  nopts.worker_threads = static_cast<int>(threads);
  if (engine != nullptr) {
    GMineEngine* eng = engine.get();
    nopts.extra_stats = [eng]() {
      storage::Wal* w = eng->wal();
      if (w == nullptr) return std::string();
      const storage::WalStats& ws = w->stats();
      return StrFormat(
          "wal size=%llu next_lsn=%llu recovered=%llu truncated=%llu",
          static_cast<unsigned long long>(w->file_size()),
          static_cast<unsigned long long>(w->next_lsn()),
          static_cast<unsigned long long>(ws.recovered_records),
          static_cast<unsigned long long>(ws.truncated_bytes));
    };
  }
  // Remote mutation (EDIT ops): every batch commits through one
  // group-commit queue over the engine (concurrent writers coalesce
  // and are rebased onto each other; acks carry real LSNs with --wal
  // on, lsn=0 without a log).
  std::unique_ptr<core::EditQueue> equeue;
  if (writable) {
    equeue = std::make_unique<core::EditQueue>(engine.get());
    *out += StrFormat("writable: on (%s)\n",
                      wal ? "wal group commit" : "group commit, no wal");
  }
  net::Server server(pool, nopts, prefetcher.get(), equeue.get());
  GMINE_RETURN_IF_ERROR(server.Start());
  if (cmd.Has("port-file")) {
    // Write-then-rename so a script polling for the file never reads a
    // half-written port.
    const std::string port_file = cmd.Get("port-file");
    const std::string tmp = port_file + ".tmp";
    GMINE_RETURN_IF_ERROR(graph::WriteStringToFile(
        StrFormat("%u\n", static_cast<unsigned>(server.port())), tmp));
    if (std::rename(tmp.c_str(), port_file.c_str()) != 0) {
      return Status::IOError(
          StrFormat("rename %s -> %s failed", tmp.c_str(),
                    port_file.c_str()));
    }
  }
  *out += StrFormat("listening on 127.0.0.1:%u\n",
                    static_cast<unsigned>(server.port()));

  server.WaitUntilShutdown();
  server.Stop();
  if (equeue) equeue->Stop();
  if (prefetcher) prefetcher->Stop();

  const net::ServerStats nstats = server.stats();
  const core::SessionPoolStats pstats = pool->stats();
  // Count only the sessions opened for connections: an engine-backed
  // pool also holds the engine's own pinned default session.
  size_t pinned = 0;
  for (const core::SessionInfo& info : pool->ListSessions()) {
    if (info.pinned) ++pinned;
  }
  const gtree::GTreeStoreStats sstats = store->stats();
  *out += StrFormat(
      "server: accepted=%llu rejected=%llu closed=%llu requests=%llu "
      "errors=%llu\n",
      static_cast<unsigned long long>(nstats.accepted),
      static_cast<unsigned long long>(nstats.rejected),
      static_cast<unsigned long long>(nstats.closed),
      static_cast<unsigned long long>(nstats.requests),
      static_cast<unsigned long long>(nstats.errors));
  *out += StrFormat(
      "pool: opened=%llu closed=%llu idle_closed=%llu leaked=%zu\n",
      static_cast<unsigned long long>(pstats.opened - pinned),
      static_cast<unsigned long long>(pstats.closed),
      static_cast<unsigned long long>(pstats.idle_closed),
      pool->size() - pinned);
  const storage::BufferPoolStats bstats = store->buffer_pool().stats();
  *out += StrFormat(
      "store: leaf loads=%llu cache hits=%llu shared hits=%llu "
      "bytes read=%s evictions=%llu resident=%s pinned=%s\n",
      static_cast<unsigned long long>(sstats.leaf_loads),
      static_cast<unsigned long long>(sstats.cache_hits),
      static_cast<unsigned long long>(sstats.shared_hits),
      HumanBytes(sstats.bytes_read).c_str(),
      static_cast<unsigned long long>(sstats.evictions),
      HumanBytes(sstats.resident_bytes).c_str(),
      HumanBytes(sstats.pinned_bytes).c_str());
  *out += StrFormat(
      "buffer_pool: budget=%s resident=%s stores=%zu evictions=%llu "
      "backpressure=%llu\n",
      HumanBytes(bstats.budget_bytes).c_str(),
      HumanBytes(bstats.resident_bytes).c_str(), bstats.stores,
      static_cast<unsigned long long>(bstats.evictions),
      static_cast<unsigned long long>(bstats.backpressure));
  if (prefetcher) {
    const core::PrefetchStats pf = prefetcher->stats();
    *out += StrFormat(
        "prefetch: enqueued=%llu loaded=%llu cached=%llu dropped=%llu\n",
        static_cast<unsigned long long>(pf.enqueued),
        static_cast<unsigned long long>(pf.loaded),
        static_cast<unsigned long long>(pf.already_cached),
        static_cast<unsigned long long>(pf.dropped));
  }
  if (engine != nullptr && engine->wal() != nullptr) {
    *out += StrFormat(
        "wal: %s next_lsn=%llu\n",
        HumanBytes(engine->wal()->file_size()).c_str(),
        static_cast<unsigned long long>(engine->wal()->next_lsn()));
  }
  return Status::OK();
}

// ---------------------------------------------------------------- connect
// Loopback driver for a running `gmine server`: sends script lines
// (file or stdin) one request at a time and prints a `>`/`<` transcript
// — deterministic per client as long as the script sticks to
// deterministic ops (see docs/SERVER.md).

Status CmdConnect(const CommandLine& cmd, std::string* out) {
  if (cmd.positional.empty()) {
    return UsageError("connect: HOST:PORT required");
  }
  GMINE_ASSIGN_OR_RETURN(auto host_port,
                         net::ParseHostPort(cmd.positional[0]));

  std::string script;
  if (cmd.Has("script")) {
    auto text = graph::ReadFileToString(cmd.Get("script"));
    if (!text.ok()) return text.status();
    script = std::move(text).value();
  } else {
    script = ReadAllStdin();
  }

  net::Client client;
  GMINE_RETURN_IF_ERROR(
      client.Connect(host_port.first, host_port.second));
  *out += StrFormat("< %s\n", client.greeting().c_str());

  size_t pos = 0;
  while (pos < script.size()) {
    size_t eol = script.find('\n', pos);
    if (eol == std::string::npos) eol = script.size();
    std::string_view raw(script.data() + pos, eol - pos);
    pos = eol + 1;
    std::string_view line = TrimWhitespace(raw);
    if (line.empty() || line[0] == '#') continue;
    *out += StrFormat("> %.*s\n", static_cast<int>(line.size()),
                      line.data());
    auto response = client.Roundtrip(line);
    if (!response.ok()) {
      // Transport failure (e.g. the server went away mid-script) —
      // surface it and stop; protocol-level ERR lines keep going.
      *out += StrFormat("! %s\n", response.status().ToString().c_str());
      return response.status();
    }
    const net::ClientResponse& r = response.value();
    if (r.json) {
      *out += StrFormat("< %s\n", r.text.c_str());
    } else if (r.has_body) {
      *out += StrFormat("< OK BODY %zu %s\n", r.body.size(),
                        r.text.c_str());
      if (cmd.Has("save-body")) {
        GMINE_RETURN_IF_ERROR(
            graph::WriteStringToFile(r.body, cmd.Get("save-body")));
      }
    } else if (r.ok) {
      *out += StrFormat("< OK %s\n", r.text.c_str());
    } else {
      *out += StrFormat("< ERR %s %s\n", r.code.c_str(), r.text.c_str());
    }
  }
  client.Close();
  return Status::OK();
}

// ---------------------------------------------------------------- gateway
// HTTP/1.1 + WebSocket front end over a multi-store catalog
// (docs/HTTP.md): REST endpoints for listing/query/summary/render, a
// WebSocket upgrade that pins a catalog session per connection, bearer
// auth, per-store quotas, and one shared buffer-pool budget.

Status CmdGateway(const CommandLine& cmd, std::string* out) {
  if (cmd.positional.empty()) {
    return UsageError("gateway: store DIR or MANIFEST path required");
  }
  GMINE_ASSIGN_OR_RETURN(uint64_t port, FlagUint(cmd, "port", 0));
  if (port > 65535) return UsageError("gateway: --port must be <= 65535");
  GMINE_ASSIGN_OR_RETURN(uint64_t max_conns,
                         FlagUint(cmd, "max-conns", 10000));
  GMINE_ASSIGN_OR_RETURN(uint64_t reactor_threads,
                         FlagUint(cmd, "reactor-threads", 1));
  GMINE_ASSIGN_OR_RETURN(uint64_t mem_budget_mb,
                         FlagUint(cmd, "mem-budget-mb", 64));
  GMINE_ASSIGN_OR_RETURN(uint64_t quota,
                         FlagUint(cmd, "session-quota", 64));
  if (max_conns == 0) {
    return UsageError("gateway: --max-conns must be at least 1");
  }
  if (reactor_threads == 0 || reactor_threads > 64) {
    return UsageError("gateway: --reactor-threads must be 1..64");
  }

  core::CatalogOptions copts;
  copts.session_quota = static_cast<size_t>(quota);
  copts.mem_budget_bytes = mem_budget_mb << 20;
  std::error_code ec;
  const bool is_dir = std::filesystem::is_directory(cmd.positional[0], ec);
  auto catalog =
      is_dir ? core::Catalog::OpenDirectory(cmd.positional[0], copts)
             : core::Catalog::OpenManifest(cmd.positional[0], copts);
  if (!catalog.ok()) return catalog.status();

  http::GatewayOptions gopts;
  gopts.port = static_cast<uint16_t>(port);
  gopts.max_conns = static_cast<size_t>(max_conns);
  gopts.reactor_threads = static_cast<int>(reactor_threads);
  if (cmd.Has("token-file")) {
    auto text = graph::ReadFileToString(cmd.Get("token-file"));
    if (!text.ok()) return text.status();
    gopts.bearer_token = std::string(TrimWhitespace(text.value()));
    if (gopts.bearer_token.empty()) {
      return UsageError("gateway: --token-file holds an empty token");
    }
  }

  http::Gateway gateway(catalog.value().get(), gopts);
  GMINE_RETURN_IF_ERROR(gateway.Start());
  if (cmd.Has("port-file")) {
    // Write-then-rename so a script polling for the file never reads a
    // half-written port.
    const std::string port_file = cmd.Get("port-file");
    const std::string tmp = port_file + ".tmp";
    GMINE_RETURN_IF_ERROR(graph::WriteStringToFile(
        StrFormat("%u\n", static_cast<unsigned>(gateway.port())), tmp));
    if (std::rename(tmp.c_str(), port_file.c_str()) != 0) {
      return Status::IOError(StrFormat("rename %s -> %s failed",
                                       tmp.c_str(), port_file.c_str()));
    }
  }
  *out += StrFormat("gateway: %zu stores on 127.0.0.1:%u%s\n",
                    catalog.value()->store_names().size(),
                    static_cast<unsigned>(gateway.port()),
                    gopts.bearer_token.empty() ? "" : " (bearer auth)");

  gateway.WaitUntilShutdown();
  gateway.Stop();

  const http::GatewayStats gstats = gateway.stats();
  const core::CatalogStats cstats = catalog.value()->stats();
  *out += StrFormat(
      "gateway: requests=%llu upgrades=%llu ws_ops=%llu rejected=%llu\n",
      static_cast<unsigned long long>(gstats.requests),
      static_cast<unsigned long long>(gstats.upgrades),
      static_cast<unsigned long long>(gstats.ws_messages),
      static_cast<unsigned long long>(gstats.reactor.rejected));
  *out += StrFormat(
      "reactor: adopted=%llu closed=%llu evicted_slow=%llu open=%zu "
      "in=%s out=%s\n",
      static_cast<unsigned long long>(gstats.reactor.adopted),
      static_cast<unsigned long long>(gstats.reactor.closed),
      static_cast<unsigned long long>(gstats.reactor.evicted_slow),
      gstats.reactor.open_now,
      HumanBytes(gstats.reactor.bytes_in).c_str(),
      HumanBytes(gstats.reactor.bytes_out).c_str());
  *out += StrFormat(
      "catalog: stores=%zu opens=%llu closes=%llu leases=%llu "
      "quota_rejections=%llu leaked=%zu\n",
      cstats.stores, static_cast<unsigned long long>(cstats.opens),
      static_cast<unsigned long long>(cstats.closes),
      static_cast<unsigned long long>(cstats.leases),
      static_cast<unsigned long long>(cstats.quota_rejections),
      cstats.sessions_now);
  return Status::OK();
}

// ------------------------------------------------------------------- ws
// WebSocket driver for a running gateway: upgrades one connection onto
// STORE and round-trips op lines (--ops "a;b;c", --script FILE, or
// stdin), printing a '>'/'<' transcript of the JSON-framed replies.

Status CmdWs(const CommandLine& cmd, std::string* out) {
  if (cmd.positional.size() < 2) {
    return UsageError("ws: HOST:PORT and STORE required");
  }
  GMINE_ASSIGN_OR_RETURN(auto host_port,
                         net::ParseHostPort(cmd.positional[0]));
  const std::string& store = cmd.positional[1];

  std::string token;
  if (cmd.Has("token-file")) {
    auto text = graph::ReadFileToString(cmd.Get("token-file"));
    if (!text.ok()) return text.status();
    token = std::string(TrimWhitespace(text.value()));
  }

  std::string script;
  if (cmd.Has("ops")) {
    script = cmd.Get("ops");
    std::replace(script.begin(), script.end(), ';', '\n');
  } else if (cmd.Has("script")) {
    auto text = graph::ReadFileToString(cmd.Get("script"));
    if (!text.ok()) return text.status();
    script = std::move(text).value();
  } else {
    script = ReadAllStdin();
  }

  http::GatewayClient client;
  GMINE_RETURN_IF_ERROR(
      client.Connect(host_port.first, host_port.second));
  GMINE_RETURN_IF_ERROR(
      client.UpgradeWebSocket("/api/v1/stores/" + store + "/ws", token));
  *out += StrFormat("upgraded: %s\n", store.c_str());

  size_t pos = 0;
  while (pos < script.size()) {
    size_t eol = script.find('\n', pos);
    if (eol == std::string::npos) eol = script.size();
    std::string_view raw(script.data() + pos, eol - pos);
    pos = eol + 1;
    std::string_view line = TrimWhitespace(raw);
    if (line.empty() || line[0] == '#') continue;
    *out += StrFormat("> %.*s\n", static_cast<int>(line.size()),
                      line.data());
    auto reply = client.Roundtrip(std::string(line));
    if (!reply.ok()) {
      *out += StrFormat("! %s\n", reply.status().ToString().c_str());
      return reply.status();
    }
    *out += StrFormat("< %s\n", reply.value().c_str());
  }

  // RFC 6455 closing handshake: our 1000 close, their echo.
  GMINE_RETURN_IF_ERROR(client.SendClose(1000, "done"));
  for (;;) {
    auto message = client.ReadMessage();
    if (!message.ok()) break;  // peer may just drop after the echo
    if (message.value().opcode != http::WsOpcode::kClose) continue;
    uint16_t code = 0;
    std::string reason;
    http::ParseWsClose(message.value().payload, &code, &reason);
    *out += StrFormat("closed: %u\n", static_cast<unsigned>(code));
    break;
  }
  client.Close();
  return Status::OK();
}

}  // namespace

std::string CommandLine::Get(const std::string& flag,
                             const std::string& fallback) const {
  std::string value = fallback;
  for (const auto& [name, v] : flags) {
    if (name == flag) value = v;
  }
  return value;
}

std::vector<std::string> CommandLine::GetAll(const std::string& flag) const {
  std::vector<std::string> values;
  for (const auto& [name, v] : flags) {
    if (name == flag) values.push_back(v);
  }
  return values;
}

bool CommandLine::Has(const std::string& flag) const {
  return std::any_of(flags.begin(), flags.end(),
                     [&](const auto& kv) { return kv.first == flag; });
}

namespace {

// Pure switches: present/absent, never followed by a value. Everything
// else keeps the strict `--flag VALUE` shape so a forgotten value is a
// parse error instead of silently eating the next flag.
bool IsSwitchFlag(const std::string& name) {
  return name == "stream" || name == "resume";
}

}  // namespace

gmine::Result<CommandLine> ParseCommandLine(
    const std::vector<std::string>& args) {
  if (args.empty()) return UsageError("no command given");
  CommandLine cmd;
  cmd.command = args[0];
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (StartsWith(arg, "--")) {
      std::string name = arg.substr(2);
      if (name.empty()) return UsageError("empty flag name");
      if (IsSwitchFlag(name)) {
        cmd.flags.emplace_back(name, "");
        continue;
      }
      if (i + 1 >= args.size()) {
        return UsageError(StrFormat("flag --%s needs a value",
                                    name.c_str()));
      }
      cmd.flags.emplace_back(name, args[++i]);
    } else {
      cmd.positional.push_back(arg);
    }
  }
  return cmd;
}

Status RunCommand(const CommandLine& cmd, std::string* out) {
  if (cmd.command == "generate") return CmdGenerate(cmd, out);
  if (cmd.command == "build") return CmdBuild(cmd, out);
  if (cmd.command == "mine") return CmdMine(cmd, out);
  if (cmd.command == "info") return CmdInfo(cmd, out);
  if (cmd.command == "query") return CmdQuery(cmd, out);
  if (cmd.command == "extract") return CmdExtract(cmd, out);
  if (cmd.command == "render") return CmdRender(cmd, out);
  if (cmd.command == "export") return CmdExport(cmd, out);
  if (cmd.command == "edit") return CmdEdit(cmd, out);
  if (cmd.command == "serve") return CmdServe(cmd, out);
  if (cmd.command == "server") return CmdServer(cmd, out);
  if (cmd.command == "gateway") return CmdGateway(cmd, out);
  if (cmd.command == "stats") return CmdStats(cmd, out);
  if (cmd.command == "connect") return CmdConnect(cmd, out);
  if (cmd.command == "ws") return CmdWs(cmd, out);
  if (cmd.command == "help") {
    *out += UsageText();
    return Status::OK();
  }
  return UsageError(StrFormat("unknown command '%s'",
                              cmd.command.c_str()));
}

Status RunCli(const std::vector<std::string>& args, std::string* out) {
  auto cmd = ParseCommandLine(args);
  if (!cmd.ok()) return cmd.status();
  return RunCommand(cmd.value(), out);
}

std::string UsageText() {
  return
      "usage: gmine <command> [options]\n"
      "  generate --out PREFIX [--levels L --fanout K --leaf-size S "
      "--seed N]\n"
      "  build    --graph FILE [--labels FILE] --out STORE [--levels L "
      "--fanout K]\n"
      "           [--shards S (0=auto, sharded parallel build) "
      "--threads T (0=auto)]\n"
      "           [--stream [--leaf-size S --mem-budget-mb M]]\n"
      "           --stream builds out-of-core (docs/OUTOFCORE.md): the\n"
      "           edge list external-sorts into leaf pages shard-at-a-\n"
      "           time, so the input never fully materializes\n"
      "  mine     STORE [--kernel pagerank|degrees|components] [--top K]\n"
      "           [--mem-budget-mb M] [--checkpoint FILE\n"
      "           [--checkpoint-every P] [--resume]]  page-at-a-time\n"
      "           mining under the pool budget; pagerank checkpoints to\n"
      "           FILE and --resume continues bit-identically; legacy\n"
      "           stores fall back to the in-memory kernels\n"
      "  info     STORE\n"
      "  query    STORE \"STATEMENT\" | STORE [--script FILE] | STORE "
      "--label NAME\n"
      "           GQL (docs/QUERY.md): MATCH NODES/NEIGHBORS(v, k)\n"
      "           [WHERE ...] [ORDER BY ...] [LIMIT n], EXTRACT CSG FROM\n"
      "           {...} [BUDGET n], SUMMARIZE NODE v, EXPLAIN ...;\n"
      "           [--pushdown on|off] [--threads T]; --script (or stdin)\n"
      "           runs one statement per line, continuing past errors;\n"
      "           --label NAME keeps the legacy details lookup\n"
      "  extract  STORE --source NAME [--source NAME ...] [--budget B] "
      "[--svg FILE]\n"
      "  render   STORE [--focus COMMUNITY] [--zoom Z] --svg FILE\n"
      "  export   STORE --community NAME (--dot FILE | --graphml FILE)\n"
      "  edit     STORE [--script FILE] [--max-leaf-size N]\n"
      "           [--compact-ops N] [--mem-budget-mb M]  applies batched\n"
      "           edit-script lines (add-node [LABEL] / add-edge U V [W] /\n"
      "           remove-edge U V / remove-node V / apply) with\n"
      "           incremental subtree repair;\n"
      "           [--wal on] logs batches to STORE.wal and group-commits\n"
      "           them through the edit queue ([--wal-durable on|off]\n"
      "           [--group-ops N], docs/WAL.md) — replays any crashed\n"
      "           writer's log tail first\n"
      "  serve    STORE [--sessions N] [--script FILE] [--threads T]\n"
      "           [--mem-budget-mb M (default 64, 0=unbounded)]\n"
      "           multiplexes '<session> <op> [arg]' script lines (or\n"
      "           stdin) across N concurrent sessions; ops are the\n"
      "           server's session ops (root focus child parent back\n"
      "           locate load summary connectivity render query ping\n"
      "           close) plus help and quit\n"
      "  server   STORE [--port P (0=ephemeral) --max-clients N\n"
      "           --threads T --mem-budget-mb M --idle-timeout-ms MS\n"
      "           --prefetch on --port-file FILE]  TCP session-pool\n"
      "           front end on 127.0.0.1; stops on a client 'shutdown';\n"
      "           [--wal on] replays STORE.wal before serving and adds a\n"
      "           wal section to STATS (docs/WAL.md); [--writable on]\n"
      "           accepts wire 'edit' ops, group-committed through the\n"
      "           edit queue (batches ack with lsn/epoch; lsn=0 without\n"
      "           --wal)\n"
      "  gateway  DIR|MANIFEST [--port P (0=ephemeral) --max-conns N\n"
      "           --reactor-threads T --mem-budget-mb M --session-quota Q\n"
      "           --token-file FILE --port-file FILE]  HTTP/1.1 +\n"
      "           WebSocket front end over a multi-store catalog\n"
      "           (docs/HTTP.md): REST list/info/query/summary/\n"
      "           render.svg under /api/v1, `/api/v1/stores/NAME/ws`\n"
      "           upgrades pin a session running the server's session\n"
      "           ops, POST /api/v1/stores/NAME/mine runs a mining\n"
      "           job (poll/cancel via /api/v1/jobs/ID), `/stats`\n"
      "           counters; stops on POST /api/v1/shutdown; a manifest\n"
      "           holds `NAME PATH [QUOTA]` lines\n"
      "  stats    STORE  buffer-pool and store page statistics after a\n"
      "           warm-up walk of the hierarchy\n"
      "  connect  HOST:PORT [--script FILE] [--save-body FILE]\n"
      "           drives a running server: sends request lines (file or\n"
      "           stdin), prints the '>'/'<' transcript\n"
      "  ws       HOST:PORT STORE [--token-file FILE] [--ops \"a;b;c\"]\n"
      "           [--script FILE]  WebSocket driver for a running\n"
      "           gateway: upgrades onto STORE, round-trips op lines,\n"
      "           prints the '>'/'<' JSON transcript, then closes 1000\n"
      "  help\n";
}

}  // namespace gmine::cli
