#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

namespace perfbench {

// ------------------------------------------------------------------ rng

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x2545F4914F6CDD1Dull + stream * 0x9E3779B97F4A7C15ull);
  rng.Next();
  return rng.Next();
}

// ------------------------------------------------------------- workloads

bool ParseWorkload(std::string_view name, Workload* out) {
  if (name == "explore") *out = Workload::kExplore;
  else if (name == "summarize") *out = Workload::kSummarize;
  else if (name == "edit") *out = Workload::kEdit;
  else return false;
  return true;
}

Config MakeConfig(Workload workload, int seconds) {
  Config c;
  c.workload = workload;
  c.seconds = seconds;
  switch (workload) {
    case Workload::kExplore:
      // Partitioned build whose leaf pages are several times the pool:
      // one closed-loop navigator with no think time keeps the one
      // reactor loop busy with point lookups that often miss it. More
      // connections only queue gestures behind each other's renders and
      // queries, which made the latencies track the host's load.
      c.name = "explore";
      c.community_size = 320;
      c.intra_degree = 10.0;
      c.mem_budget_mb = 1;
      c.setup_reps = 3;
      c.nav_clients = 1;
      // A fixed script rather than a fixed time, ~30 s at --seconds 30
      // on a 4-CPU host: the server records every gesture in the
      // session's history, so with a fixed time a faster run crossed a
      // doubling of that history and peak RSS jumped from 46 to 60 MB.
      c.script_ops = 8000 * seconds;
      // PageRank jobs, 7 before the measured phase and 8 after, polled
      // finely: a job takes ~80 ms, so 10 ms polls would round mine_s by
      // over 10%.
      c.post_mine_jobs = 15;
      c.post_mine_gap_ms = 200;
      c.mine_poll_ms = 1;
      // ~216k gestures and ~24k work ops at --seconds 30. p99.9 of µs
      // gestures follows the host's stalls, so the tails stay at p99.
      c.nav_tail_q = 0.99;
      c.work_tail_q = 0.99;
      break;
    case Workload::kSummarize:
      // Streamed build larger than the pool; one extractor with think
      // time, PageRank jobs, and a paced navigator on the same loop.
      c.name = "summarize";
      c.community_size = 288;
      c.stream_build = true;
      c.mem_budget_mb = 1;
      c.setup_reps = 6;
      c.paced_nav_hz = 200;
      // The loop is busy extracting most of the time, so the paced
      // navigator's median lands well inside the queued regime.
      c.think_ms = 20;
      c.mine_every = 8;
      c.nav_tail_q = 0.99;  // 200 gestures per second
      c.work_tail_q = 0.9;  // a few extractions per second
      break;
    case Workload::kEdit:
      // Durable single-writer edits beside a paced reader; the store
      // fits the pool. The writer thinks between batches: with none, a
      // commit parked the reader for ~40% of the time, so the reader's
      // median sat on the edge between its parked and unparked latencies
      // and jumped between them from run to run.
      c.name = "edit";
      c.community_size = 200;
      c.mem_budget_mb = 64;
      c.setup_reps = 4;
      c.paced_nav_hz = 200;
      c.post_mine_jobs = 15;  // ~30 ms each
      c.post_mine_gap_ms = 200;
      c.nav_tail_q = 0.99;   // 200 gestures per second of script
      c.think_ms = 15;
      // ~24 batches per second of script; p99 has fewer than 10 beyond
      // it, but p90 sits on the steep climb toward the compacting
      // batches (~5% take over 60 ms).
      c.work_tail_q = 0.99;
      // A fixed script, so store bytes repeat exactly; it runs for about
      // `seconds` on a 4-CPU host.
      c.edit_batches = 22 * seconds + 25;
      break;
  }
  return c;
}

int Clients(const Config& config) {
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(config.nav_clients, cpus - 1));
}

// ------------------------------------------------------------ the graph

namespace {

const char* const kGiven[] = {
    "Ada",   "Alan",  "Barbara", "Carlos", "Chen",   "Dana",   "Dmitri",
    "Elena", "Felix", "Grace",   "Hideo",  "Ines",   "Jorge",  "Kavya",
    "Liang", "Maria", "Nadia",   "Olaf",   "Priya",  "Qing",   "Rafael",
    "Sofia", "Tomas", "Uma",     "Viktor", "Wei",    "Ximena", "Yuki",
    "Zhenya", "Noor", "Pedro",   "Lucia"};
const char* const kSurname[] = {
    "Ahmed",   "Almeida",  "Baker",  "Chen",     "Costa",    "Dietrich",
    "Erdos",   "Fischer",  "Garcia", "Hernandez", "Ivanov",  "Johnson",
    "Kim",     "Kumar",    "Lee",    "Martins",  "Nakamura", "Oliveira",
    "Park",    "Quintero", "Rossi",  "Santos",   "Tanaka",   "Ueda",
    "Vasquez", "Wang",     "Xu",     "Yamada",   "Zhang",    "Silva",
    "Muller",  "Novak"};

std::string AuthorName(uint32_t j) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s %s %04u", kGiven[j % 32],
                kSurname[(j / 32) % 32], j / 1024);
  return buf;
}

std::vector<uint32_t> Shuffled(uint32_t n, Rng& rng) {
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  for (uint32_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.Below(i)]);
  }
  return perm;
}

}  // namespace

Graph GenerateGraph(const Config& config, uint64_t seed) {
  Rng rng(SubSeed(seed, 1));
  uint32_t communities = 1;
  for (uint32_t l = 0; l < config.levels; ++l) communities *= config.fanout;
  const uint32_t size = config.community_size;
  Graph g;
  g.n = communities * size;
  const std::vector<uint32_t> id = Shuffled(g.n, rng);

  std::unordered_set<uint64_t> seen;
  auto add = [&](uint32_t a, uint32_t b) {
    uint32_t u = id[a];
    uint32_t v = id[b];
    if (u == v) return;
    if (u > v) std::swap(u, v);
    if (!seen.insert((static_cast<uint64_t>(u) << 32) | v).second) return;
    g.edges.emplace_back(u, v);
    // Co-authorship counts: mostly one paper, sometimes a few.
    g.weight.push_back(rng.Uniform() < 0.3 ? 2 + rng.Below(3) : 1);
  };
  // Pareto(2.5) degrees inside the group, exponential across groups;
  // each endpoint draws half of its expected degree.
  const double xmin = config.intra_degree / 2.0 / 3.0;
  for (uint32_t i = 0; i < g.n; ++i) {
    const uint32_t c = i / size;
    const double u = std::max(rng.Uniform(), 1e-9);
    uint32_t k = static_cast<uint32_t>(xmin * std::pow(u, -1.0 / 1.5));
    k = std::min(k, size / 2);
    for (uint32_t j = 0; j < k; ++j) {
      add(i, c * size + static_cast<uint32_t>(rng.Below(size)));
    }
    const uint32_t cross = static_cast<uint32_t>(
        -std::log(std::max(rng.Uniform(), 1e-9)) * config.cross_degree / 2);
    for (uint32_t j = 0; j < cross; ++j) {
      // Sibling groups under the parent (most), grandparent, ... (few).
      uint32_t level = 1;
      while (level < config.levels && rng.Uniform() < 0.35) ++level;
      uint32_t block = 1;
      for (uint32_t l = 0; l < level; ++l) block *= config.fanout;
      const uint32_t first = (c / block) * block;
      const uint32_t other =
          first + static_cast<uint32_t>(rng.Below(block));
      if (other == c) continue;
      add(i, other * size + static_cast<uint32_t>(rng.Below(size)));
    }
  }
  g.adj.assign(g.n, {});
  for (const auto& [u, v] : g.edges) {
    g.adj[u].push_back(v);
    g.adj[v].push_back(u);
  }
  for (auto& list : g.adj) std::sort(list.begin(), list.end());

  const std::vector<uint32_t> names = Shuffled(g.n, rng);
  g.labels.resize(g.n);
  for (uint32_t v = 0; v < g.n; ++v) g.labels[v] = AuthorName(names[v]);
  return g;
}

bool WriteEdgeList(const Graph& g, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# perfbench surrogate: %u nodes, %zu edges\n", g.n,
               g.edges.size());
  for (size_t i = 0; i < g.edges.size(); ++i) {
    std::fprintf(f, "%u %u %u\n", g.edges[i].first, g.edges[i].second,
                 g.weight[i]);
  }
  return std::fclose(f) == 0;
}

bool WriteLabels(const Graph& g, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (uint32_t v = 0; v < g.n; ++v) {
    std::fprintf(f, "%u\t%s\n", v, g.labels[v].c_str());
  }
  return std::fclose(f) == 0;
}

std::vector<uint32_t> GiantComponent(const Graph& g) {
  std::vector<int32_t> comp(g.n, -1);
  std::vector<uint32_t> stack;
  int32_t best = -1;
  size_t best_size = 0;
  int32_t next = 0;
  for (uint32_t s = 0; s < g.n; ++s) {
    if (comp[s] >= 0) continue;
    size_t size = 0;
    stack.push_back(s);
    comp[s] = next;
    while (!stack.empty()) {
      const uint32_t u = stack.back();
      stack.pop_back();
      ++size;
      for (uint32_t v : g.adj[u]) {
        if (comp[v] < 0) {
          comp[v] = next;
          stack.push_back(v);
        }
      }
    }
    if (size > best_size) {
      best_size = size;
      best = next;
    }
    ++next;
  }
  std::vector<uint32_t> out;
  for (uint32_t v = 0; v < g.n; ++v) {
    if (comp[v] == best) out.push_back(v);
  }
  return out;
}

std::vector<double> ReferencePageRank(
    uint32_t n, const std::vector<std::vector<uint32_t>>& adj) {
  const double d = 0.85;
  std::vector<double> rank(n, 1.0 / n);
  std::vector<double> next(n, 0.0);
  for (int sweep = 0; sweep < 100; ++sweep) {
    double dangling = 0.0;
    for (uint32_t u = 0; u < n; ++u) {
      if (adj[u].empty()) {
        dangling += rank[u];
        continue;
      }
      const double share = d * rank[u] / static_cast<double>(adj[u].size());
      for (uint32_t v : adj[u]) next[v] += share;
    }
    const double base = (1.0 - d) / n + d * dangling / n;
    double delta = 0.0;
    for (uint32_t v = 0; v < n; ++v) {
      next[v] += base;
      delta += std::abs(next[v] - rank[v]);
    }
    rank.swap(next);
    std::fill(next.begin(), next.end(), 0.0);
    if (delta < 1e-9) break;
  }
  return rank;
}

std::vector<uint32_t> TopK(const std::vector<double>& score, size_t k) {
  std::vector<uint32_t> ids(score.size());
  std::iota(ids.begin(), ids.end(), 0u);
  k = std::min(k, ids.size());
  std::partial_sort(ids.begin(), ids.begin() + static_cast<long>(k),
                    ids.end(), [&](uint32_t a, uint32_t b) {
                      if (score[a] != score[b]) return score[a] > score[b];
                      return a < b;
                    });
  ids.resize(k);
  return ids;
}

// ------------------------------------------------------------- the tree

std::string TreeModel::Path(int32_t node) const {
  std::vector<int32_t> chain;
  for (int32_t x = node; x >= 0; x = parent[x]) chain.push_back(x);
  std::string out;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (!out.empty()) out += '/';
    out += name[*it];
  }
  return out;
}

// ----------------------------------------------------------- op scripts

const char* OpKindName(OpKind kind) {
  static const char* const kNames[] = {
      "child",  "parent",    "back",   "focus",   "locate",
      "load",   "summary",   "connectivity",      "render",
      "neighbors", "prefix", "extract", "mine",   "edit_batch"};
  return kNames[static_cast<size_t>(kind)];
}

bool IsNavigation(OpKind kind) { return kind <= OpKind::kConnectivity; }

std::string LabelPrefixFor(const Graph& g, uint32_t node) {
  const std::string& label = g.labels[node];
  const size_t first = label.find(' ');
  const size_t second = label.find(' ', first + 1);
  return label.substr(0, second + 4);  // "Given Surname 001": ~10 authors
}

Walker::Walker(const TreeModel* tree, const Graph* graph, uint64_t seed,
               bool with_work)
    : tree_(tree), graph_(graph), rng_(seed), with_work_(with_work) {}

void Walker::MoveTo(int32_t node, bool push) {
  if (push && node != focus_) back_.push_back(focus_);
  focus_ = node;
}

ScriptOp Walker::Next() {
  struct Weight {
    OpKind kind;
    int weight;
  };
  // About 90% navigation gestures and 10% work when `with_work`.
  static const Weight kMix[] = {
      {OpKind::kChild, 26},    {OpKind::kParent, 12},
      {OpKind::kBack, 8},      {OpKind::kFocus, 8},
      {OpKind::kLocate, 8},    {OpKind::kLoad, 12},
      {OpKind::kSummary, 8},   {OpKind::kConnectivity, 8},
      {OpKind::kRender, 6},    {OpKind::kNeighbors, 2},
      {OpKind::kPrefix, 2}};
  const int total = with_work_ ? 100 : 90;
  int r = static_cast<int>(rng_.Below(static_cast<uint64_t>(total)));
  OpKind kind = OpKind::kSummary;
  for (const Weight& w : kMix) {
    if (r < w.weight) {
      kind = w.kind;
      break;
    }
    r -= w.weight;
  }
  const bool leaf = tree_->children[focus_].empty();
  if (kind == OpKind::kChild && leaf) kind = OpKind::kLoad;
  if (kind == OpKind::kLoad && !leaf) kind = OpKind::kChild;
  if (kind == OpKind::kParent && focus_ == 0) kind = OpKind::kChild;
  if (kind == OpKind::kBack && back_.empty()) kind = OpKind::kFocus;

  ScriptOp op;
  op.kind = kind;
  switch (kind) {
    case OpKind::kChild: {
      const auto& kids = tree_->children[focus_];
      const size_t i = rng_.Below(kids.size());
      op.line = "child " + std::to_string(i);
      MoveTo(kids[i], true);
      break;
    }
    case OpKind::kParent:
      op.line = "parent";
      MoveTo(tree_->parent[focus_], true);
      break;
    case OpKind::kBack:
      op.line = "back";
      focus_ = back_.back();
      back_.pop_back();
      break;
    case OpKind::kFocus: {
      const int32_t target =
          static_cast<int32_t>(rng_.Below(tree_->name.size()));
      op.line = "focus " + tree_->name[target];
      MoveTo(target, true);
      break;
    }
    case OpKind::kLocate: {
      op.node = static_cast<uint32_t>(rng_.Below(graph_->n));
      op.line = "locate " + graph_->labels[op.node];
      MoveTo(tree_->leaf_of[op.node], true);
      break;
    }
    case OpKind::kLoad:
      op.line = "load";
      break;
    case OpKind::kSummary:
      op.line = "summary";
      break;
    case OpKind::kConnectivity:
      op.line = "connectivity";
      break;
    case OpKind::kRender:
      op.line = "render svg";
      break;
    case OpKind::kNeighbors:
      op.node = static_cast<uint32_t>(rng_.Below(graph_->n));
      op.line = "query MATCH NEIGHBORS(" + std::to_string(op.node) + ", 2)";
      break;
    case OpKind::kPrefix:
      op.node = static_cast<uint32_t>(rng_.Below(graph_->n));
      op.prefix = LabelPrefixFor(*graph_, op.node);
      op.line = "query MATCH NODES WHERE label PREFIX '" + op.prefix + "'";
      break;
    default:
      break;
  }
  op.expect_focus = focus_;
  return op;
}

SteeringWalker::SteeringWalker(const Graph* graph, uint64_t seed)
    : graph_(graph), rng_(seed) {}

bool SteeringWalker::WellFormed(const std::string& community) {
  if (community.size() < 2 || community[0] != 's') return false;
  return std::all_of(community.begin() + 1, community.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

std::string SteeringWalker::Observe(const std::string& focus,
                                    const std::string& path, int depth,
                                    int children) {
  depth_ = depth;
  children_ = children;
  known_ = true;
  if (depth == 0) root_children_ = children;
  const size_t slash = path.rfind('/');
  const std::string last =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const long segments = std::count(path.begin(), path.end(), '/') + 1;
  if (!WellFormed(focus) || last != focus || segments != depth + 1) {
    return "summary names a community that is not at the end of its path";
  }
  return std::string();
}

ScriptOp SteeringWalker::Next() {
  ScriptOp op;
  op.kind = OpKind::kSummary;
  op.line = "summary";
  if (!known_) return op;  // learn where the last move landed
  const uint64_t r = rng_.Below(100);
  if (r < 35) {
    if (children_ > 0) {
      // Stay valid at the root too, where a re-seat may have moved us.
      const int limit = root_children_ > 0
                            ? std::min(children_, root_children_)
                            : children_;
      op.kind = OpKind::kChild;
      op.line = "child " +
                std::to_string(rng_.Below(static_cast<uint64_t>(limit)));
      known_ = false;
    } else {
      op.kind = OpKind::kLoad;
      op.line = "load";
    }
  } else if (r < 55) {
    op.kind = OpKind::kConnectivity;
    op.line = "connectivity";
  } else if (r < 70 && depth_ > 0) {
    op.kind = OpKind::kParent;
    op.line = "parent";
    known_ = false;
  } else if (r < 85) {
    // Only original nodes: the writer never removes them.
    op.kind = OpKind::kLocate;
    op.node = static_cast<uint32_t>(rng_.Below(graph_->n));
    op.line = "locate " + graph_->labels[op.node];
    known_ = false;
  }
  return op;
}

ExtractScript::ExtractScript(std::vector<uint32_t> giant, const Config& config,
                             uint64_t seed)
    : giant_(std::move(giant)), config_(config), rng_(seed) {}

ScriptOp ExtractScript::Next(std::vector<uint32_t>* sources) {
  ScriptOp op;
  const uint64_t turn = turn_++;
  sources->clear();
  if (config_.mine_every > 0 &&
      turn % static_cast<uint64_t>(config_.mine_every) ==
          static_cast<uint64_t>(config_.mine_every - 1)) {
    op.kind = OpKind::kMine;
    op.line = "MINE PAGERANK TOP 20";
    return op;
  }
  op.kind = OpKind::kExtract;
  // 2, 3 and 4 sources in turn, so every run has the same mix of sizes.
  const size_t k = 2 + turn % 3;
  while (sources->size() < k) {
    const uint32_t v = giant_[rng_.Below(giant_.size())];
    if (std::find(sources->begin(), sources->end(), v) == sources->end()) {
      sources->push_back(v);
    }
  }
  op.line = "EXTRACT CSG FROM {";
  for (size_t i = 0; i < sources->size(); ++i) {
    if (i > 0) op.line += ", ";
    op.line += std::to_string((*sources)[i]);
  }
  op.line += "} BUDGET " + std::to_string(config_.csg_budget);
  return op;
}

EditModel::EditModel(const Graph& g, uint64_t seed)
    : rng_(seed), n_(g.n), original_n_(g.n), adj_(g.n) {
  edge_list_.reserve(g.edges.size() * 2);
  for (const auto& [u, v] : g.edges) AddEdge(u, v);
}

uint64_t EditModel::Key(uint32_t u, uint32_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

bool EditModel::HasEdge(uint32_t u, uint32_t v) const {
  return edge_index_.count(Key(u, v)) > 0;
}

void EditModel::AddEdge(uint32_t u, uint32_t v) {
  edge_index_.emplace(Key(u, v), edge_list_.size());
  edge_list_.emplace_back(std::min(u, v), std::max(u, v));
  adj_[u].push_back(v);
  adj_[v].push_back(u);
}

void EditModel::RemoveEdge(uint32_t u, uint32_t v) {
  auto it = edge_index_.find(Key(u, v));
  const size_t slot = it->second;
  edge_index_.erase(it);
  if (slot + 1 != edge_list_.size()) {
    edge_list_[slot] = edge_list_.back();
    edge_index_[Key(edge_list_[slot].first, edge_list_[slot].second)] = slot;
  }
  edge_list_.pop_back();
  auto drop = [](std::vector<uint32_t>& list, uint32_t x) {
    auto pos = std::find(list.begin(), list.end(), x);
    *pos = list.back();
    list.pop_back();
  };
  drop(adj_[u], v);
  drop(adj_[v], u);
}

void EditModel::RemoveNode(uint32_t v) {
  // Node removal compacts ids: every id above v moves down by one.
  auto remap = [v](uint32_t x) { return x > v ? x - 1 : x; };
  std::vector<std::pair<uint32_t, uint32_t>> kept;
  kept.reserve(edge_list_.size());
  for (const auto& [a, b] : edge_list_) {
    if (a != v && b != v) kept.emplace_back(remap(a), remap(b));
  }
  --n_;
  edge_list_.clear();
  edge_index_.clear();
  adj_.assign(n_, {});
  for (const auto& [a, b] : kept) AddEdge(a, b);
  added_.erase(std::find(added_.begin(), added_.end(), v));
  for (uint32_t& x : added_) x = remap(x);
}

uint32_t EditModel::RandomNeighborhoodPeer(uint32_t u) {
  // Mostly triadic closure (a co-author's co-author), else anyone.
  if (!adj_[u].empty() && rng_.Uniform() < 0.7) {
    const uint32_t w = adj_[u][rng_.Below(adj_[u].size())];
    if (!adj_[w].empty()) return adj_[w][rng_.Below(adj_[w].size())];
  }
  return static_cast<uint32_t>(rng_.Below(n_));
}

std::vector<std::string> EditModel::NextBatch() {
  std::vector<std::string> lines;
  const uint64_t batch = batches_++;
  if (batch % 50 == 49 && !added_.empty()) {
    // Rare node removal, alone in its batch. Its forced compaction lands
    // on a fixed batch schedule, so the store's size at the end of the
    // script depends on the seed only through the edits themselves.
    const uint32_t v = added_[rng_.Below(added_.size())];
    lines.push_back("edit remove-node " + std::to_string(v));
    lines.push_back("edit apply");
    RemoveNode(v);
    ++ops_;
    ++remove_nodes_;
    return lines;
  }
  std::unordered_set<uint64_t> touched;
  const int ops = 8 + static_cast<int>(rng_.Below(9));
  for (int i = 0; i < ops; ++i) {
    const uint64_t r = rng_.Below(100);
    if (r < 6) {
      // A new author with one first co-author.
      const uint32_t id = n_++;
      adj_.emplace_back();
      added_.push_back(id);
      lines.push_back("edit add-node Editor Node " +
                      std::to_string(next_label_++));
      const uint32_t peer = static_cast<uint32_t>(rng_.Below(original_n_));
      lines.push_back("edit add-edge " + std::to_string(id) + " " +
                      std::to_string(peer));
      AddEdge(id, peer);
      touched.insert(Key(id, peer));
      ops_ += 2;
      continue;
    }
    if (r < 22 && !edge_list_.empty()) {
      for (int attempt = 0; attempt < 16; ++attempt) {
        const auto e = edge_list_[rng_.Below(edge_list_.size())];
        if (touched.count(Key(e.first, e.second))) continue;
        lines.push_back("edit remove-edge " + std::to_string(e.first) + " " +
                        std::to_string(e.second));
        RemoveEdge(e.first, e.second);
        touched.insert(Key(e.first, e.second));
        ++ops_;
        break;
      }
      continue;
    }
    for (int attempt = 0; attempt < 16; ++attempt) {
      const uint32_t u = static_cast<uint32_t>(rng_.Below(n_));
      const uint32_t v = RandomNeighborhoodPeer(u);
      if (u == v || HasEdge(u, v) || touched.count(Key(u, v))) continue;
      lines.push_back("edit add-edge " + std::to_string(u) + " " +
                      std::to_string(v));
      AddEdge(u, v);
      touched.insert(Key(u, v));
      ++ops_;
      break;
    }
  }
  lines.push_back("edit apply");
  return lines;
}

std::vector<std::vector<uint32_t>> EditModel::Adjacency() const {
  std::vector<std::vector<uint32_t>> out = adj_;
  for (auto& list : out) std::sort(list.begin(), list.end());
  return out;
}

// ----------------------------------------------------------------- json

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view s) : s_(s) {}

  bool Parse(Json* out, std::string* error) {
    if (!Value(out, 0)) {
      *error = error_ + " at byte " + std::to_string(pos_);
      return false;
    }
    Space();
    if (pos_ != s_.size()) {
      *error = "trailing bytes at " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  void Space() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r' ||
            s_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool Fail(const char* what) {
    error_ = what;
    return false;
  }
  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return Fail("bad literal");
    pos_ += word.size();
    return true;
  }
  bool String(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return Fail("expected string");
    ++pos_;
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return Fail("short \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return Fail("bad \\u escape");
          }
          if (cp < 0x80) {
            *out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            *out += static_cast<char>(0xC0 | (cp >> 6));
            *out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (cp >> 12));
            *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }
  bool Value(Json* out, int depth) {
    if (depth > 64) return Fail("nesting too deep");
    Space();
    if (pos_ >= s_.size()) return Fail("unexpected end");
    const char c = s_[pos_];
    if (c == '{') {
      out->type = Json::Type::kObject;
      ++pos_;
      Space();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        Space();
        std::string key;
        if (!String(&key)) return false;
        Space();
        if (pos_ >= s_.size() || s_[pos_] != ':') return Fail("expected ':'");
        ++pos_;
        Json value;
        if (!Value(&value, depth + 1)) return false;
        out->object.emplace_back(std::move(key), std::move(value));
        Space();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      out->type = Json::Type::kArray;
      ++pos_;
      Space();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        Json value;
        if (!Value(&value, depth + 1)) return false;
        out->array.push_back(std::move(value));
        Space();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->string);
    }
    if (c == 't') {
      out->type = Json::Type::kBool;
      out->boolean = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->type = Json::Type::kBool;
      return Literal("false");
    }
    if (c == 'n') return Literal("null");
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           std::string_view("+-0123456789.eE").find(s_[pos_]) !=
               std::string_view::npos) {
      ++pos_;
    }
    if (start == pos_) return Fail("unexpected character");
    out->type = Json::Type::kNumber;
    out->number = std::strtod(std::string(s_.substr(start, pos_ - start)).c_str(),
                              nullptr);
    return true;
  }

  std::string_view s_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

const Json* Json::Get(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Json::Num(std::string_view key, double fallback) const {
  const Json* v = Get(key);
  return v != nullptr && v->type == Type::kNumber ? v->number : fallback;
}

std::string Json::Str(std::string_view key) const {
  const Json* v = Get(key);
  return v != nullptr && v->type == Type::kString ? v->string : std::string();
}

bool ParseJson(std::string_view text, Json* out, std::string* error) {
  *out = Json();
  return JsonParser(text).Parse(out, error);
}

std::string JsonQuote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

// ------------------------------------------------------------ summaries

double Percentile(const std::vector<double>& sorted, double q,
                  size_t* beyond) {
  if (sorted.empty()) {
    if (beyond != nullptr) *beyond = 0;
    return 0;
  }
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (beyond != nullptr) *beyond = n - rank;
  return sorted[rank - 1];
}

LatencySummary Summarize(std::vector<double> samples, double tail_q) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = Percentile(samples, 0.5);
  s.max = samples.back();
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
  s.tail = Percentile(samples, tail_q, &s.beyond);
  s.tail_name = tail_q >= 0.999 ? "p99.9" : tail_q >= 0.99 ? "p99" : "p90";
  return s;
}

std::string SummaryJson(const LatencySummary& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"count\":%zu,\"p50\":%.6f,\"mean\":%.6f,\"max\":%.6f,"
                "\"tail\":%.6f,\"tail_name\":\"%s\",\"beyond\":%zu}",
                s.count, s.p50, s.mean, s.max, s.tail, s.tail_name.c_str(),
                s.beyond);
  return buf;
}

}  // namespace perfbench
