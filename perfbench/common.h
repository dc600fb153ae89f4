// Shared pieces of the GMine end-to-end benchmark: the seeded surrogate
// graph, the workload settings, the seeded op scripts (navigation walks,
// edit batches, extraction sources), the harness's own reference
// computations, a small JSON reader and latency summaries.
//
// Both the wire load generator (load.cc) and the in-process traced replay
// (trace.cc) build their op streams from this file, so a seed names the
// same inputs and the same op scripts on both sides. Nothing here links
// against the GMine library: the load generator reaches the system only
// through its CLI and wire protocols.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------------ rng

/// SplitMix64 stream; every seeded choice in the benchmark draws from one.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Derives an independent sub-seed for `stream` from the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

// ------------------------------------------------------------- workloads

enum class Workload { kExplore, kSummarize, kEdit };

/// Every fixed setting of one workload. run.py prints these beside the
/// results; nothing here depends on the machine.
struct Config {
  Workload workload = Workload::kExplore;
  std::string name;
  int seconds = 10;

  // Surrogate DBLP graph: `communities` planted author groups of
  // `community_size` nodes, grouped `fanout` per level, node ids shuffled.
  uint32_t levels = 3;
  uint32_t fanout = 5;
  uint32_t community_size = 200;
  double intra_degree = 7.0;   // mean co-authors inside the group
  double cross_degree = 1.2;   // mean co-authors in sibling groups

  // Store build.
  bool stream_build = false;   // `gmine build --stream` instead of the
                               // in-memory partitioned build
  uint32_t build_levels = 3;
  uint32_t build_fanout = 5;
  uint32_t stream_leaf_size = 256;
  uint32_t stream_fanout = 8;
  uint32_t stream_sort_mb = 4;  // external sorter budget of --stream
  int gmine_threads = 1;        // GMINE_THREADS and build --threads

  // Server.
  uint32_t mem_budget_mb = 1;   // --mem-budget-mb of the serving process
  int setup_reps = 3;           // cold starts per run (setup_s = median)

  // Load.
  int nav_clients = 0;          // closed-loop WS navigators (explore)
  double paced_nav_hz = 0;      // open-loop navigator rate (summarize, edit)
  double think_ms = 0;          // think time of the extractor (summarize)
                                // or the writer (edit)
  int mine_every = 0;           // every k-th extractor turn mines
  double mine_poll_ms = 10;     // job poll interval
  int post_mine_jobs = 0;       // PageRank runs outside the measured
                                // phase (explore: half of them before it)
  double post_mine_gap_ms = 1000;  // spaced so they span the host's
                                   // faster and slower spells
  uint32_t csg_budget = 30;
  int edit_batches = 0;         // fixed writer script length (edit)
  int script_ops = 0;           // fixed walker script length (explore)
  double deadline_s = 10;       // per-op client deadline
  double nav_tail_q = 0.99;     // tail percentile of navigation gestures
  double work_tail_q = 0.99;    // tail percentile of the heavy op
  double pagerank_tolerance = 1e-9;  // |score - reference| accepted
};

bool ParseWorkload(std::string_view name, Workload* out);
Config MakeConfig(Workload workload, int seconds);

/// Closed-loop clients to run: the setting, but at most nproc - 1, so the
/// clients and the server's loop fit the host's CPUs.
int Clients(const Config& config);

// ------------------------------------------------------------ the graph

struct Graph {
  uint32_t n = 0;
  std::vector<std::pair<uint32_t, uint32_t>> edges;  // u < v, unique
  std::vector<uint32_t> weight;                       // per edge
  std::vector<std::vector<uint32_t>> adj;             // sorted neighbors
  std::vector<std::string> labels;                    // unique per node
};

/// The seeded surrogate: hierarchical communities with skewed degrees,
/// shuffled ids and unique author-style labels.
Graph GenerateGraph(const Config& config, uint64_t seed);

/// Writes "u v w" lines and "id\tlabel" lines.
bool WriteEdgeList(const Graph& g, const std::string& path);
bool WriteLabels(const Graph& g, const std::string& path);

/// Ids of the largest connected component, ascending.
std::vector<uint32_t> GiantComponent(const Graph& g);

/// Unweighted PageRank by the same recurrence the store kernels use
/// (damping 0.85, teleport plus dangling mass spread evenly, stop at an
/// L1 change below 1e-9 or 100 sweeps).
std::vector<double> ReferencePageRank(uint32_t n,
                                      const std::vector<std::vector<uint32_t>>& adj);

/// Ids of the k highest scores, ties by id.
std::vector<uint32_t> TopK(const std::vector<double>& score, size_t k);

// ------------------------------------------------------------- the tree

/// The harness's model of the community hierarchy it navigates.
struct TreeModel {
  std::vector<std::string> name;
  std::vector<int32_t> parent;       // -1 at the root
  std::vector<uint32_t> depth;
  std::vector<std::vector<int32_t>> children;
  std::vector<uint32_t> members;     // leaf member count (0 for inner)
  std::vector<int32_t> leaf_of;      // graph node -> leaf tree node

  std::string Path(int32_t node) const;  // "s000/s001/..."
};

// ----------------------------------------------------------- op scripts

enum class OpKind : uint8_t {
  kChild, kParent, kBack, kFocus, kLocate, kLoad, kSummary,
  kConnectivity,                         // navigation gestures
  kRender, kNeighbors, kPrefix,          // explore work
  kExtract, kMine,                       // summarize work / jobs
  kEditBatch,                            // edit work
  kCount,
};
const char* OpKindName(OpKind kind);
bool IsNavigation(OpKind kind);

/// One scripted operation and what the harness expects back.
struct ScriptOp {
  OpKind kind = OpKind::kSummary;
  std::string line;           // the op as sent ("child 2", "query ...")
  int32_t expect_focus = -1;  // tree node focused afterwards
  uint32_t node = 0;          // graph node of locate / neighbors
  std::string prefix;         // label prefix of kPrefix
};

/// A seeded random walk over the hierarchy. Each op is drawn from the
/// walker's own state (focus and back stack), which mirrors the server's
/// session, so the expected focus after every op is known in advance.
class Walker {
 public:
  /// `with_work` mixes in about 10% explore work ops.
  Walker(const TreeModel* tree, const Graph* graph, uint64_t seed,
         bool with_work);
  ScriptOp Next();

 private:
  void MoveTo(int32_t node, bool push);

  const TreeModel* tree_;
  const Graph* graph_;
  Rng rng_;
  bool with_work_;
  int32_t focus_ = 0;
  std::vector<int32_t> back_;
};

/// The edit workload's paced reader. Edits re-seat its session at the
/// root whenever an epoch bump publishes a group, so it cannot predict
/// its focus; it steers by what its last `summary` reported instead.
class SteeringWalker {
 public:
  SteeringWalker(const Graph* graph, uint64_t seed);
  ScriptOp Next();
  /// Feeds a summary reply's state; "" when it is self-consistent
  /// (the focus is a well-formed community at the end of its path).
  std::string Observe(const std::string& focus, const std::string& path,
                      int depth, int children);
  /// True for names the server gives communities ("s" + digits).
  static bool WellFormed(const std::string& community);

 private:
  const Graph* graph_;
  Rng rng_;
  bool known_ = false;
  int children_ = 0;
  int depth_ = 0;
  int root_children_ = 0;
};

/// The label prefix a kPrefix op asks for: given name, surname and the
/// first three digits of the serial, shared by about ten authors.
std::string LabelPrefixFor(const Graph& g, uint32_t node);

/// The summarize extractor's turns: extraction sources drawn from the
/// giant component, with every `mine_every`-th turn a PageRank job.
class ExtractScript {
 public:
  ExtractScript(std::vector<uint32_t> giant, const Config& config,
                uint64_t seed);
  ScriptOp Next(std::vector<uint32_t>* sources);

 private:
  std::vector<uint32_t> giant_;
  Config config_;
  Rng rng_;
  uint64_t turn_ = 0;
};

/// The edit writer's script and the harness's own replay of it: every
/// batch is drawn against the model's current graph, so removals always
/// name existing edges, additions always name new ones, and only nodes
/// the writer added are ever removed (original ids never shift).
class EditModel {
 public:
  EditModel(const Graph& g, uint64_t seed);

  /// Lines of the next batch ("edit add-edge 3 9", ..., "edit apply"),
  /// already applied to the model. Every 50th batch removes one node.
  std::vector<std::string> NextBatch();

  uint32_t nodes() const { return n_; }
  uint64_t edges() const { return edge_list_.size(); }
  uint64_t ops() const { return ops_; }
  uint64_t remove_nodes() const { return remove_nodes_; }
  std::vector<std::vector<uint32_t>> Adjacency() const;

 private:
  static uint64_t Key(uint32_t u, uint32_t v);
  bool HasEdge(uint32_t u, uint32_t v) const;
  void AddEdge(uint32_t u, uint32_t v);
  void RemoveEdge(uint32_t u, uint32_t v);
  void RemoveNode(uint32_t v);
  uint32_t RandomNeighborhoodPeer(uint32_t u);

  Rng rng_;
  uint32_t n_ = 0;
  uint32_t original_n_ = 0;
  std::vector<std::pair<uint32_t, uint32_t>> edge_list_;
  std::unordered_map<uint64_t, size_t> edge_index_;
  std::vector<std::vector<uint32_t>> adj_;  // unsorted neighbor lists
  std::vector<uint32_t> added_;             // writer-added node ids
  uint64_t next_label_ = 0;
  uint64_t ops_ = 0;
  uint64_t remove_nodes_ = 0;
  uint64_t batches_ = 0;
};

// ----------------------------------------------------------------- json

/// A parsed JSON value (numbers as double).
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  const Json* Get(std::string_view key) const;
  double Num(std::string_view key, double fallback = 0) const;
  std::string Str(std::string_view key) const;
};

bool ParseJson(std::string_view text, Json* out, std::string* error);
std::string JsonQuote(std::string_view s);

// ------------------------------------------------------------ summaries

/// Latency samples of one op class. The tail percentile is fixed per
/// workload and op class (Config::nav_tail_q / work_tail_q), so every
/// run reports the same percentile; the settings explain where it is
/// not the highest of p90 / p99 / p99.9 with ten samples beyond it.
/// `beyond` shows how many samples a run actually had there.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0;
  double mean = 0;
  double max = 0;
  double tail = 0;
  std::string tail_name = "p90";
  size_t beyond = 0;  // samples above the tail percentile
};
LatencySummary Summarize(std::vector<double> samples, double tail_q = 0.99);
double Percentile(const std::vector<double>& sorted, double q,
                  size_t* beyond = nullptr);
std::string SummaryJson(const LatencySummary& s);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
