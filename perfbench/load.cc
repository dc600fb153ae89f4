// The benchmark's load generator: one process that drives a running
// `gmine gateway` (WebSocket + REST) or `gmine server` (TCP line
// protocol) with the seeded op scripts of common.h, checks every reply
// against the harness's own model, and prints latency summaries as one
// JSON object. It speaks the wire protocols itself and links nothing
// from the GMine library.
//
//   perfbench_load config --workload W --seconds T
//   perfbench_load gen    --workload W --seed S --seconds T --out PREFIX
//   perfbench_load run    --workload W --seed S --seconds T --port P
//                         --store NAME
//
// `run` uses one thread per connection and at most nproc threads.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

std::chrono::microseconds MineGap(const Config& c) {
  return std::chrono::microseconds(static_cast<int64_t>(c.post_mine_gap_ms * 1000));
}

// ------------------------------------------------------------ transport

/// A blocking loopback TCP connection with a per-read deadline.
class Conn {
 public:
  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(int port, double deadline_s, std::string* error) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return Fail("socket", error);
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(deadline_s);
    tv.tv_usec = static_cast<suseconds_t>(
        (deadline_s - std::floor(deadline_s)) * 1e6);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return Fail("connect", error);
    }
    return true;
  }

  bool WriteAll(std::string_view data, std::string* error) {
    while (!data.empty()) {
      const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n <= 0) return Fail("send", error);
      data.remove_prefix(static_cast<size_t>(n));
    }
    return true;
  }

  /// Reads until `buf_` holds at least `want` bytes.
  bool Fill(size_t want, std::string* error) {
    char chunk[65536];
    while (buf_.size() - head_ < want) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) {
        *error = "connection closed by server";
        return false;
      }
      if (n < 0) {
        return Fail(errno == EAGAIN ? "reply past the client deadline"
                                    : "recv",
                    error);
      }
      buf_.append(chunk, static_cast<size_t>(n));
    }
    return true;
  }

  bool ReadExact(size_t n, std::string* out, std::string* error) {
    if (!Fill(n, error)) return false;
    out->assign(buf_, head_, n);
    Consume(n);
    return true;
  }

  /// Reads through `delim` (exclusive in the result).
  bool ReadUntil(std::string_view delim, std::string* out,
                 std::string* error) {
    size_t scanned = head_;
    while (true) {
      const size_t at = buf_.find(delim, scanned);
      if (at != std::string::npos) {
        out->assign(buf_, head_, at - head_);
        Consume(at - head_ + delim.size());
        return true;
      }
      scanned = buf_.size() > delim.size() ? buf_.size() - delim.size()
                                           : head_;
      scanned = std::max(scanned, head_);
      if (!Fill(buf_.size() - head_ + 1, error)) return false;
    }
  }

 private:
  void Consume(size_t n) {
    head_ += n;
    if (head_ == buf_.size()) {
      buf_.clear();
      head_ = 0;
    } else if (head_ > (1u << 20)) {
      buf_.erase(0, head_);
      head_ = 0;
    }
  }
  bool Fail(const char* what, std::string* error) {
    *error = std::string(what) + ": " + std::strerror(errno);
    return false;
  }

  int fd_ = -1;
  std::string buf_;
  size_t head_ = 0;
};

struct HttpReply {
  int status = 0;
  std::string body;
};

/// One HTTP/1.1 keep-alive client connection.
class HttpClient {
 public:
  bool Connect(int port, double deadline_s, std::string* error) {
    return conn_.Connect(port, deadline_s, error);
  }

  bool Request(const std::string& method, const std::string& target,
               const std::string& body, HttpReply* reply,
               std::string* error) {
    std::string req = method + " " + target +
                      " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                      "Connection: keep-alive\r\n";
    if (!body.empty() || method == "POST") {
      req += "Content-Type: text/plain\r\nContent-Length: " +
             std::to_string(body.size()) + "\r\n";
    }
    req += "\r\n" + body;
    if (!conn_.WriteAll(req, error)) return false;
    std::string head;
    if (!conn_.ReadUntil("\r\n\r\n", &head, error)) return false;
    if (head.compare(0, 9, "HTTP/1.1 ") != 0) {
      *error = "bad status line";
      return false;
    }
    reply->status = std::atoi(head.c_str() + 9);
    size_t length = 0;
    size_t pos = 0;
    while ((pos = head.find("\r\n", pos)) != std::string::npos) {
      pos += 2;
      if (strncasecmp(head.c_str() + pos, "content-length:", 15) == 0) {
        length = static_cast<size_t>(std::atoll(head.c_str() + pos + 15));
      }
    }
    return conn_.ReadExact(length, &reply->body, error);
  }

 private:
  Conn conn_;
};

/// A WebSocket client on the gateway's /api/v1/stores/NAME/ws.
class WsClient {
 public:
  bool Connect(int port, const std::string& store, double deadline_s,
               std::string* error) {
    if (!conn_.Connect(port, deadline_s, error)) return false;
    const std::string req =
        "GET /api/v1/stores/" + store +
        "/ws HTTP/1.1\r\nHost: 127.0.0.1\r\nUpgrade: websocket\r\n"
        "Connection: Upgrade\r\nSec-WebSocket-Key: cGVyZmJlbmNoLWtleS0wMQ==\r\n"
        "Sec-WebSocket-Version: 13\r\n\r\n";
    if (!conn_.WriteAll(req, error)) return false;
    std::string head;
    if (!conn_.ReadUntil("\r\n\r\n", &head, error)) return false;
    if (head.compare(0, 12, "HTTP/1.1 101") != 0) {
      *error = "websocket upgrade refused: " + head.substr(0, 40);
      return false;
    }
    return true;
  }

  /// Sends one masked text frame and reads the next text message.
  bool Roundtrip(std::string_view text, std::string* reply,
                 std::string* error) {
    std::string frame;
    frame.push_back(static_cast<char>(0x81));
    const size_t n = text.size();
    if (n < 126) {
      frame.push_back(static_cast<char>(0x80 | n));
    } else if (n < 65536) {
      frame.push_back(static_cast<char>(0x80 | 126));
      frame.push_back(static_cast<char>(n >> 8));
      frame.push_back(static_cast<char>(n & 0xFF));
    } else {
      frame.push_back(static_cast<char>(0x80 | 127));
      for (int s = 56; s >= 0; s -= 8) {
        frame.push_back(static_cast<char>((n >> s) & 0xFF));
      }
    }
    const unsigned char mask[4] = {0x5A, 0x17, 0xC3, 0x9E};
    frame.append(reinterpret_cast<const char*>(mask), 4);
    for (size_t i = 0; i < n; ++i) {
      frame.push_back(static_cast<char>(text[i] ^ mask[i & 3]));
    }
    if (!conn_.WriteAll(frame, error)) return false;
    reply->clear();
    while (true) {
      std::string hdr;
      if (!conn_.ReadExact(2, &hdr, error)) return false;
      const bool fin = (hdr[0] & 0x80) != 0;
      const int opcode = hdr[0] & 0x0F;
      uint64_t len = static_cast<unsigned char>(hdr[1]) & 0x7F;
      std::string ext;
      if (len == 126) {
        if (!conn_.ReadExact(2, &ext, error)) return false;
        len = (static_cast<unsigned char>(ext[0]) << 8) |
              static_cast<unsigned char>(ext[1]);
      } else if (len == 127) {
        if (!conn_.ReadExact(8, &ext, error)) return false;
        len = 0;
        for (char c : ext) len = (len << 8) | static_cast<unsigned char>(c);
      }
      std::string payload;
      if (!conn_.ReadExact(static_cast<size_t>(len), &payload, error)) {
        return false;
      }
      if (opcode == 0x8) {
        *error = "server closed the websocket";
        return false;
      }
      if (opcode == 0x9 || opcode == 0xA) continue;  // ping / pong
      *reply += payload;
      if (fin) return true;
    }
  }

 private:
  Conn conn_;
};

/// A `gmine server` line-protocol connection (text framing).
class LineClient {
 public:
  bool Connect(int port, double deadline_s, std::string* error) {
    if (!conn_.Connect(port, deadline_s, error)) return false;
    std::string greeting;
    if (!conn_.ReadUntil("\n", &greeting, error)) return false;
    if (greeting.compare(0, 3, "OK ") != 0) {
      *error = "unexpected greeting: " + greeting;
      return false;
    }
    return true;
  }

  /// Sends one line; `head` gets the response line, `body` any raw body.
  bool Roundtrip(std::string_view line, std::string* head, std::string* body,
                 std::string* error) {
    std::string out(line);
    out += '\n';
    if (!conn_.WriteAll(out, error)) return false;
    if (!conn_.ReadUntil("\n", head, error)) return false;
    body->clear();
    if (head->compare(0, 8, "OK BODY ") == 0) {
      const size_t n = static_cast<size_t>(std::atoll(head->c_str() + 8));
      if (!conn_.ReadExact(n + 1, body, error)) return false;
      body->pop_back();
    }
    return true;
  }

 private:
  Conn conn_;
};

// -------------------------------------------------------------- results

/// What one client thread measured and found.
struct ClientLog {
  std::vector<double> nav_ms;
  std::vector<double> work_ms;
  std::vector<double> mine_ms;
  std::vector<double> mine_wait_ms;
  std::vector<double> lag_ms;  // paced: send time minus due time
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t reseats = 0;
  uint64_t kind_count[static_cast<size_t>(OpKind::kCount)] = {};
  std::vector<std::string> errors;  // first few, for the report

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
};

void Merge(ClientLog* into, const ClientLog& from) {
  auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  cat(&into->nav_ms, from.nav_ms);
  cat(&into->work_ms, from.work_ms);
  cat(&into->mine_ms, from.mine_ms);
  cat(&into->mine_wait_ms, from.mine_wait_ms);
  cat(&into->lag_ms, from.lag_ms);
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->reseats += from.reseats;
  for (size_t i = 0; i < static_cast<size_t>(OpKind::kCount); ++i) {
    into->kind_count[i] += from.kind_count[i];
  }
  for (const std::string& e : from.errors) {
    if (into->errors.size() < 10) into->errors.push_back(e);
  }
}

// --------------------------------------------------------- reply checks

/// Value of `key=` in a space-separated reply text (up to the next " ").
std::string Field(const std::string& text, const std::string& key) {
  const std::string needle = key + "=";
  size_t at = 0;
  while ((at = text.find(needle, at)) != std::string::npos) {
    if (at == 0 || text[at - 1] == ' ') break;
    at += needle.size();
  }
  if (at == std::string::npos) return std::string();
  const size_t start = at + needle.size();
  const size_t end = text.find(' ', start);
  return text.substr(start, end == std::string::npos ? std::string::npos
                                                      : end - start);
}

/// The harness's view of the generated graph and the discovered tree,
/// plus the expected answers of the work queries.
struct Expectations {
  const Graph* graph = nullptr;
  const TreeModel* tree = nullptr;
  std::map<std::string, std::vector<uint32_t>> prefix_ids;

  /// Ids within two intra-leaf hops of v (the MATCH NEIGHBORS answer).
  std::vector<uint32_t> LeafNeighbors(uint32_t v) const {
    const int32_t leaf = tree->leaf_of[v];
    std::set<uint32_t> out;
    for (uint32_t a : graph->adj[v]) {
      if (tree->leaf_of[a] != leaf) continue;
      out.insert(a);
      for (uint32_t b : graph->adj[a]) {
        if (tree->leaf_of[b] == leaf) out.insert(b);
      }
    }
    out.erase(v);
    return std::vector<uint32_t>(out.begin(), out.end());
  }
};

/// Row ids of a GQL JSON result (column `id`), or an error.
bool ResultIds(const Json& result, std::vector<uint32_t>* ids,
               std::vector<const Json*>* rows, std::string* error) {
  const Json* r = result.Get("rows");
  if (r == nullptr || r->type != Json::Type::kArray) {
    *error = "query result without rows";
    return false;
  }
  for (const Json& row : r->array) {
    if (row.type != Json::Type::kArray || row.array.empty()) {
      *error = "malformed row";
      return false;
    }
    ids->push_back(static_cast<uint32_t>(std::atoll(row.array[0].string.c_str())));
    if (rows != nullptr) rows->push_back(&row);
  }
  return true;
}

/// Checks one WS navigation / explore-work reply. Returns "" when good.
std::string CheckWsReply(const ScriptOp& op, const Json& reply,
                         const Expectations& ex,
                         std::map<int32_t, std::string>* display_memo) {
  const Json* ok = reply.Get("ok");
  if (ok == nullptr || !ok->boolean) {
    return op.line + " -> error " + reply.Str("code") + ": " +
           reply.Str("error");
  }
  const std::string text = reply.Str("text");
  const TreeModel& tree = *ex.tree;
  const std::string& want = tree.name[op.expect_focus];
  auto check_focus = [&](const std::string& got_focus,
                         const std::string& display) -> std::string {
    if (got_focus != want) {
      return op.line + " -> focus " + got_focus + ", expected " + want;
    }
    auto [it, fresh] = display_memo->emplace(op.expect_focus, display);
    if (!fresh && it->second != display) {
      return op.line + " -> display " + display + " changed from " +
             it->second;
    }
    return std::string();
  };
  switch (op.kind) {
    case OpKind::kChild:
    case OpKind::kParent:
    case OpKind::kBack:
    case OpKind::kFocus:
      return check_focus(Field(text, "focus"), Field(text, "display"));
    case OpKind::kLocate: {
      const std::string node = "node " + std::to_string(op.node) + " ";
      if (text.compare(0, node.size(), node) != 0) {
        return op.line + " -> " + text;
      }
      return check_focus(Field(text, "focus"), Field(text, "display"));
    }
    case OpKind::kLoad: {
      if (Field(text, "leaf") != want ||
          Field(text, "n") != std::to_string(tree.members[op.expect_focus])) {
        return op.line + " -> " + text + ", expected leaf=" + want + " n=" +
               std::to_string(tree.members[op.expect_focus]);
      }
      return std::string();
    }
    case OpKind::kSummary: {
      const int32_t f = op.expect_focus;
      if (Field(text, "focus") != want ||
          Field(text, "depth") != std::to_string(tree.depth[f]) ||
          Field(text, "children") != std::to_string(tree.children[f].size()) ||
          Field(text, "path") != tree.Path(f)) {
        return op.line + " -> " + text + ", expected focus " + want +
               " at " + tree.Path(f);
      }
      return std::string();
    }
    case OpKind::kConnectivity: {
      const std::string edges = Field(text, "edges");
      if (edges.empty()) return op.line + " -> " + text;
      auto [it, fresh] = display_memo->emplace(-2 - op.expect_focus, edges);
      if (!fresh && it->second != edges) {
        return op.line + " -> edges " + edges + " changed from " + it->second;
      }
      return std::string();
    }
    case OpKind::kRender: {
      const std::string body = reply.Str("body");
      if (text != "svg " + want || body.find("<svg") == std::string::npos ||
          body.find("</svg>") == std::string::npos) {
        return op.line + " -> " + text + " (" + std::to_string(body.size()) +
               " body bytes), expected svg of " + want;
      }
      return std::string();
    }
    case OpKind::kNeighbors:
    case OpKind::kPrefix: {
      Json result;
      std::string error;
      if (!ParseJson(reply.Str("body"), &result, &error)) {
        return op.line + " -> unparsable result: " + error;
      }
      std::vector<uint32_t> ids;
      std::vector<const Json*> rows;
      if (!ResultIds(result, &ids, &rows, &error)) return op.line + ": " + error;
      std::vector<uint32_t> expect;
      if (op.kind == OpKind::kNeighbors) {
        expect = ex.LeafNeighbors(op.node);
        const std::string& leaf = tree.name[tree.leaf_of[op.node]];
        for (const Json* row : rows) {
          if (row->array.size() < 3 || row->array[2].string != leaf) {
            return op.line + " -> row outside leaf " + leaf;
          }
        }
      } else {
        auto it = ex.prefix_ids.find(op.prefix);
        if (it != ex.prefix_ids.end()) expect = it->second;
        for (size_t i = 0; i < rows.size(); ++i) {
          if (rows[i]->array.size() < 2 ||
              rows[i]->array[1].string != ex.graph->labels[ids[i]]) {
            return op.line + " -> wrong label for id " +
                   std::to_string(ids[i]);
          }
        }
      }
      std::sort(ids.begin(), ids.end());
      if (ids != expect) {
        return op.line + " -> " + std::to_string(ids.size()) +
               " rows, expected " + std::to_string(expect.size());
      }
      return std::string();
    }
    default:
      return "unexpected op " + op.line;
  }
}

/// Compares a PageRank top list with the reference: every returned score
/// must match both the reference score of its id and the reference score
/// at its rank (so ties may swap order but nothing else may move).
std::string CheckTopK(const std::vector<std::pair<uint32_t, double>>& got,
                      const std::vector<double>& ref_score,
                      const std::vector<uint32_t>& ref_top, double tol) {
  if (got.size() != ref_top.size()) {
    return "top list has " + std::to_string(got.size()) + " entries, expected " +
           std::to_string(ref_top.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const auto& [id, score] = got[i];
    if (id >= ref_score.size() ||
        std::abs(score - ref_score[id]) > tol ||
        std::abs(score - ref_score[ref_top[i]]) > tol) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "pagerank rank %zu: id %u score %.10g, reference id %u "
                    "score %.10g",
                    i, id, score, ref_top[i], ref_score[ref_top[i]]);
      return buf;
    }
  }
  return std::string();
}

// ------------------------------------------------------------- discovery

/// Walks the whole hierarchy over one WS connection (summary / child /
/// parent / load) and reads each leaf's members with a GQL community
/// query, building the harness's tree model. Not measured.
bool DiscoverTree(WsClient& ws, uint32_t graph_nodes, TreeModel* tree,
                  std::string* error) {
  auto op = [&](const std::string& line, std::string* text,
                std::string* body) -> bool {
    std::string raw;
    if (!ws.Roundtrip(line, &raw, error)) return false;
    Json reply;
    if (!ParseJson(raw, &reply, error)) return false;
    const Json* ok = reply.Get("ok");
    if (ok == nullptr || !ok->boolean) {
      *error = line + " -> " + reply.Str("error");
      return false;
    }
    *text = reply.Str("text");
    if (body != nullptr) *body = reply.Str("body");
    return true;
  };
  std::string text;
  if (!op("root", &text, nullptr)) return false;
  tree->leaf_of.assign(graph_nodes, -1);
  // Iterative DFS mirroring the server's session moves.
  struct Frame {
    int32_t node;
    size_t next_child;
    size_t num_children;
  };
  std::vector<Frame> stack;
  auto visit = [&](int32_t parent) -> bool {
    if (!op("summary", &text, nullptr)) return false;
    const int32_t id = static_cast<int32_t>(tree->name.size());
    const std::string name = Field(text, "focus");
    tree->name.push_back(name);
    tree->parent.push_back(parent);
    tree->depth.push_back(
        static_cast<uint32_t>(std::atoi(Field(text, "depth").c_str())));
    tree->children.emplace_back();
    tree->members.push_back(0);
    if (parent >= 0) tree->children[parent].push_back(id);
    const size_t kids =
        static_cast<size_t>(std::atoi(Field(text, "children").c_str()));
    if (kids == 0) {
      if (!op("load", &text, nullptr)) return false;
      tree->members[id] =
          static_cast<uint32_t>(std::atoi(Field(text, "n").c_str()));
      std::string body;
      if (!op("query MATCH NODES WHERE community = '" + name + "'", &text,
              &body)) {
        return false;
      }
      Json result;
      if (!ParseJson(body, &result, error)) return false;
      std::vector<uint32_t> ids;
      if (!ResultIds(result, &ids, nullptr, error)) return false;
      for (uint32_t v : ids) {
        if (v >= graph_nodes) {
          *error = "community member out of range";
          return false;
        }
        tree->leaf_of[v] = id;
      }
    }
    stack.push_back(Frame{id, 0, kids});
    return true;
  };
  if (!visit(-1)) return false;
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_child == top.num_children) {
      stack.pop_back();
      if (!stack.empty() && !op("parent", &text, nullptr)) return false;
      continue;
    }
    const size_t i = top.next_child++;
    const int32_t parent = top.node;
    if (!op("child " + std::to_string(i), &text, nullptr)) return false;
    if (!visit(parent)) return false;
  }
  for (uint32_t v = 0; v < graph_nodes; ++v) {
    if (tree->leaf_of[v] < 0) {
      *error = "node " + std::to_string(v) + " is in no leaf community";
      return false;
    }
  }
  // Leave the session at the root, as a fresh one would be.
  return op("root", &text, nullptr);
}

// ------------------------------------------------------------- workloads

struct RunArgs {
  Config config;
  uint64_t seed = 0;
  int port = 0;
  std::string store = "g";
  std::string store_file;  // the served store on disk (edit)
};

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

struct RunOutput {
  Config config;
  ClientLog log;
  double measured_s = 0;
  std::string stats_before;
  std::string stats_after;
  uint64_t final_nodes = 0;
  uint64_t final_edges = 0;
  std::string extra;  // workload-specific JSON fields
};

/// Runs a WS walker until `stop`, or until it has attempted `max_ops`
/// ops when that is not 0: closed loop when `rate_hz` is 0, else paced
/// with latency timed from each op's due time.
void RunWsWalker(const RunArgs& args, const Expectations& ex, uint64_t seed,
                 bool with_work, double rate_hz, uint64_t max_ops,
                 const std::atomic<bool>& stop, ClientLog* log) {
  WsClient ws;
  std::string error;
  if (!ws.Connect(args.port, args.store, args.config.deadline_s, &error)) {
    ++log->attempted;
    log->Fail("ws connect: " + error);
    return;
  }
  Walker walker(ex.tree, ex.graph, seed, with_work);
  std::map<int32_t, std::string> memo;
  const auto start = Clock::now();
  uint64_t k = 0;
  std::string raw;
  while (!stop.load(std::memory_order_relaxed) &&
         (max_ops == 0 || log->attempted < max_ops)) {
    const ScriptOp op = walker.Next();
    Clock::time_point due = Clock::now();
    if (rate_hz > 0) {
      due = start + std::chrono::nanoseconds(
                        static_cast<int64_t>(1e9 * static_cast<double>(k) / rate_hz));
      ++k;
      std::this_thread::sleep_until(due);
      if (stop.load(std::memory_order_relaxed)) break;
      log->lag_ms.push_back(MsSince(due, Clock::now()));
    }
    ++log->attempted;
    ++log->kind_count[static_cast<size_t>(op.kind)];
    if (!ws.Roundtrip(op.line, &raw, &error)) {
      log->Fail(op.line + ": " + error);
      return;  // the connection is out of step; stop this client
    }
    const double ms = MsSince(due, Clock::now());
    Json reply;
    std::string check;
    if (!ParseJson(raw, &reply, &error)) {
      check = op.line + " -> unparsable reply: " + error;
    } else {
      check = CheckWsReply(op, reply, ex, &memo);
    }
    if (!check.empty()) {
      log->Fail(check);
      continue;
    }
    (IsNavigation(op.kind) ? log->nav_ms : log->work_ms).push_back(ms);
  }
}

/// Submits one PageRank job over REST, polls it to done, checks the top
/// list and forgets the job. Returns false on a failed op.
bool RunMineJob(HttpClient& http, const RunArgs& args,
                const std::vector<double>& ref, const std::vector<uint32_t>& ref_top,
                ClientLog* log) {
  ++log->attempted;
  ++log->kind_count[static_cast<size_t>(OpKind::kMine)];
  std::string error;
  HttpReply reply;
  const auto t0 = Clock::now();
  if (!http.Request("POST",
                    "/api/v1/stores/" + args.store + "/mine?kernel=pagerank&top=20",
                    "", &reply, &error) ||
      reply.status != 202) {
    log->Fail("mine submit: " + (error.empty() ? reply.body : error));
    return false;
  }
  Json submitted;
  if (!ParseJson(reply.body, &submitted, &error)) {
    log->Fail("mine submit reply: " + error);
    return false;
  }
  const std::string job = std::to_string(
      static_cast<uint64_t>(submitted.Num("job")));
  bool seen_running = false;
  Json info;
  while (true) {
    if (!http.Request("GET", "/api/v1/jobs/" + job, "", &reply, &error) ||
        reply.status != 200 || !ParseJson(reply.body, &info, &error)) {
      log->Fail("mine poll: " + (error.empty() ? reply.body : error));
      return false;
    }
    const std::string state = info.Str("state");
    if (!seen_running && (state == "running" || state == "done")) {
      seen_running = true;
      log->mine_wait_ms.push_back(MsSince(t0, Clock::now()));
    }
    if (state == "done") break;
    if (state != "running") {
      log->Fail("mine job " + state + ": " + info.Str("error"));
      return false;
    }
    if (MsSince(t0, Clock::now()) > args.config.deadline_s * 1000) {
      log->Fail("mine job past the client deadline");
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<int64_t>(args.config.mine_poll_ms * 1000)));
  }
  const double ms = MsSince(t0, Clock::now());
  (void)http.Request("DELETE", "/api/v1/jobs/" + job, "", &reply, &error);
  std::vector<std::pair<uint32_t, double>> got;
  const Json* result = info.Get("result");
  const Json* top = result != nullptr ? result->Get("top") : nullptr;
  if (top != nullptr) {
    for (const Json& e : top->array) {
      got.emplace_back(static_cast<uint32_t>(e.Num("id")), e.Num("score"));
    }
  }
  const std::string check =
      CheckTopK(got, ref, ref_top, args.config.pagerank_tolerance);
  if (!check.empty()) {
    log->Fail("mine: " + check);
    return false;
  }
  log->mine_ms.push_back(ms);
  return true;
}

std::string FetchStats(int port, double deadline_s) {
  HttpClient http;
  HttpReply reply;
  std::string error;
  if (!http.Connect(port, deadline_s, &error) ||
      !http.Request("GET", "/stats", "", &reply, &error)) {
    return "{}";
  }
  std::string body = reply.body;
  while (!body.empty() && (body.back() == '\n' || body.back() == ' ')) {
    body.pop_back();
  }
  return body;
}

void PrefixIndex(const Graph& g, Expectations* ex) {
  for (uint32_t v = 0; v < g.n; ++v) {
    ex->prefix_ids[LabelPrefixFor(g, v)].push_back(v);
  }
}

void RunExplore(const RunArgs& args, const Graph& g, RunOutput* out) {
  const Config& c = args.config;
  WsClient discovery;  // also holds the store open for the whole run
  TreeModel tree;
  std::string error;
  ++out->log.attempted;
  if (!discovery.Connect(args.port, args.store, c.deadline_s, &error) ||
      !DiscoverTree(discovery, g.n, &tree, &error)) {
    out->log.Fail("tree discovery: " + error);
    return;
  }
  Expectations ex;
  ex.graph = &g;
  ex.tree = &tree;
  PrefixIndex(g, &ex);

  // mine_s: PageRank jobs outside the measured phase, so mining never
  // overlaps navigation on this workload; half run before it and half
  // after, so their median spans more than one moment of the host.
  const std::vector<double> ref = ReferencePageRank(g.n, g.adj);
  const std::vector<uint32_t> ref_top = TopK(ref, 20);
  HttpClient http;
  if (!http.Connect(args.port, c.deadline_s, &error)) {
    out->log.Fail("rest connect: " + error);
    return;
  }
  auto mine = [&](int jobs) {
    for (int i = 0; i < jobs; ++i) {
      if (i > 0) std::this_thread::sleep_for(MineGap(c));
      if (!RunMineJob(http, args, ref, ref_top, &out->log)) return false;
    }
    return true;
  };
  const int mine_before = c.post_mine_jobs / 2;
  if (!mine(mine_before)) return;

  out->stats_before = FetchStats(args.port, c.deadline_s);
  std::atomic<bool> stop{false};
  std::vector<ClientLog> logs(static_cast<size_t>(Clients(c)));
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (int i = 0; i < Clients(c); ++i) {
    threads.emplace_back([&, i] {
      RunWsWalker(args, ex, SubSeed(args.seed, 100 + static_cast<uint64_t>(i)),
                  /*with_work=*/true, /*rate_hz=*/0,
                  static_cast<uint64_t>(c.script_ops / Clients(c)), stop,
                  &logs[i]);
    });
  }
  for (std::thread& t : threads) t.join();
  out->measured_s = MsSince(t0, Clock::now()) / 1000.0;
  out->stats_after = FetchStats(args.port, c.deadline_s);
  for (const ClientLog& l : logs) Merge(&out->log, l);
  mine(c.post_mine_jobs - mine_before);
  out->final_nodes = g.n;
  out->final_edges = g.edges.size();
}

void RunSummarize(const RunArgs& args, const Graph& g, RunOutput* out) {
  const Config& c = args.config;
  // One connection discovers the tree and holds the store open.
  WsClient nav;
  TreeModel tree;
  std::string error;
  ++out->log.attempted;
  if (!nav.Connect(args.port, args.store, c.deadline_s, &error) ||
      !DiscoverTree(nav, g.n, &tree, &error)) {
    out->log.Fail("tree discovery: " + error);
    return;
  }
  Expectations ex;
  ex.graph = &g;
  ex.tree = &tree;
  const std::vector<double> ref = ReferencePageRank(g.n, g.adj);
  const std::vector<uint32_t> ref_top = TopK(ref, 20);
  ExtractScript script(GiantComponent(g), c, SubSeed(args.seed, 200));

  out->stats_before = FetchStats(args.port, c.deadline_s);
  std::atomic<bool> stop{false};
  ClientLog nav_log;
  ClientLog rest_log;
  const auto t0 = Clock::now();
  std::thread navigator([&] {
    RunWsWalker(args, ex, SubSeed(args.seed, 100), /*with_work=*/false,
                c.paced_nav_hz, /*max_ops=*/0, stop, &nav_log);
  });
  std::thread extractor([&] {
    HttpClient http;
    std::string err;
    if (!http.Connect(args.port, c.deadline_s, &err)) {
      ++rest_log.attempted;
      rest_log.Fail("rest connect: " + err);
      return;
    }
    std::vector<uint32_t> sources;
    while (!stop.load(std::memory_order_relaxed)) {
      const ScriptOp op = script.Next(&sources);
      if (op.kind == OpKind::kMine) {
        if (!RunMineJob(http, args, ref, ref_top, &rest_log)) return;
      } else {
        ++rest_log.attempted;
        ++rest_log.kind_count[static_cast<size_t>(op.kind)];
        HttpReply reply;
        const auto s0 = Clock::now();
        if (!http.Request("POST", "/api/v1/stores/" + args.store + "/query",
                          op.line, &reply, &err)) {
          rest_log.Fail(op.line + ": " + err);
          return;
        }
        const double ms = MsSince(s0, Clock::now());
        Json result;
        std::vector<uint32_t> ids;
        std::vector<const Json*> rows;
        std::string check;
        if (reply.status != 200 || !ParseJson(reply.body, &result, &err) ||
            !ResultIds(result, &ids, &rows, &err)) {
          check = op.line + " -> HTTP " + std::to_string(reply.status) + " " +
                  reply.body.substr(0, 120) + err;
        } else if (ids.size() > c.csg_budget) {
          check = op.line + " -> " + std::to_string(ids.size()) +
                  " rows over the budget";
        } else {
          for (uint32_t s : sources) {
            if (std::find(ids.begin(), ids.end(), s) == ids.end()) {
              check = op.line + " -> source " + std::to_string(s) + " missing";
            }
          }
          for (size_t i = 0; i < rows.size() && check.empty(); ++i) {
            if (ids[i] >= g.n || rows[i]->array.size() < 2 ||
                rows[i]->array[1].string != g.labels[ids[i]]) {
              check = op.line + " -> wrong label for id " + std::to_string(ids[i]);
            }
          }
        }
        if (!check.empty()) {
          rest_log.Fail(check);
        } else {
          rest_log.work_ms.push_back(ms);
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<int64_t>(c.think_ms * 1000)));
    }
  });
  std::this_thread::sleep_for(std::chrono::seconds(c.seconds));
  stop.store(true);
  navigator.join();
  extractor.join();
  out->measured_s = MsSince(t0, Clock::now()) / 1000.0;
  out->stats_after = FetchStats(args.port, c.deadline_s);
  Merge(&out->log, nav_log);
  Merge(&out->log, rest_log);
  out->final_nodes = g.n;
  out->final_edges = g.edges.size();
}

/// The edit workload's paced reader over the line protocol.
void RunSteeringNavigator(const RunArgs& args, const Graph& g,
                          const std::atomic<bool>& stop, ClientLog* log) {
  const Config& c = args.config;
  LineClient line;
  std::string error;
  if (!line.Connect(args.port, c.deadline_s, &error)) {
    ++log->attempted;
    log->Fail("navigator connect: " + error);
    return;
  }
  SteeringWalker walker(&g, SubSeed(args.seed, 300));
  auto observe = [&](const std::string& text) {
    return walker.Observe(Field(text, "focus"), Field(text, "path"),
                          std::atoi(Field(text, "depth").c_str()),
                          std::atoi(Field(text, "children").c_str()));
  };
  std::string head;
  std::string body;
  const auto start = Clock::now();
  for (uint64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
    const auto due =
        start + std::chrono::nanoseconds(static_cast<int64_t>(
                    1e9 * static_cast<double>(k) / c.paced_nav_hz));
    std::this_thread::sleep_until(due);
    if (stop.load(std::memory_order_relaxed)) break;
    log->lag_ms.push_back(MsSince(due, Clock::now()));
    const ScriptOp op = walker.Next();
    ++log->attempted;
    ++log->kind_count[static_cast<size_t>(op.kind)];
    if (!line.Roundtrip(op.line, &head, &body, &error)) {
      log->Fail(op.line + ": " + error);
      return;
    }
    const double ms = MsSince(due, Clock::now());
    std::string check;
    if (head.compare(0, 3, "OK ") != 0) {
      std::string h2;
      if ((op.kind == OpKind::kChild || op.kind == OpKind::kLoad) &&
          line.Roundtrip("summary", &h2, &body, &error) &&
          h2.compare(0, 3, "OK ") == 0 &&
          Field(h2.substr(3), "depth") == "0") {
        // An epoch bump re-seated the session at the root between the
        // state this op was chosen from and the op itself.
        ++log->reseats;
        log->nav_ms.push_back(ms);
        observe(h2.substr(3));
        continue;
      }
      check = op.line + " -> " + head;
    } else {
      const std::string text = head.substr(3);
      const std::string node = "node " + std::to_string(op.node) + " ";
      switch (op.kind) {
        case OpKind::kSummary:
          check = observe(text);
          if (!check.empty()) check += ": " + text;
          break;
        case OpKind::kLocate:
          if (text.compare(0, node.size(), node) != 0 ||
              !SteeringWalker::WellFormed(Field(text, "focus"))) {
            check = op.line + " -> " + text;
          }
          break;
        case OpKind::kChild:
        case OpKind::kParent:
          if (!SteeringWalker::WellFormed(Field(text, "focus"))) {
            check = op.line + " -> " + text;
          }
          break;
        case OpKind::kLoad:
          if (!SteeringWalker::WellFormed(Field(text, "leaf"))) {
            check = op.line + " -> " + text;
          }
          break;
        default:
          if (Field(text, "edges").empty()) check = op.line + " -> " + text;
          break;
      }
    }
    if (!check.empty()) {
      log->Fail(check);
      continue;
    }
    log->nav_ms.push_back(ms);
  }
}

void RunEdit(const RunArgs& args, const Graph& g, RunOutput* out) {
  const Config& c = args.config;
  EditModel model(g, SubSeed(args.seed, 400));
  LineClient writer;
  std::string error;
  if (!writer.Connect(args.port, c.deadline_s, &error)) {
    ++out->log.attempted;
    out->log.Fail("writer connect: " + error);
    return;
  }
  std::string head;
  std::string body;
  if (writer.Roundtrip("stats", &head, &body, &error)) {
    out->stats_before = JsonQuote(head);
  }
  std::atomic<bool> stop{false};
  ClientLog nav_log;
  ClientLog& wlog = out->log;
  const auto t0 = Clock::now();
  std::thread navigator([&] { RunSteeringNavigator(args, g, stop, &nav_log); });
  uint64_t last_lsn = 0;
  uint64_t group_total = 0;
  double bytes_per_edge_sum = 0;  // store + WAL after each ack
  bool broken = false;
  for (int b = 0; b < c.edit_batches && !broken; ++b) {
    const std::vector<std::string> lines = model.NextBatch();
    ++wlog.kind_count[static_cast<size_t>(OpKind::kEditBatch)];
    const auto s0 = Clock::now();
    bool batch_ok = true;
    for (size_t i = 0; i < lines.size(); ++i) {
      ++wlog.attempted;
      if (!writer.Roundtrip(lines[i], &head, &body, &error)) {
        wlog.Fail(lines[i] + ": " + error);
        broken = true;
        batch_ok = false;
        break;
      }
      if (i + 1 < lines.size()) {
        if (head.compare(0, 10, "OK queued ") != 0) {
          wlog.Fail(lines[i] + " -> " + head);
          batch_ok = false;
        }
        continue;
      }
      // The apply ack: every queued op committed, LSNs consecutive.
      const std::string text = head.size() > 3 ? head.substr(3) : head;
      const uint64_t lsn = std::strtoull(Field(text, "lsn").c_str(), nullptr, 10);
      const std::string ops = Field(text, "ops");
      group_total += std::strtoull(Field(text, "group").c_str(), nullptr, 10);
      if (head.compare(0, 13, "OK committed ") != 0 ||
          ops != std::to_string(lines.size() - 1) ||
          (last_lsn != 0 && lsn != last_lsn + 1) || lsn == 0) {
        wlog.Fail("edit apply -> " + head + " (previous lsn " +
                  std::to_string(last_lsn) + ")");
        batch_ok = false;
      }
      last_lsn = lsn;
    }
    if (batch_ok) wlog.work_ms.push_back(MsSince(s0, Clock::now()));
    // Appends grow the file and compactions shrink it, so the store's
    // size is sampled after every acknowledged batch.
    bytes_per_edge_sum +=
        static_cast<double>(FileBytes(args.store_file) +
                            FileBytes(args.store_file + ".wal")) /
        static_cast<double>(model.edges());
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<int64_t>(c.think_ms * 1000)));
  }
  stop.store(true);
  navigator.join();
  out->measured_s = MsSince(t0, Clock::now()) / 1000.0;
  Merge(&out->log, nav_log);
  if (broken) return;
  if (writer.Roundtrip("stats", &head, &body, &error)) {
    out->stats_after = JsonQuote(head);
  }

  // Final counts: the tip node count shows as the next provisional id;
  // the edge count follows from the mean degree.
  ++wlog.attempted;
  uint64_t nodes = 0;
  double mean_degree = 0;
  std::string degrees;
  if (writer.Roundtrip("edit add-node count probe", &head, &body, &error)) {
    nodes = std::strtoull(Field(head, "id").c_str(), nullptr, 10);
  }
  writer.Roundtrip("edit abort", &head, &body, &error);
  if (writer.Roundtrip("query MINE DEGREES", &head, &degrees, &error)) {
    Json result;
    if (ParseJson(degrees, &result, &error)) {
      const Json* rows = result.Get("rows");
      for (const Json& row : rows != nullptr ? rows->array : std::vector<Json>()) {
        if (row.array.size() == 2 && row.array[0].string == "mean_degree") {
          mean_degree = std::strtod(row.array[1].string.c_str(), nullptr);
        }
      }
    }
  }
  const uint64_t edges = static_cast<uint64_t>(
      std::llround(mean_degree * static_cast<double>(nodes) / 2.0));
  if (nodes != model.nodes() || edges != model.edges()) {
    wlog.Fail("final graph has " + std::to_string(nodes) + " nodes / " +
              std::to_string(edges) + " edges, the script's replay " +
              std::to_string(model.nodes()) + " / " +
              std::to_string(model.edges()));
  }
  out->final_nodes = model.nodes();
  out->final_edges = model.edges();

  // mine_s: PageRank over the edited graph after the measured phase.
  const std::vector<double> ref = ReferencePageRank(model.nodes(), model.Adjacency());
  const std::vector<uint32_t> ref_top = TopK(ref, 20);
  for (int i = 0; i < c.post_mine_jobs; ++i) {
    if (i > 0) std::this_thread::sleep_for(MineGap(c));
    ++wlog.attempted;
    ++wlog.kind_count[static_cast<size_t>(OpKind::kMine)];
    const auto m0 = Clock::now();
    if (!writer.Roundtrip("query MINE PAGERANK TOP 20", &head, &body, &error) ||
        head.compare(0, 8, "OK BODY ") != 0) {
      wlog.Fail("MINE PAGERANK -> " + head + error);
      break;
    }
    const double ms = MsSince(m0, Clock::now());
    Json result;
    std::vector<std::pair<uint32_t, double>> got;
    if (ParseJson(body, &result, &error) && result.Get("rows") != nullptr) {
      for (const Json& row : result.Get("rows")->array) {
        if (row.array.size() == 3) {
          got.emplace_back(
              static_cast<uint32_t>(std::atoll(row.array[0].string.c_str())),
              std::strtod(row.array[2].string.c_str(), nullptr));
        }
      }
    }
    // GQL prints scores with 8 decimals.
    const std::string check = CheckTopK(
        got, ref, ref_top, std::max(c.pagerank_tolerance, 2e-8));
    if (!check.empty()) {
      wlog.Fail("MINE PAGERANK: " + check);
      break;
    }
    wlog.mine_ms.push_back(ms);
  }
  char extra[256];
  std::snprintf(extra, sizeof(extra),
                "\"store_bytes_per_edge\":%.9g,"
                "\"last_lsn\":%llu,\"groups_mean\":%.4f,\"edit_ops\":%llu,"
                "\"remove_nodes\":%llu",
                bytes_per_edge_sum / std::max(c.edit_batches, 1),
                static_cast<unsigned long long>(last_lsn),
                c.edit_batches > 0 ? static_cast<double>(group_total) / c.edit_batches : 0.0,
                static_cast<unsigned long long>(model.ops()),
                static_cast<unsigned long long>(model.remove_nodes()));
  out->extra = extra;
}

// -------------------------------------------------------------- output

std::string ConfigJson(const Config& c) {
  char buf[1600];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\":\"%s\",\"seconds\":%d,\"levels\":%u,\"fanout\":%u,"
      "\"community_size\":%u,\"intra_degree\":%.3f,\"cross_degree\":%.3f,"
      "\"stream_build\":%s,\"build_levels\":%u,\"build_fanout\":%u,"
      "\"stream_leaf_size\":%u,\"stream_fanout\":%u,\"stream_sort_mb\":%u,"
      "\"gmine_threads\":%d,\"mem_budget_mb\":%u,\"setup_reps\":%d,"
      "\"nav_clients\":%d,\"paced_nav_hz\":%.1f,\"think_ms\":%.1f,"
      "\"mine_every\":%d,\"mine_poll_ms\":%.1f,\"post_mine_jobs\":%d,"
      "\"post_mine_gap_ms\":%.1f,"
      "\"csg_budget\":%u,\"edit_batches\":%d,\"script_ops\":%d,"
      "\"deadline_s\":%.1f,"
      "\"pagerank_tolerance\":%.3g,\"nav_tail_q\":%.3f,\"work_tail_q\":%.3f}",
      c.name.c_str(), c.seconds, c.levels, c.fanout, c.community_size,
      c.intra_degree, c.cross_degree, c.stream_build ? "true" : "false",
      c.build_levels, c.build_fanout, c.stream_leaf_size, c.stream_fanout,
      c.stream_sort_mb, c.gmine_threads, c.mem_budget_mb, c.setup_reps,
      c.nav_clients, c.paced_nav_hz, c.think_ms, c.mine_every,
      c.mine_poll_ms, c.post_mine_jobs, c.post_mine_gap_ms, c.csg_budget,
      c.edit_batches, c.script_ops,
      c.deadline_s, c.pagerank_tolerance, c.nav_tail_q, c.work_tail_q);
  return buf;
}

void PrintRun(const RunOutput& out) {
  const ClientLog& log = out.log;
  std::string kinds = "{";
  for (size_t i = 0; i < static_cast<size_t>(OpKind::kCount); ++i) {
    if (log.kind_count[i] == 0) continue;
    if (kinds.size() > 1) kinds += ",";
    kinds += JsonQuote(OpKindName(static_cast<OpKind>(i))) + ":" +
             std::to_string(log.kind_count[i]);
  }
  kinds += "}";
  std::string errors = "[";
  for (size_t i = 0; i < log.errors.size(); ++i) {
    if (i > 0) errors += ",";
    errors += JsonQuote(log.errors[i]);
  }
  errors += "]";
  std::printf(
      "{\"measured_s\":%.6f,\"attempted\":%llu,\"failed\":%llu,"
      "\"reseats\":%llu,\"nav\":%s,\"work\":%s,\"mine\":%s,\"mine_wait\":%s,"
      "\"lag\":%s,\"kinds\":%s,\"errors\":%s,\"final_nodes\":%llu,"
      "\"final_edges\":%llu,\"stats_before\":%s,\"stats_after\":%s%s%s}\n",
      out.measured_s, static_cast<unsigned long long>(log.attempted),
      static_cast<unsigned long long>(log.failed),
      static_cast<unsigned long long>(log.reseats),
      SummaryJson(Summarize(log.nav_ms, out.config.nav_tail_q)).c_str(),
      SummaryJson(Summarize(log.work_ms, out.config.work_tail_q)).c_str(),
      SummaryJson(Summarize(log.mine_ms)).c_str(),
      SummaryJson(Summarize(log.mine_wait_ms)).c_str(),
      SummaryJson(Summarize(log.lag_ms)).c_str(), kinds.c_str(),
      errors.c_str(), static_cast<unsigned long long>(out.final_nodes),
      static_cast<unsigned long long>(out.final_edges),
      out.stats_before.empty() ? "null" : out.stats_before.c_str(),
      out.stats_after.empty() ? "null" : out.stats_after.c_str(),
      out.extra.empty() ? "" : ",", out.extra.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_load config|gen|run --workload W --seconds T "
               "[--seed S] [--out PREFIX] [--port P] [--store NAME]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    flags[argv[i] + 2] = argv[i + 1];
  }
  Workload workload;
  if (!ParseWorkload(flags["workload"], &workload) || !flags.count("seconds")) {
    return Usage();
  }
  RunArgs args;
  args.config = MakeConfig(workload, std::atoi(flags["seconds"].c_str()));
  args.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  if (command == "config") {
    std::printf("%s\n", ConfigJson(args.config).c_str());
    return 0;
  }
  const Graph g = GenerateGraph(args.config, args.seed);
  if (command == "gen") {
    const std::string prefix = flags["out"];
    if (prefix.empty()) return Usage();
    if (!WriteEdgeList(g, prefix + ".edges") ||
        !WriteLabels(g, prefix + ".labels")) {
      std::fprintf(stderr, "cannot write %s.*\n", prefix.c_str());
      return 1;
    }
    std::printf("{\"nodes\":%u,\"edges\":%zu}\n", g.n, g.edges.size());
    return 0;
  }
  if (command != "run") return Usage();
  args.port = std::atoi(flags["port"].c_str());
  if (flags.count("store")) args.store = flags["store"];
  args.store_file = flags["store-file"];
  RunOutput out;
  out.config = args.config;
  switch (workload) {
    case Workload::kExplore: RunExplore(args, g, &out); break;
    case Workload::kSummarize: RunSummarize(args, g, &out); break;
    case Workload::kEdit: RunEdit(args, g, &out); break;
  }
  PrintRun(out);
  return out.log.failed == 0 ? 0 : 1;
}
