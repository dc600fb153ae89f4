// The session ops every front end shares (docs/SERVER.md): one
// dispatcher for the line protocol's navigation, rendering and query
// ops, called by net::Server (TCP), the gateway's WebSocket
// (docs/HTTP.md) and `gmine serve` (docs/SESSIONS.md), so an op
// answers with the same text on every transport. Each transport keeps
// only what truly differs: its framing, the `open` and `stats` texts,
// the prefetch hint, and which of `edit`/`shutdown` it accepts.
//
// The module also owns the one parser for the edit grammar, shared by
// `gmine edit` scripts and the line protocol's `edit` op.

#ifndef GMINE_NET_SESSION_OPS_H_
#define GMINE_NET_SESSION_OPS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph_edit.h"
#include "gtree/navigation.h"
#include "net/protocol.h"
#include "query/executor.h"
#include "util/status.h"

namespace gmine::net {

/// Executes one session op — root, focus, child, parent, back, locate,
/// load, summary, connectivity, render svg, query, help, ping, close —
/// against `nav`, filling `response->text` (and `body` for render and
/// query) and returning the op's status. The caller must hold `nav`
/// exclusively for the call (SessionManager::WithSession or
/// CatalogSession::With), which also keeps the store's epoch still;
/// `queries` must read `nav.store()`. `close` only answers "bye": ending
/// the connection is the transport's job. Transport-owned ops (open,
/// stats, edit, shutdown) answer NotSupported. `query_stats`, when set,
/// receives a successful query's counters.
Status ExecuteSessionOp(const Request& request, gtree::NavigationSession& nav,
                        const query::Executor& queries, Response* response,
                        query::QueryStats* query_stats = nullptr);

/// "focus=<name> display=<n>": the reply of every focus-moving op, also
/// the tail of each transport's `open` text.
std::string FocusText(const gtree::NavigationSession& nav);

/// One mutation of the edit grammar.
struct EditOp {
  enum class Kind : uint8_t { kAddNode, kAddEdge, kRemoveEdge, kRemoveNode };
  Kind kind = Kind::kAddNode;
  graph::NodeId u = 0;   // edge source; remove-node's node
  graph::NodeId v = 0;   // edge target
  float weight = 1.0f;   // add-edge
  std::string label;     // add-node (may be empty)
};

/// Parses `add-node [LABEL]`, `add-edge U V [W]`, `remove-edge U V` or
/// `remove-node V`. InvalidArgument (naming the expected form) on
/// malformed arguments and unknown keywords.
gmine::Result<EditOp> ParseEditOp(std::string_view line);

/// Queues `op` on `edit`; an add-node's label appends to `labels`.
/// Returns the node the op names: add-node's provisional id, else `u`.
graph::NodeId QueueEditOp(const EditOp& op, graph::GraphEdit* edit,
                          std::vector<std::string>* labels);

}  // namespace gmine::net

#endif  // GMINE_NET_SESSION_OPS_H_
