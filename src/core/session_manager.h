// Concurrent session pool: one read-only GTreeStore serving many
// independent interactive navigators. The TKDE follow-up and web-based
// GMine deployments frame the system as a multi-user service over a
// single summarized graph; this is that service layer.
//
// Each session is an id-addressed gtree::NavigationSession. The manager
// owns the sessions (never the store), serializes access to each one,
// evicts the least-recently-used session past a configurable cap, and
// can close sessions idle beyond a timeout. The only state sessions
// share is the store's slice of the process-wide buffer pool
// (storage/buffer_pool.h), whose frame table is latch-sharded, so
// navigators scale with the thread count instead of serializing on the
// pool. On UpdateEpoch the store invalidates only the frames the edit
// touched (GTreeStore::ApplyUpdate rekeys surviving pages); sessions
// re-seat on the new root with the rest of the cache warm.
//
// Thread-safety contract
//   * OpenSession / CloseSession / WithSession / ListSessions / stats
//     may be called from any thread.
//   * WithSession holds that session's exclusive lock for the duration
//     of the callback; two callbacks on the *same* session serialize,
//     callbacks on different sessions run concurrently.
//   * Do not call back into the manager from inside a WithSession
//     callback (self-deadlock on the same session; lock-order inversion
//     across sessions).
//   * A session closed or evicted while a WithSession callback is
//     running finishes that callback on the detached session, which is
//     destroyed afterwards.

#ifndef GMINE_CORE_SESSION_MANAGER_H_
#define GMINE_CORE_SESSION_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "gtree/navigation.h"
#include "gtree/store.h"
#include "gtree/tomahawk.h"
#include "util/status.h"

namespace gmine::core {

/// Identifies one open session. Ids are never reused within a manager.
using SessionId = uint64_t;

/// Why a session left the pool (the close-hook's second argument).
enum class SessionCloseReason : uint8_t {
  kClosed,   // explicit CloseSession
  kEvicted,  // LRU eviction past max_sessions
  kIdle,     // reaped by CloseIdleSessions
};

/// Returns "closed", "evicted" or "idle".
const char* SessionCloseReasonName(SessionCloseReason reason);

/// Session-pool tunables.
struct SessionManagerOptions {
  /// Open sessions kept at most; opening past the cap evicts the
  /// least-recently-used unpinned session. 0 means unbounded.
  size_t max_sessions = 64;
  /// Sessions idle at least this long are closed by CloseIdleSessions().
  /// 0 disables idle collection.
  int64_t idle_timeout_micros = 0;
  /// Navigation context options handed to every new session.
  gtree::TomahawkOptions tomahawk;
};

/// Point-in-time description of one open session (ListSessions). For
/// pinned sessions only `id`, `idle_micros` and `pinned` are filled:
/// their state may be mutated through an unlocked raw pointer
/// (PinnedSession), so ListSessions does not read it.
struct SessionInfo {
  SessionId id = 0;
  gtree::TreeNodeId focus = gtree::kInvalidTreeNode;
  size_t interactions = 0;     // gestures recorded over its lifetime
  int64_t idle_micros = 0;     // time since the last WithSession
  bool pinned = false;
};

/// Cumulative pool counters.
struct SessionPoolStats {
  uint64_t opened = 0;     // sessions ever opened
  uint64_t closed = 0;     // explicit CloseSession calls that succeeded
  uint64_t evicted = 0;    // LRU evictions past max_sessions
  uint64_t idle_closed = 0;  // sessions reaped by CloseIdleSessions
  size_t open_now = 0;     // sessions currently open
};

/// A pool of NavigationSessions over one shared read-only store.
class SessionManager {
 public:
  /// The store must outlive the manager and every handed-out session.
  explicit SessionManager(const gtree::GTreeStore* store,
                          SessionManagerOptions options = {});

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Opens a new session focused at the root and returns its id.
  /// Past max_sessions the least-recently-used unpinned session is
  /// evicted first; fails with Aborted when the cap is reached and every
  /// session is pinned. Pinned sessions are never evicted (the engine's
  /// embedded default session uses this).
  gmine::Result<SessionId> OpenSession(bool pinned = false);

  /// Closes a session. NotFound on an unknown, already-closed or
  /// evicted id — closing twice is an error, not a no-op.
  Status CloseSession(SessionId id);

  /// Runs `fn` with exclusive access to session `id`, refreshing its
  /// recency. Returns NotFound for unknown/closed/evicted ids,
  /// otherwise whatever `fn` returns.
  Status WithSession(SessionId id,
                     const std::function<Status(gtree::NavigationSession&)>& fn);

  /// True when `id` is currently open.
  bool Contains(SessionId id) const;

  /// Refreshes `id`'s recency and idle clock without dispatching a
  /// callback — a keepalive for hosts whose requests do not all touch
  /// the session (net::Server's connection-level ops, stats and edit).
  /// False for unknown/closed/evicted ids.
  bool TouchSession(SessionId id);

  /// Closes every unpinned session idle at least
  /// `options.idle_timeout_micros` (no-op when that is 0). Returns the
  /// number closed.
  size_t CloseIdleSessions();

  /// Open-session descriptions, most recently used first.
  std::vector<SessionInfo> ListSessions() const;

  /// Cumulative pool counters.
  SessionPoolStats stats() const;

  /// Number of sessions currently open.
  size_t size() const;

  /// The shared store.
  const gtree::GTreeStore& store() const { return *store_; }

  /// Installs (or clears, with nullptr-like empty fn) the close hook:
  /// invoked once per session removed from the pool, for any reason,
  /// with the pool's internal lock released — hosts that own
  /// connection-scoped sessions (net::Server) use it to close the
  /// connection when the pool reaps its session. The hook runs on
  /// whichever thread triggered the removal and must not call back
  /// into the manager.
  void set_on_session_closed(
      std::function<void(SessionId, SessionCloseReason)> fn);

  /// Direct, unlocked access to a *pinned* session for single-threaded
  /// embedding (GMineEngine's legacy `session()` accessor). The pointer
  /// stays valid until the session is closed, the manager destroyed or
  /// an epoch bump re-seats the pool (UpdateEpoch — re-fetch afterwards);
  /// returns nullptr for unknown or unpinned ids — unpinned sessions may
  /// be evicted at any time, so handing out raw pointers to them would
  /// dangle. A session driven through this raw pointer must not also be
  /// driven through WithSession from another thread: the raw path takes
  /// no lock, so the two would race. Multi-threaded hosts sweeping
  /// ListSessions() ids should skip rows with `pinned == true` — those
  /// belong to an embedding that drives them directly.
  gtree::NavigationSession* PinnedSession(SessionId id);

  /// Publishes a new store state to a *live* pool (the ApplyEdit epoch
  /// bump, docs/EDITS.md): blocks until every in-flight WithSession
  /// callback drains, keeps new ones (and OpenSession) parked, runs
  /// `update` — which may mutate the current store in place or return a
  /// different store pointer to adopt — then re-opens every session over
  /// the published store. Session ids, pinned flags and the close hook
  /// all survive; focus/history/context reset to the new root, so no
  /// session can ever observe pre-edit tree ids against post-edit data
  /// (no stale reads). On error nothing is re-seated and the epoch does
  /// not advance. Deadlocks if called from inside a WithSession
  /// callback — never do that.
  Status UpdateEpoch(
      const std::function<gmine::Result<const gtree::GTreeStore*>()>&
          update);

  /// Number of successful UpdateEpoch calls so far.
  uint64_t epoch() const { return epoch_.load(); }

 private:
  struct Entry {
    std::unique_ptr<gtree::NavigationSession> session;
    std::mutex mu;  // serializes WithSession callbacks
    // Steady micros of the last dispatch; atomic so ListSessions can
    // read it from its lock-free snapshot.
    std::atomic<int64_t> last_active{0};
    bool pinned = false;
  };

  /// Callers hold mu_. Moves `id` to the front of the recency list.
  void Touch(SessionId id);
  /// Callers hold mu_. Removes `id` from every index.
  void Erase(SessionId id);

  const gtree::GTreeStore* store_;
  SessionManagerOptions options_;

  // Epoch gate: WithSession callbacks and OpenSession register as
  // dispatches; UpdateEpoch raises `epoch_update_pending_` (parking new
  // dispatches immediately — writer priority, so a relentless stream of
  // navigators can never starve an edit), waits for the in-flight count
  // to drain, runs the update, then reopens the gate. A plain
  // shared_mutex would starve the writer on glibc, whose rwlock prefers
  // readers. Ordering: the gate before mu_.
  class DispatchGuard;
  mutable std::mutex epoch_gate_mu_;
  mutable std::condition_variable epoch_cv_;
  mutable int active_dispatches_ = 0;
  mutable bool epoch_update_pending_ = false;
  std::atomic<uint64_t> epoch_{0};

  // Close-hook plumbing: guarded by mu_ for installation, copied out
  // and invoked with mu_ released so the hook can take its own locks.
  std::function<void(SessionId, SessionCloseReason)> on_session_closed_;

  mutable std::mutex mu_;  // guards the maps, the LRU list and counters
  std::unordered_map<SessionId, std::shared_ptr<Entry>> sessions_;
  std::list<SessionId> lru_;  // front = most recently used
  std::unordered_map<SessionId, std::list<SessionId>::iterator> lru_pos_;
  SessionId next_id_ = 1;
  SessionPoolStats stats_;
};

}  // namespace gmine::core

#endif  // GMINE_CORE_SESSION_MANAGER_H_
