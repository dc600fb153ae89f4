#include "core/session_manager.h"

#include <chrono>

#include "util/string_util.h"

namespace gmine::core {

namespace {

int64_t SteadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* SessionCloseReasonName(SessionCloseReason reason) {
  switch (reason) {
    case SessionCloseReason::kClosed: return "closed";
    case SessionCloseReason::kEvicted: return "evicted";
    case SessionCloseReason::kIdle: return "idle";
  }
  return "?";
}

SessionManager::SessionManager(const gtree::GTreeStore* store,
                               SessionManagerOptions options)
    : store_(store), options_(options) {}

/// RAII dispatch registration against the epoch gate: construction
/// blocks while an epoch update is pending or running, destruction
/// wakes a waiting updater once the in-flight count drains.
class SessionManager::DispatchGuard {
 public:
  explicit DispatchGuard(const SessionManager* mgr) : mgr_(mgr) {
    std::unique_lock<std::mutex> lock(mgr_->epoch_gate_mu_);
    mgr_->epoch_cv_.wait(lock,
                         [&] { return !mgr_->epoch_update_pending_; });
    ++mgr_->active_dispatches_;
  }
  ~DispatchGuard() {
    std::lock_guard<std::mutex> lock(mgr_->epoch_gate_mu_);
    if (--mgr_->active_dispatches_ == 0) mgr_->epoch_cv_.notify_all();
  }
  DispatchGuard(const DispatchGuard&) = delete;
  DispatchGuard& operator=(const DispatchGuard&) = delete;

 private:
  const SessionManager* mgr_;
};

void SessionManager::set_on_session_closed(
    std::function<void(SessionId, SessionCloseReason)> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  on_session_closed_ = std::move(fn);
}

void SessionManager::Touch(SessionId id) {
  auto pos = lru_pos_.find(id);
  if (pos != lru_pos_.end()) {
    lru_.splice(lru_.begin(), lru_, pos->second);
  }
}

void SessionManager::Erase(SessionId id) {
  auto pos = lru_pos_.find(id);
  if (pos != lru_pos_.end()) {
    lru_.erase(pos->second);
    lru_pos_.erase(pos);
  }
  sessions_.erase(id);
}

gmine::Result<SessionId> SessionManager::OpenSession(bool pinned) {
  // Registered as a dispatch: the new session reads the store's tree,
  // which an in-flight UpdateEpoch may be mutating.
  DispatchGuard guard(this);
  SessionId victim = 0;
  std::function<void(SessionId, SessionCloseReason)> hook;
  SessionId id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.max_sessions > 0 &&
        sessions_.size() >= options_.max_sessions) {
      // Evict the least-recently-used unpinned session (back of the
      // list).
      bool found = false;
      for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
        if (!sessions_.at(*it)->pinned) {
          victim = *it;
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::Aborted(
            StrFormat("session pool at cap %zu with every session pinned",
                      options_.max_sessions));
      }
      Erase(victim);
      ++stats_.evicted;
      hook = on_session_closed_;
    }
    id = next_id_++;
    auto entry = std::make_shared<Entry>();
    entry->session = std::make_unique<gtree::NavigationSession>(
        store_, options_.tomahawk);
    entry->last_active = SteadyMicros();
    entry->pinned = pinned;
    sessions_.emplace(id, std::move(entry));
    lru_.push_front(id);
    lru_pos_[id] = lru_.begin();
    ++stats_.opened;
  }
  if (hook) hook(victim, SessionCloseReason::kEvicted);
  return id;
}

Status SessionManager::CloseSession(SessionId id) {
  std::function<void(SessionId, SessionCloseReason)> hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.find(id) == sessions_.end()) {
      return Status::NotFound(
          StrFormat("session %llu is not open (already closed or evicted?)",
                    static_cast<unsigned long long>(id)));
    }
    Erase(id);
    ++stats_.closed;
    hook = on_session_closed_;
  }
  if (hook) hook(id, SessionCloseReason::kClosed);
  return Status::OK();
}

Status SessionManager::WithSession(
    SessionId id, const std::function<Status(gtree::NavigationSession&)>& fn) {
  // Registered for the whole dispatch: an ApplyEdit epoch bump
  // (UpdateEpoch) waits for in-flight callbacks and parks new ones, so
  // a callback never observes the store mid-mutation.
  DispatchGuard guard(this);
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return Status::NotFound(
          StrFormat("session %llu is not open (already closed or evicted?)",
                    static_cast<unsigned long long>(id)));
    }
    entry = it->second;
    entry->last_active = SteadyMicros();
    Touch(id);
  }
  // The shared_ptr keeps the entry alive even if the session is closed
  // or evicted while fn runs; the per-entry mutex serializes callbacks
  // on this session without blocking any other session.
  std::lock_guard<std::mutex> lock(entry->mu);
  return fn(*entry->session);
}

Status SessionManager::UpdateEpoch(
    const std::function<gmine::Result<const gtree::GTreeStore*>()>&
        update) {
  // Close the gate (parking new dispatches immediately) and wait for
  // every in-flight one to drain. Serializes against concurrent
  // updaters via the pending flag itself.
  {
    std::unique_lock<std::mutex> lock(epoch_gate_mu_);
    epoch_cv_.wait(lock, [&] { return !epoch_update_pending_; });
    epoch_update_pending_ = true;
    epoch_cv_.wait(lock, [&] { return active_dispatches_ == 0; });
  }
  // Reopen the gate on every exit path.
  struct GateOpener {
    SessionManager* mgr;
    ~GateOpener() {
      std::lock_guard<std::mutex> lock(mgr->epoch_gate_mu_);
      mgr->epoch_update_pending_ = false;
      mgr->epoch_cv_.notify_all();
    }
  } opener{this};

  auto published = update();
  if (!published.ok()) return published.status();
  if (published.value() == nullptr) {
    return Status::InvalidArgument("UpdateEpoch: update returned no store");
  }
  std::lock_guard<std::mutex> lock(mu_);
  store_ = published.value();
  for (auto& [id, entry] : sessions_) {
    // The closed gate proved no WithSession callback is running, but
    // ListSessions reads pooled sessions under only the entry lock (it
    // is not a gated dispatch) — so take it for the swap.
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    entry->session = std::make_unique<gtree::NavigationSession>(
        store_, options_.tomahawk);
    entry->last_active = SteadyMicros();
  }
  epoch_.fetch_add(1);
  return Status::OK();
}

bool SessionManager::Contains(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.find(id) != sessions_.end();
}

bool SessionManager::TouchSession(SessionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  it->second->last_active = SteadyMicros();
  Touch(id);
  return true;
}

size_t SessionManager::CloseIdleSessions() {
  if (options_.idle_timeout_micros <= 0) return 0;
  std::vector<SessionId> idle;
  std::function<void(SessionId, SessionCloseReason)> hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t now = SteadyMicros();
    for (const auto& [id, entry] : sessions_) {
      if (entry->pinned) continue;
      if (now - entry->last_active >= options_.idle_timeout_micros) {
        idle.push_back(id);
      }
    }
    for (SessionId id : idle) Erase(id);
    stats_.idle_closed += idle.size();
    hook = on_session_closed_;
  }
  if (hook) {
    for (SessionId id : idle) hook(id, SessionCloseReason::kIdle);
  }
  return idle.size();
}

std::vector<SessionInfo> SessionManager::ListSessions() const {
  // Snapshot the entries under mu_, then read each session under its
  // own lock with mu_ released — a slow WithSession callback delays
  // only its own row, never the pool's open/close/dispatch path.
  std::vector<std::pair<SessionId, std::shared_ptr<Entry>>> snapshot;
  int64_t now = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    now = SteadyMicros();
    snapshot.reserve(lru_.size());
    for (SessionId id : lru_) {
      snapshot.emplace_back(id, sessions_.at(id));
    }
  }
  std::vector<SessionInfo> out;
  out.reserve(snapshot.size());
  for (const auto& [id, entry] : snapshot) {
    SessionInfo info;
    info.id = id;
    info.idle_micros = now - entry->last_active;
    info.pinned = entry->pinned;
    if (!entry->pinned) {
      // Pooled sessions are only ever driven under entry->mu, so this
      // locked read is race-free. Pinned sessions may be mutated
      // through an unlocked raw pointer (PinnedSession / the engine's
      // session()), so reading their state here would race — their
      // rows report identity and idle time only.
      std::lock_guard<std::mutex> session_lock(entry->mu);
      info.focus = entry->session->focus();
      info.interactions = entry->session->interactions();
    }
    out.push_back(info);
  }
  return out;
}

SessionPoolStats SessionManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SessionPoolStats out = stats_;
  out.open_now = sessions_.size();
  return out;
}

size_t SessionManager::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

gtree::NavigationSession* SessionManager::PinnedSession(SessionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end() || !it->second->pinned) return nullptr;
  return it->second->session.get();
}

}  // namespace gmine::core
