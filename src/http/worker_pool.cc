#include "http/worker_pool.h"

#include <algorithm>
#include <utility>

namespace gmine::http {

WorkerPool::WorkerPool(int threads) {
  const int n = std::max(1, threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto worker = std::make_unique<Worker>();
    Worker* self = worker.get();
    workers_.push_back(std::move(worker));
    self->thread = std::thread([this, self] { WorkerLoop(self); });
  }
}

WorkerPool::~WorkerPool() { Drain(); }

bool WorkerPool::Submit(std::function<void()> task) {
  Worker* wake = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) return false;
    queue_.push_back(std::move(task));
    if (!idle_.empty()) {
      wake = idle_.back();
      idle_.pop_back();
    }
  }
  if (wake != nullptr) wake->cv.notify_one();
  return true;
}

void WorkerPool::Drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  for (auto& worker : workers_) worker->cv.notify_one();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void WorkerPool::WorkerLoop(Worker* self) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (!queue_.empty()) {
      std::function<void()> task = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
      lock.unlock();
      task();
      task = nullptr;  // its captures go before the counters move
      lock.lock();
      --running_;
      ++completed_;
      continue;
    }
    if (draining_) return;
    idle_.push_back(self);
    self->cv.wait(lock);
    // Submit took us off the stack; a drain or spurious wake-up did not.
    auto it = std::find(idle_.begin(), idle_.end(), self);
    if (it != idle_.end()) idle_.erase(it);
  }
}

WorkerPoolStats WorkerPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  WorkerPoolStats out;
  out.threads = workers_.size();
  out.queued = queue_.size();
  out.running = running_;
  out.completed = completed_;
  return out;
}

}  // namespace gmine::http
