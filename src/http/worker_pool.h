// The front ends' worker pool (docs/HTTP.md): a fixed set of threads
// that run queued tasks in FIFO order. The gateway's REST requests that
// lease a store and its mine jobs run here, and so do the line
// protocol's `query` and `edit apply` (net::Server), so a long query,
// kernel or group commit never stalls the reactor's event loops.
//
// A new task wakes the most recently idle worker, so a serial stream of
// requests stays on one thread: its caches stay warm, and only its
// malloc arena grows to the requests' working set. Waking the longest
// idle one instead spread perfbench summarize's extractions and
// PageRank jobs over both workers, whose arenas then each held that
// working set: the gateway's peak RSS rose from 26 to 33 MB on a 4-CPU
// host, where this order keeps it at 25 MB.
//
// The queue itself is unbounded; its callers bound it. Each connection
// has at most one request in the pool (the connection stops reading
// until that request is answered), connections are capped, and each
// job holds a catalog session lease under the store's quota.

#ifndef GMINE_HTTP_WORKER_POOL_H_
#define GMINE_HTTP_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gmine::http {

struct WorkerPoolStats {
  size_t threads = 0;
  size_t queued = 0;       // submitted, waiting for a worker
  size_t running = 0;      // on a worker right now
  uint64_t completed = 0;  // finished since start
};

class WorkerPool {
 public:
  /// Starts `threads` workers (at least 1).
  explicit WorkerPool(int threads);
  /// Drains.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Queues `task`. False once Drain has begun; the task is dropped.
  bool Submit(std::function<void()> task);

  /// Stops accepting work, runs every task already queued to
  /// completion and joins the workers. Idempotent; must not be called
  /// from a worker.
  void Drain();

  WorkerPoolStats stats() const;

 private:
  struct Worker {
    std::condition_variable cv;  // Submit wakes this worker alone
    std::thread thread;
  };

  void WorkerLoop(Worker* self);

  mutable std::mutex mu_;
  std::deque<std::function<void()>> queue_;
  std::vector<Worker*> idle_;  // waiting workers, most recently idle last
  bool draining_ = false;
  size_t running_ = 0;
  uint64_t completed_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace gmine::http

#endif  // GMINE_HTTP_WORKER_POOL_H_
