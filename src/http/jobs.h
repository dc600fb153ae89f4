// Long-running mining jobs for the gateway (docs/HTTP.md): POST
// /api/v1/stores/NAME/mine submits one, GET /api/v1/jobs/ID polls it,
// DELETE /api/v1/jobs/ID cancels a job or forgets a finished one. Jobs
// queue on the gateway's worker pool beside its REST requests; a job
// waiting for a worker reads "running" with zero progress. Each job
// pins the store with a catalog session lease from submit to settle,
// and drives the kernel through a mining::KernelContext — cancellation
// flips the context's flag (the kernel notices at the next
// page/iteration boundary) and progress updates land in the pollable
// job record.
//
// The kernel runs through query::MineStore, which picks the engine:
// streamed (out-of-core) stores mine page-at-a-time under the page
// kernels, legacy stores run the in-memory kernels over the store's
// shared full graph. The job record says which engine ran.

#ifndef GMINE_HTTP_JOBS_H_
#define GMINE_HTTP_JOBS_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/catalog.h"
#include "http/worker_pool.h"
#include "mining/kernel_context.h"
#include "util/status.h"

namespace gmine::http {

/// One pollable job record (a snapshot; the live job keeps moving).
struct MineJobInfo {
  uint64_t id = 0;
  std::string store;
  std::string kernel;   // "pagerank" | "degrees" | "components"
  std::string state;    // "running" | "done" | "failed" | "cancelled"
  std::string engine;   // "pages" | "in-memory" ("" until decided)
  mining::KernelProgress progress;
  /// JSON result object, set once state == "done".
  std::string result_json;
  /// Failure message, set once state == "failed" / "cancelled".
  std::string error;
};

/// Owns the mine-job records and runs the jobs on `pool`. Thread-safe.
/// The catalog must outlive it, and the pool must keep running until
/// Shutdown returns.
class JobManager {
 public:
  JobManager(core::Catalog* catalog, WorkerPool* pool);
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Starts a job: leases `store` (NotFound/Aborted surface here, not
  /// later), queues it on the pool, returns the job id. `kernel` is one
  /// of pagerank, degrees, components; `top_k` bounds the pagerank
  /// result listing.
  gmine::Result<uint64_t> Submit(const std::string& store,
                                 const std::string& kernel,
                                 uint32_t top_k);

  /// Snapshot of one job. NotFound for unknown ids.
  gmine::Result<MineJobInfo> Get(uint64_t id) const;

  /// Job waiting for a worker: settles it "cancelled" without running
  /// it. Running job: requests cancellation (state flips to
  /// "cancelled" once the kernel yields). Either way returns the
  /// snapshot. Finished job: removes the record and returns its final
  /// snapshot. `removed` reports which happened.
  gmine::Result<MineJobInfo> Cancel(uint64_t id, bool* removed);

  /// Refuses new jobs, cancels every unfinished one as Cancel does,
  /// and waits until none is queued or running. The records stay
  /// readable through Get. Idempotent; the destructor calls it.
  void Shutdown();

  size_t jobs_now() const;

 private:
  struct Job;

  void Run(const std::shared_ptr<Job>& job);
  /// Cancels an unfinished job (mu_ held). A job that never started
  /// settles now and hands back its lease, to release outside mu_.
  core::CatalogSession CancelLocked(Job* job);

  core::Catalog* catalog_;
  WorkerPool* pool_;
  mutable std::mutex mu_;
  std::condition_variable idle_cv_;  // signalled as pool_tasks_ drops
  uint64_t next_id_ = 1;
  bool stopping_ = false;
  size_t pool_tasks_ = 0;  // this manager's tasks queued or running
  std::map<uint64_t, std::shared_ptr<Job>> jobs_;
};

}  // namespace gmine::http

#endif  // GMINE_HTTP_JOBS_H_
