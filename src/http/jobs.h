// Long-running mining jobs for the gateway (docs/HTTP.md): POST
// /api/v1/stores/NAME/mine submits one, GET /api/v1/jobs/ID polls it,
// DELETE /api/v1/jobs/ID cancels a running job or forgets a finished
// one. Each job runs on its own worker thread, pins the store with a
// catalog session lease for its whole lifetime, and drives the kernel
// through a mining::KernelContext — cancellation flips the context's
// flag (the kernel notices at the next page/iteration boundary) and
// progress updates land in the pollable job record.
//
// The kernel runs through query::MineStore, which picks the engine:
// streamed (out-of-core) stores mine page-at-a-time under the page
// kernels, legacy stores run the in-memory kernels over the store's
// shared full graph. The job record says which engine ran.

#ifndef GMINE_HTTP_JOBS_H_
#define GMINE_HTTP_JOBS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/catalog.h"
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

/// Owns the mine-job workers. Thread-safe. The catalog must outlive it.
class JobManager {
 public:
  explicit JobManager(core::Catalog* catalog);
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Starts a job: leases `store` (NotFound/Aborted surface here, not
  /// later), spawns the worker, returns the job id. `kernel` is one of
  /// pagerank, degrees, components; `top_k` bounds the pagerank result
  /// listing.
  gmine::Result<uint64_t> Submit(const std::string& store,
                                 const std::string& kernel,
                                 uint32_t top_k);

  /// Snapshot of one job. NotFound for unknown ids.
  gmine::Result<MineJobInfo> Get(uint64_t id) const;

  /// Running job: requests cancellation (state flips to "cancelled"
  /// once the kernel yields) and returns the snapshot. Finished job:
  /// removes the record and returns its final snapshot. `removed`
  /// reports which of the two happened.
  gmine::Result<MineJobInfo> Cancel(uint64_t id, bool* removed);

  /// Cancels everything and joins all workers. Idempotent; the
  /// destructor calls it.
  void Shutdown();

  size_t jobs_now() const;

 private:
  struct Job;

  void Run(Job* job);

  core::Catalog* catalog_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  bool stopping_ = false;
  std::map<uint64_t, std::unique_ptr<Job>> jobs_;
};

}  // namespace gmine::http

#endif  // GMINE_HTTP_JOBS_H_
