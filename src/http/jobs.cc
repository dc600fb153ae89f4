#include "http/jobs.h"

#include <atomic>
#include <optional>
#include <utility>
#include <vector>

#include "query/executor.h"
#include "util/string_util.h"

namespace gmine::http {

struct JobManager::Job {
  MineJobInfo info;  // guarded by the manager's mu_
  query::ast::MineStatement::Kernel kernel =
      query::ast::MineStatement::Kernel::kPagerank;
  uint32_t top_k = 10;
  std::atomic<bool> cancel{false};
  core::CatalogSession lease;
  bool started = false;   // a worker picked it up (mu_)
  bool finished = false;  // settled; the record is final (mu_)
};

namespace {

std::string PageRankResultJson(const mining::PageRankResult& result,
                               uint32_t top_k) {
  std::string top = "[";
  const std::vector<graph::NodeId> ids =
      mining::TopKByScore(result.score, top_k);
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) top += ",";
    top += StrFormat("{\"id\":%u,\"score\":%.12g}", ids[i],
                     result.score[ids[i]]);
  }
  top += "]";
  return StrFormat(
      "{\"kernel\":\"pagerank\",\"converged\":%s,\"iterations\":%d,"
      "\"final_delta\":%.6g,\"top\":%s}",
      result.converged ? "true" : "false", result.iterations,
      result.final_delta, top.c_str());
}

std::string DegreesResultJson(const mining::DegreeDistribution& d) {
  return StrFormat(
      "{\"kernel\":\"degrees\",\"min\":%u,\"max\":%u,\"mean\":%.6g,"
      "\"powerlaw_slope\":%.6g}",
      d.min_degree, d.max_degree, d.mean_degree, d.powerlaw_slope);
}

std::string ComponentsResultJson(const mining::ComponentResult& c) {
  return StrFormat(
      "{\"kernel\":\"components\",\"num_components\":%u,\"largest\":%u}",
      c.num_components, c.LargestSize());
}

}  // namespace

JobManager::JobManager(core::Catalog* catalog, WorkerPool* pool)
    : catalog_(catalog), pool_(pool) {}

JobManager::~JobManager() { Shutdown(); }

gmine::Result<uint64_t> JobManager::Submit(const std::string& store,
                                           const std::string& kernel,
                                           uint32_t top_k) {
  const std::optional<query::ast::MineStatement::Kernel> parsed =
      query::ast::ParseMineKernel(kernel);
  if (!parsed.has_value()) {
    return Status::InvalidArgument(StrFormat(
        "unknown kernel '%s' (expected pagerank, degrees or components)",
        kernel.c_str()));
  }
  // Lease first so submit reports NotFound / quota errors synchronously.
  GMINE_ASSIGN_OR_RETURN(core::CatalogSession lease,
                         catalog_->AcquireSession(store));
  auto job = std::make_shared<Job>();
  job->info.store = store;
  job->info.kernel = kernel;
  job->kernel = *parsed;
  job->info.state = "running";  // waiting for a worker reads the same
  job->top_k = top_k == 0 ? 10 : top_k;
  job->lease = std::move(lease);
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_ || !pool_->Submit([this, job] { Run(job); })) {
    // `job` (and its lease) outlives the lock: released unlocked.
    return Status::Aborted("job manager shutting down");
  }
  job->info.id = next_id_++;
  ++pool_tasks_;
  jobs_.emplace(job->info.id, job);
  return job->info.id;
}

void JobManager::Run(const std::shared_ptr<Job>& job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (job->finished) {  // cancelled while it waited for a worker
      --pool_tasks_;
      idle_cv_.notify_all();
      return;
    }
    job->started = true;
  }
  const gtree::GTreeStore& store = *job->lease.store();
  mining::PageRankOverPagesOptions options;
  options.context.cancelled = [&job] {
    return job->cancel.load(std::memory_order_relaxed);
  };
  options.context.progress = [this, &job](const mining::KernelProgress& p) {
    std::lock_guard<std::mutex> lock(mu_);
    job->info.progress = p;
  };
  auto mined = query::MineStore(store, job->kernel, options);
  std::string result_json;
  if (mined.ok()) {
    const auto& value = mined.value().value;
    if (const auto* r = std::get_if<mining::PageRankResult>(&value)) {
      result_json = PageRankResultJson(*r, job->top_k);
    } else if (const auto* d =
                   std::get_if<mining::DegreeDistribution>(&value)) {
      result_json = DegreesResultJson(*d);
    } else {
      result_json =
          ComponentsResultJson(std::get<mining::ComponentResult>(value));
    }
  }
  const char* engine = query::MineEngine(store);
  const Status status = mined.status();

  job->lease.Release();
  std::lock_guard<std::mutex> lock(mu_);
  job->info.engine = engine;
  if (status.ok()) {
    job->info.state = "done";
    job->info.result_json = std::move(result_json);
  } else if (status.IsAborted() &&
             job->cancel.load(std::memory_order_relaxed)) {
    job->info.state = "cancelled";
    job->info.error = status.message();
  } else {
    job->info.state = "failed";
    job->info.error = status.message();
  }
  job->finished = true;
  --pool_tasks_;
  // Under mu_: once pool_tasks_ reads 0, Shutdown may return and the
  // manager go away.
  idle_cv_.notify_all();
}

core::CatalogSession JobManager::CancelLocked(Job* job) {
  job->cancel.store(true, std::memory_order_relaxed);
  if (job->started) return {};  // the kernel notices and settles it
  job->info.state = "cancelled";
  job->info.error = "cancelled before it started";
  job->finished = true;
  return std::move(job->lease);
}

gmine::Result<MineJobInfo> JobManager::Get(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound(StrFormat("no job %llu",
                                      (unsigned long long)id));
  }
  return it->second->info;
}

gmine::Result<MineJobInfo> JobManager::Cancel(uint64_t id, bool* removed) {
  core::CatalogSession lease;  // released after the lock drops
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound(StrFormat("no job %llu",
                                      (unsigned long long)id));
  }
  const std::shared_ptr<Job> job = it->second;
  *removed = job->finished;
  if (job->finished) {
    jobs_.erase(it);
  } else {
    lease = CancelLocked(job.get());
  }
  return job->info;
}

void JobManager::Shutdown() {
  std::vector<core::CatalogSession> leases;  // released after the lock
  std::unique_lock<std::mutex> lock(mu_);
  stopping_ = true;
  for (auto& [id, job] : jobs_) {
    if (!job->finished) leases.push_back(CancelLocked(job.get()));
  }
  idle_cv_.wait(lock, [this] { return pool_tasks_ == 0; });
}

size_t JobManager::jobs_now() const {
  std::lock_guard<std::mutex> lock(mu_);
  return jobs_.size();
}

}  // namespace gmine::http
