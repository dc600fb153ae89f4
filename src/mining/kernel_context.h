// KernelContext — the one execution-environment knob block shared by
// every mining kernel (docs/OUTOFCORE.md). Each kernel's Options struct
// embeds one instead of growing its own threads/budget/cancel fields.
//
// The context also carries what long-running, page-at-a-time kernels
// (mining/pagescan_kernels.h) need: a cooperative cancellation hook
// polled at page boundaries and a progress callback, both wired by the
// HTTP mine-job endpoint (src/http/jobs.h) and `gmine mine`.

#ifndef GMINE_MINING_KERNEL_CONTEXT_H_
#define GMINE_MINING_KERNEL_CONTEXT_H_

#include <cstdint>
#include <functional>

namespace gmine::mining {

/// A progress snapshot reported by page-at-a-time kernels at page
/// boundaries (and by iterative kernels at sweep boundaries).
struct KernelProgress {
  /// Completed full passes over the input (PageRank sweeps, etc.).
  uint32_t iteration = 0;
  /// Pages visited within the current pass.
  uint64_t pages_scanned = 0;
  /// Pages one full pass visits (0 when the source is not paged).
  uint64_t pages_total = 0;
  /// Convergence residual after the last completed pass (kernels that
  /// have one; 0 otherwise).
  double delta = 0.0;
};

/// Execution environment for a mining kernel: parallelism, memory
/// budget, cancellation and progress reporting. Default-constructed it
/// means "auto threads, no budget, run to completion silently" — every
/// kernel accepts that.
struct KernelContext {
  /// Worker threads (util/parallel.h semantics): 0 = auto, 1 = serial.
  int threads = 0;

  /// Soft memory budget for the kernel's working set, in bytes. 0 = no
  /// budget. Page-at-a-time kernels additionally run under the buffer
  /// pool's hard byte budget (--mem-budget-mb), which governs page
  /// residency; this field sizes kernel-private state such as the
  /// external sorter's run buffers.
  uint64_t mem_budget_bytes = 0;

  /// Cooperative cancellation: polled at page/sweep boundaries. Return
  /// true to stop; the kernel returns Status::Aborted (after writing a
  /// checkpoint when one was requested). Unset = never cancelled.
  std::function<bool()> cancelled;

  /// Progress hook, invoked from the kernel thread at page/sweep
  /// boundaries. Must be cheap and must not call back into the kernel.
  std::function<void(const KernelProgress&)> progress;

  /// True when the cancellation hook asks to stop.
  bool IsCancelled() const { return cancelled && cancelled(); }

  /// Reports progress when a hook is set.
  void Report(const KernelProgress& p) const {
    if (progress) progress(p);
  }
};

}  // namespace gmine::mining

#endif  // GMINE_MINING_KERNEL_CONTEXT_H_
