// Deterministic task-pool parallelism (the repo's single concurrency
// entry point — rush_analyze's raw-thread rule keeps std::thread and
// OpenMP out of every other translation unit).
//
// A TaskPool is a fixed set of worker threads plus the calling thread.
// Its one primitive, parallel_for_indexed(n, body), runs body(i) exactly
// once for every i in [0, n) and returns when all of them finished. The
// determinism contract is structural, not temporal: bodies must be
// mutually independent — each writes only state owned by its own index
// (results[i]), and any randomness is drawn from seeds prepared *before*
// the dispatch (the pattern Forest::fit established). Under that
// contract the results are bit-identical for every worker count,
// including the inline serial path, because the same pure function runs
// over the same index set; only wall-clock changes.
//
// Nesting is safe and cheap: a parallel_for_indexed issued from inside a
// worker runs its loop inline on that worker (no new threads, no
// deadlock), so composed layers — experiments fanning out trials, trials
// fitting forests — degrade gracefully instead of oversubscribing.
//
// Exceptions: the first exception thrown by any body aborts the batch
// (indices not yet claimed are skipped) and is rethrown on the calling
// thread once in-flight bodies drain.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rush {

class TaskPool {
 public:
  /// A pool of `jobs` participants: jobs - 1 worker threads plus the
  /// thread that calls parallel_for_indexed. jobs == 1 spawns nothing
  /// and runs every dispatch inline (the strictly serial path).
  explicit TaskPool(int jobs);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Total participants (worker threads + caller).
  [[nodiscard]] int jobs() const noexcept { return jobs_; }

  /// Run body(i) for every i in [0, n); returns once all completed.
  /// Deterministic under the independence contract above. Safe to call
  /// concurrently from several threads and from inside pool workers
  /// (nested dispatches run inline).
  void parallel_for_indexed(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Default parallelism: $RUSH_JOBS when set (clamped to >= 1), else
  /// std::thread::hardware_concurrency(), else 1. Throws ParseError when
  /// $RUSH_JOBS is not an integer or exceeds INT_MAX.
  [[nodiscard]] static int default_jobs();

 private:
  struct Batch;

  void worker_loop();
  /// Claim-and-run loop shared by workers and the dispatching caller.
  /// `lock` holds mu_ on entry and exit.
  void work_on(const std::shared_ptr<Batch>& batch, std::unique_lock<std::mutex>& lock);

  int jobs_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: queue non-empty or stopping
  std::condition_variable done_cv_;  // dispatchers: batch finished
  // rush: guarded_by(mu_)
  std::deque<std::shared_ptr<Batch>> queue_;
  // rush: guarded_by(mu_)
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// The process-wide pool shared by layers with no jobs knob of their own
/// (ml tree fitting, cross-validation folds). Sized on first use:
/// set_shared_jobs() if called, else TaskPool::default_jobs().
TaskPool& shared_pool();

/// Fix the shared pool's size. Must run before the first shared_pool()
/// call (bench drivers invoke it while parsing --jobs); throws once the
/// pool exists with a different size.
void set_shared_jobs(int jobs);

/// Dispatch-by-policy helper used by layers with a jobs config field:
///   jobs == 1  -> inline serial loop (no pool, no threads)
///   jobs <= 0  -> the shared pool (RUSH_JOBS / hardware default)
///   jobs >  1  -> a dedicated pool of that width for this call, giving
///                 real concurrency even when the shared pool is narrow
///                 (differential and TSan tests rely on this).
void parallel_for_indexed(int jobs, std::size_t n,
                          const std::function<void(std::size_t)>& body);

}  // namespace rush
