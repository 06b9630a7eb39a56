// Batch scheduler: FCFS(+EASY) baseline and the RUSH modification.
//
// Algorithm 1 (paper §IV-B): each scheduling pass walks the queue in R1
// order, starting every job that fits; the first job that does not fit
// gets a reservation at the earliest time enough nodes free up, and the
// remaining jobs are EASY-backfilled in R2 order if they neither exceed
// the free nodes nor delay the reservation.
//
// Algorithm 2: Start(j) consults the variability oracle when RUSH is
// enabled; a job predicted to vary (and still under its skip threshold)
// is put back on the queue instead of launched. The skipped job keeps its
// place at the head of the queue ("remains at the top", the prose
// reading) or moves one slot back ("push after front", the pseudocode
// reading) depending on SkipPlacement.
//
// Incremental core (DESIGN.md §14): this is the optimized scheduler. A
// pass is O(work done) rather than O(state held):
//  - jobs live in a dense table indexed by JobId (ids are allocated
//    densely from 1 by this scheduler), so every lookup is an array
//    index instead of a hash probe;
//  - the ready queue is kept sorted in main-policy order, so inserts are
//    a binary search (O(log n) policy evaluations) and the launch-path
//    erase is a binary search instead of a linear std::find;
//  - running jobs' walltime-estimate end times are maintained in a
//    sorted reservation timeline updated on launch/completion/requeue,
//    so compute_reservation no longer re-sorts every running job each
//    pass;
//  - per-pass containers (queue snapshot, backfill candidates, trace
//    scores) are member scratch buffers, and "delayed this pass" is a
//    pass-numbered stamp per job, so a steady-state pass that launches
//    nothing performs no allocation at all.
// Every scheduling decision — launch order, node assignments, trace
// bytes — is pinned by the golden digests in tests/sched/test_golden.cpp;
// bench/bench_micro_sched.cpp measures the pass latency and allocation
// count.
#pragma once

#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "apps/execution.hpp"
#include "cluster/allocator.hpp"
#include "sched/job.hpp"
#include "sched/oracle.hpp"
#include "sched/policy.hpp"

namespace rush::faults {
class FaultInjector;
struct NodeFaultEvent;
}  // namespace rush::faults

namespace rush::obs {
class Counter;
class EventTrace;
class Histogram;
class MetricsRegistry;
struct CandidateScore;
}  // namespace rush::obs

namespace rush::sched {

enum class SkipPlacement : std::uint8_t { Front, AfterFront };

/// Bucket count of the sched.queue_depth histogram: a Log2 layout over
/// [1, 16384) at two buckets per octave. The old shape was uniform
/// [0, 256) x 64, which clipped every deeper queue into one overflow
/// bucket; the geometric layout keeps relative resolution out to 16k
/// jobs while depth 0 lands in the (exactly counted) underflow bucket.
inline constexpr std::size_t kQueueDepthBuckets = 28;

struct SchedulerConfig {
  bool enable_backfill = true;  // EASY
  /// Consult the oracle in Start() (Algorithm 2). Requires an oracle.
  bool rush_enabled = false;
  /// Also delay jobs predicted to vary a little; a predicted variation
  /// always delays ("variation labels" in Algorithm 2).
  bool delay_on_little_variation = false;
  SkipPlacement skip_placement = SkipPlacement::Front;
  /// A pass that delays jobs while nothing is running re-arms itself
  /// after this long so delayed jobs cannot stall the system.
  double retry_period_s = 30.0;
  /// Minimum spacing between oracle evaluations for one job. Scheduling
  /// passes can fire every few seconds under churn; within this window a
  /// previously delayed job stays delayed without re-running the model
  /// (and without consuming another skip), so the skip threshold spans a
  /// congestion episode rather than a burst of scheduler passes.
  double min_reconsider_interval_s = 90.0;
  /// Optional observability sinks (either may stay null, costing one
  /// branch per emit point): job lifecycle / allocation-decision /
  /// Algorithm-2 skip records go to `trace`; queue-depth and slowdown
  /// distributions plus pass/launch counters go to `metrics`. Both must
  /// outlive the scheduler.
  obs::EventTrace* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional fault injector (faults/injector.hpp). When set, the
  /// scheduler subscribes to its node events: a crash takes the node out
  /// of the allocator and requeues the job running on it, a drain only
  /// excludes the node from future placements, a restore returns it.
  /// Must outlive the scheduler. Null (the default) leaves scheduling
  /// behavior byte-identical to a fault-free build.
  faults::FaultInjector* faults = nullptr;
};

class Scheduler {
 public:
  using JobEventFn = std::function<void(const Job&)>;

  /// The oracle may be null unless rush_enabled. All references must
  /// outlive the scheduler.
  Scheduler(sim::Engine& engine, cluster::NodeAllocator& allocator,
            apps::ExecutionModel& execution, std::unique_ptr<QueuePolicyBase> main_policy,
            std::unique_ptr<QueuePolicyBase> backfill_policy, SchedulerConfig config,
            VariabilityOracle* oracle = nullptr);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  // Out of line: the scratch buffers hold forward-declared trace types.
  ~Scheduler();

  /// Submit a job now; triggers a scheduling pass.
  JobId submit(JobSpec spec);
  /// Submit at a future simulated time.
  JobId submit_at(sim::Time when, JobSpec spec);

  /// Optional hooks, fired on job start / completion. A null fn clears
  /// the hook, so every input is valid.
  // rush-analyze: allow(missing-expects)
  void on_start(JobEventFn fn) { start_hook_ = std::move(fn); }
  // rush-analyze: allow(missing-expects)
  void on_complete(JobEventFn fn) { complete_hook_ = std::move(fn); }

  [[nodiscard]] const Job& job(JobId id) const;
  [[nodiscard]] std::size_t queue_length() const noexcept { return queue_.size(); }
  [[nodiscard]] std::size_t running_count() const noexcept { return running_.size(); }
  [[nodiscard]] std::size_t completed_count() const noexcept { return completed_order_.size(); }
  [[nodiscard]] bool idle() const noexcept { return queue_.empty() && running_.empty(); }

  /// Ids of pending jobs in current queue order (head first).
  [[nodiscard]] std::vector<JobId> queued_jobs() const { return queue_; }
  /// All jobs ever submitted, in submission order.
  [[nodiscard]] std::vector<const Job*> all_jobs() const;
  /// Completed jobs in completion order.
  [[nodiscard]] std::vector<const Job*> completed_jobs() const;

  /// Duration from first submission to last completion; 0 before any
  /// completion.
  [[nodiscard]] double makespan() const noexcept;

  /// Total Algorithm-2 delays issued across all jobs.
  [[nodiscard]] std::uint64_t total_skips() const noexcept { return total_skips_; }
  [[nodiscard]] std::uint64_t passes_run() const noexcept { return passes_; }
  /// Jobs put back in the queue because a node crashed under them.
  [[nodiscard]] std::uint64_t total_requeues() const noexcept { return total_requeues_; }

  /// Run one scheduling pass now (normally driven by submit/complete).
  void schedule_pass();

 private:
  /// Outcome of trying to launch one queued job (Algorithm 2).
  enum class StartOutcome { Launched, Delayed, NoResources };

  StartOutcome try_start(JobId id, bool via_backfill);
  void launch(Job& job, cluster::NodeSet nodes, bool via_backfill);
  void handle_completion(JobId id, const apps::RunRecord& record);
  void handle_node_fault(const faults::NodeFaultEvent& ev);
  /// Abort + release + re-enqueue a running job whose node died.
  void requeue(JobId id, cluster::NodeId failed_node);
  void insert_in_queue(JobId id);
  /// Removes a launching job from queue_ (binary search in the sorted
  /// regime, linear in the AfterFront-unsorted regime).
  void erase_from_queue(JobId id);
  void apply_skip_placement(JobId id);
  void arm_retry();

  /// Table access by dense id; the public job() validates and throws.
  [[nodiscard]] Job& job_ref(JobId id) noexcept { return jobs_[id - 1]; }
  [[nodiscard]] const Job& job_ref(JobId id) const noexcept { return jobs_[id - 1]; }

  /// Reservation-timeline bookkeeping: one (walltime-estimate end, node
  /// count) entry per running job, kept sorted by that pair.
  void timeline_insert(sim::Time end_est, int count);
  void timeline_erase(sim::Time end_est, int count);

  /// RUSH_AUDIT hook: checks the main policy behaves as a strict weak
  /// ordering (with a deterministic total order across distinct ids)
  /// against the insertion point's neighbors. See policy.hpp.
  void audit_queue_insert(std::vector<JobId>::const_iterator pos, const Job& job) const;

  struct Reservation {
    sim::Time at = 0.0;
    int spare_nodes = 0;  // nodes free at reservation time beyond the job's need
  };
  [[nodiscard]] Reservation compute_reservation(const Job& job) const;

  sim::Engine& engine_;
  cluster::NodeAllocator& allocator_;
  apps::ExecutionModel& execution_;
  std::unique_ptr<QueuePolicyBase> main_policy_;
  std::unique_ptr<QueuePolicyBase> backfill_policy_;
  SchedulerConfig config_;
  VariabilityOracle* oracle_;

  JobId next_id_ = 1;
  // Dense job table: jobs_[id - 1]. Ids are handed out sequentially by
  // submit/submit_at, and a deque gives stable references across growth,
  // so a JobId is a direct index for the scheduler's whole lifetime.
  std::deque<Job> jobs_;
  std::vector<JobId> submit_order_;
  // Pending jobs in R1 order. Invariant: sorted by main_policy_ (which
  // makes insert/erase binary searches) except while queue_unsorted_ —
  // see apply_skip_placement.
  std::vector<JobId> queue_;
  // SkipPlacement::AfterFront swaps the head pair, putting a
  // policy-later job in front: binary search is off the table until the
  // queue drains to a single element. While set, queue ops fall back to
  // linear walks.
  bool queue_unsorted_ = false;
  std::vector<JobId> running_;  // sorted by id
  // (start_s + walltime_estimate_s, node count) per running job, sorted.
  // compute_reservation walks this instead of re-sorting running_.
  std::vector<std::pair<sim::Time, int>> timeline_;
  std::vector<JobId> completed_order_;
  // delayed_pass_[id - 1] == passes_ marks "delayed in the current
  // pass" without a per-pass set allocation.
  std::vector<std::uint64_t> delayed_pass_;
  // Incremental makespan endpoints: min submit time seen / max end time
  // seen, so makespan() never rescans the job tables.
  double first_submit_s_ = std::numeric_limits<double>::max();
  double last_end_s_ = 0.0;
  std::uint64_t total_skips_ = 0;
  std::uint64_t passes_ = 0;
  std::uint64_t total_requeues_ = 0;
  bool in_pass_ = false;
  bool pass_requested_ = false;
  bool retry_armed_ = false;
  JobEventFn start_hook_;
  JobEventFn complete_hook_;

  // Per-pass scratch, reused so a steady-state pass allocates nothing.
  // schedule_pass is non-reentrant (in_pass_ guard), so one set suffices.
  std::vector<JobId> pass_snapshot_;
  std::vector<JobId> candidates_;
  mutable std::vector<int> clamped_counts_;  // compute_reservation is const
  std::vector<obs::CandidateScore> scored_;

  // Cached observability instruments (owned by config_.metrics; all null
  // when no registry is attached).
  obs::Counter* metric_passes_ = nullptr;
  obs::Counter* metric_launches_ = nullptr;
  obs::Counter* metric_backfills_ = nullptr;
  obs::Counter* metric_skips_ = nullptr;
  obs::Counter* metric_requeues_ = nullptr;  // registered only with faults attached
  obs::Histogram* metric_queue_depth_ = nullptr;
  obs::Histogram* metric_slowdown_ = nullptr;
};

}  // namespace rush::sched
