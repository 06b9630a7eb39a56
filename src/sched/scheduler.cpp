#include "sched/scheduler.hpp"

#include <algorithm>
#include <limits>

#include "common/audit.hpp"
#include "common/error.hpp"
#include "faults/injector.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "obs/trace.hpp"

namespace rush::sched {

const char* prediction_name(VariabilityPrediction p) noexcept {
  switch (p) {
    case VariabilityPrediction::NoVariation:
      return "no-variation";
    case VariabilityPrediction::LittleVariation:
      return "little-variation";
    case VariabilityPrediction::Variation:
      return "variation";
  }
  return "?";
}

Scheduler::Scheduler(sim::Engine& engine, cluster::NodeAllocator& allocator,
                     apps::ExecutionModel& execution,
                     std::unique_ptr<QueuePolicyBase> main_policy,
                     std::unique_ptr<QueuePolicyBase> backfill_policy, SchedulerConfig config,
                     VariabilityOracle* oracle)
    : engine_(engine), allocator_(allocator), execution_(execution),
      main_policy_(std::move(main_policy)), backfill_policy_(std::move(backfill_policy)),
      config_(config), oracle_(oracle) {
  RUSH_EXPECTS(main_policy_ != nullptr);
  RUSH_EXPECTS(backfill_policy_ != nullptr);
  RUSH_EXPECTS(!config_.rush_enabled || oracle_ != nullptr);
  RUSH_EXPECTS(config_.retry_period_s > 0.0);
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.metrics;
    metric_passes_ = &m.counter("sched.passes");
    metric_launches_ = &m.counter("sched.launches");
    metric_backfills_ = &m.counter("sched.backfills");
    metric_skips_ = &m.counter("sched.skips");
    metric_queue_depth_ = &m.histogram("sched.queue_depth", 1.0, 16384.0,
                                       kQueueDepthBuckets, obs::HistogramScale::Log2);
    metric_slowdown_ = &m.histogram("sched.slowdown", 1.0, 3.0, 80);
  }
  if (config_.faults != nullptr) {
    // Registered only when faults are attached so a zero-fault run's
    // metrics output stays byte-identical to a build without faults.
    if (config_.metrics != nullptr)
      metric_requeues_ = &config_.metrics->counter("sched.fault_requeues");
    config_.faults->subscribe_node_events(
        [this](const faults::NodeFaultEvent& ev) { handle_node_fault(ev); });
  }
}

Scheduler::~Scheduler() = default;

void Scheduler::audit_queue_insert(std::vector<JobId>::const_iterator pos,
                                   const Job& job) const {
  // Spot-check the ordering contract (policy.hpp) at the insertion
  // point: predecessor strictly before the new job would contradict the
  // upper_bound position only if the comparator misbehaves, and the new
  // job must relate deterministically to both neighbors.
  if (pos != queue_.cbegin()) audit_policy_order(*main_policy_, job_ref(*(pos - 1)), job);
  if (pos != queue_.cend()) audit_policy_order(*main_policy_, job, job_ref(*pos));
}

void Scheduler::insert_in_queue(JobId id) {
  const Job& job = job_ref(id);
  if (queue_unsorted_) {
    // AfterFront regime: the head pair is out of policy order, so binary
    // search is invalid. This linear walk defines the position ("before
    // the first element the new job precedes") that both regimes produce.
    // rush-analyze: allow(sched-linear-scan) sorted invariant suspended
    const auto pos = std::find_if(queue_.begin(), queue_.end(), [&](JobId other) {
      return main_policy_->before(job, job_ref(other));
    });
    queue_.insert(pos, id);
    return;
  }
  // queue_ is sorted by main policy: the "before the first element the
  // new job precedes" position is exactly upper_bound.
  const auto pos =
      std::upper_bound(queue_.begin(), queue_.end(), job, [&](const Job& j, JobId other) {
        return main_policy_->before(j, job_ref(other));
      });
  RUSH_AUDIT_HOOK(audit_queue_insert(pos, job));
  queue_.insert(pos, id);
}

void Scheduler::erase_from_queue(JobId id) {
  if (queue_unsorted_) {
    // rush-analyze: allow(sched-linear-scan) sorted invariant suspended
    const auto it = std::find(queue_.begin(), queue_.end(), id);
    RUSH_ASSERT(it != queue_.end());
    queue_.erase(it);
  } else {
    const Job& job = job_ref(id);
    // Land at the start of the job's policy-equivalence class, then walk
    // it (size 1 for a total order, which the audit hooks enforce).
    auto it =
        std::lower_bound(queue_.begin(), queue_.end(), job, [&](JobId other, const Job& j) {
          return main_policy_->before(job_ref(other), j);
        });
    while (it != queue_.end() && *it != id) ++it;
    RUSH_ASSERT(it != queue_.end());
    queue_.erase(it);
  }
  // A one-element queue is trivially sorted again.
  if (queue_.size() <= 1) queue_unsorted_ = false;
}

JobId Scheduler::submit(JobSpec spec) {
  RUSH_EXPECTS(spec.num_nodes > 0);
  RUSH_EXPECTS(spec.num_nodes <= allocator_.managed_count());
  RUSH_EXPECTS(spec.walltime_estimate_s > 0.0);
  const JobId id = next_id_++;
  jobs_.emplace_back();
  delayed_pass_.push_back(0);
  Job& job = jobs_.back();
  job.id = id;
  job.spec = std::move(spec);
  job.submit_s = engine_.now();
  RUSH_ASSERT(jobs_.size() == id);  // ids stay dense: id == table slot + 1
  first_submit_s_ = std::min(first_submit_s_, job.submit_s);
  submit_order_.push_back(id);
  insert_in_queue(id);
  if (config_.trace != nullptr) {
    const Job& j = job_ref(id);
    config_.trace->emit_job_submit(engine_.now(), j.id, j.app_name(), j.spec.num_nodes,
                                   j.spec.walltime_estimate_s);
  }
  schedule_pass();
  return id;
}

JobId Scheduler::submit_at(sim::Time when, JobSpec spec) {
  RUSH_EXPECTS(when >= engine_.now());
  // Validate before the id is allocated: the table must stay dense, so a
  // rejected spec may not leave a hole behind a consumed id.
  RUSH_EXPECTS(spec.num_nodes > 0);
  RUSH_EXPECTS(spec.num_nodes <= allocator_.managed_count());
  RUSH_EXPECTS(spec.walltime_estimate_s > 0.0);
  // Reserve the id now so callers can correlate, but enqueue at `when`.
  const JobId id = next_id_++;
  jobs_.emplace_back();
  delayed_pass_.push_back(0);
  Job& job = jobs_.back();
  job.id = id;
  job.spec = std::move(spec);
  RUSH_ASSERT(jobs_.size() == id);
  engine_.schedule_at(when, [this, id] {
    Job& j = job_ref(id);
    j.submit_s = engine_.now();
    first_submit_s_ = std::min(first_submit_s_, j.submit_s);
    submit_order_.push_back(id);
    insert_in_queue(id);
    if (config_.trace != nullptr)
      config_.trace->emit_job_submit(engine_.now(), j.id, j.app_name(), j.spec.num_nodes,
                                     j.spec.walltime_estimate_s);
    schedule_pass();
  });
  return id;
}

const Job& Scheduler::job(JobId id) const {
  RUSH_EXPECTS(id >= 1 && id <= jobs_.size());
  return jobs_[id - 1];
}

std::vector<const Job*> Scheduler::all_jobs() const {
  std::vector<const Job*> out;
  out.reserve(submit_order_.size());
  for (JobId id : submit_order_) out.push_back(&job_ref(id));
  return out;
}

std::vector<const Job*> Scheduler::completed_jobs() const {
  std::vector<const Job*> out;
  out.reserve(completed_order_.size());
  for (JobId id : completed_order_) out.push_back(&job_ref(id));
  return out;
}

double Scheduler::makespan() const noexcept {
  // first_submit_s_ / last_end_s_ are maintained at submission and
  // completion, so this is O(1) however many jobs ran.
  if (completed_order_.empty() || submit_order_.empty()) return 0.0;
  return last_end_s_ - first_submit_s_;
}

void Scheduler::timeline_insert(sim::Time end_est, int count) {
  const std::pair<sim::Time, int> e{end_est, count};
  timeline_.insert(std::upper_bound(timeline_.begin(), timeline_.end(), e), e);
}

void Scheduler::timeline_erase(sim::Time end_est, int count) {
  const std::pair<sim::Time, int> e{end_est, count};
  const auto it = std::lower_bound(timeline_.begin(), timeline_.end(), e);
  RUSH_ASSERT(it != timeline_.end() && *it == e);
  timeline_.erase(it);
}

Scheduler::Reservation Scheduler::compute_reservation(const Job& job) const {
  // The timeline already holds every running job's (walltime-estimate
  // end, node count) in sorted order. The reservation walks the
  // *clamped* ends (max(now, end)) in order: entries whose estimate has
  // already passed all re-key to (now, count), which keeps them a prefix
  // but orders them by count among themselves — so only that prefix's
  // counts need sorting here, into a reused scratch buffer.
  const sim::Time now = engine_.now();
  const int need = job.spec.num_nodes;
  int free = allocator_.free_count();

  const std::pair<sim::Time, int> pivot{now, std::numeric_limits<int>::max()};
  const auto split = std::upper_bound(timeline_.begin(), timeline_.end(), pivot);

  clamped_counts_.clear();
  for (auto it = timeline_.begin(); it != split; ++it) clamped_counts_.push_back(it->second);
  std::sort(clamped_counts_.begin(), clamped_counts_.end());
  for (const int n : clamped_counts_) {
    free += n;
    if (free >= need) return Reservation{now, free - need};
  }
  for (auto it = split; it != timeline_.end(); ++it) {
    free += it->second;
    if (free >= need) return Reservation{it->first, free - need};
  }
  // Job fits the machine when idle (precondition on submit), so with no
  // running jobs we can only get here if free already sufficed — treat as
  // "now" (the caller only reaches this when the job did not fit, which
  // implies running jobs exist).
  return Reservation{now, std::max(0, free - need)};
}

Scheduler::StartOutcome Scheduler::try_start(JobId id, bool via_backfill) {
  Job& job = job_ref(id);
  RUSH_ASSERT(job.state == JobState::Pending);

  // A recently delayed job stays delayed without re-running the model;
  // see SchedulerConfig::min_reconsider_interval_s.
  if (config_.rush_enabled && job.last_delay_s >= 0.0 &&
      engine_.now() - job.last_delay_s < config_.min_reconsider_interval_s) {
    return StartOutcome::Delayed;
  }

  auto nodes = allocator_.allocate(job.spec.num_nodes);
  if (!nodes) return StartOutcome::NoResources;

  // Algorithm 2: Start(j, Q, M, S, SkipTable).
  if (config_.rush_enabled && job.skip_count < job.spec.skip_threshold) {
    const VariabilityPrediction pred = oracle_->predict(job, *nodes);
    const bool delay =
        pred == VariabilityPrediction::Variation ||
        (pred == VariabilityPrediction::LittleVariation && config_.delay_on_little_variation);
    if (delay) {
      allocator_.release(*nodes);
      ++job.skip_count;
      ++total_skips_;
      job.last_delay_s = engine_.now();
      if (metric_skips_) metric_skips_->inc();
      if (config_.trace != nullptr)
        config_.trace->emit_alg2_skip(engine_.now(), job.id, prediction_name(pred),
                                      job.skip_count, job.spec.skip_threshold);
      return StartOutcome::Delayed;
    }
  }

  launch(job, std::move(*nodes), via_backfill);
  return StartOutcome::Launched;
}

void Scheduler::launch(Job& job, cluster::NodeSet nodes, bool via_backfill) {
  erase_from_queue(job.id);

  job.state = JobState::Running;
  job.start_s = engine_.now();
  job.nodes = std::move(nodes);
  job.backfilled = via_backfill;
  running_.insert(std::lower_bound(running_.begin(), running_.end(), job.id), job.id);
  timeline_insert(job.start_s + job.spec.walltime_estimate_s,
                  static_cast<int>(job.nodes.size()));

  const JobId id = job.id;
  job.run_id = execution_.launch(job.spec.app, job.nodes, job.spec.scaling,
                                 [this, id](const apps::RunRecord& record) {
                                   handle_completion(id, record);
                                 });
  if (metric_launches_) metric_launches_->inc();
  if (via_backfill && metric_backfills_) metric_backfills_->inc();
  if (config_.trace != nullptr)
    config_.trace->emit_job_start(engine_.now(), job.id, job.wait_s(), via_backfill, job.nodes);
  if (start_hook_) start_hook_(job);
}

void Scheduler::handle_completion(JobId id, const apps::RunRecord& record) {
  Job& job = job_ref(id);
  RUSH_ASSERT(job.state == JobState::Running);
  allocator_.release(job.nodes);
  timeline_erase(job.start_s + job.spec.walltime_estimate_s,
                 static_cast<int>(job.nodes.size()));
  job.state = JobState::Completed;
  job.end_s = engine_.now();
  last_end_s_ = std::max(last_end_s_, job.end_s);
  job.record = record;
  const auto run_it = std::lower_bound(running_.begin(), running_.end(), id);
  RUSH_ASSERT(run_it != running_.end() && *run_it == id);
  running_.erase(run_it);
  completed_order_.push_back(id);
  if (metric_slowdown_) metric_slowdown_->record(record.slowdown());
  if (config_.trace != nullptr)
    config_.trace->emit_job_end(engine_.now(), job.id, job.runtime_s(), record.slowdown(),
                                job.skip_count);
  if (complete_hook_) complete_hook_(job);
  schedule_pass();
}

void Scheduler::handle_node_fault(const faults::NodeFaultEvent& ev) {
  if (ev.kind == faults::FaultKind::NodeRestore) {
    // A node outside the managed range restores nothing here; only
    // re-run the pass when the allocator actually got a node back.
    if (allocator_.set_available(ev.node, true)) schedule_pass();
    return;
  }

  const bool managed = allocator_.set_available(ev.node, false);
  if (ev.kind == faults::FaultKind::NodeDrain || !managed) return;

  // Crash: every running job holding the node loses its work and goes
  // back to the queue. Victims are collected first (requeue mutates
  // running_); running_ is sorted by id, so the requeue order is the
  // deterministic job-id order already.
  std::vector<JobId> victims;
  for (JobId id : running_) {
    const Job& r = job_ref(id);
    if (std::binary_search(r.nodes.begin(), r.nodes.end(), ev.node)) victims.push_back(id);
  }
  for (JobId id : victims) requeue(id, ev.node);
  if (!victims.empty()) schedule_pass();
}

void Scheduler::requeue(JobId id, cluster::NodeId failed_node) {
  Job& job = job_ref(id);
  RUSH_ASSERT(job.state == JobState::Running);
  execution_.abort(job.run_id);
  allocator_.release(job.nodes);
  timeline_erase(job.start_s + job.spec.walltime_estimate_s,
                 static_cast<int>(job.nodes.size()));
  const auto run_it = std::lower_bound(running_.begin(), running_.end(), id);
  RUSH_ASSERT(run_it != running_.end() && *run_it == id);
  running_.erase(run_it);

  job.state = JobState::Pending;
  job.nodes.clear();
  job.run_id = 0;
  job.start_s = -1.0;
  job.backfilled = false;
  job.last_delay_s = -1.0;  // a fresh placement deserves a fresh oracle look
  ++job.requeues;
  ++total_requeues_;
  if (metric_requeues_) metric_requeues_->inc();
  if (config_.trace != nullptr)
    config_.trace->emit_fault_job_requeue(engine_.now(), job.id, failed_node, job.requeues);
  insert_in_queue(id);
}

void Scheduler::apply_skip_placement(JobId id) {
  if (config_.skip_placement != SkipPlacement::AfterFront) return;
  // Pseudocode reading: "push j after front of Q".
  if (queue_.size() >= 2 && queue_.front() == id) {
    std::swap(queue_[0], queue_[1]);
    // The new head is policy-later than its neighbor: drop to the
    // linear-walk regime until the queue drains (erase_from_queue
    // clears the flag at size <= 1).
    queue_unsorted_ = true;
  }
}

void Scheduler::arm_retry() {
  if (retry_armed_) return;
  retry_armed_ = true;
  engine_.schedule_after(config_.retry_period_s, [this] {
    retry_armed_ = false;
    schedule_pass();
  });
}

// rush: noalloc
void Scheduler::schedule_pass() {
  if (in_pass_) {
    pass_requested_ = true;
    return;
  }
  in_pass_ = true;
  do {
    pass_requested_ = false;
    ++passes_;
    if (metric_passes_) metric_passes_->inc();
    if (metric_queue_depth_) metric_queue_depth_->record(static_cast<double>(queue_.size()));
    bool any_delayed = false;

    // Walk a snapshot: starts mutate queue_, and jobs delayed in this pass
    // must not be reconsidered until the next pass. The snapshot and
    // candidate buffers are member scratch so steady-state passes reuse
    // their capacity instead of allocating.
    pass_snapshot_ = queue_;

    for (std::size_t qi = 0; qi < pass_snapshot_.size(); ++qi) {
      const JobId id = pass_snapshot_[qi];
      Job& job = job_ref(id);
      if (job.state != JobState::Pending) continue;

      if (allocator_.can_allocate(job.spec.num_nodes)) {
        const StartOutcome outcome = try_start(id, /*via_backfill=*/false);
        RUSH_ASSERT(outcome != StartOutcome::NoResources);
        if (outcome == StartOutcome::Delayed) {
          any_delayed = true;
          delayed_pass_[id - 1] = passes_;
          apply_skip_placement(id);
        }
        continue;
      }

      // Reservation for the first job that does not fit (Algorithm 1,
      // lines 7-16), then EASY backfill of the rest in R2 order.
      if (config_.enable_backfill) {
        const Reservation res = compute_reservation(job);
        const int free_at_start = allocator_.free_count();
        const bool tracing = config_.trace != nullptr;

        // Candidates that can never launch this pass (wider than the
        // current free count, which only shrinks below) are dropped up
        // front — unless tracing, where the scored top-8 is drawn from
        // the full candidate list.
        candidates_.clear();
        for (JobId c : queue_) {
          if (c == id || delayed_pass_[c - 1] == passes_) continue;
          const Job& cj = job_ref(c);
          if (cj.state != JobState::Pending) continue;
          if (!tracing && cj.spec.num_nodes > free_at_start) continue;
          candidates_.push_back(c);
        }
        const auto r2_before = [&](JobId a, JobId b) {
          return backfill_policy_->before(job_ref(a), job_ref(b));
        };

        if (tracing) {
          // Allocation decision: head job's reservation plus the scored
          // backfill candidates (capped to keep records bounded). A
          // partial sort to the cap is the full sort's prefix because
          // queue policies are total orders (policy.hpp).
          constexpr std::size_t kMaxScored = 8;
          const std::size_t k = std::min(candidates_.size(), kMaxScored);
          std::partial_sort(candidates_.begin(),
                            candidates_.begin() + static_cast<std::ptrdiff_t>(k),
                            candidates_.end(), r2_before);
          scored_.clear();
          for (std::size_t i = 0; i < k; ++i)
            scored_.push_back({candidates_[i], backfill_policy_->score(job_ref(candidates_[i]))});
          config_.trace->emit_alloc_decision(engine_.now(), id, res.at, scored_);
          // Now drop the never-launchable candidates before the walk.
          std::erase_if(candidates_, [&](JobId c) {
            return job_ref(c).spec.num_nodes > free_at_start;
          });
        }
        std::sort(candidates_.begin(), candidates_.end(), r2_before);

        int free_now = free_at_start;
        int spare = res.spare_nodes;
        const sim::Time now = engine_.now();
        for (JobId c : candidates_) {
          Job& cand = job_ref(c);
          if (cand.spec.num_nodes > free_now) continue;
          const bool ends_before_reservation =
              now + cand.spec.walltime_estimate_s <= res.at;
          const bool fits_in_spare = cand.spec.num_nodes <= spare;
          if (!ends_before_reservation && !fits_in_spare) continue;

          const StartOutcome outcome = try_start(c, /*via_backfill=*/true);
          if (outcome == StartOutcome::Launched) {
            free_now -= cand.spec.num_nodes;
            if (!ends_before_reservation) spare -= cand.spec.num_nodes;
          } else if (outcome == StartOutcome::Delayed) {
            any_delayed = true;
            delayed_pass_[c - 1] = passes_;
          }
        }
      }
      break;  // only the head non-fitting job gets a reservation
    }

    // Delayed jobs would deadlock if no completion ever triggers another
    // pass; re-arm a timer pass whenever any delay happened.
    if (any_delayed) arm_retry();
  } while (pass_requested_);
  in_pass_ = false;
}

}  // namespace rush::sched
