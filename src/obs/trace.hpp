// Structured run-trace sink: schema-versioned JSONL event records.
//
// Every consequential runtime decision — job lifecycle transitions,
// Algorithm-2 skips, allocation choices with their candidate scores,
// model predict calls, congestion episodes — is appended as one JSON
// object per line, stamped with the *simulated* time at which it
// happened (rush_analyze's trace-sim-time rule enforces that call sites
// never pass wall-clock values). tools/trace_report.py turns a trace
// into a per-trial summary; docs/trace-format.md is the schema
// reference.
//
// Tracing is off when a caller holds a null EventTrace*: call sites test
// the pointer once and build no record. Every EventTrace writes; records
// buffer into an internal string and flush to the sink on destruction or
// flush().
//
// Concurrency: a single EventTrace is NOT safe to emit into from two
// threads. When trials run concurrently on the task pool, each gets its
// own buffered child (EventTrace{EventTrace::Buffered{}}) and the parent
// absorb()s the children in deterministic trial order afterwards, so a
// --trace run produces the same byte stream for any worker count (see
// DESIGN.md §10).
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace rush::obs {

/// One scored allocation candidate (see emit_alloc_decision).
struct CandidateScore {
  std::uint64_t job_id = 0;
  double score = 0.0;
};

class EventTrace {
 public:
  /// Bump when a record gains/loses/renames fields; see
  /// docs/trace-format.md for the versioning policy.
  static constexpr int kSchemaVersion = 1;

  /// Tag selecting the sink-less buffered mode (see the Buffered ctor).
  struct Buffered {};

  /// Trace appending to `path` (truncates an existing file). Throws
  /// ParseError when the file cannot be opened.
  explicit EventTrace(const std::string& path);
  /// Trace writing to a caller-owned stream (tests, stdout).
  explicit EventTrace(std::ostream& os);
  /// Trace with no sink: records accumulate in memory (flush() is a
  /// no-op) until a parent trace absorb()s them. The per-trial buffer the
  /// parallel experiment runner hands to each trial.
  explicit EventTrace(Buffered);
  ~EventTrace();

  EventTrace(const EventTrace&) = delete;
  EventTrace& operator=(const EventTrace&) = delete;

  void flush();

  /// Append every record buffered in `child` to this trace, renumbering
  /// the records' "seq" fields to continue this trace's sequence, then
  /// reset `child` for reuse. The child must be a Buffered trace that
  /// no other thread is still emitting into. Absorbing the same children
  /// in the same order yields byte-identical output regardless of how
  /// many threads produced them. Guarded by an internal mutex against
  /// concurrent absorb() calls; direct emits must not race with absorbs.
  void absorb(EventTrace& child);

  // Every emit_* takes the current simulated time `t_s` as its first
  // argument. Records carry {"v","seq","t","ev"} plus the listed fields.

  /// ev=trial_start: one workload trial begins (fields: policy, seed).
  void emit_trial_start(double t_s, std::string_view policy, std::uint64_t seed);
  /// ev=trial_end: makespan and Algorithm-2 totals for the trial.
  void emit_trial_end(double t_s, std::string_view policy, std::uint64_t seed,
                      double makespan_s, std::uint64_t total_skips);

  /// ev=job_submit: job entered the queue.
  void emit_job_submit(double t_s, std::uint64_t job_id, std::string_view app, int num_nodes,
                       double walltime_estimate_s);
  /// ev=job_start: job launched (nodes actually allocated).
  void emit_job_start(double t_s, std::uint64_t job_id, double wait_s, bool backfilled,
                      const std::vector<int>& nodes);
  /// ev=job_end: job completed; slowdown is the contention inflation the
  /// run actually experienced (1 = uncontended).
  void emit_job_end(double t_s, std::uint64_t job_id, double runtime_s, double slowdown,
                    int skips);

  /// ev=alloc_decision: the scheduler chose among backfill candidates;
  /// `scores` come from the active queue policy (lower runs earlier).
  void emit_alloc_decision(double t_s, std::uint64_t head_job_id, double reservation_s,
                           const std::vector<CandidateScore>& scores);

  /// ev=alg2_skip: Algorithm 2 delayed a job instead of launching it.
  void emit_alg2_skip(double t_s, std::uint64_t job_id, std::string_view prediction,
                      int skip_count, int skip_threshold);

  /// ev=predict: one oracle/model evaluation. `feature_hash` is a stable
  /// 64-bit FNV-1a hash of the assembled feature vector so deviating runs
  /// can be diffed without storing 282 floats per call.
  void emit_predict(double t_s, std::uint64_t job_id, std::string_view label,
                    std::uint64_t feature_hash);

  /// ev=congestion: one max-congestion episode observed by the telemetry
  /// sampler ended (worst link utilization stayed above the episode
  /// threshold from `start_s` until `t_s`).
  void emit_congestion_episode(double t_s, double start_s, int link_id, double peak_utilization);

  // Fault-injection records (faults/injector.hpp; docs/fault-injection.md).

  /// ev=fault_node_down: a node left service; drain=false is a crash
  /// (running jobs are lost), drain=true lets them finish. duration_s=0
  /// means no scheduled auto-restore.
  void emit_fault_node_down(double t_s, int node, bool drain, double duration_s);
  /// ev=fault_node_restore: a node returned to service.
  void emit_fault_node_restore(double t_s, int node);
  /// ev=fault_link_degrade: link capacity multiplied by `factor`.
  void emit_fault_link_degrade(double t_s, int link, double factor, double duration_s);
  /// ev=fault_link_restore: link capacity back to nominal.
  void emit_fault_link_restore(double t_s, int link);
  /// ev=fault_<kind> for the window kinds (kind is "sampler_dropout",
  /// "counter_corrupt", or "canary_timeout"): the outage holds from t_s
  /// until until_s; node=-1 means cluster-wide.
  void emit_fault_window(double t_s, std::string_view kind, int node, double until_s);
  /// ev=fault_job_requeue: a crash killed this job's node mid-run and the
  /// scheduler put it back in the queue (requeues = lifetime count).
  void emit_fault_job_requeue(double t_s, std::uint64_t job_id, int node, int requeues);
  /// ev=fault_oracle_fallback: the oracle refused its inputs (reason is
  /// "canary-timeout", "stale-counters", or "corrupt-counters") and
  /// emitted the degraded-policy label instead of a model prediction.
  void emit_fault_oracle_fallback(double t_s, std::uint64_t job_id, std::string_view reason,
                                  std::string_view label);

 private:
  /// Appends one record: the {"v","seq","t","ev"} envelope, then the
  /// fields `fields(JsonWriter&)` writes.
  template <class Fields>
  void record(double t_s, std::string_view event, const Fields& fields);

  std::ostream* sink_ = nullptr;  // null = buffered
  bool owns_sink_ = false;
  std::mutex absorb_mu_;
  std::string buffer_;
  std::uint64_t seq_ = 0;
};

/// Stable 64-bit FNV-1a over the bit patterns of a double vector; the
/// feature fingerprint carried by predict records.
[[nodiscard]] std::uint64_t feature_hash(const std::vector<double>& values) noexcept;

}  // namespace rush::obs
