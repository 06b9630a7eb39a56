// Contention-aware job execution model.
//
// A running job's progress rate depends on the current state of the
// shared resources: with channel weights (fc, fn, fio) summing to 1 and
// instantaneous network / filesystem slowdowns Sn, Sio,
//
//   rate(t) = 1 / (fc + fn * Sn(t) + fio * Sio(t) + os_noise)
//
// Remaining work (measured in uncontended seconds) is integrated
// piecewise: whenever the running set changes — and on a 15 s tick to
// capture background/noise level changes — each job's remaining work is
// advanced at the old rate and its rate recomputed. The model keeps one
// pending completion event, at the earliest projected finish over the
// running jobs (ties go to the lowest run id, i.e. launch order). The
// measured run time is therefore the uncontended time stretched by the
// congestion the job actually lived through, which is exactly the
// variation signal the paper's pipeline studies. A completion reports
// only the run's slowdown; the run time itself (the inclusive main-region
// time the paper profiles with HPCToolkit) is the engine clock's advance
// since launch.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "apps/profiles.hpp"
#include "cluster/lustre.hpp"
#include "cluster/network.hpp"
#include "common/rng.hpp"
#include "sim/types.hpp"

namespace rush::apps {

struct ExecutionConfig {
  double os_noise = 0.004;  // scale of per-interval OS interference
};

class ExecutionModel {
 public:
  using RunId = std::uint64_t;
  /// Receives the run's slowdown: its run time over its uncontended time.
  using CompletionFn = std::function<void(double slowdown)>;

  ExecutionModel(sim::Engine& engine, cluster::NetworkModel& net, cluster::LustreModel& lustre,
                 ExecutionConfig config, Rng rng);
  ~ExecutionModel();

  ExecutionModel(const ExecutionModel&) = delete;
  ExecutionModel& operator=(const ExecutionModel&) = delete;

  /// Launch `app` on `nodes` now. `on_complete` fires (at most once) when
  /// the job finishes, at the engine time the run ends.
  RunId launch(const AppProfile& app, const cluster::NodeSet& nodes, ScalingMode scaling,
               CompletionFn on_complete);

  /// Kill a running job (a node died under it, see faults/): its traffic
  /// sources are deregistered and its `on_complete` never fires — the
  /// caller decides what happens to the job (the scheduler requeues it).
  void abort(RunId id);

  [[nodiscard]] std::size_t running_count() const noexcept { return running_.size(); }

  /// Begin the periodic re-evaluation tick (idempotent). launch() starts
  /// it automatically.
  void start();
  void stop();

 private:
  struct Running {
    sim::Time start_s = 0.0;
    double uncontended_s = 0.0;   // channel total incl. intrinsic noise
    double remaining_work = 0.0;  // uncontended seconds left
    sim::Time last_update = 0.0;
    double rate = 1.0;
    double fc = 1.0, fn = 0.0, fio = 0.0;
    double net_gbps = 0.0, io_gbps = 0.0;
    cluster::TrafficPattern pattern = cluster::TrafficPattern::NearestNeighbor;
    CompletionFn on_complete;
  };

  [[nodiscard]] static cluster::SourceId comm_source(RunId id) noexcept { return id; }
  [[nodiscard]] static cluster::SourceId gateway_source(RunId id) noexcept {
    return id | (1ULL << 63);
  }

  [[nodiscard]] double current_rate(RunId id, const Running& job) const;
  /// Advance every job's work at its old rate, recompute the rates, and
  /// move the completion event to the earliest projected finish.
  void refresh_all();
  void complete(RunId id);

  sim::Engine& engine_;
  cluster::NetworkModel& net_;
  cluster::LustreModel& lustre_;
  ExecutionConfig config_;
  Rng rng_;
  RunId next_run_id_ = 1;
  std::map<RunId, Running> running_;  // ordered: ties finish in launch order
  sim::EventId completion_ = 0;        // 0 when nothing is running
  sim::EventId tick_ = 0;
  bool ticking_ = false;
};

}  // namespace rush::apps
