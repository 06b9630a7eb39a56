// Discrete-event simulation engine.
//
// The whole RUSH reproduction runs on simulated time: the cluster, the
// telemetry samplers, job execution, and the scheduler are all event
// handlers on one Engine. Events at equal timestamps fire in scheduling
// order (FIFO), which makes runs fully deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hpp"

namespace rush::obs {
class Counter;
class MetricsRegistry;
}  // namespace rush::obs

namespace rush::sim {

struct AuditTestPeer;  // test-only state corruption (tests/audit)

/// Single-threaded discrete-event engine with cancellable events and
/// periodic tasks.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time. Starts at 0.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `t`. Requires t >= now().
  EventId schedule_at(Time t, std::function<void()> fn);

  /// Schedule `fn` after a delay. Requires dt >= 0.
  EventId schedule_after(Time dt, std::function<void()> fn);

  /// Schedule `fn` every `period` seconds starting at `start`. The task
  /// keeps rescheduling itself until cancelled. Requires period > 0 and
  /// start >= now().
  EventId schedule_periodic(Time start, Time period, std::function<void()> fn);

  /// Cancel a pending event (or periodic task). Returns false if the event
  /// already fired or was never scheduled. Any id is acceptable input.
  bool cancel(EventId id);  // rush-analyze: allow(missing-expects) unknown ids are defined to return false

  /// Run until the event queue is empty.
  void run();

  /// Run events with timestamp <= t_end, then advance the clock to t_end
  /// (even if the queue drains early). Requires t_end >= now().
  void run_until(Time t_end);

  /// Execute exactly one event if any is pending. Returns false when idle.
  bool step();

  /// Number of events currently queued.
  [[nodiscard]] std::size_t pending_events() const noexcept { return heap_.size(); }
  [[nodiscard]] std::uint64_t events_executed() const noexcept { return executed_; }

  /// Publish engine counters (events executed / cancelled) into an
  /// observability registry. A null registry detaches, so every input is
  /// valid; the hot path pays one null check + add when attached.
  // rush-analyze: allow(missing-expects)
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Re-checks the whole queue and throws AuditError on corruption: the
  /// heap property must hold, no queued event may lie in the past, and no
  /// id may lie beyond the id counter. Called automatically after every
  /// pop in RUSH_AUDIT builds.
  void audit_invariants() const;

 private:
  friend struct AuditTestPeer;
  struct Event {
    Time t;
    EventId id;
    Time period;  // > 0 for a periodic task, which step() pushes back
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.t != b.t) return a.t > b.t;
      return a.id > b.id;  // FIFO among equal timestamps
    }
  };

  void push_event(Event ev);

  Time now_ = 0.0;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  obs::Counter* metric_executed_ = nullptr;   // owned by the attached registry
  obs::Counter* metric_cancelled_ = nullptr;
  // Min-heap on (t, id) via std::push_heap/pop_heap. It holds exactly the
  // live events: cancel() removes its entry at once. Owning the container
  // (instead of std::priority_queue) gives step() a well-defined move out
  // of the root and lets cancel() and audit_invariants() reach every
  // element.
  std::vector<Event> heap_;
  // The event whose callback is running, and whether step() will push it
  // back afterwards (periodic tasks only); cancel() from inside the
  // callback clears the flag.
  EventId firing_ = 0;
  bool rearm_ = false;
};

}  // namespace rush::sim
