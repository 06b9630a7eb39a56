#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

#include "common/audit.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace rush::sim {

void Engine::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    metric_executed_ = nullptr;
    metric_cancelled_ = nullptr;
    return;
  }
  metric_executed_ = &metrics->counter("engine.events_executed");
  metric_cancelled_ = &metrics->counter("engine.events_cancelled");
}

void Engine::push_event(Event ev) {
  heap_.push_back(std::move(ev));
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventId Engine::schedule_at(Time t, std::function<void()> fn) {
  RUSH_EXPECTS(t >= now_);
  RUSH_EXPECTS(fn != nullptr);
  const EventId id = next_id_++;
  push_event(Event{t, id, 0.0, std::move(fn)});
  return id;
}

EventId Engine::schedule_after(Time dt, std::function<void()> fn) {
  RUSH_EXPECTS(dt >= 0.0);
  return schedule_at(now_ + dt, std::move(fn));
}

EventId Engine::schedule_periodic(Time start, Time period, std::function<void()> fn) {
  RUSH_EXPECTS(start >= now_);
  RUSH_EXPECTS(period > 0.0);
  RUSH_EXPECTS(fn != nullptr);
  // Every occurrence reuses the task id, so cancel() finds it directly;
  // the queue holds at most one occurrence per task at a time.
  const EventId id = next_id_++;
  push_event(Event{start, id, period, std::move(fn)});
  return id;
}

bool Engine::cancel(EventId id) {
  if (rearm_ && id == firing_) {
    // A periodic task cancelled from inside its own callback: it is out
    // of the heap until step() pushes it back, so just stop that.
    rearm_ = false;
  } else {
    // Linear: ExecutionModel keeps cancels to about one per two executed
    // events, and the heap holds a few hundred entries at most. (t, id) is
    // a total order, so re-heapifying cannot change the pop order.
    const auto it =
        std::find_if(heap_.begin(), heap_.end(), [id](const Event& ev) { return ev.id == id; });
    if (it == heap_.end()) return false;
    std::swap(*it, heap_.back());
    heap_.pop_back();
    std::make_heap(heap_.begin(), heap_.end(), Later{});
  }
  if (metric_cancelled_) metric_cancelled_->inc();
  return true;
}

void Engine::audit_invariants() const {
  RUSH_AUDIT_CHECK(std::is_heap(heap_.begin(), heap_.end(), Later{}), "");
  for (const Event& ev : heap_) {
    RUSH_AUDIT_CHECK(ev.t >= now_, "event " + std::to_string(ev.id) + " at t=" +
                                       std::to_string(ev.t) + " behind clock " +
                                       std::to_string(now_));
    RUSH_AUDIT_CHECK(ev.id < next_id_, "event id beyond id counter");
  }
}

bool Engine::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  RUSH_AUDIT_HOOK(audit_invariants());
  RUSH_ASSERT(ev.t >= now_);
  now_ = ev.t;
  ++executed_;
  if (metric_executed_) metric_executed_->inc();
  firing_ = ev.id;
  rearm_ = ev.period > 0.0;
  ev.fn();
  if (rearm_) {
    rearm_ = false;
    ev.t = now_ + ev.period;
    push_event(std::move(ev));
  }
  return true;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(Time t_end) {
  RUSH_EXPECTS(t_end >= now_);
  while (!heap_.empty() && heap_.front().t <= t_end) step();
  now_ = t_end;
}

}  // namespace rush::sim
