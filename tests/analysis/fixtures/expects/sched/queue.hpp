// missing-expects fixture: public members with parameters in sim/ or
// sched/ must validate preconditions in their definition.
#pragma once

namespace rush::sched {

class MiniQueue {
 public:
  // Definition in queue.cpp has no RUSH_EXPECTS -> finding (on this decl).
  void push(int job);
  // Definition in queue.cpp calls RUSH_EXPECTS -> quiet.
  void drop(int job);
  // Const members are reads; exempt.
  [[nodiscard]] int depth_after(int extra) const;
  // No parameters: nothing to validate.
  void clear();
  // In-class definition with parameters and no RUSH_EXPECTS -> finding.
  void reserve_hint(int n) { hint_ = n; }
  // rush-analyze: allow(missing-expects) trusted internal fast path
  void push_unchecked(int job);
  // A marker may list its reason on the line above it.
  // rush-analyze: allow(missing-expects)
  void requeue(int job);

 private:
  // Private members are not API surface; exempt.
  void compact(int from);

  int hint_ = 0;
};

}  // namespace rush::sched
