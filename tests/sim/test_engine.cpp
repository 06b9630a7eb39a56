#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace rush::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0.0);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 3.0);
  EXPECT_EQ(e.events_executed(), 3u);
}

TEST(Engine, EqualTimestampsFireFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) e.schedule_at(5.0, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ClockAdvancesToEventTime) {
  Engine e;
  double seen = -1.0;
  e.schedule_at(7.5, [&] { seen = e.now(); });
  e.run();
  EXPECT_EQ(seen, 7.5);
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
  Engine e;
  double seen = -1.0;
  e.schedule_at(10.0, [&] {
    e.schedule_after(5.0, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen, 15.0);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine e;
  e.schedule_at(10.0, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(5.0, [] {}), PreconditionError);
  EXPECT_THROW(e.schedule_after(-1.0, [] {}), PreconditionError);
}

TEST(Engine, NullHandlerThrows) {
  Engine e;
  EXPECT_THROW(e.schedule_at(1.0, nullptr), PreconditionError);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.events_executed(), 0u);
}

TEST(Engine, CancelReturnsFalseForUnknownOrFired) {
  Engine e;
  EXPECT_FALSE(e.cancel(12345));
  const EventId id = e.schedule_at(1.0, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, PendingEventsTracksLiveCount) {
  Engine e;
  const EventId a = e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [] {});
  EXPECT_EQ(e.pending_events(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.pending_events(), 1u);
  e.run();
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, StepExecutesExactlyOne) {
  Engine e;
  int count = 0;
  e.schedule_at(1.0, [&] { ++count; });
  e.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(e.step());
}

TEST(Engine, RunUntilStopsAtHorizonAndAdvancesClock) {
  Engine e;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) e.schedule_at(t, [&fired, &e] { fired.push_back(e.now()); });
  e.run_until(2.5);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(e.now(), 2.5);
  EXPECT_EQ(e.pending_events(), 2u);
  e.run_until(10.0);
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_EQ(e.now(), 10.0);
}

TEST(Engine, RunUntilIncludesBoundaryEvents) {
  Engine e;
  bool fired = false;
  e.schedule_at(5.0, [&] { fired = true; });
  e.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Engine, RunUntilBackwardThrows) {
  Engine e;
  e.run_until(5.0);
  EXPECT_THROW(e.run_until(4.0), PreconditionError);
}

TEST(Engine, PeriodicFiresRepeatedly) {
  Engine e;
  std::vector<double> times;
  e.schedule_periodic(10.0, 5.0, [&] { times.push_back(e.now()); });
  e.run_until(31.0);
  EXPECT_EQ(times, (std::vector<double>{10.0, 15.0, 20.0, 25.0, 30.0}));
}

TEST(Engine, PeriodicCancelStopsFutureFirings) {
  Engine e;
  int count = 0;
  const EventId id = e.schedule_periodic(1.0, 1.0, [&] { ++count; });
  e.run_until(3.5);
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(e.cancel(id));
  e.run_until(10.0);
  EXPECT_EQ(count, 3);
}

TEST(Engine, PeriodicSelfCancelFromCallback) {
  Engine e;
  int count = 0;
  EventId id = 0;
  bool first = false;
  bool second = true;
  id = e.schedule_periodic(1.0, 1.0, [&] {
    if (++count == 2) {
      first = e.cancel(id);
      second = e.cancel(id);
    }
  });
  e.run_until(10.0);
  EXPECT_EQ(count, 2);
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, PeriodicValidatesArguments) {
  Engine e;
  EXPECT_THROW(e.schedule_periodic(0.0, 0.0, [] {}), PreconditionError);
  e.run_until(5.0);
  EXPECT_THROW(e.schedule_periodic(1.0, 1.0, [] {}), PreconditionError);  // start in past
}

TEST(Engine, EventsScheduledDuringRunAreExecuted) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(1.0, [&] {
    order.push_back(1);
    e.schedule_at(1.0, [&] { order.push_back(2); });  // same timestamp, later id
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, CancelFromInsideEarlierEvent) {
  Engine e;
  bool second_fired = false;
  const EventId second = e.schedule_at(2.0, [&] { second_fired = true; });
  e.schedule_at(1.0, [&] { EXPECT_TRUE(e.cancel(second)); });
  e.run();
  EXPECT_FALSE(second_fired);
}

TEST(Engine, ManyEventsStressOrdering) {
  Engine e;
  Rng rng(3);
  std::vector<double> fired;
  for (int i = 0; i < 5000; ++i) {
    const double t = rng.uniform(0.0, 1000.0);
    e.schedule_at(t, [&fired, &e] { fired.push_back(e.now()); });
  }
  e.run();
  ASSERT_EQ(fired.size(), 5000u);
  for (std::size_t i = 1; i < fired.size(); ++i) EXPECT_LE(fired[i - 1], fired[i]);
}

}  // namespace
}  // namespace rush::sim
