#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/event_queue.h"
#include "sim/resource.h"

namespace ctflash::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&](Us) { order.push_back(3); });
  q.ScheduleAt(10, [&](Us) { order.push_back(1); });
  q.ScheduleAt(20, [&](Us) { order.push_back(2); });
  EXPECT_EQ(q.PendingCount(), 3u);
  EXPECT_EQ(q.RunToCompletion(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.Now(), 30);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, SameTimeFiresInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAt(100, [&order, i](Us) { order.push_back(i); });
  }
  q.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  Us fired_at = -1;
  q.ScheduleAt(50, [&](Us now) {
    q.ScheduleAfter(25, [&](Us inner) { fired_at = inner; });
    (void)now;
  });
  q.RunToCompletion();
  EXPECT_EQ(fired_at, 75);
}

TEST(EventQueue, PastSchedulingThrows) {
  EventQueue q;
  q.ScheduleAt(10, [](Us) {});
  q.Step();
  EXPECT_THROW(q.ScheduleAt(5, [](Us) {}), std::invalid_argument);
  EXPECT_THROW(q.ScheduleAfter(-1, [](Us) {}), std::invalid_argument);
}

TEST(EventQueue, NullCallbackThrows) {
  EventQueue q;
  EXPECT_THROW(q.ScheduleAt(1, EventCallback{}), std::invalid_argument);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue q;
  std::vector<Us> fired;
  q.ScheduleAt(10, [&](Us t) { fired.push_back(t); });
  q.ScheduleAt(20, [&](Us t) { fired.push_back(t); });
  q.ScheduleAt(30, [&](Us t) { fired.push_back(t); });
  EXPECT_EQ(q.RunUntil(20), 2u);
  EXPECT_EQ(q.Now(), 20);
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_EQ(q.PendingCount(), 1u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle) {
  EventQueue q;
  EXPECT_EQ(q.RunUntil(100), 0u);
  EXPECT_EQ(q.Now(), 100);
}

TEST(EventQueue, StepOnEmptyReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.Step());
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, CascadedEventsAllFire) {
  EventQueue q;
  int count = 0;
  std::function<void(Us)> chain = [&](Us) {
    if (++count < 100) q.ScheduleAfter(1, chain);
  };
  q.ScheduleAt(0, chain);
  EXPECT_EQ(q.RunToCompletion(), 100u);
  EXPECT_EQ(q.Now(), 99);
}

TEST(ResourceTimeline, BackToBackReservations) {
  ResourceTimeline t;
  const auto a = t.Reserve(0, 10);
  EXPECT_EQ(a.start, 0);
  EXPECT_EQ(a.end, 10);
  const auto b = t.Reserve(0, 5);  // queued behind a
  EXPECT_EQ(b.start, 10);
  EXPECT_EQ(b.end, 15);
  EXPECT_EQ(t.BusyTime(), 15);
  EXPECT_EQ(t.ReservationCount(), 2u);
}

TEST(ResourceTimeline, IdleGapRespected) {
  ResourceTimeline t;
  t.Reserve(0, 10);
  const auto b = t.Reserve(100, 5);
  EXPECT_EQ(b.start, 100);
  EXPECT_EQ(b.end, 105);
  EXPECT_EQ(t.BusyTime(), 15);  // gaps do not count as busy
  EXPECT_EQ(t.FreeAt(), 105);
}

TEST(ResourceTimeline, ZeroDurationAllowed) {
  ResourceTimeline t;
  const auto a = t.Reserve(5, 0);
  EXPECT_EQ(a.Duration(), 0);
}

TEST(ResourceTimeline, NegativeDurationThrows) {
  ResourceTimeline t;
  EXPECT_THROW(t.Reserve(0, -1), std::invalid_argument);
}

TEST(ResourceTimeline, ResetClears) {
  ResourceTimeline t;
  t.Reserve(0, 10);
  t.Reset();
  EXPECT_EQ(t.BusyTime(), 0);
  EXPECT_EQ(t.FreeAt(), 0);
}

TEST(ResourcePool, IndexingAndAggregates) {
  ResourcePool pool(4);
  EXPECT_EQ(pool.Count(), 4u);
  pool.At(0).Reserve(0, 10);
  pool.At(3).Reserve(0, 7);
  EXPECT_EQ(pool.TotalBusyTime(), 17);
  pool.Reset();
  EXPECT_EQ(pool.TotalBusyTime(), 0);
}

TEST(ResourcePool, ErrorsOnBadIndexAndZeroSize) {
  EXPECT_THROW(ResourcePool(0), std::invalid_argument);
  ResourcePool pool(2);
  EXPECT_THROW(pool.At(2), std::out_of_range);
}

}  // namespace
}  // namespace ctflash::sim
