#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.h"
#include "sim/resource.h"
#include "util/random.h"

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

/// An EventQueue checked against a reference std::priority_queue on
/// (time, sequence).  Every event checks, as it fires, that it is the one
/// the reference pops next, and that Now(), PendingCount() and Empty()
/// agree; Drain and RunUntil check the same after every step.
class CheckedQueue {
 public:
  explicit CheckedQueue(std::uint64_t seed) : rng_(seed) {}

  /// Schedules one event at `at`.  When it fires it schedules `children`
  /// more at Now() + [0, max_delay] from inside its callback, then throws if
  /// `throws`.
  void Schedule(Us at, int children = 0, Us max_delay = 0,
                bool throws = false) {
    const std::uint64_t id = next_id_++;
    reference_.push(Ref{at, id});
    queue_.ScheduleAt(at, [this, id, children, max_delay, throws](Us now) {
      OnFire(id, now, children, max_delay, throws);
    });
  }

  /// `count` events in time order over [from, to), scheduled from outside
  /// any callback (an open-loop arrival batch), each with one child.
  void Batch(Us from, Us to, int count, Us max_delay) {
    std::vector<Us> times(static_cast<std::size_t>(count));
    for (Us& t : times) {
      t = from + static_cast<Us>(rng_.UniformBelow(
                     static_cast<std::uint64_t>(to - from)));
    }
    std::sort(times.begin(), times.end());
    for (const Us t : times) Schedule(t, 1, max_delay);
  }

  /// `count` events at random times in [from, to), in no order.
  void Scattered(Us from, Us to, int count, Us max_delay) {
    for (int i = 0; i < count; ++i) {
      Schedule(from + static_cast<Us>(rng_.UniformBelow(
                          static_cast<std::uint64_t>(to - from))),
               1, max_delay);
    }
  }

  /// Steps until the queue is empty, checking after every step; a throwing
  /// callback is counted and stepping goes on.
  void Drain() {
    for (;;) {
      const bool expected = !reference_.empty();
      bool stepped = false;
      try {
        stepped = queue_.Step();
      } catch (const std::runtime_error&) {
        stepped = true;
        ++throws_;
      }
      ASSERT_EQ(stepped, expected);
      ExpectPendingAgrees();
      if (!stepped) break;
    }
    EXPECT_EQ(fired_, next_id_);
  }

  void RunUntil(Us deadline) {
    const Us before = queue_.Now();
    queue_.RunUntil(deadline);
    EXPECT_EQ(queue_.Now(), std::max(before, deadline));
    ExpectPendingAgrees();
    if (!reference_.empty()) EXPECT_GT(reference_.top().at, deadline);
  }

  EventQueue& queue() { return queue_; }
  std::uint64_t fired() const { return fired_; }
  std::uint64_t throws() const { return throws_; }

 private:
  struct Ref {
    Us at;
    std::uint64_t id;  ///< scheduling order, i.e. the queue's sequence
    bool operator>(const Ref& other) const {
      return at != other.at ? at > other.at : id > other.id;
    }
  };

  void OnFire(std::uint64_t id, Us now, int children, Us max_delay,
              bool throws) {
    ASSERT_FALSE(reference_.empty()) << "event " << id << " fired extra";
    const Ref expected = reference_.top();
    reference_.pop();
    ASSERT_EQ(id, expected.id) << "after " << fired_ << " events";
    EXPECT_EQ(now, expected.at);
    EXPECT_EQ(queue_.Now(), expected.at);
    ExpectPendingAgrees();
    ++fired_;
    for (int c = 0; c < children; ++c) {
      Schedule(now + static_cast<Us>(rng_.UniformBelow(
                         static_cast<std::uint64_t>(max_delay) + 1)));
    }
    if (throws) throw std::runtime_error("callback failed");
  }

  void ExpectPendingAgrees() {
    EXPECT_EQ(queue_.PendingCount(), reference_.size());
    EXPECT_EQ(queue_.Empty(), reference_.empty());
  }

  EventQueue queue_;
  std::priority_queue<Ref, std::vector<Ref>, std::greater<>> reference_;
  util::Xoshiro256StarStar rng_;
  std::uint64_t next_id_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t throws_ = 0;
};

TEST(EventQueueOrder, MoreInterleavedSortedBatchesThanRuns) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    CheckedQueue q(seed);
    // Nine overlapping sorted batches: more than the queue keeps runs, so
    // later batches spill to the heap.
    for (int b = 0; b < 9; ++b) {
      const Us from = static_cast<Us>(b) * 100;
      q.Batch(from, from + 2'000, 60, 400);
    }
    q.Drain();
    EXPECT_EQ(q.fired(), 9u * 60 * 2);
  }
}

TEST(EventQueueOrder, RebuildBatchSpanningDeadlinesThenEarlierBatch) {
  constexpr Us kEpoch = 1'000;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    CheckedQueue q(seed);
    for (Us e = 0; e < 8; ++e) {
      const Us start = e * kEpoch;
      // Rebuild traffic first, reaching three epochs ahead, then the
      // epoch's own arrivals, which start earlier than its tail.
      q.Batch(start, start + 3 * kEpoch, 30, 700);
      q.Batch(start, start + kEpoch, 80, 700);
      q.RunUntil(start + kEpoch);
    }
    q.Drain();
  }
}

TEST(EventQueueOrder, UnsortedOutsideSchedules) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    CheckedQueue q(seed);
    for (Us round = 0; round < 10; ++round) {
      const Us now = q.queue().Now();
      q.Scattered(now, now + 500, 40, 300);
      q.Batch(now, now + 500, 20, 300);
      q.RunUntil(now + 250);
    }
    q.Drain();
  }
}

TEST(EventQueueOrder, InCallbackSchedulesAtNowAndLater) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    CheckedQueue q(seed);
    for (int i = 0; i < 50; ++i) q.Schedule(i * 3, 3, 2);  // many at Now()
    q.Batch(0, 150, 50, 0);                               // children at Now()
    q.Drain();
    EXPECT_EQ(q.fired(), 50u * 4 + 50 * 2);
  }
}

TEST(EventQueueOrder, SameMicrosecondTiesAcrossRunsAndHeap) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    CheckedQueue q(seed);
    // Four microseconds for everything: every run, the heap and the
    // in-callback children tie; only the sequence orders them.
    for (int b = 0; b < 6; ++b) q.Batch(0, 4, 30, 1);
    q.Scattered(0, 4, 60, 1);
    q.RunUntil(1);
    q.Batch(1, 4, 30, 0);
    q.Drain();
  }
}

TEST(EventQueueOrder, ThrowingCallbackLeavesTheQueueUsable) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    CheckedQueue q(seed);
    q.Batch(0, 1'000, 40, 200);
    q.Schedule(500, 2, 100, /*throws=*/true);
    try {
      q.queue().RunUntil(600);
      ADD_FAILURE() << "the callback did not throw";
    } catch (const std::runtime_error&) {
    }
    EXPECT_EQ(q.queue().Now(), 500);
    // Outside schedules after the throw keep the same order.
    q.Batch(500, 1'500, 40, 200);
    q.Schedule(1'200, 1, 50, /*throws=*/true);
    q.RunUntil(800);
    q.Drain();
    EXPECT_EQ(q.throws(), 1u);
  }
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
