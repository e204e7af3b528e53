// Discrete-event simulation core.
//
// EventQueue is a classic calendar: callbacks scheduled at absolute
// microsecond timestamps, executed in (time, sequence) order so same-time
// events fire in scheduling order (deterministic replay).  The SSD model uses
// it to drive trace arrivals; resource contention is modeled by the
// ResourceTimeline in resource.h.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/types.h"

namespace ctflash::sim {

using EventCallback = std::function<void(Us now)>;

class EventQueue {
 public:
  EventQueue() = default;

  /// Current simulated time (time of the most recently fired event).
  Us Now() const { return now_; }

  /// Schedules `cb` at absolute time `at` (must be >= Now()).
  void ScheduleAt(Us at, EventCallback cb);

  /// Schedules `cb` `delay` microseconds from now.
  void ScheduleAfter(Us delay, EventCallback cb);

  /// Fires the next event; returns false when the queue is empty.
  bool Step();

  /// Runs until the queue drains. Returns the number of events fired.
  std::uint64_t RunToCompletion();

  /// Runs events with time <= deadline. Time advances to at most deadline.
  std::uint64_t RunUntil(Us deadline);

  bool Empty() const { return heap_.empty(); }
  std::size_t PendingCount() const { return heap_.size(); }

 private:
  struct Entry {
    Us at;
    std::uint64_t seq;
    EventCallback cb;
    bool operator>(const Entry& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  Us now_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace ctflash::sim
