// Discrete-event simulation core.
//
// EventQueue holds callbacks scheduled at absolute microsecond timestamps
// and fires them in (time, sequence) order, so same-time events fire in
// scheduling order (deterministic replay).  The SSD model uses it to drive
// trace arrivals; resource contention is modeled by the ResourceTimeline in
// resource.h.
//
// Pending events live in a binary heap plus a few FIFO runs.  Open-loop
// load generators schedule whole batches of arrivals up front, already in
// time order, from outside any callback; such a schedule is appended to a
// run whose last event is not later than it (or to an empty run), where it
// costs no sift.  Schedules made while a callback fires (completions,
// wakes) and those that fit no run go to the heap.  Every run is sorted by
// construction, so firing the least (time, sequence) among the heap top and
// the run fronts reproduces the order of a single heap for any input.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
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

  bool Empty() const { return PendingCount() == 0; }
  std::size_t PendingCount() const;

 private:
  struct Entry {
    Us at;
    std::uint64_t seq;
    EventCallback cb;
  };
  static bool Before(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
  /// Heap order for std::push_heap/pop_heap: the least entry on top.
  static bool Later(const Entry& a, const Entry& b) { return Before(b, a); }

  /// A FIFO of entries in (time, sequence) order; `head` indexes its front.
  struct Run {
    std::vector<Entry> entries;
    std::size_t head = 0;
    bool empty() const { return head == entries.size(); }
  };
  static constexpr int kRuns = 4;
  static constexpr int kHeap = -1;

  /// Where the least pending entry lives: a run index, kHeap, or
  /// `kRuns` when nothing is pending.
  int NextSource() const;
  const Entry& Front(int source) const {
    return source == kHeap ? heap_.front()
                           : runs_[source].entries[runs_[source].head];
  }
  /// Removes the front entry of `source`, advances time to it and fires it.
  void Fire(int source);

  std::vector<Entry> heap_;
  std::array<Run, kRuns> runs_;
  /// Bit r set while run r is non-empty: a heap-only queue checks no run.
  std::uint32_t live_runs_ = 0;
  /// True while a callback fires; its schedules go to the heap.
  bool firing_ = false;
  Us now_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace ctflash::sim
