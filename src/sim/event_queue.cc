#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace ctflash::sim {

namespace {

/// Sets a flag for one callback and restores it however the callback exits
/// (a device that throws mid-epoch is caught above the queue and the queue
/// is used again).
class FlagScope {
 public:
  explicit FlagScope(bool& flag) : flag_(flag), was_(flag) { flag_ = true; }
  ~FlagScope() { flag_ = was_; }
  FlagScope(const FlagScope&) = delete;
  FlagScope& operator=(const FlagScope&) = delete;

 private:
  bool& flag_;
  bool was_;
};

/// A run compacts once this many fired entries lead it and they are at
/// least half of it, so a run that never empties stays bounded.
constexpr std::size_t kCompactAt = 1024;
/// An emptied run keeps its storage up to this many entries.
constexpr std::size_t kKeepEntries = 64;

}  // namespace

void EventQueue::ScheduleAt(Us at, EventCallback cb) {
  if (at < now_) {
    throw std::invalid_argument("EventQueue::ScheduleAt: time in the past");
  }
  if (!cb) throw std::invalid_argument("EventQueue::ScheduleAt: null callback");
  Entry entry{at, next_seq_++, std::move(cb)};
  if (!firing_) {
    // Best fit: the run with the latest tail not after `at`, else an empty
    // run, keeps the other runs open for batches that start earlier.
    int fit = kHeap;
    int empty = kHeap;
    for (int r = 0; r < kRuns; ++r) {
      const Run& run = runs_[r];
      if (run.empty()) {
        if (empty == kHeap) empty = r;
      } else if (run.entries.back().at <= at &&
                 (fit == kHeap ||
                  run.entries.back().at > runs_[fit].entries.back().at)) {
        fit = r;
      }
    }
    if (fit == kHeap) fit = empty;
    if (fit != kHeap) {
      runs_[fit].entries.push_back(std::move(entry));
      live_runs_ |= 1u << fit;
      return;
    }
  }
  heap_.push_back(std::move(entry));
  std::push_heap(heap_.begin(), heap_.end(), Later);
}

void EventQueue::ScheduleAfter(Us delay, EventCallback cb) {
  if (delay < 0) {
    throw std::invalid_argument("EventQueue::ScheduleAfter: negative delay");
  }
  ScheduleAt(now_ + delay, std::move(cb));
}

std::size_t EventQueue::PendingCount() const {
  std::size_t pending = heap_.size();
  for (const Run& run : runs_) pending += run.entries.size() - run.head;
  return pending;
}

int EventQueue::NextSource() const {
  int best = heap_.empty() ? kRuns : kHeap;
  for (std::uint32_t live = live_runs_; live != 0; live &= live - 1) {
    const int r = std::countr_zero(live);
    if (best == kRuns || Before(Front(r), Front(best))) best = r;
  }
  return best;
}

void EventQueue::Fire(int source) {
  // Move the entry out instead of copying: the std::function payload may
  // own heap storage, and this pop is the hottest line of the simulator.
  Entry entry = [&] {
    if (source == kHeap) {
      std::pop_heap(heap_.begin(), heap_.end(), Later);
      Entry top = std::move(heap_.back());
      heap_.pop_back();
      return top;
    }
    Run& run = runs_[source];
    Entry front = std::move(run.entries[run.head++]);
    if (run.empty()) {
      // Give a batch's storage back (every device of a fleet keeps its own
      // queue), but not a small run's: a caller that schedules one event at
      // a time from outside would allocate per event.
      if (run.entries.capacity() > kKeepEntries) {
        run.entries = std::vector<Entry>();
      } else {
        run.entries.clear();
      }
      run.head = 0;
      live_runs_ &= ~(1u << source);
    } else if (run.head >= kCompactAt && 2 * run.head >= run.entries.size()) {
      run.entries.erase(run.entries.begin(),
                        run.entries.begin() +
                            static_cast<std::ptrdiff_t>(run.head));
      run.head = 0;
    }
    return front;
  }();
  now_ = entry.at;
  const FlagScope firing(firing_);
  entry.cb(now_);
}

bool EventQueue::Step() {
  const int source = NextSource();
  if (source == kRuns) return false;
  Fire(source);
  return true;
}

std::uint64_t EventQueue::RunToCompletion() {
  std::uint64_t fired = 0;
  while (Step()) ++fired;
  return fired;
}

std::uint64_t EventQueue::RunUntil(Us deadline) {
  std::uint64_t fired = 0;
  for (int source = NextSource();
       source != kRuns && Front(source).at <= deadline;
       source = NextSource()) {
    Fire(source);
    ++fired;
  }
  if (now_ < deadline) now_ = deadline;
  return fired;
}

}  // namespace ctflash::sim
