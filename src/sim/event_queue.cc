#include "sim/event_queue.h"

#include <stdexcept>

namespace ctflash::sim {

void EventQueue::ScheduleAt(Us at, EventCallback cb) {
  if (at < now_) {
    throw std::invalid_argument("EventQueue::ScheduleAt: time in the past");
  }
  if (!cb) throw std::invalid_argument("EventQueue::ScheduleAt: null callback");
  heap_.push(Entry{at, next_seq_++, std::move(cb)});
}

void EventQueue::ScheduleAfter(Us delay, EventCallback cb) {
  if (delay < 0) {
    throw std::invalid_argument("EventQueue::ScheduleAfter: negative delay");
  }
  ScheduleAt(now_ + delay, std::move(cb));
}

bool EventQueue::Step() {
  if (heap_.empty()) return false;
  // Move the entry out instead of copying: the std::function payload owns
  // heap storage, and this pop is the hottest line of the simulator.
  // Mutating top() is safe because pop() immediately discards the slot.
  Entry top = std::move(const_cast<Entry&>(heap_.top()));
  heap_.pop();
  now_ = top.at;
  top.cb(now_);
  return true;
}

std::uint64_t EventQueue::RunToCompletion() {
  std::uint64_t fired = 0;
  while (Step()) ++fired;
  return fired;
}

std::uint64_t EventQueue::RunUntil(Us deadline) {
  std::uint64_t fired = 0;
  while (!heap_.empty() && heap_.top().at <= deadline) {
    Step();
    ++fired;
  }
  if (now_ < deadline) now_ = deadline;
  return fired;
}

}  // namespace ctflash::sim
