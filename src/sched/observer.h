// Scheduler observation interface: the single sink for dispatch-order and
// transaction-execution events.
//
// Historically IoScheduler carried a test-only std::function dispatch hook
// next to the functional completion callback — two parallel pathways with
// different lifetimes and no execution-side visibility.  This interface
// replaces that: the scheduler publishes every dispatch (with the context
// needed to attribute where the transaction's time went) and every
// execution completion to attached observers.  The lifecycle tracer
// (obs::Tracer) is the production observer; the legacy OnDispatch callback
// is now an adapter over this interface, so there is exactly one pathway.
//
// Observers are borrowed, never owned, and must outlive the scheduler.
// With no observers attached the scheduler skips all context computation —
// the disabled-mode cost is one empty-vector check per dispatch.
//
// Every dispatched transaction holds one of the scheduler's in-flight
// slots (at most `device_slots`) until its completion event.  Both events
// name that slot, so an observer can keep per-transaction state in a dense
// array instead of a map keyed by seq.  A slot is reused only after
// OnTxnExecuted for its previous transaction has returned.
#pragma once

#include <cstdint>

#include "sched/transaction.h"
#include "util/types.h"

namespace ctflash::sched {

/// "No die": the transaction's target die is not resolvable at dispatch
/// time (unmapped reads; writes, whose die the FTL allocator picks during
/// execution).
inline constexpr std::uint32_t kNoDie = ~0u;

/// Everything the scheduler knows about a transaction at the moment it
/// leaves the ready set, for stall attribution:
///  * dispatch_us - enqueue_us is the queued phase (slot wait + losing
///    picks to higher-ranked work);
///  * die_free_at - dispatch_us is time the transaction will spend waiting
///    for its target die inside the media phase (the timelines book the
///    operation behind whatever currently occupies the die);
///  * write_held marks a host write that the GC write-admission guard held
///    in the ready set at least once.
struct DispatchContext {
  std::uint32_t slot = 0;  ///< in-flight slot until OnTxnExecuted
  Us dispatch_us = 0;
  Us enqueue_us = 0;
  std::uint32_t die = kNoDie;  ///< predicted target die (global index)
  Us die_free_at = 0;          ///< that die's timeline availability
  bool write_held = false;     ///< deferred by the GC admission guard
};

class SchedulerObserver {
 public:
  virtual ~SchedulerObserver() = default;

  /// Fires for every transaction in dispatch order, host and GC alike,
  /// immediately before the device books its timelines.
  virtual void OnDispatch(const FlashTransaction& txn,
                          const DispatchContext& context) = 0;

  /// Fires when the device finishes executing the transaction (the
  /// completion event), before the host interface sees the completion.
  /// `slot` is the one its DispatchContext named.
  virtual void OnTxnExecuted(const FlashTransaction& txn, std::uint32_t slot,
                             Us dispatch_us, Us completion_us) = 0;
};

}  // namespace ctflash::sched
