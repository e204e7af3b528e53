// Page-level flash transaction scheduler: the dispatch stage between the
// host submission queues and the device — and, with scheduled GC routing,
// the single arbiter of ALL device work, host and background alike.
//
// Admitted host requests arrive already split into single-page
// sched::FlashTransactions.  The scheduler keeps a ready set and at most
// `device_slots` transactions in flight (the device's internal command
// queue); each completion event frees a slot and pulls the next winner, so
// dispatch is driven entirely by the simulation event queue and is
// deterministic.  A dispatched transaction executes at once through the
// FTL (Ssd::Read/Write, FtlBase::ExecuteGcTransaction), which books the
// resource timelines; the transaction and its result then wait in an
// in-flight slot, and the completion event names only that slot.
//
// Dispatch order is the scheduler's whole point:
//  * kFifo issues strictly in intake order — a read stuck behind a busy
//    die blocks everything after it (head-of-line blocking);
//  * kOutOfOrder ranks by priority class first (host-read > host-write >
//    gc-copy > gc-erase), then picks the ready transaction whose target
//    die frees earliest (die-level conflict detection via the FlashTarget
//    occupancy timelines), tie-breaking on plane then intake order so
//    same-die work stripes across planes deterministically.
//
// GC as preemptible work (FtlConfig::gc_routing = kScheduled): the
// scheduler pulls relocation copies and victim erases from the FTL's
// planner (FtlBase::DrainGcTransactions) into the same ready set.  Because
// GC ranks below host traffic, a ready host read overtakes queued GC
// copies on its die — the read books the earlier timeline slot, which is
// exactly the QoS the inline routing cannot express.  Three guards keep GC
// live:
//  * aging — every host dispatch that overtakes waiting GC bumps the GC
//    transactions' age; at `gc_aging_limit` overtakes a GC transaction is
//    boosted above host writes (never above host reads);
//  * urgency — while the free pool sits at/below gc_threshold_low, all GC
//    work is boosted the same way;
//  * admission — while GC transactions are ready and the pool is at/below
//    the write floor (gc_threshold_low + FtlBase::GcScheduleLead(), sized
//    per variant to cover one victim's claims), host writes are held in
//    the ready set, so sustained writes can never starve the pool below
//    the GC trigger.
// A gc-erase never dispatches before all of its job's copies did (the
// victim must be fully relocated), enforced with a per-victim counter.
//
// Host writes get the same protection against host reads (they strictly
// outrank writes in out-of-order mode): with `write_aging_limit` > 0, a
// ready host write overtaken by that many host-read dispatches is boosted
// into the read rank, so an open-loop read flood can no longer starve
// writes indefinitely.  The limit defaults to 0 (disabled) to preserve the
// seed dispatch order bit-for-bit.
//
// Multi-tenant arbitration (qos::TenantTable attached): within a host
// priority rank whose candidates span tenants, a weighted deficit-round-
// robin pick (plus the min-share reservation floor) chooses the tenant
// first, and only then does the die-availability key order apply among that
// tenant's transactions.  Priority classes stay global — a host read of any
// tenant still outranks every host write — but inside a class tenants drain
// in weight proportion.  GC work carries no tenant and skips arbitration.
//
// Writes have no resolvable die before the FTL's allocator runs at
// dispatch time and use the write-frontier availability probe; unmapped
// reads carry no flash work at all and take a NEUTRAL key (startable now,
// worst plane) so they never leapfrog real work that is also startable.
//
// The ready index.  Out-of-order dispatch minimizes (rank, start, plane,
// seq) over the eligible ready transactions; FIFO minimizes seq.  Instead of
// scanning every ready transaction per pick, the scheduler files each one in
// a queue whose members share one dispatch key and one eligibility, in
// intake order:
//  * host reads by (tenant, global plane of the page they would read now),
//    unmapped reads in one neutral queue per tenant;
//  * host writes in one FIFO per tenant (every write keys on the frontier
//    probe);
//  * GC copies by source plane (the planner keeps one victim in flight, so
//    in practice they share one queue);
//  * GC erases in a short list, each gated on its own job's copies.
// Front dominance: within a queue the key is shared, and no member ranks
// better than the front (the front waited longest, so it has aged the
// most) or comes earlier in intake order, so the front beats every later
// member and only fronts can win a pick.  PickNext compares the fronts of
// the non-empty queues — found through a bitmask, so empty queues cost
// nothing — plus the erase list.
// With tenants, DRR chooses the tenant from the fronts at the winning rank.
// A pick therefore costs O(non-empty queues), flat in ready depth.
//
// Aging, the held-write flag and the hold-pick count need no pass over the
// ready set either: the scheduler counts host dispatches, host-read
// dispatches and held picks, and each transaction stamps the relevant
// counter at intake — its age is how far that counter moved since.  A
// write is reported held (DispatchContext::write_held) when any pick held
// writes while it waited.
//
// Re-resolving reads.  A read's queue records the mapping at intake (or at
// the last re-resolve).  MappingTable::change_count() moves with every
// remap; when it moved while reads wait, the next out-of-order pick
// re-probes every waiting read and moves those whose plane changed, in
// intake order (O(waiting reads)).  That is rare: with write aging off,
// only host reads dispatch while a host read waits, and a read remaps only
// when its data is lost; aged writes, and the inline GC they run, are the
// common trigger.  FIFO ignores keys, so it never re-resolves.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "qos/tenant_table.h"
#include "sched/observer.h"
#include "sched/transaction.h"
#include "sim/event_queue.h"
#include "ssd/ssd.h"
#include "util/types.h"

namespace ctflash::host {

/// Dispatch-order policy; see file header.
enum class SchedPolicy { kFifo = 0, kOutOfOrder = 1 };

const char* SchedPolicyName(SchedPolicy policy);

/// The device-internal transaction type (promoted to ctflash::sched so the
/// FTL can emit GC work through the same path), under its historical name.
using FlashTransaction = sched::FlashTransaction;

class IoScheduler {
 public:
  using TxnCallback =
      std::function<void(const FlashTransaction&, const ftl::RequestResult&)>;
  using DispatchCallback = std::function<void(const FlashTransaction&)>;

  /// Attaches itself as the FTL's GC sink when the FTL is configured with
  /// GcRouting::kScheduled (from then on the FTL stops running GC inline);
  /// the destructor detaches, handing GC back to the inline path so a
  /// live Ssd is never left with no one collecting.
  /// `gc_aging_limit` has no default here on purpose: HostConfig carries
  /// the documented default, and a second one would silently drift.
  /// `write_aging_limit` 0 disables write aging (the seed behavior);
  /// `tenants` (borrowed, may be null) enables multi-tenant arbitration.
  IoScheduler(ssd::Ssd& ssd, sim::EventQueue& queue, SchedPolicy policy,
              std::uint32_t device_slots, std::uint32_t gc_aging_limit,
              std::uint32_t write_aging_limit = 0,
              qos::TenantTable* tenants = nullptr);
  ~IoScheduler();

  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;

  /// Sink for completed HOST transactions (set once by the host
  /// interface).  GC transactions complete internally and are observable
  /// through the counters below.
  void OnTxnComplete(TxnCallback cb) { on_complete_ = std::move(cb); }

  /// Diagnostic/test hook: invoked for every transaction in dispatch order.
  /// Implemented as a thin adapter over AttachObserver — both pathways see
  /// the identical dispatch stream; setting a new callback replaces the
  /// previous one (the historical contract).
  void OnDispatch(DispatchCallback cb);

  /// Registers a scheduler observer (borrowed; e.g. obs::Tracer).  Observers
  /// see every dispatch with its resolved DispatchContext and every
  /// execution completion, in deterministic event order.  With no observers
  /// attached the scheduler computes no context at all.
  void AttachObserver(sched::SchedulerObserver* observer);
  void DetachObserver(sched::SchedulerObserver* observer);

  /// Adds a host transaction to the ready index and dispatches while slots
  /// allow.  The scheduler stamps the global intake sequence.
  void Enqueue(FlashTransaction txn);

  std::uint32_t InFlight() const { return in_flight_; }
  std::size_t ReadyCount() const { return ready_count_; }
  std::uint64_t DispatchedCount() const { return dispatched_; }
  /// Highest number of simultaneously in-flight transactions observed.
  std::uint32_t PeakInFlight() const { return peak_in_flight_; }
  SchedPolicy policy() const { return policy_; }
  std::uint32_t gc_aging_limit() const { return gc_aging_limit_; }
  std::uint32_t write_aging_limit() const { return write_aging_limit_; }
  /// Host writes that dispatched with their aging boost active (telemetry
  /// for the read-flood starvation bound).
  std::uint64_t AgedWriteDispatches() const { return aged_write_dispatches_; }

  // --- GC routing observability --------------------------------------------
  /// GC transactions currently waiting in the ready set.
  std::size_t GcReadyCount() const { return gc_ready_; }
  std::uint64_t GcDispatchedCount() const { return gc_dispatched_; }
  std::uint64_t GcCompletedCount() const { return gc_completed_; }
  /// Host-read dispatches that overtook at least one ready GC transaction
  /// (the preemption events the scheduled routing exists for).
  std::uint64_t ReadPreemptionsOfGc() const { return read_preemptions_; }
  /// Picks at which host writes were held by the admission guard.
  std::uint64_t WriteHoldPicks() const { return write_hold_picks_; }

 private:
  /// A waiting transaction: one node of the ready index.  Nodes live in one
  /// pool and link into their queue, so the index holds storage only for
  /// waiting transactions (empty queues are two indices).
  struct ReadyTxn {
    FlashTransaction txn;
    /// Intake time (observer latency attribution; unused by scheduling).
    Us enqueue_us = 0;
    /// Aging counter at intake: host dispatches for GC work, host-read
    /// dispatches for host writes.  The age is that counter's advance.
    std::uint64_t age_base = 0;
    /// WriteHoldPicks() at intake: a write was held iff it advanced.
    std::uint64_t held_base = 0;
    std::uint32_t queue = 0;  ///< owning queue, or kEraseList
    std::uint32_t next = 0;   ///< next node in the queue (or free list)
  };

  /// Intake-ordered singly linked list of pool nodes.
  struct Queue {
    std::uint32_t head;
    std::uint32_t tail;
    /// Global plane every member keys on; kNeutralPlane for unmapped
    /// reads (and unused for writes).
    std::uint32_t plane;
  };

  /// Out-of-order sort key within a priority rank: earliest cell-op start
  /// on the target die plus the plane stripe tie-break.
  struct DispatchKey {
    Us start = 0;
    std::uint32_t plane = 0;
  };

  /// A dispatched transaction and the result the device computed for it,
  /// held in an in-flight slot from dispatch to its completion event.
  struct InFlightTxn {
    FlashTransaction txn;
    ftl::RequestResult result;
  };

  static constexpr std::uint32_t kNil = ~0u;
  static constexpr std::uint32_t kEraseList = ~0u;
  /// Neutral plane for transactions with no die work (unmapped reads):
  /// loses every tie against real flash work, wins only over later starts.
  static constexpr std::uint32_t kNeutralPlane = ~0u;

  void Pump();
  /// Drains the FTL's scheduled-GC planner into the ready index.
  void PullGcWork();
  /// Stamps a transaction's counters and files it in its queue.
  void Admit(const FlashTransaction& txn);
  /// Tenant slot of a host transaction (0 without tenants).
  std::uint32_t SlotOf(const FlashTransaction& txn) const;
  /// Queue a host read belongs in under the current mapping.
  std::uint32_t ReadQueueOf(const FlashTransaction& txn) const;
  void Append(std::uint32_t queue, std::uint32_t node);
  /// Re-files the waiting reads whose plane changed under the current
  /// mapping, keeping intake order within each queue.
  void ResolveReads();
  /// Calls `fn(node)` for each pick candidate: every non-empty queue's
  /// front, then each waiting erase.
  template <typename Fn>
  void ForEachCandidate(Fn&& fn) const;
  bool Eligible(const ReadyTxn& rt, bool writes_held) const;
  int RankOf(const ReadyTxn& rt, bool urgent) const;
  /// Node of the next transaction to dispatch, or kNil when nothing is
  /// eligible (held writes / gated erases wait for state to change).
  std::uint32_t PickNext(bool urgent, bool write_pressure);
  DispatchKey KeyOf(const ReadyTxn& rt, Us write_free_at) const;
  DispatchKey PlaneKey(std::uint32_t plane) const;
  /// Resolves the observer-facing dispatch context (target die and its
  /// availability); only computed when observers are attached.
  sched::DispatchContext ContextOf(const ReadyTxn& rt) const;
  void Dispatch(std::uint32_t node);
  /// Completion event of in-flight slot `slot`.
  void Complete(std::uint32_t slot);

  ssd::Ssd& ssd_;
  sim::EventQueue& queue_;
  SchedPolicy policy_;
  std::uint32_t device_slots_;
  std::uint32_t gc_aging_limit_;
  std::uint32_t write_aging_limit_;
  /// Borrowed from the host interface; non-null only in multi-tenant mode.
  /// PickNext arbitrates through it — tenant DRR state advances exactly
  /// once per dispatched transaction.
  qos::TenantTable* tenants_;
  bool attached_gc_ = false;  ///< this scheduler is the FTL's GC sink
  std::uint32_t in_flight_ = 0;
  std::uint32_t peak_in_flight_ = 0;
  /// In-flight slot pool; grows to at most `device_slots` entries.
  std::vector<InFlightTxn> in_flight_txns_;
  std::vector<std::uint32_t> free_slots_;  ///< free in-flight slots
  std::uint64_t dispatched_ = 0;
  std::uint64_t next_seq_ = 0;

  // --- ready index (see file header) ---------------------------------------
  std::uint32_t planes_ = 0;        ///< global planes on the device
  std::uint32_t first_write_queue_ = 0;  ///< read queues precede it
  std::uint32_t first_gc_queue_ = 0;
  std::vector<ReadyTxn> nodes_;     ///< node pool
  std::uint32_t free_nodes_ = kNil;  ///< free-list head through `next`
  std::vector<Queue> queues_;
  /// Bit q set iff queues_[q] is non-empty.
  std::vector<std::uint64_t> nonempty_;
  std::vector<std::uint32_t> erases_;  ///< waiting erase nodes, intake order
  std::size_t ready_count_ = 0;
  std::size_t reads_ready_ = 0;
  std::size_t writes_ready_ = 0;
  /// Mapping change count the waiting reads' queues were resolved at.
  std::uint64_t reads_resolved_at_ = 0;
  std::vector<std::uint32_t> resolve_scratch_;
  // Aging clocks stamped into ReadyTxn::age_base.
  std::uint64_t host_dispatches_ = 0;
  std::uint64_t host_read_dispatches_ = 0;

  /// Copies of a GC job not yet dispatched, keyed by victim block; the
  /// job's erase is eligible only once its entry drains to zero.
  std::unordered_map<BlockId, std::uint32_t> gc_copies_undispatched_;
  std::vector<sched::FlashTransaction> gc_intake_;  ///< drain scratch buffer
  /// Per-tenant "has eligible work in the winning rank" scratch for
  /// PickNext.
  std::vector<bool> arb_active_;
  std::size_t gc_ready_ = 0;
  std::uint64_t gc_dispatched_ = 0;
  std::uint64_t gc_completed_ = 0;
  std::uint64_t read_preemptions_ = 0;
  std::uint64_t write_hold_picks_ = 0;
  std::uint64_t aged_write_dispatches_ = 0;
  TxnCallback on_complete_;
  /// Dispatch/execution observers (obs::Tracer and the OnDispatch adapter).
  std::vector<sched::SchedulerObserver*> observers_;
  /// Owns the adapter wrapping the legacy OnDispatch callback.
  std::unique_ptr<sched::SchedulerObserver> dispatch_adapter_;
};

}  // namespace ctflash::host
