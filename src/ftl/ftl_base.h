// Common FTL interface, statistics and the one page path every variant runs.
//
// Host requests arrive as (byte offset, byte length, arrival time); the base
// class splits them into logical pages.  Per-request latency is the
// completion of the slowest page operation minus arrival (the channel/chip
// timelines supply queueing).
//
// The base class owns the structures every variant shares — the page-level
// mapping table and the per-block accounting — and every loop over pages:
//
//  * read:    look the page up, read it (unmapped pages carry no flash
//             work), unmap it when its data is lost;
//  * write:   run inline GC when due, then per page place -> program with
//             retry -> remap;
//  * GC copy: place the destination, read the source, program with retry,
//             remap (or drop the mapping when the source read lost it);
//  * program with retry: a failed program flags its block for retirement
//             and the page is placed again on the same stream, up to
//             FlashTarget::MaxProgramAttempts;
//  * audit:   CheckInvariants (mapping, valid counts, free blocks erased).
//
// A variant decides only WHERE a page goes, through its placement hooks:
// PlaceHostPage, PlaceGcPage and PlaceAgain (plus, for reads, the per-page
// bookkeeping it hands to the ReadPages template — no virtual call per read
// page).  The conventional FTL fills its host and GC write streams blindly;
// PPB picks the hot or cold area and the fast or slow virtual-block class.
//
// GC work can be routed two ways (FtlConfig::gc_routing):
//
//  * kInline (default): GC books die timelines inline with the triggering
//    write, invisible to the host scheduler.  This is the paper's
//    accounting (GC cost shows up through erase counts) and is bit-for-bit
//    the seed behavior.
//  * kScheduled: the FTL never times GC itself.  When the free pool drops
//    to the trigger, the base-class planner picks a victim and EMITS its
//    relocation copies and the final erase as sched::FlashTransactions
//    (DrainGcTransactions); the host IoScheduler dispatches them alongside
//    host traffic by priority — host reads preempt queued GC on the same
//    die, an aging bound keeps GC from starving, and host writes are held
//    while the pool sits at the trigger so it can never be written empty.
//    Transactions execute (mapping update + timeline booking) at dispatch
//    time via ExecuteGcTransaction; a copy whose source page was
//    invalidated between planning and dispatch completes instantly (the
//    host already rewrote the data — skipping the copy is free WAF).
//    Requires all post-attach writes to flow through the host interface.
//
// Both routes relocate each page through the same GC-copy path.
// `charge_gc_to_write` (kInline only) switches to a foreground-GC device
// that stalls the triggering write.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ftl/block_manager.h"
#include "ftl/flash_target.h"
#include "ftl/mapping_table.h"
#include "ftl/wear_leveler.h"
#include "ftl/write_allocator.h"
#include "sched/transaction.h"
#include "util/types.h"

namespace ctflash::ftl {

/// How GC relocation work reaches the flash fabric; see file header.
enum class GcRouting : std::uint8_t { kInline = 0, kScheduled = 1 };

const char* GcRoutingName(GcRouting routing);

struct FtlConfig {
  /// Fraction of physical capacity hidden from the host (over-provisioning).
  double op_ratio = 0.15;
  /// GC runs when free blocks drop to this count...
  std::uint64_t gc_threshold_low = 6;
  /// ...and keeps collecting until free blocks reach this count.
  std::uint64_t gc_threshold_high = 10;
  /// Charge synchronous GC time to the write that triggered it.  The paper
  /// reports GC cost through the erase-count figure (Fig. 18) while write
  /// latency stays within 0.0001 % (Figs. 15-17), which implies
  /// background/uncharged GC; hence the default is false.  Set true to model
  /// a device that stalls the triggering write (foreground GC).
  bool charge_gc_to_write = false;
  /// Static wear leveling (disabled by default, as in the paper).
  WearLevelerConfig wear;
  /// Write-path parallelism: open blocks per write stream, striped across
  /// dies (see ftl/write_allocator.h).  1 reproduces the seed
  /// single-active-block path bit-for-bit (the paper-figure setting).
  std::uint32_t write_frontiers = 1;
  StripePolicy stripe_policy = StripePolicy::kRoundRobin;
  /// GC work routing (see file header).  kInline is seed-bit-identical;
  /// kScheduled emits GC as priority transactions through the host
  /// IoScheduler and needs TimingMode::kQueued plus the host interface.
  GcRouting gc_routing = GcRouting::kInline;

  void Validate() const;
};

/// Monotonic counters every FTL variant maintains.
struct FtlStats {
  std::uint64_t host_read_pages = 0;
  std::uint64_t host_write_pages = 0;
  std::uint64_t gc_page_copies = 0;
  std::uint64_t gc_erases = 0;
  Us gc_time_us = 0;
  /// Scheduled-GC only: planned copies skipped because the host rewrote the
  /// source page between planning and dispatch (avoided relocation work).
  std::uint64_t gc_stale_copies = 0;

  /// Write amplification factor: (host + GC writes) / host writes.
  double Waf() const {
    return host_write_pages == 0
               ? 1.0
               : static_cast<double>(host_write_pages + gc_page_copies) /
                     static_cast<double>(host_write_pages);
  }
};

/// Media-fault handling counters (advance only when the target has a fault
/// plan armed; see FlashTarget::ArmFaults).  Block retirement totals live in
/// BlockManager::RetiredCount().
struct FaultStats {
  std::uint64_t program_failures = 0;     ///< page programs that failed verify
  std::uint64_t erase_failures = 0;       ///< block erases that failed verify
  std::uint64_t host_unreadable_pages = 0;  ///< host reads whose data is gone
  std::uint64_t gc_lost_pages = 0;        ///< GC relocations whose source died

  std::uint64_t LostPages() const {
    return host_unreadable_pages + gc_lost_pages;
  }
};

struct RequestResult {
  Us arrival_us = 0;
  Us completion_us = 0;
  std::uint32_t pages = 0;
  Us LatencyUs() const { return completion_us - arrival_us; }
};

class FtlBase {
 public:
  FtlBase(FlashTarget& target, const FtlConfig& config);
  virtual ~FtlBase() = default;

  FtlBase(const FtlBase&) = delete;
  FtlBase& operator=(const FtlBase&) = delete;

  /// Host read.  Unmapped pages complete instantly (they carry no flash
  /// work); throws std::invalid_argument when the range leaves the exported
  /// logical space or is empty.
  RequestResult Read(std::uint64_t offset_bytes, std::uint64_t size_bytes,
                     Us arrival_us);

  /// Host write (out-of-place update): inline GC when due, then each page
  /// is placed by the variant, programmed (with retry) and remapped.
  RequestResult Write(std::uint64_t offset_bytes, std::uint64_t size_bytes,
                      Us arrival_us);

  virtual std::string Name() const = 0;

  /// Scheduling hint for the host layer: the physical page currently
  /// serving `lpn`, or kInvalidPpn when unmapped.  Read-only — it must not
  /// touch hotness metadata (a probe is not an access).
  virtual Ppn ProbePpn(Lpn lpn) const { return map_.Lookup(lpn); }

  /// Scheduling hint for the host layer: earliest die availability across
  /// the host write stream's open frontiers — when the next write could
  /// start its cell program.  std::nullopt when unknown (no open frontier
  /// yet); read-only like ProbePpn.
  virtual std::optional<Us> ProbeWriteFreeAt() const { return std::nullopt; }

  std::uint64_t LogicalPages() const { return logical_pages_; }
  std::uint64_t LogicalBytes() const {
    return logical_pages_ * PageSize();
  }
  std::uint32_t PageSize() const {
    return target_.geometry().page_size_bytes;
  }

  const FtlStats& stats() const { return stats_; }
  const FaultStats& fault_stats() const { return fault_stats_; }
  void ResetStats() { stats_ = FtlStats{}; }

  FlashTarget& target() { return target_; }
  const FtlConfig& config() const { return config_; }
  const WearLeveler& wear_leveler() const { return wear_leveler_; }
  const MappingTable& mapping() const { return map_; }
  const BlockManager& blocks() const { return blocks_; }

  /// Audit for property tests: the mapping is consistent, every mapped lpn
  /// points at a programmed page, per-block valid counters match the
  /// mapping, and every free block is erased.  Variants extend it with
  /// their own structures.
  virtual bool CheckInvariants() const;

  // --- scheduled-GC transaction API (gc_routing = kScheduled) --------------
  //
  // The host IoScheduler is the only intended caller.  Flow per victim:
  // DrainGcTransactions plans a victim when the pool is at the trigger and
  // hands out its copy + erase transactions; the scheduler dispatches each
  // through ExecuteGcTransaction (which performs the mapping/accounting
  // mutation and books the timelines); the next victim is planned only
  // after the previous erase executed, so at most one victim is in flight.

  /// Registers the scheduler as the GC sink.  From this call on, inline GC
  /// is disabled when gc_routing == kScheduled (until then the inline loop
  /// still runs, so synchronous prefill stays safe).  At most
  /// one sink may be attached at a time: a second attach would let one
  /// scheduler's destructor wipe plan state another still depends on.
  void AttachGcScheduler() {
    if (gc_scheduler_attached_) {
      throw std::logic_error("FtlBase: a GC scheduler is already attached");
    }
    gc_scheduler_attached_ = true;
  }

  /// Unregisters the GC sink (the IoScheduler detaches on destruction):
  /// inline GC takes over again and the plan state resets — transactions
  /// the dying scheduler still held are abandoned; their victim is simply
  /// re-planned by whoever collects next (it stays FULL until erased).
  void DetachGcScheduler() {
    gc_scheduler_attached_ = false;
    gc_active_ = false;
    gc_outstanding_ = 0;
  }

  /// True when GC work is routed through the scheduler (kScheduled routing
  /// and a scheduler attached).
  bool ScheduledGcActive() const {
    return gc_scheduler_attached_ && config_.gc_routing == GcRouting::kScheduled;
  }

  std::uint64_t FreeBlockCount() const { return blocks_.FreeCount(); }

  /// Free blocks above the GC trigger — the spendable spare budget.
  /// Retirement (grown-bad blocks under fault injection, endurance
  /// exhaustion) permanently shrinks it; health telemetry watches it
  /// approach zero to evacuate a device BEFORE GC dies of spare
  /// exhaustion.
  std::uint64_t SpareHeadroomBlocks() const {
    const std::uint64_t free = blocks_.FreeCount();
    return free > config_.gc_threshold_low ? free - config_.gc_threshold_low
                                           : 0;
  }

  /// Free pool at/below the GC trigger: the scheduler boosts pending GC
  /// transactions above host writes while this holds.
  bool GcUrgent() const {
    return blocks_.FreeCount() <= config_.gc_threshold_low;
  }

  /// Free pool at/below the host-write admission floor (trigger + lead):
  /// while GC transactions are pending, the scheduler holds host writes so
  /// sustained writes can never starve the pool below the trigger.
  bool GcWritePressure() const {
    return blocks_.FreeCount() <= config_.gc_threshold_low + GcScheduleLead();
  }

  /// Host-write admission lead above gc_threshold_low (see
  /// GcWritePressure): must cover the spare blocks ONE victim's relocation
  /// can claim before its erase repays the pool, so the pool bottoms out
  /// at the trigger instead of below it.  The base default covers a
  /// single-stream GC relocation — up to `write_frontiers` open blocks on
  /// the GC stream plus one fill-up claim of slack; variants with wider GC
  /// fan-out override it.
  virtual std::uint64_t GcScheduleLead() const {
    return config_.write_frontiers + 1;
  }

  /// Plans victims as needed and appends their pending transactions to
  /// `out` (no-op unless ScheduledGcActive()).  Planning keeps the inline
  /// loop's hysteresis: it engages when the pool reaches the admission
  /// floor and victims keep coming until the pool recovers to
  /// gc_threshold_high (or nothing is reclaimable).
  void DrainGcTransactions(std::vector<sched::FlashTransaction>& out);

  /// Executes one drained GC transaction at `earliest`: performs the
  /// mapping/accounting mutation, books the flash timelines, and returns
  /// the completion time.  A kGcErase must only be submitted after all of
  /// its job's copies executed (the scheduler enforces this).
  Us ExecuteGcTransaction(const sched::FlashTransaction& txn, Us earliest);

  /// Drained-but-not-executed GC transactions (conservation probes).
  std::uint64_t GcTransactionsOutstanding() const { return gc_outstanding_; }
  std::uint64_t GcTransactionsEmitted() const { return gc_txns_emitted_; }
  std::uint64_t GcTransactionsExecuted() const { return gc_txns_executed_; }

  /// Restarts the free-pool low-watermark (BlockManager::MinFreeWatermark)
  /// from the current pool size — call at the start of a measured phase so
  /// prefill-era dips don't contaminate a no-starvation assertion.
  void ResetFreePoolWatermark() { blocks_.ResetFreeWatermark(); }

  // --- snapshot ------------------------------------------------------------

  /// Serializes mapping/blocks/stats/wear/GC-planner state plus the
  /// variant's own state (SaveVariantState).  The device must be quiesced:
  /// throws std::logic_error when GC transactions are drained but not yet
  /// executed (the in-flight plan references scheduler-held objects that a
  /// snapshot cannot carry).  Scheduler attachment is runtime wiring and is
  /// NOT serialized — restore, then attach a fresh scheduler.
  void SaveState(util::StateWriter& w) const;
  void LoadState(util::StateReader& r);

 protected:
  /// Where one page program goes: the page the variant allocated, and the
  /// variant's write stream for it (opaque to the base).  A failed program
  /// is placed again on the same stream (PlaceAgain).
  struct Placement {
    Ppn ppn = kInvalidPpn;
    std::uint32_t stream = 0;
  };

  // --- placement hooks: the variant decides where each page goes ----------

  /// Page for a host write of `lpn`, part of a request of `request_bytes`
  /// (classifiers read the size).  Must not run GC.
  virtual Placement PlaceHostPage(Lpn lpn, std::uint64_t request_bytes) = 0;
  /// Destination for GC relocating `lpn` from `src` on `victim`; chosen
  /// before the source read books the die.
  virtual Placement PlaceGcPage(Lpn lpn, Ppn src, BlockId victim) = 0;
  /// Next page on `stream` after a program there failed.
  virtual Ppn PlaceAgain(std::uint32_t stream) = 0;

  /// Per-request read hook: the plain page loop.  A variant with per-read
  /// bookkeeping overrides it with one ReadPages call carrying that
  /// bookkeeping, so the page loop makes no virtual call.
  virtual Us DoRead(Lpn lpn_first, std::uint32_t pages,
                    std::uint64_t offset_bytes, std::uint64_t size_bytes,
                    Us earliest) {
    return ReadPages(lpn_first, pages, offset_bytes, size_bytes, earliest,
                     [](Lpn, Ppn) {});
  }

  /// The host read loop: for each mapped page of the span, `on_page(lpn,
  /// ppn)` runs the variant's bookkeeping, then the page is read (only the
  /// bytes the request covers cross the bus) and unmapped if its data is
  /// lost.  Returns the completion of the slowest page.
  template <typename OnPage>
  Us ReadPages(Lpn lpn_first, std::uint32_t pages, std::uint64_t offset_bytes,
               std::uint64_t size_bytes, Us earliest, OnPage&& on_page) {
    Us completion = earliest;
    for (std::uint32_t i = 0; i < pages; ++i) {
      const Lpn lpn = lpn_first + i;
      const Ppn ppn = map_.Lookup(lpn);
      if (ppn == kInvalidPpn) continue;  // never-written data: no flash work
      on_page(lpn, ppn);
      const MediaReadResult rr = target_.ReadPageChecked(
          ppn, earliest, TransferBytesFor(lpn, offset_bytes, size_bytes));
      if (rr.DataLost()) OnHostReadLost(lpn);
      if (rr.done > completion) completion = rr.done;
    }
    return completion;
  }

  // --- GC variant hooks -----------------------------------------------------

  /// Victim chosen by the inline loop or the scheduled planner (variant
  /// stats hook).
  virtual void OnGcVictimChosen(BlockId /*victim*/) {}
  /// Victim erased (e.g. PPB resets its VB state).
  virtual void OnGcBlockErased(BlockId /*victim*/) {}

  /// Variant-owned state appended to / read back from the base snapshot
  /// (write allocators, PPB virtual-block + hotness structures).
  virtual void SaveVariantState(util::StateWriter& w) const = 0;
  virtual void LoadVariantState(util::StateReader& r) = 0;

  FlashTarget& target_;
  FtlConfig config_;
  std::uint64_t logical_pages_;
  MappingTable map_;
  BlockManager blocks_;
  FtlStats stats_;
  FaultStats fault_stats_;
  WearLeveler wear_leveler_;

 private:
  static std::uint64_t ComputeLogicalPages(const FlashTarget& target,
                                           const FtlConfig& config);
  /// The request's first page and page count; throws std::invalid_argument
  /// when the range is empty or leaves the logical space.
  std::pair<Lpn, std::uint32_t> PageSpan(std::uint64_t offset_bytes,
                                         std::uint64_t size_bytes) const;

  /// Bytes of page `lpn` covered by the request [offset, offset+size): the
  /// data-out transfer for a host read of that page.
  std::uint64_t TransferBytesFor(Lpn lpn, std::uint64_t offset_bytes,
                                 std::uint64_t size_bytes) const;

  /// The host write loop (see Write).
  Us WritePages(Lpn lpn_first, std::uint32_t pages,
                std::uint64_t request_bytes, Us earliest);

  /// Programs the placed page, placing again on the same stream after each
  /// failed program (bounded by FlashTarget::MaxProgramAttempts; throws
  /// MediaError on exhaustion).  Returns the page that finally took the
  /// data and its completion time.
  struct ProgramOutcome {
    Ppn ppn;
    Us done;
  };
  ProgramOutcome ProgramWithRetry(Placement at, Us earliest);

  /// Points `lpn` at `ppn` and moves one valid page from the block of its
  /// previous page (if any) to the block of `ppn`.
  void Remap(Lpn lpn, Ppn ppn);

  /// One GC relocation (each page of the inline loop, and each scheduled
  /// kGcCopy): place the destination, read the source, program with retry,
  /// remap.  The destination is programmed even when the source read lost
  /// the data — the stream's fill pointer already advanced and NAND forbids
  /// holes in the program order; the mapping is dropped instead.  Returns
  /// program completion.
  Us RelocatePageForGc(Lpn lpn, Ppn src, BlockId victim, Us earliest);

  /// Inline-routed GC (the write loop calls it before placing pages):
  /// collects victims — OnGcVictimChosen, RelocatePageForGc per valid page,
  /// EraseGcVictim — until free blocks reach gc_threshold_high.  Returns
  /// completion of all GC work (>= earliest).  No-op when
  /// ScheduledGcActive() (the scheduler owns GC then).
  Us MaybeRunGc(Us earliest);

  /// GC victim choice shared by all variants: the wear leveler may override
  /// the greedy pick to rotate cold data off young blocks.
  std::optional<BlockId> PickVictim();

  // --- fault handling --------------------------------------------------------

  /// One failed page program: counts it and flags the block so its next GC
  /// erase retires it.  On die loss also retires the lost die's remaining
  /// spare blocks so the allocators stop claiming them.
  void OnProgramFailure(Ppn failed_ppn, bool die_lost);

  /// A host read found its data gone (retry ladder exhausted or die lost):
  /// the page is unmapped — the stored copy no longer exists — and counted.
  void OnHostReadLost(Lpn lpn);

  /// Appends the next victim's copy + erase transactions to `out`.
  /// Clears gc_active_ when nothing is reclaimable.
  void PlanGcVictim(std::vector<sched::FlashTransaction>& out);

  /// Erase + release a fully-relocated victim (shared tail of the inline
  /// loop and the scheduled kGcErase): books the erase, frees the block —
  /// or retires it as grown-bad when the erase fails verify or a program
  /// failure flagged it — fires OnGcBlockErased, bumps counters.  Returns
  /// erase completion.
  Us EraseGcVictim(BlockId victim, Us earliest);

  /// Adds the [start, done] busy interval to stats_.gc_time_us, merged
  /// against previously counted scheduled-GC intervals (see .cc comment).
  void AccumulateGcTime(Us start, Us done);

  bool in_gc_ = false;  ///< inline-loop reentry guard
  Us gc_busy_until_ = 0;  ///< end of the counted scheduled-GC busy span
  bool gc_scheduler_attached_ = false;
  bool gc_active_ = false;  ///< planner hysteresis (trigger..threshold_high)
  std::uint64_t gc_outstanding_ = 0;  ///< drained, not yet executed
  std::uint64_t gc_txns_emitted_ = 0;
  std::uint64_t gc_txns_executed_ = 0;
  std::uint64_t next_gc_job_ = 1;
};

}  // namespace ctflash::ftl
