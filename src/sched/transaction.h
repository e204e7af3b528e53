// The device-internal unit of work: one page-granular flash transaction,
// shared by the host front end and the FTL's background machinery.
//
// Historically this type lived inside host::IoScheduler and could only
// describe host I/O; GC relocations booked die timelines inline inside the
// FTL where the scheduler could not see, reorder or deprioritize them.
// Promoting the transaction into this shared namespace — with a Source
// class and the page/die identity needed for conflict keys — lets GC
// relocation reads/programs and victim erases flow through the SAME
// dispatch path as host traffic (FtlConfig::gc_routing = kScheduled), so
// the scheduler becomes the single arbiter of device time:
//  * a ready host read overtakes queued GC copies on the same die
//    (priority dispatch with die-level preemption);
//  * an aging bound keeps GC from starving when host load is sustained;
//  * when the free pool runs low, GC outranks host writes so the device
//    can never write itself out of spare blocks.
//
// Priority is the Source ordering: host-read > host-write > gc-copy >
// gc-erase.  PriorityOf() returns that ordering (smaller dispatches
// first); the scheduler derives its dispatch ranks from it, reserving one
// slot between host reads and host writes for GC that was boosted by
// urgency or aging — boosted GC overtakes writes, never reads.
#pragma once

#include <cstdint>

#include "util/types.h"

namespace ctflash::sched {

/// Work classes in descending default dispatch priority.
enum class TxnSource : std::uint8_t {
  kHostRead = 0,   ///< host read of a mapped (or unmapped) logical page
  kHostWrite = 1,  ///< host out-of-place page write
  kGcCopy = 2,     ///< GC relocation (read src + program dst)
  kGcErase = 3,    ///< GC victim erase (after all its copies executed)
};

const char* TxnSourceName(TxnSource source);

/// Priority ordering of a source class; smaller dispatches first.  The
/// scheduler's rank function is derived from this (see file header).
constexpr int PriorityOf(TxnSource source) {
  return static_cast<int>(source);
}

constexpr bool IsGc(TxnSource source) {
  return source == TxnSource::kGcCopy || source == TxnSource::kGcErase;
}

/// One page-granular unit of flash work.
///
/// Host transactions (kHostRead/kHostWrite) are slices of a byte-range
/// request: `request_id` names the host request, `host_slot` the host
/// interface's record of it, `offset_bytes`/`size_bytes` the page-clipped
/// extent, `lpn` the logical page.
///
/// GC transactions (kGcCopy/kGcErase) are emitted by the FTL's scheduled-GC
/// planner (FtlBase::DrainGcTransactions): `request_id` names the GC job
/// (one victim block), `gc_src` the physical source page of a copy and
/// `gc_block` the victim.  The erase of a job must dispatch only after all
/// of the job's copies dispatched — the scheduler tracks that dependency.
struct FlashTransaction {
  std::uint64_t request_id = 0;  ///< host request id, or GC job id
  std::uint64_t seq = 0;  ///< global intake order at the scheduler (FIFO key)
  TxnSource source = TxnSource::kHostRead;
  /// Owning tenant (qos::TenantId) when the host interface runs with a
  /// multi-tenant QosConfig; ~0u (qos::kNoTenant) for GC work and for all
  /// host work when QoS is disabled.
  std::uint32_t tenant = ~0u;

  // --- host identity -------------------------------------------------------
  std::uint64_t offset_bytes = 0;  ///< absolute; spans at most one page
  std::uint64_t size_bytes = 0;
  Lpn lpn = 0;

  /// Host request slot (host::HostInterface): the index its completion
  /// and the tracer's per-request state are filed under while the request
  /// is outstanding.  ~0u for GC work.
  std::uint32_t host_slot = ~0u;

  // --- GC identity ---------------------------------------------------------
  Ppn gc_src = kInvalidPpn;  ///< source page of a kGcCopy
  BlockId gc_block = 0;      ///< victim block (kGcCopy and kGcErase)
};

}  // namespace ctflash::sched
