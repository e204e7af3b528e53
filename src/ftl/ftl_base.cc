#include "ftl/ftl_base.h"

#include <algorithm>

#include <stdexcept>
#include <string>

#include "util/logging.h"

namespace ctflash::ftl {

const char* GcRoutingName(GcRouting routing) {
  switch (routing) {
    case GcRouting::kInline:
      return "inline";
    case GcRouting::kScheduled:
      return "scheduled";
  }
  return "?";
}

void FtlConfig::Validate() const {
  if (op_ratio <= 0.0 || op_ratio >= 0.9) {
    throw std::invalid_argument("FtlConfig: op_ratio must be in (0, 0.9)");
  }
  if (gc_threshold_low < 2) {
    throw std::invalid_argument("FtlConfig: gc_threshold_low must be >= 2");
  }
  if (gc_threshold_high <= gc_threshold_low) {
    throw std::invalid_argument(
        "FtlConfig: gc_threshold_high must exceed gc_threshold_low");
  }
  if (write_frontiers == 0) {
    throw std::invalid_argument("FtlConfig: write_frontiers must be >= 1");
  }
  if (charge_gc_to_write && gc_routing == GcRouting::kScheduled) {
    throw std::invalid_argument(
        "FtlConfig: charge_gc_to_write models foreground (inline) GC and is "
        "meaningless with gc_routing = kScheduled");
  }
}

std::uint64_t FtlBase::ComputeLogicalPages(const FlashTarget& target,
                                           const FtlConfig& config) {
  config.Validate();
  const std::uint64_t physical = target.geometry().TotalPages();
  const auto logical_pages =
      static_cast<std::uint64_t>(static_cast<double>(physical) *
                                 (1.0 - config.op_ratio));
  if (logical_pages == 0) {
    throw std::invalid_argument("FtlBase: device too small for op_ratio");
  }
  // Room for the open write frontiers during GC: up to `write_frontiers`
  // per stream (host + GC relocation), 2 total in the seed configuration.
  const std::uint64_t min_spare =
      config.gc_threshold_high + 2ull * config.write_frontiers;
  if (target.geometry().TotalBlocks() <
      min_spare + logical_pages / target.geometry().pages_per_block) {
    throw std::invalid_argument(
        "FtlBase: over-provisioning too small for the GC thresholds");
  }
  return logical_pages;
}

FtlBase::FtlBase(FlashTarget& target, const FtlConfig& config)
    : target_(target),
      config_(config),
      logical_pages_(ComputeLogicalPages(target, config)),
      map_(logical_pages_, target.geometry().TotalPages()),
      blocks_(target.geometry().TotalBlocks(),
              target.geometry().pages_per_block),
      wear_leveler_(config.wear) {}

void FtlBase::CheckRange(std::uint64_t offset_bytes,
                         std::uint64_t size_bytes) const {
  if (size_bytes == 0) {
    throw std::invalid_argument("FtlBase: zero-sized request");
  }
  if (offset_bytes + size_bytes > LogicalBytes()) {
    throw std::invalid_argument("FtlBase: request beyond logical capacity");
  }
}

RequestResult FtlBase::Read(std::uint64_t offset_bytes,
                            std::uint64_t size_bytes, Us arrival_us) {
  CheckRange(offset_bytes, size_bytes);
  const Lpn first = offset_bytes / PageSize();
  const Lpn last = (offset_bytes + size_bytes - 1) / PageSize();
  const auto pages = static_cast<std::uint32_t>(last - first + 1);
  RequestResult r;
  r.arrival_us = arrival_us;
  r.pages = pages;
  r.completion_us = DoRead(first, pages, offset_bytes, size_bytes, arrival_us);
  if (r.completion_us < arrival_us) r.completion_us = arrival_us;
  stats_.host_read_pages += pages;
  return r;
}

std::optional<BlockId> FtlBase::PickVictim(const BlockManager& blocks) {
  const auto wl = wear_leveler_.MaybeOverrideVictim(blocks, target_.nand());
  if (wl) return wl;
  return blocks.PickGcVictim();
}

std::uint64_t FtlBase::TransferBytesFor(Lpn lpn, std::uint64_t offset_bytes,
                                        std::uint64_t size_bytes) const {
  const std::uint64_t page_start = lpn * PageSize();
  const std::uint64_t page_end = page_start + PageSize();
  const std::uint64_t req_end = offset_bytes + size_bytes;
  const std::uint64_t lo = std::max(page_start, offset_bytes);
  const std::uint64_t hi = std::min(page_end, req_end);
  return hi > lo ? hi - lo : 0;
}

RequestResult FtlBase::Write(std::uint64_t offset_bytes,
                             std::uint64_t size_bytes, Us arrival_us) {
  CheckRange(offset_bytes, size_bytes);
  const Lpn first = offset_bytes / PageSize();
  const Lpn last = (offset_bytes + size_bytes - 1) / PageSize();
  const auto pages = static_cast<std::uint32_t>(last - first + 1);
  RequestResult r;
  r.arrival_us = arrival_us;
  r.pages = pages;
  r.completion_us = DoWrite(first, pages, size_bytes, arrival_us);
  if (r.completion_us < arrival_us) r.completion_us = arrival_us;
  stats_.host_write_pages += pages;
  return r;
}

Us FtlBase::MaybeRunGc(Us earliest) {
  // Scheduled routing: GC is planned/dispatched by the host scheduler
  // through the transaction API below; nothing to do inline.
  if (ScheduledGcActive()) return earliest;
  if (in_gc_) return earliest;
  Us completion = earliest;
  while (blocks_.FreeCount() <= config_.gc_threshold_low) {
    const auto victim = PickVictim(blocks_);
    if (!victim) break;  // nothing reclaimable
    in_gc_ = true;
    OnGcVictimChosen(*victim);
    const auto& geo = target_.geometry();
    // Relocate every valid page of the victim.
    for (std::uint32_t p = 0; p < geo.pages_per_block; ++p) {
      const Ppn src = geo.PpnOf(*victim, p);
      const Lpn lpn = map_.LpnOf(src);
      if (lpn == kInvalidLpn) continue;
      const Us done = RelocatePageForGc(lpn, src, *victim, completion);
      if (done > completion) completion = done;
    }
    completion = EraseGcVictim(*victim, completion);
    in_gc_ = false;
    if (blocks_.FreeCount() >= config_.gc_threshold_high) break;
  }
  stats_.gc_time_us += completion - earliest;
  return completion;
}

Us FtlBase::EraseGcVictim(BlockId victim, Us earliest) {
  const MediaOpResult er = target_.EraseBlockChecked(victim, earliest);
  if (er.failed || blocks_.RetirePending(victim)) {
    // Grown-bad: the erase failed verify (or an earlier program failure
    // flagged the block).  Retire it — out of the free list and the victim
    // pool — and mark it bad in the array so any stale access fails loudly.
    if (er.failed) fault_stats_.erase_failures++;
    target_.nand().MarkBad(victim);
    blocks_.Retire(victim);
  } else {
    blocks_.Release(victim);
  }
  OnGcBlockErased(victim);
  stats_.gc_erases++;
  wear_leveler_.OnErase();
  return er.done;
}

void FtlBase::OnProgramFailure(Ppn failed_ppn, bool die_lost) {
  const nand::NandDevice& nand = target_.nand();
  const BlockId block = target_.geometry().BlockOf(failed_ppn);
  fault_stats_.program_failures++;
  blocks_.FlagForRetirement(block);
  if (die_lost) {
    // The whole die is gone: retire its spare blocks so allocators stop
    // claiming them.  Idempotent (an already-swept die has no free blocks
    // left), so no extra state to carry through snapshots.
    const std::uint32_t die = nand.LocationOf(block).die;
    blocks_.RetireFreeIf(
        [&](BlockId b) { return nand.LocationOf(b).die == die; });
  }
}

void FtlBase::OnHostReadLost(Lpn lpn) {
  const Ppn old = map_.Unmap(lpn);
  if (old != kInvalidPpn) {
    blocks_.RemoveValid(target_.geometry().BlockOf(old));
  }
  fault_stats_.host_unreadable_pages++;
}

void FtlBase::OnGcReadLost(Lpn lpn, BlockId victim) {
  map_.Unmap(lpn);
  blocks_.RemoveValid(victim);
  fault_stats_.gc_lost_pages++;
}

void FtlBase::PlanGcVictim(std::vector<sched::FlashTransaction>& out) {
  const auto victim = PickVictim(blocks_);
  if (!victim) {
    // Nothing reclaimable (all spare space sits in open blocks); stand down
    // until the pool state changes.
    gc_active_ = false;
    return;
  }
  OnGcVictimChosen(*victim);
  const auto& geo = target_.geometry();
  const std::uint64_t job = next_gc_job_++;
  for (std::uint32_t p = 0; p < geo.pages_per_block; ++p) {
    const Ppn src = geo.PpnOf(*victim, p);
    const Lpn lpn = map_.LpnOf(src);
    if (lpn == kInvalidLpn) continue;  // already invalid at planning time
    sched::FlashTransaction txn;
    txn.request_id = job;
    txn.source = sched::TxnSource::kGcCopy;
    txn.lpn = lpn;  // informational; execution re-resolves via the reverse map
    txn.gc_src = src;
    txn.gc_block = *victim;
    out.push_back(txn);
  }
  sched::FlashTransaction erase;
  erase.request_id = job;
  erase.source = sched::TxnSource::kGcErase;
  erase.gc_block = *victim;
  out.push_back(erase);
}

void FtlBase::DrainGcTransactions(std::vector<sched::FlashTransaction>& out) {
  if (!ScheduledGcActive()) return;
  // One victim in flight at a time: plan the next only once the previous
  // job's transactions all executed (the erase replenishes the pool, so the
  // trigger check below sees the true state).
  if (gc_outstanding_ != 0) return;
  if (!gc_active_ && GcWritePressure()) gc_active_ = true;
  if (!gc_active_) return;
  if (blocks_.FreeCount() >= config_.gc_threshold_high) {
    gc_active_ = false;
    return;
  }
  const std::size_t before = out.size();
  PlanGcVictim(out);
  gc_outstanding_ += out.size() - before;
  gc_txns_emitted_ += out.size() - before;
}

void FtlBase::AccumulateGcTime(Us start, Us done) {
  // Scheduled GC transactions overlap on the die timelines, so summing
  // per-transaction (done - start) would over-count queueing many times
  // over.  Count the union of the busy intervals instead (dispatch times
  // are nondecreasing in simulated time), which keeps gc_time_us
  // comparable with the inline mode's per-burst span accounting.
  const Us from = std::max(start, gc_busy_until_);
  if (done > from) stats_.gc_time_us += done - from;
  if (done > gc_busy_until_) gc_busy_until_ = done;
}

Us FtlBase::ExecuteGcTransaction(const sched::FlashTransaction& txn,
                                 Us earliest) {
  CTFLASH_CHECK(gc_outstanding_ > 0);
  gc_outstanding_--;
  gc_txns_executed_++;
  if (txn.source == sched::TxnSource::kGcCopy) {
    const Lpn lpn = map_.LpnOf(txn.gc_src);
    if (lpn == kInvalidLpn) {
      // The host rewrote this page between planning and dispatch: the copy
      // is moot and carries no flash work.
      stats_.gc_stale_copies++;
      return earliest;
    }
    const Us done = RelocatePageForGc(lpn, txn.gc_src, txn.gc_block, earliest);
    AccumulateGcTime(earliest, done);
    return done;
  }
  CTFLASH_CHECK(txn.source == sched::TxnSource::kGcErase);
  // Every copy of this job executed before the erase (scheduler-enforced),
  // so the victim holds no live data.
  CTFLASH_CHECK(blocks_.ValidCount(txn.gc_block) == 0);
  const Us done = EraseGcVictim(txn.gc_block, earliest);
  AccumulateGcTime(earliest, done);
  return done;
}

void FtlBase::SaveState(util::StateWriter& w) const {
  if (gc_outstanding_ != 0) {
    throw std::logic_error(
        "FtlBase::SaveState: " + std::to_string(gc_outstanding_) +
        " GC transactions drained but not executed; quiesce the scheduler "
        "before snapshotting");
  }
  if (in_gc_) {
    throw std::logic_error("FtlBase::SaveState: called from inside GC");
  }
  w.Tag("FTLB");
  map_.SaveState(w);
  blocks_.SaveState(w);
  w.PutU64(stats_.host_read_pages);
  w.PutU64(stats_.host_write_pages);
  w.PutU64(stats_.gc_page_copies);
  w.PutU64(stats_.gc_erases);
  w.PutI64(stats_.gc_time_us);
  w.PutU64(stats_.gc_stale_copies);
  w.PutU64(fault_stats_.program_failures);
  w.PutU64(fault_stats_.erase_failures);
  w.PutU64(fault_stats_.host_unreadable_pages);
  w.PutU64(fault_stats_.gc_lost_pages);
  wear_leveler_.SaveState(w);
  w.PutI64(gc_busy_until_);
  w.PutBool(gc_active_);
  w.PutU64(gc_txns_emitted_);
  w.PutU64(gc_txns_executed_);
  w.PutU64(next_gc_job_);
  SaveVariantState(w);
}

void FtlBase::LoadState(util::StateReader& r) {
  r.ExpectTag("FTLB");
  map_.LoadState(r);
  blocks_.LoadState(r);
  stats_.host_read_pages = r.GetU64();
  stats_.host_write_pages = r.GetU64();
  stats_.gc_page_copies = r.GetU64();
  stats_.gc_erases = r.GetU64();
  stats_.gc_time_us = r.GetI64();
  stats_.gc_stale_copies = r.GetU64();
  fault_stats_.program_failures = r.GetU64();
  fault_stats_.erase_failures = r.GetU64();
  fault_stats_.host_unreadable_pages = r.GetU64();
  fault_stats_.gc_lost_pages = r.GetU64();
  wear_leveler_.LoadState(r);
  gc_busy_until_ = r.GetI64();
  gc_active_ = r.GetBool();
  gc_txns_emitted_ = r.GetU64();
  gc_txns_executed_ = r.GetU64();
  next_gc_job_ = r.GetU64();
  in_gc_ = false;
  gc_outstanding_ = 0;
  LoadVariantState(r);
}

}  // namespace ctflash::ftl
