#include "ftl/conventional_ftl.h"

#include <stdexcept>

namespace ctflash::ftl {

ConventionalFtl::ConventionalFtl(FlashTarget& target, const FtlConfig& config)
    : FtlBase(target, config),
      walloc_(blocks_, target.geometry().pages_per_block,
              [this](BlockId b) { return target_.nand().LocationOf(b).die; },
              [this](BlockId b) { return target_.DieFreeAt(b); },
              target.geometry().TotalDies(),
              WriteAllocatorConfig{config.write_frontiers,
                                   config.stripe_policy},
              // Host reserve at the GC trigger: growth never brings GC
              // forward, and a reserve at gc_threshold_high (which the pool
              // never revisits in GC steady state) would permanently
              // disable striping after the first pool drain.
              /*num_streams=*/2, /*claim_reserve=*/config.gc_threshold_low) {
  // The GC stream allocates only while GC drains the pool to its minimum,
  // so it needs a smaller cushion or it could never stripe; its claims are
  // repaid by the victim erase, and the FtlBase spare sizing keeps invalid
  // pages in FULL blocks, so GC always nets free space.
  walloc_.SetStreamReserve(kGcStream, 2);
  if (config_.wear.Enabled()) {
    blocks_.SetWearProvider(
        [this](BlockId b) { return target_.nand().PeCycles(b); });
  }
}

Us ConventionalFtl::DoRead(Lpn lpn_first, std::uint32_t pages,
                           std::uint64_t offset_bytes, std::uint64_t size_bytes,
                           Us earliest) {
  Us completion = earliest;
  for (std::uint32_t i = 0; i < pages; ++i) {
    const Lpn lpn = lpn_first + i;
    const Ppn ppn = map_.Lookup(lpn);
    if (ppn == kInvalidPpn) continue;  // never-written data: no flash work
    const MediaReadResult rr = target_.ReadPageChecked(
        ppn, earliest, TransferBytesFor(lpn, offset_bytes, size_bytes));
    if (rr.DataLost()) OnHostReadLost(lpn);
    if (rr.done > completion) completion = rr.done;
  }
  return completion;
}

Ppn ConventionalFtl::AllocatePage(bool for_gc) {
  // Dual-pool wear leveling: hot host writes take young blocks, GC
  // survivors (cold) park on worn ones.
  const AllocPolicy policy = !blocks_.HasWearProvider() ? AllocPolicy::kById
                             : for_gc ? AllocPolicy::kMostWorn
                                      : AllocPolicy::kLeastWorn;
  const auto a =
      walloc_.AllocatePage(for_gc ? kGcStream : kHostStream, policy);
  if (!a.has_value()) {
    // The GC thresholds guarantee spare blocks in the fault-free device;
    // running dry means retirement ate the spare pool (e.g. a lost die).
    throw MediaError("ConventionalFtl: spare pool exhausted on " +
                     std::string(for_gc ? "GC" : "host") + " write stream");
  }
  return a->ppn;
}

ConventionalFtl::ProgramOutcome ConventionalFtl::ProgramWithRetry(
    Ppn ppn, bool for_gc, Us earliest) {
  MediaOpResult pr = target_.ProgramPageChecked(ppn, earliest);
  for (std::uint32_t attempt = 1; pr.failed; ++attempt) {
    OnProgramFailure(ppn, pr.die_lost);
    if (attempt >= target_.MaxProgramAttempts()) {
      throw MediaError("ConventionalFtl: page program failed " +
                       std::to_string(attempt) + " times");
    }
    ppn = AllocatePage(for_gc);
    pr = target_.ProgramPageChecked(ppn, pr.done);
  }
  return {ppn, pr.done};
}

Us ConventionalFtl::WriteOnePage(Lpn lpn, Us earliest) {
  const ProgramOutcome out =
      ProgramWithRetry(AllocatePage(/*for_gc=*/false), /*for_gc=*/false,
                       earliest);
  const Ppn old = map_.Update(lpn, out.ppn);
  if (old != kInvalidPpn) blocks_.RemoveValid(target_.geometry().BlockOf(old));
  blocks_.AddValid(target_.geometry().BlockOf(out.ppn));
  return out.done;
}

Us ConventionalFtl::RelocatePageForGc(Lpn lpn, Ppn src, BlockId victim,
                                      Us earliest) {
  // Destination allocation stays BEFORE the source read: the die striper
  // consults die availability, which the read booking would shift.
  const Ppn dst = AllocatePage(/*for_gc=*/true);
  const MediaReadResult rr =
      target_.ReadPageChecked(src, earliest, 0, ReadKind::kGc);
  // The destination page is programmed even when the source read failed:
  // the allocator already advanced the frontier and NAND forbids holes in
  // the program order.  A lost source just relocates garbage.
  const ProgramOutcome out = ProgramWithRetry(dst, /*for_gc=*/true, rr.done);
  if (rr.DataLost()) {
    OnGcReadLost(lpn, victim);
  } else {
    map_.ReleasePpn(src);
    map_.Update(lpn, out.ppn);
    blocks_.RemoveValid(victim);
    blocks_.AddValid(target_.geometry().BlockOf(out.ppn));
  }
  stats_.gc_page_copies++;
  return out.done;
}

Us ConventionalFtl::DoWrite(Lpn lpn_first, std::uint32_t pages,
                            std::uint64_t /*request_bytes*/, Us earliest) {
  const Us gc_done = MaybeRunGc(earliest);
  const Us start = config_.charge_gc_to_write ? gc_done : earliest;
  Us completion = start;
  for (std::uint32_t i = 0; i < pages; ++i) {
    const Us done = WriteOnePage(lpn_first + i, start);
    if (done > completion) completion = done;
  }
  return completion;
}

bool ConventionalFtl::CheckInvariants() const {
  if (!map_.CheckConsistent()) return false;
  const auto& geo = target_.geometry();
  // Valid counters must equal the number of mapped pages per block.
  std::vector<std::uint32_t> valid(geo.TotalBlocks(), 0);
  for (Lpn lpn = 0; lpn < map_.logical_pages(); ++lpn) {
    const Ppn ppn = map_.Lookup(lpn);
    if (ppn == kInvalidPpn) continue;
    if (!target_.nand().IsPageProgrammed(ppn)) return false;
    valid[geo.BlockOf(ppn)]++;
  }
  for (BlockId b = 0; b < geo.TotalBlocks(); ++b) {
    if (valid[b] != blocks_.ValidCount(b)) return false;
    if (blocks_.UseOf(b) == BlockUse::kFree && !target_.nand().IsBlockErased(b)) {
      return false;
    }
  }
  return true;
}

}  // namespace ctflash::ftl
