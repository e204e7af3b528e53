#include "ftl/conventional_ftl.h"

#include <stdexcept>

namespace ctflash::ftl {

ConventionalFtl::ConventionalFtl(FlashTarget& target, const FtlConfig& config)
    : FtlBase(target, config),
      walloc_(blocks_, target.die_view(),
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
}

Ppn ConventionalFtl::AllocatePage(std::uint32_t stream) {
  const bool for_gc = stream == kGcStream;
  // Dual-pool wear leveling: hot host writes take young blocks, GC
  // survivors (cold) park on worn ones.
  const AllocPolicy policy = !blocks_.HasWearProvider() ? AllocPolicy::kById
                             : for_gc ? AllocPolicy::kMostWorn
                                      : AllocPolicy::kLeastWorn;
  const auto a = walloc_.AllocatePage(stream, policy);
  if (!a.has_value()) {
    // The GC thresholds guarantee spare blocks in the fault-free device;
    // running dry means retirement ate the spare pool (e.g. a lost die).
    throw MediaError("ConventionalFtl: spare pool exhausted on " +
                     std::string(for_gc ? "GC" : "host") + " write stream");
  }
  return a->ppn;
}

}  // namespace ctflash::ftl
