// Die-striped write frontiers: the page-grain allocation stage shared by
// every FTL variant's write path.
//
// The seed design funnelled all host writes through ONE active block, so a
// device with many channels/chips/dies still programmed at single-die
// throughput (write IOPS flat from QD 1 to QD 32 while reads scaled).  The
// WriteAllocator generalizes the active block to a per-stream FRONTIER SET:
// up to `write_frontiers` open blocks per stream, at most one per die, so
// consecutive pages of a large write land on different dies and overlap
// their program times under TimingMode::kQueued.
//
// A STREAM is an independent write context (host vs GC relocation for the
// conventional FTL; PPB additionally separates streams per area/class via
// the VirtualBlockManager, which reuses the DieStriper policy below).
// Invariants the property tests lock in:
//  * no PPN is handed out twice;
//  * a stream holds at most one open block per die;
//  * pages of one block are handed out strictly in program order;
//  * `write_frontiers = 1` reproduces the seed single-active-block path
//    bit-for-bit (lazy MarkFull at the next allocation, identical claim
//    order), so the paper-figure benches stay byte-identical.
//
// Frontier growth is opportunistic: the first block of a stream may always
// be claimed (the GC thresholds guarantee a spare, as in the seed), but
// extra frontiers are claimed only while the free pool stays above the
// stream's claim reserve.  Reserves are PER STREAM (SetStreamReserve)
// because the streams run at very different pool levels:
//  * host streams get gc_threshold_low — growth then never drops the pool
//    below the GC trigger, so GC fires no earlier than it would have.  A
//    reserve at gc_threshold_high would shut host striping off permanently
//    once the device first reaches GC steady state (GC stops reclaiming as
//    soon as the pool climbs past gc_threshold_low, so the pool never
//    revisits gc_threshold_high);
//  * the GC relocation stream gets a small flat cushion — it allocates
//    only while GC is draining the pool to its minimum (a host-level
//    reserve would make GC striping unreachable), and its claims are
//    self-compensating because every victim ends in an erase/release.
// Livelock safety comes from the spare-pool sizing in FtlBase
// (gc_threshold_high + 2 x write_frontiers beyond the logical capacity):
// the open frontier population (<= 2 x write_frontiers) can never absorb
// the whole spare pool, so FULL blocks always hold invalid pages and the
// greedy victim nets free space.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "ftl/block_manager.h"
#include "util/types.h"

namespace ctflash::ftl {

/// Which open frontier (die) receives the next page.
///  * kRoundRobin — rotate over the frontier dies in ascending die order,
///    breaking same-die ties (possible in PPB's shared fast lists) toward
///    the least-busy timeline;
///  * kLeastBusy  — earliest DieFreeAt wins, rotation breaks ties.
/// Both are deterministic.
enum class StripePolicy : std::uint8_t { kRoundRobin = 0, kLeastBusy = 1 };

const char* StripePolicyName(StripePolicy policy);

struct WriteAllocatorConfig {
  /// Max open blocks (= dies written in parallel) per stream; 1 = the seed
  /// single-active-block behavior.
  std::uint32_t write_frontiers = 1;
  StripePolicy stripe_policy = StripePolicy::kRoundRobin;

  void Validate() const;
};

/// Deterministic choice of which open block (die) to program next; one
/// instance per stream/list so each keeps its own rotation anchor.  Shared
/// between the WriteAllocator and PPB's VirtualBlockManager so both FTLs
/// stripe identically.
class DieStriper {
 public:
  DieStriper(std::function<std::uint64_t(BlockId)> die_of,
             std::function<Us(BlockId)> die_free_at, StripePolicy policy);

  /// Index into `candidates` (non-empty) of the block to program next;
  /// advances the rotation anchor to the chosen die.
  std::size_t Pick(const std::deque<BlockId>& candidates);

  void SaveState(util::StateWriter& w) const { w.PutU64(last_die_); }
  void LoadState(util::StateReader& r) { last_die_ = r.GetU64(); }

 private:
  std::function<std::uint64_t(BlockId)> die_of_;
  std::function<Us(BlockId)> die_free_at_;
  StripePolicy policy_;
  std::uint64_t last_die_ = ~0ull;  ///< rotation anchor (~0 = start at die 0)
};

/// Accept-filter for frontier growth, shared by WriteAllocator and PPB's
/// VirtualBlockManager: admits only blocks on dies that `open` (the
/// stream's current frontier blocks) does not cover.  The returned lambda
/// borrows both arguments — use it immediately.
std::function<bool(BlockId)> UncoveredDieFilter(
    const std::function<std::uint64_t(BlockId)>& die_of,
    const std::deque<BlockId>& open);

struct PageAllocation {
  Ppn ppn = kInvalidPpn;
  BlockId block = 0;
  std::uint64_t die = 0;
  /// A fresh physical block was claimed by this allocation.
  bool new_block = false;
};

class WriteAllocator {
 public:
  /// `die_of` maps a block to its global die index (the device's decoded
  /// NandDevice::LocationOf(block).die) and `die_free_at` to the die
  /// timeline's availability (FlashTarget::DieFreeAt) for the striping
  /// policies.  `total_dies`
  /// (NandGeometry::TotalDies) caps a stream's frontier count — beyond it
  /// every die is covered and growth attempts would only rescan the free
  /// list.  `num_streams` independent write contexts are created;
  /// `claim_reserve_blocks` guards frontier growth beyond the first block
  /// (see file header).
  WriteAllocator(BlockManager& blocks, std::uint32_t pages_per_block,
                 std::function<std::uint64_t(BlockId)> die_of,
                 std::function<Us(BlockId)> die_free_at,
                 std::uint64_t total_dies, const WriteAllocatorConfig& config,
                 std::uint32_t num_streams,
                 std::uint64_t claim_reserve_blocks);

  /// Overrides the growth reserve of one stream (see file header; the
  /// constructor's `claim_reserve_blocks` seeds every stream).
  void SetStreamReserve(std::uint32_t stream, std::uint64_t blocks);

  /// Next programmable PPN on `stream`, claiming/rotating frontiers as
  /// needed.  `policy` picks the free block on a claim (wear-aware streams
  /// pass kLeastWorn/kMostWorn).  Returns std::nullopt when a fresh block is
  /// required but the free list is empty (caller must garbage-collect).
  std::optional<PageAllocation> AllocatePage(std::uint32_t stream,
                                             AllocPolicy policy);

  // --- queries -------------------------------------------------------------
  std::uint32_t num_streams() const {
    return static_cast<std::uint32_t>(streams_.size());
  }
  const WriteAllocatorConfig& config() const { return config_; }

  /// Open frontier blocks of a stream (exhausted ones are swept lazily at
  /// the next AllocatePage, mirroring the seed's active-block lifecycle).
  const std::deque<BlockId>& Frontiers(std::uint32_t stream) const;

  /// Earliest die availability across a stream's open frontiers — the host
  /// scheduler's dispatch hint for writes (FtlBase::ProbeWriteFreeAt).
  /// std::nullopt when the stream has no open frontier yet.
  std::optional<Us> EarliestFrontierFreeAt(std::uint32_t stream) const;

  /// True when the next allocation on `stream` may claim a fresh block (an
  /// empty stream always may; a striped stream needs headroom under its
  /// frontier/die cap and a free pool above the reserve).  Cheap — no free
  /// list scan; the host scheduler uses it to treat writes as startable.
  bool CanGrow(std::uint32_t stream) const;

  /// Distinct dies this stream has ever programmed (GC-striping probes).
  std::size_t DiesTouched(std::uint32_t stream) const;

  /// Pages handed out for `block` so far (== NandDevice::NextProgramPage for
  /// blocks driven through this allocator).
  std::uint32_t FillOf(BlockId block) const;

  /// Structural invariants: frontier blocks are kOpen with in-range fill,
  /// and no stream holds two frontiers on one die.  O(streams * frontiers).
  bool CheckInvariants() const;

  /// Serializes per-block fill counters and every stream's frontier set,
  /// die coverage, reserves, growth memos, and striper rotation anchor.
  /// LoadState throws when block or stream counts mismatch.
  void SaveState(util::StateWriter& w) const;
  void LoadState(util::StateReader& r);

 private:
  struct Stream {
    std::deque<BlockId> frontiers;
    DieStriper striper;
    std::set<std::uint64_t> dies_touched;
    std::uint64_t reserve = 0;  ///< growth guard (see file header)
    /// Growth-failure memo: when no free block sat on an uncovered die, the
    /// identical free-list scan would fail again until the free list or the
    /// frontier set changes — remember the state it failed at and skip.
    std::uint64_t growth_fail_generation = kNoGrowthFailure;
    std::size_t growth_fail_frontiers = 0;
  };
  static constexpr std::uint64_t kNoGrowthFailure = ~0ull;

  /// MarkFull + drop frontiers whose pages are exhausted.
  void SweepFull(Stream& s);
  /// Claims a fresh block into the stream; `first` bypasses the reserve
  /// guard and the uncovered-die filter (seed claim semantics).
  bool TryClaim(Stream& s, AllocPolicy policy, bool first);

  BlockManager& blocks_;
  std::uint32_t pages_per_block_;
  std::function<std::uint64_t(BlockId)> die_of_;
  std::function<Us(BlockId)> die_free_at_;
  WriteAllocatorConfig config_;
  std::uint32_t effective_frontiers_;  ///< min(write_frontiers, total_dies)
  std::vector<std::uint32_t> fill_;  ///< next page index per block
  std::vector<Stream> streams_;
};

}  // namespace ctflash::ftl
