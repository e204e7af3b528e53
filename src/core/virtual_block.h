// Virtual blocks: splitting each physical block into speed-graded slices
// (paper Sections 3.3.1-3.3.3, Figures 7-9, Algorithm 1).
//
// A physical block of P pages is cut into `split_count` slices of P/S
// consecutive pages.  Because page index tracks gate-stack depth, slice 0
// (pages [0, P/S)) holds the slowest pages and slice S-1 the fastest.
// Slices [0, S/2) form the SLOW class, [S/2, S) the FAST class; for the
// paper's S = 2 this is exactly {VB 2n slow, VB 2n+1 fast}.
//
// Rules enforced here:
//  * pairing     — all slices of one physical block serve the same area
//                  (hot or cold), so GC victims are never mixed-hotness;
//  * write order — slice i+1 becomes allocatable only after slice i is
//                  full (NAND in-block sequential programming);
//  * allocation  — when the preferred class list has no free space the
//                  write is DIVERTED to the other class (Fig. 10(b)/11(b)
//                  rules I/II, Algorithm 1) so physical blocks never end up
//                  half-full/half-empty; a new physical block is claimed
//                  when neither list can serve the write (rule III), or —
//                  bounded by `max_open_fast_vbs` — when slow-class demand
//                  would otherwise pollute an open fast VB (the Fig. 8
//                  reading, where VB2 joins the hot list while VB1 is still
//                  filling).
//
// Each area owns ONE fast-class VB list (exactly the paper's iron-hot/cold
// VB lists).  Slow-class VB lists are kept per write stream — host writes
// and GC relocations fill separate physical blocks — because survivors and
// fresh data age differently (the conventional baseline enjoys the same
// separation from its dual-stream design).  A block opened by either stream
// still belongs to one area only, so the pairing invariant is untouched.
//
// Die striping (VbStripingConfig): each (area, class, stream) list is a
// write-frontier set in the ftl::WriteAllocator sense — up to
// `write_frontiers` open blocks, slow-list growth restricted to dies the
// list does not cover yet, and the next page taken from the list member the
// shared DieStriper policy picks.  Hotness-directed placement is untouched
// (the list a write goes to is decided exactly as before); only WHICH open
// block of that list programs next changes, so consecutive pages of one
// stream overlap their program times across dies.  `write_frontiers = 1`
// (the default) reproduces the seed front-of-list behavior bit-for-bit.
//
// The manager owns no NAND state; it hands out PPNs in program order and the
// caller (PpbFtl) programs them immediately.  BlockManager supplies the free
// physical block list ("arranged according to their original physical block
// number") and receives MarkFull notifications for GC.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "core/hotness.h"
#include "ftl/block_manager.h"
#include "ftl/write_allocator.h"
#include "util/types.h"

namespace ctflash::core {

/// Die-striping knobs for the virtual-block lists.  The callbacks are
/// required when write_frontiers > 1 (they come from NandDevice::LocationOf
/// and FlashTarget::DieFreeAt); the defaults disable striping.
struct VbStripingConfig {
  ftl::WriteAllocatorConfig alloc;
  std::function<std::uint64_t(BlockId)> die_of;
  std::function<Us(BlockId)> die_free_at;
  /// Device die count; caps list growth (beyond it every die is covered
  /// and growth attempts would only rescan the free list).
  std::uint64_t total_dies = 0;
  /// Free blocks kept in reserve by HOST-list growth: lists grow beyond
  /// their first open block only while the free pool exceeds this.  The
  /// FTL passes gc_threshold_low — the GC trigger — so growth never brings
  /// GC forward yet still works in GC steady state (GC stops reclaiming as
  /// soon as the pool climbs past the trigger, so any reserve above it
  /// would shut striping off for good after the first pool drain).
  std::uint64_t claim_reserve_blocks = 0;
  /// Reserve for the GC-relocation lists: they allocate only while GC is
  /// draining the pool to its minimum, so they need a smaller cushion
  /// (their claims are repaid by the victim erase).
  std::uint64_t gc_claim_reserve_blocks = 2;
  /// Hard cap on the total open-block population (all lists, both areas)
  /// for GROWTH claims; 0 = no cap.  PPB parks many open blocks (4 slow
  /// lists x frontiers + the fast lists), and on a small over-provisioned
  /// pool an unchecked population can absorb the entire spare space: every
  /// FULL block is then 100 % valid and GC livelocks relocating data in
  /// circles.  The FTL passes spare_blocks - gc_threshold_low - 2 so FULL
  /// blocks always hold invalid pages for GC to harvest.
  std::uint64_t max_open_blocks = 0;
};

struct VbAllocation {
  Ppn ppn = kInvalidPpn;
  /// Slice the page belongs to.
  std::uint32_t slice = 0;
  /// True when the page is in the fast class ([S/2, S)).
  bool fast_class = false;
  /// True when the write was diverted away from the requested class.
  bool diverted = false;
  /// True when a fresh physical block had to be claimed (rule III).
  bool new_block = false;
};

class VirtualBlockManager {
 public:
  /// `pages_per_block` must be divisible by `split_count`; `split_count`
  /// must be an even number >= 2 so both speed classes exist.
  /// `max_open_fast_vbs` bounds the open fast-class pool per area (see file
  /// header); 0 recovers the strict Algorithm-1 literal reading, which
  /// degenerates to round-robin placement under demand imbalance — kept for
  /// ablation.
  VirtualBlockManager(ftl::BlockManager& blocks, std::uint32_t pages_per_block,
                      std::uint32_t split_count,
                      std::uint32_t max_open_fast_vbs = 4,
                      VbStripingConfig striping = {});

  /// Hands out the next programmable page for `area` with the class
  /// preference of `level` (WantsFastPages), applying divert rules.
  /// `gc_stream` selects the area's GC-relocation slow list (see file
  /// header).  Returns std::nullopt when a new block is needed but the free
  /// list is empty (caller must garbage-collect first).
  std::optional<VbAllocation> AllocatePage(Area area, HotnessLevel level,
                                           bool gc_stream = false);

  /// Must be called when a block was erased (after GC) so its area tag and
  /// fill pointer reset.  The BlockManager free list is maintained by the
  /// caller via BlockManager::Release.
  void OnBlockErased(BlockId block);

  // --- queries -------------------------------------------------------------
  Area AreaOfBlock(BlockId block) const;
  /// Pages already handed out in this block (== P when full).
  std::uint32_t FillOf(BlockId block) const;
  std::uint32_t split_count() const { return split_count_; }
  std::uint32_t pages_per_slice() const { return pages_per_slice_; }
  std::uint32_t SliceOfPage(std::uint32_t page_in_block) const {
    return page_in_block / pages_per_slice_;
  }
  bool IsFastClassSlice(std::uint32_t slice) const {
    return slice >= split_count_ / 2;
  }
  bool IsFastClassPage(std::uint32_t page_in_block) const {
    return IsFastClassSlice(SliceOfPage(page_in_block));
  }

  /// Number of open (partially filled) blocks currently parked in the lists
  /// of an area (host + GC slow lists + the shared fast list).
  std::size_t OpenBlockCount(Area area) const;

  /// Earliest die availability across the HOST-stream frontier blocks (both
  /// areas' slow lists plus the shared fast lists) — the write dispatch
  /// hint behind PpbFtl::ProbeWriteFreeAt.  std::nullopt when no host
  /// frontier is open or striping callbacks were not configured.
  std::optional<Us> EarliestHostFrontierFreeAt() const;

  /// Distinct dies the GC-relocation stream has ever programmed.
  std::size_t GcDiesTouched() const { return gc_dies_.size(); }

  /// Open blocks currently in one slow list (striping probes: a striped
  /// stream should hold several concurrently, not one at a time).
  std::size_t SlowListSize(Area area, bool gc_stream) const {
    return slow_lists_[SlowListIndex(area, gc_stream)].size();
  }

  /// Structural invariants: list members are open blocks of the right area
  /// whose current fill slice matches the list's class; fill pointers are
  /// consistent.  O(blocks).
  bool CheckInvariants() const;

  /// Serializes per-block area/fill/home tags, every VB list's order, the
  /// growth memos, GC die coverage, and the striper rotation anchors.
  /// LoadState throws when the block count mismatches.
  void SaveState(util::StateWriter& w) const;
  void LoadState(util::StateReader& r);

 private:
  /// Slow-list index: {hot-host, cold-host, hot-gc, cold-gc}.
  static constexpr std::size_t kSlowListCount = 4;
  /// Striper index space: slow lists 0..3, then the two fast lists.
  static constexpr std::size_t kStriperCount = kSlowListCount + 2;
  static std::size_t SlowListIndex(Area area, bool gc_stream);
  static std::size_t AreaIndex(Area area);

  bool Striping() const { return striping_.alloc.write_frontiers > 1; }

  /// Per-list growth cap: min(write_frontiers, total_dies).
  std::size_t EffectiveFrontiers() const {
    const std::uint64_t dies =
        striping_.total_dies == 0 ? 1 : striping_.total_dies;
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(striping_.alloc.write_frontiers, dies));
  }

  /// Claims a fresh block for (area, stream); returns nullopt if none free.
  /// `uncovered_die_only` restricts the claim to dies the target slow list
  /// does not cover yet (frontier growth; never set on the must-claim
  /// rule III path).
  std::optional<BlockId> ClaimNewBlock(Area area, std::size_t slow_list,
                                       bool uncovered_die_only = false);

  /// Which member of `list` programs next: front() without striping, the
  /// DieStriper's pick with it.
  std::size_t PickIndex(std::size_t striper, const std::deque<BlockId>& list);

  /// Post-write bookkeeping: advances the fill pointer, moves the block
  /// between lists at slice boundaries, marks it full at the end.
  void AdvanceFill(BlockId block, std::deque<BlockId>& current_list);

  ftl::BlockManager& blocks_;
  std::uint32_t pages_per_block_;
  std::uint32_t split_count_;
  std::uint32_t pages_per_slice_;
  std::uint32_t max_open_fast_vbs_;
  VbStripingConfig striping_;
  std::vector<ftl::DieStriper> stripers_;  ///< kStriperCount when striping
  std::set<std::uint64_t> gc_dies_;        ///< dies the GC stream programmed
  /// Growth-failure memo per slow list: a failed uncovered-die scan would
  /// fail identically until the free list or the list changes — skip the
  /// rescan (keyed on BlockManager::FreeListGeneration, exact).
  static constexpr std::uint64_t kNoGrowthFailure = ~0ull;
  std::uint64_t growth_fail_gen_[kSlowListCount] = {
      kNoGrowthFailure, kNoGrowthFailure, kNoGrowthFailure, kNoGrowthFailure};
  std::size_t growth_fail_size_[kSlowListCount] = {0, 0, 0, 0};
  std::vector<Area> area_of_block_;
  std::vector<std::uint32_t> fill_;       ///< next page index per block
  std::vector<std::uint8_t> slow_home_;   ///< slow-list index a block returns to
  std::deque<BlockId> slow_lists_[kSlowListCount];
  std::deque<BlockId> fast_lists_[2];     ///< shared per area: {hot, cold}
};

}  // namespace ctflash::core
