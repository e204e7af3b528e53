#include "core/virtual_block.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/logging.h"

namespace ctflash::core {

VirtualBlockManager::VirtualBlockManager(ftl::BlockManager& blocks,
                                         std::uint32_t split_count,
                                         std::uint32_t max_open_fast_vbs,
                                         VbStripingConfig striping)
    : blocks_(blocks),
      pages_per_block_(blocks.pages_per_block()),
      split_count_(split_count),
      pages_per_slice_(split_count == 0 ? 0 : pages_per_block_ / split_count),
      max_open_fast_vbs_(max_open_fast_vbs),
      striping_(std::move(striping)),
      area_of_block_(blocks.total_blocks(), Area::kNone),
      fill_(blocks.total_blocks(), 0),
      slow_home_(blocks.total_blocks(), 0) {
  if (split_count < 2 || split_count % 2 != 0) {
    throw std::invalid_argument(
        "VirtualBlockManager: split_count must be an even number >= 2");
  }
  if (pages_per_block_ % split_count != 0) {
    throw std::invalid_argument(
        "VirtualBlockManager: pages_per_block must be divisible by split_count");
  }
  striping_.alloc.Validate();
  if (Striping()) {
    if (striping_.dies.DieCount() == 0) {
      throw std::invalid_argument(
          "VirtualBlockManager: striping requires a die view");
    }
    for (std::size_t i = 0; i < kStriperCount; ++i) {
      stripers_.emplace_back(striping_.dies, striping_.alloc.stripe_policy);
    }
  }
}

std::size_t VirtualBlockManager::SlowListIndex(Area area, bool gc_stream) {
  if (area == Area::kNone) {
    throw std::invalid_argument("VirtualBlockManager: area must be hot or cold");
  }
  return (area == Area::kHot ? 0u : 1u) + (gc_stream ? 2u : 0u);
}

std::size_t VirtualBlockManager::AreaIndex(Area area) {
  if (area == Area::kNone) {
    throw std::invalid_argument("VirtualBlockManager: area must be hot or cold");
  }
  return area == Area::kHot ? 0u : 1u;
}

std::optional<BlockId> VirtualBlockManager::ClaimNewBlock(
    Area area, std::size_t slow_list, bool uncovered_die_only) {
  // Dual-pool wear leveling (active only when the FTL installed a wear
  // provider): the hot area takes young blocks, the cold area parks its
  // stable data on worn ones.
  const ftl::AllocPolicy policy =
      !blocks_.HasWearProvider() ? ftl::AllocPolicy::kById
      : area == Area::kHot       ? ftl::AllocPolicy::kLeastWorn
                                 : ftl::AllocPolicy::kMostWorn;
  std::function<bool(BlockId)> accept;
  if (uncovered_die_only) {
    // Frontier growth lands on a die the list does not cover yet (the
    // one-open-block-per-die-per-stream rule); when every free block sits
    // on a covered die the list simply doesn't grow.
    accept = ftl::UncoveredDieFilter(striping_.dies, slow_lists_[slow_list]);
  }
  const auto fresh = blocks_.AllocateBlock(policy, accept);
  if (!fresh) return std::nullopt;
  CTFLASH_CHECK(area_of_block_[*fresh] == Area::kNone);
  CTFLASH_CHECK(fill_[*fresh] == 0);
  area_of_block_[*fresh] = area;
  slow_home_[*fresh] = static_cast<std::uint8_t>(slow_list);
  slow_lists_[slow_list].push_back(*fresh);
  return fresh;
}

void VirtualBlockManager::AdvanceFill(BlockId block,
                                      std::deque<BlockId>& current_list) {
  fill_[block]++;
  if (fill_[block] % pages_per_slice_ != 0) return;
  // Slice boundary: the block leaves its current list.  With striping the
  // block can sit anywhere in the list; without it, it is the front.
  const auto it =
      std::find(current_list.begin(), current_list.end(), block);
  CTFLASH_CHECK(it != current_list.end());
  current_list.erase(it);
  // The block's home slow list just changed membership (leaving for the
  // fast list, rejoining, or filling up), so its covered-die set — and a
  // memoized growth failure — may be stale.
  growth_fail_gen_[slow_home_[block]] = kNoGrowthFailure;
  if (fill_[block] == pages_per_block_) {
    blocks_.MarkFull(block);
    return;
  }
  const std::uint32_t next_slice = fill_[block] / pages_per_slice_;
  if (IsFastClassSlice(next_slice)) {
    fast_lists_[AreaIndex(area_of_block_[block])].push_back(block);
  } else {
    slow_lists_[slow_home_[block]].push_back(block);
  }
}

std::optional<VbAllocation> VirtualBlockManager::AllocatePage(
    Area area, HotnessLevel level, bool gc_stream) {
  if (AreaOf(level) != area) {
    throw std::invalid_argument("AllocatePage: level does not belong to area");
  }
  const std::size_t slow_idx = SlowListIndex(area, gc_stream);
  std::deque<BlockId>& slow = slow_lists_[slow_idx];
  std::deque<BlockId>& fast = fast_lists_[AreaIndex(area)];
  const bool want_fast = WantsFastPages(level);

  VbAllocation out;
  std::deque<BlockId>* chosen = nullptr;
  std::size_t striper = slow_idx;
  if (want_fast) {
    if (!fast.empty()) {
      chosen = &fast;  // the area's iron-hot / cold VB list has space
      striper = kSlowListCount + AreaIndex(area);
    } else if (!slow.empty()) {
      // Rule II: fast list out of space -> demote the write to a slow VB.
      chosen = &slow;
      out.diverted = true;
    } else {
      // Rule III: both lists out of space -> claim a new physical block;
      // its slice 0 (slow class) is the only writable slice.
      if (!ClaimNewBlock(area, slow_idx)) return std::nullopt;
      chosen = &slow;
      out.diverted = true;
      out.new_block = true;
    }
  } else {
    if (!slow.empty()) {
      chosen = &slow;  // the hot / icy-cold VB list has space
    } else {
      const std::size_t open_fast = fast.size();
      if (open_fast < max_open_fast_vbs_ && ClaimNewBlock(area, slow_idx)) {
        // Fig. 8 reading: start the next physical block instead of polluting
        // an open fast VB with slow-class data.
        chosen = &slow;
        out.new_block = true;
      } else if (!fast.empty()) {
        // Rule I: slow list out of space -> promote the write to a fast VB.
        chosen = &fast;
        striper = kSlowListCount + AreaIndex(area);
        out.diverted = true;
      } else {
        if (!ClaimNewBlock(area, slow_idx)) return std::nullopt;
        chosen = &slow;
        out.new_block = true;
      }
    }
  }

  // Die-striped frontier growth: a slow list writes in parallel across up
  // to min(write_frontiers, DieCount()) dies, growing opportunistically
  // while the free pool stays above the stream's reserve and the open
  // population under the livelock cap (see VbStripingConfig).
  const std::uint64_t reserve = gc_stream ? striping_.gc_claim_reserve_blocks
                                          : striping_.claim_reserve_blocks;
  if (Striping() && chosen == &slow && slow.size() < EffectiveFrontiers() &&
      blocks_.FreeCount() > reserve &&
      (striping_.max_open_blocks == 0 ||
       OpenBlockCount(Area::kHot) + OpenBlockCount(Area::kCold) <
           striping_.max_open_blocks) &&
      !(growth_fail_gen_[slow_idx] == blocks_.FreeListGeneration() &&
        growth_fail_size_[slow_idx] == slow.size())) {
    if (ClaimNewBlock(area, slow_idx, /*uncovered_die_only=*/true)) {
      out.new_block = true;
      growth_fail_gen_[slow_idx] = kNoGrowthFailure;
    } else {
      growth_fail_gen_[slow_idx] = blocks_.FreeListGeneration();
      growth_fail_size_[slow_idx] = slow.size();
    }
  }

  const BlockId block = (*chosen)[PickIndex(striper, *chosen)];
  const std::uint32_t page = fill_[block];
  CTFLASH_CHECK(page < pages_per_block_);
  out.ppn = static_cast<Ppn>(block) * pages_per_block_ + page;
  out.slice = SliceOfPage(page);
  out.fast_class = IsFastClassSlice(out.slice);
  if (gc_stream && striping_.dies.DieCount() != 0) {
    gc_dies_.insert(striping_.dies.DieOf(block));
  }
  AdvanceFill(block, *chosen);
  return out;
}

std::size_t VirtualBlockManager::PickIndex(std::size_t striper,
                                           const std::deque<BlockId>& list) {
  if (!Striping() || list.size() == 1) return 0;
  return stripers_[striper].Pick(list);
}

std::optional<Us> VirtualBlockManager::EarliestHostFrontierFreeAt() const {
  if (striping_.dies.DieCount() == 0) return std::nullopt;
  // While the free pool has claim headroom, report "startable now": the
  // write's area/class is unknown before dispatch, and most list states can
  // absorb it immediately (empty lists first-claim via rule III).  This is
  // optimistic when every host list sits at its frontier cap on busy dies,
  // but never worse than the pre-frontier scheduler, which keyed all writes
  // startable unconditionally.  Only a depleted pool gates the write behind
  // the open frontier dies.
  if (blocks_.FreeCount() > striping_.claim_reserve_blocks) {
    return std::nullopt;
  }
  std::optional<Us> earliest;
  auto fold = [&](const std::deque<BlockId>& list) {
    for (const BlockId b : list) {
      const Us free = striping_.dies.FreeAt(b);
      if (!earliest || free < *earliest) earliest = free;
    }
  };
  fold(slow_lists_[SlowListIndex(Area::kHot, /*gc_stream=*/false)]);
  fold(slow_lists_[SlowListIndex(Area::kCold, /*gc_stream=*/false)]);
  fold(fast_lists_[AreaIndex(Area::kHot)]);
  fold(fast_lists_[AreaIndex(Area::kCold)]);
  return earliest;
}

void VirtualBlockManager::OnBlockErased(BlockId block) {
  if (block >= area_of_block_.size()) {
    throw std::out_of_range("OnBlockErased: block out of range");
  }
  // Only full (list-free) blocks are ever erased by the FTL.
  CTFLASH_CHECK(fill_[block] == pages_per_block_ || fill_[block] == 0);
  area_of_block_[block] = Area::kNone;
  fill_[block] = 0;
}

Area VirtualBlockManager::AreaOfBlock(BlockId block) const {
  if (block >= area_of_block_.size()) {
    throw std::out_of_range("AreaOfBlock: block out of range");
  }
  return area_of_block_[block];
}

std::uint32_t VirtualBlockManager::FillOf(BlockId block) const {
  if (block >= fill_.size()) {
    throw std::out_of_range("FillOf: block out of range");
  }
  return fill_[block];
}

std::size_t VirtualBlockManager::OpenBlockCount(Area area) const {
  return slow_lists_[SlowListIndex(area, false)].size() +
         slow_lists_[SlowListIndex(area, true)].size() +
         fast_lists_[AreaIndex(area)].size();
}

bool VirtualBlockManager::CheckInvariants() const {
  auto check_list = [&](const std::deque<BlockId>& list, Area area,
                        bool fast_list) {
    for (const BlockId b : list) {
      if (b >= area_of_block_.size()) return false;
      if (area_of_block_[b] != area) return false;
      const std::uint32_t f = fill_[b];
      if (f >= pages_per_block_) return false;  // full blocks leave lists
      if (IsFastClassSlice(SliceOfPage(f)) != fast_list) return false;
      if (blocks_.UseOf(b) != ftl::BlockUse::kOpen) return false;
    }
    return true;
  };
  const Area slow_area[kSlowListCount] = {Area::kHot, Area::kCold, Area::kHot,
                                          Area::kCold};
  for (std::size_t i = 0; i < kSlowListCount; ++i) {
    if (!check_list(slow_lists_[i], slow_area[i], /*fast_list=*/false)) {
      return false;
    }
  }
  if (!check_list(fast_lists_[0], Area::kHot, /*fast_list=*/true)) return false;
  if (!check_list(fast_lists_[1], Area::kCold, /*fast_list=*/true)) return false;
  for (BlockId b = 0; b < area_of_block_.size(); ++b) {
    if (area_of_block_[b] == Area::kNone && fill_[b] != 0) return false;
    if (fill_[b] != 0 && blocks_.UseOf(b) == ftl::BlockUse::kFree) return false;
  }
  return true;
}

void VirtualBlockManager::SaveState(util::StateWriter& w) const {
  w.Tag("VBMG");
  w.PutU64(area_of_block_.size());
  for (std::size_t i = 0; i < area_of_block_.size(); ++i) {
    w.PutU8(static_cast<std::uint8_t>(area_of_block_[i]));
    w.PutU32(fill_[i]);
    w.PutU8(slow_home_[i]);
  }
  for (const auto& list : slow_lists_) w.PutU64Seq(list);
  for (const auto& list : fast_lists_) w.PutU64Seq(list);
  for (std::size_t i = 0; i < kSlowListCount; ++i) {
    w.PutU64(growth_fail_gen_[i]);
    w.PutU64(growth_fail_size_[i]);
  }
  w.PutU64Seq(gc_dies_);
  w.PutU64(stripers_.size());
  for (const auto& striper : stripers_) striper.SaveState(w);
}

void VirtualBlockManager::LoadState(util::StateReader& r) {
  r.ExpectTag("VBMG");
  const std::uint64_t n = r.GetU64();
  if (n != area_of_block_.size()) {
    throw std::runtime_error("snapshot: virtual block count mismatch (have " +
                             std::to_string(area_of_block_.size()) +
                             ", state " + std::to_string(n) + ")");
  }
  for (std::size_t i = 0; i < area_of_block_.size(); ++i) {
    const std::uint8_t area = r.GetU8();
    if (area > static_cast<std::uint8_t>(Area::kCold)) {
      throw std::runtime_error("snapshot: invalid area tag " +
                               std::to_string(area));
    }
    area_of_block_[i] = static_cast<Area>(area);
    fill_[i] = r.GetU32();
    slow_home_[i] = r.GetU8();
  }
  for (auto& list : slow_lists_) {
    const std::vector<std::uint64_t> v = r.GetU64Seq();
    list.assign(v.begin(), v.end());
  }
  for (auto& list : fast_lists_) {
    const std::vector<std::uint64_t> v = r.GetU64Seq();
    list.assign(v.begin(), v.end());
  }
  for (std::size_t i = 0; i < kSlowListCount; ++i) {
    growth_fail_gen_[i] = r.GetU64();
    growth_fail_size_[i] = static_cast<std::size_t>(r.GetU64());
  }
  const std::vector<std::uint64_t> dies = r.GetU64Seq();
  gc_dies_.clear();
  gc_dies_.insert(dies.begin(), dies.end());
  const std::uint64_t nstripers = r.GetU64();
  if (nstripers != stripers_.size()) {
    throw std::runtime_error("snapshot: striper count mismatch (have " +
                             std::to_string(stripers_.size()) + ", state " +
                             std::to_string(nstripers) + ")");
  }
  for (auto& striper : stripers_) striper.LoadState(r);
}

}  // namespace ctflash::core
