#include "ftl/write_allocator.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/logging.h"

namespace ctflash::ftl {

void WriteAllocatorConfig::Validate() const {
  if (write_frontiers == 0) {
    throw std::invalid_argument(
        "WriteAllocatorConfig: write_frontiers must be >= 1");
  }
}

DieStriper::DieStriper(DieView dies, StripePolicy policy)
    : dies_(dies), policy_(policy) {}

std::size_t DieStriper::Pick(const std::deque<BlockId>& candidates) {
  CTFLASH_CHECK(!candidates.empty());
  // Rotation key: dies strictly after the anchor come first (in ascending
  // die order), then wrap-around — i.e. the next die in a fixed cyclic
  // order.  kRoundRobin ranks by (rotation, free-at, index); kLeastBusy by
  // (free-at, rotation, index).  Index last keeps ties deterministic.
  constexpr std::uint64_t kWrap = 1ull << 32;
  std::size_t best = 0;
  std::uint64_t best_rot = 0;
  Us best_free = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const std::uint64_t die = dies_.DieOf(candidates[i]);
    const std::uint64_t rot = die > last_die_ ? die : die + kWrap;
    const Us free = dies_.FreeAt(candidates[i]);
    bool better;
    if (policy_ == StripePolicy::kRoundRobin) {
      better = rot < best_rot || (rot == best_rot && free < best_free);
    } else {
      better = free < best_free || (free == best_free && rot < best_rot);
    }
    if (i == 0 || better) {
      best = i;
      best_rot = rot;
      best_free = free;
    }
  }
  last_die_ = dies_.DieOf(candidates[best]);
  return best;
}

WriteAllocator::WriteAllocator(BlockManager& blocks, DieView dies,
                               const WriteAllocatorConfig& config,
                               std::uint32_t num_streams,
                               std::uint64_t claim_reserve_blocks)
    : blocks_(blocks),
      pages_per_block_(blocks.pages_per_block()),
      dies_(dies),
      config_(config),
      effective_frontiers_(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(config.write_frontiers, dies.DieCount()))),
      fill_(blocks.total_blocks(), 0) {
  config_.Validate();
  if (num_streams == 0) {
    throw std::invalid_argument("WriteAllocator: num_streams must be >= 1");
  }
  if (dies_.DieCount() == 0) {
    throw std::invalid_argument("WriteAllocator: the die view has no dies");
  }
  streams_.reserve(num_streams);
  for (std::uint32_t s = 0; s < num_streams; ++s) {
    streams_.push_back(Stream{{},
                              DieStriper(dies_, config_.stripe_policy),
                              {},
                              claim_reserve_blocks});
  }
}

void WriteAllocator::SetStreamReserve(std::uint32_t stream,
                                      std::uint64_t blocks) {
  if (stream >= streams_.size()) {
    throw std::out_of_range("WriteAllocator: stream out of range");
  }
  streams_[stream].reserve = blocks;
}

void WriteAllocator::SweepFull(Stream& s) {
  // Lazy MarkFull, exactly like the seed's active-block check at the head
  // of AllocatePage: an exhausted block stays kOpen (GC-invisible) until
  // the stream next asks for a page.
  for (auto it = s.frontiers.begin(); it != s.frontiers.end();) {
    if (fill_[*it] >= pages_per_block_) {
      blocks_.MarkFull(*it);
      it = s.frontiers.erase(it);
    } else {
      ++it;
    }
  }
}

std::function<bool(BlockId)> UncoveredDieFilter(
    const DieView& dies, const std::deque<BlockId>& open) {
  return [&dies, &open](BlockId b) {
    const std::uint64_t die = dies.DieOf(b);
    for (const BlockId frontier : open) {
      if (dies.DieOf(frontier) == die) return false;
    }
    return true;
  };
}

bool WriteAllocator::TryClaim(Stream& s, AllocPolicy policy, bool first) {
  std::optional<BlockId> fresh;
  if (first) {
    // Seed semantics: the stream's first block may always claim (the GC
    // thresholds guarantee a spare) and takes the policy's top pick.
    fresh = blocks_.AllocateBlock(policy);
  } else {
    if (blocks_.FreeCount() <= s.reserve) return false;
    if (blocks_.FreeListGeneration() == s.growth_fail_generation &&
        s.frontiers.size() == s.growth_fail_frontiers) {
      return false;  // nothing changed since the last failed scan
    }
    // Growth beyond the first frontier must land on a die the stream does
    // not already cover (the one-open-block-per-die-per-stream invariant);
    // when every free block sits on a covered die, simply don't grow.
    fresh = blocks_.AllocateBlock(policy,
                                  UncoveredDieFilter(dies_, s.frontiers));
    if (!fresh) {
      s.growth_fail_generation = blocks_.FreeListGeneration();
      s.growth_fail_frontiers = s.frontiers.size();
      return false;
    }
  }
  if (!fresh) return false;
  s.growth_fail_generation = kNoGrowthFailure;
  fill_[*fresh] = 0;  // blocks come off the free list erased
  s.frontiers.push_back(*fresh);
  return true;
}

std::optional<PageAllocation> WriteAllocator::AllocatePage(std::uint32_t stream,
                                                           AllocPolicy policy) {
  if (stream >= streams_.size()) {
    throw std::out_of_range("WriteAllocator: stream out of range");
  }
  Stream& s = streams_[stream];
  SweepFull(s);

  PageAllocation out;
  if (s.frontiers.empty()) {
    if (!TryClaim(s, policy, /*first=*/true)) return std::nullopt;
    out.new_block = true;
  } else if (s.frontiers.size() < effective_frontiers_) {
    out.new_block = TryClaim(s, policy, /*first=*/false);
  }

  const std::size_t idx = s.striper.Pick(s.frontiers);
  const BlockId block = s.frontiers[idx];
  const std::uint32_t page = fill_[block]++;
  CTFLASH_CHECK(page < pages_per_block_);
  out.block = block;
  out.die = dies_.DieOf(block);
  out.ppn = static_cast<Ppn>(block) * pages_per_block_ + page;
  s.dies_touched.insert(out.die);
  return out;
}

const std::deque<BlockId>& WriteAllocator::Frontiers(
    std::uint32_t stream) const {
  if (stream >= streams_.size()) {
    throw std::out_of_range("WriteAllocator: stream out of range");
  }
  return streams_[stream].frontiers;
}

std::optional<Us> WriteAllocator::EarliestFrontierFreeAt(
    std::uint32_t stream) const {
  if (stream >= streams_.size()) {
    throw std::out_of_range("WriteAllocator: stream out of range");
  }
  std::optional<Us> earliest;
  for (const BlockId b : streams_[stream].frontiers) {
    if (fill_[b] >= pages_per_block_) continue;  // exhausted, sweeps next call
    const Us free = dies_.FreeAt(b);
    if (!earliest || free < *earliest) earliest = free;
  }
  return earliest;
}

bool WriteAllocator::CanGrow(std::uint32_t stream) const {
  if (stream >= streams_.size()) {
    throw std::out_of_range("WriteAllocator: stream out of range");
  }
  const Stream& s = streams_[stream];
  if (s.frontiers.empty()) return true;  // first claim is always allowed
  return s.frontiers.size() < effective_frontiers_ &&
         blocks_.FreeCount() > s.reserve;
}

std::size_t WriteAllocator::DiesTouched(std::uint32_t stream) const {
  if (stream >= streams_.size()) {
    throw std::out_of_range("WriteAllocator: stream out of range");
  }
  return streams_[stream].dies_touched.size();
}

std::uint32_t WriteAllocator::FillOf(BlockId block) const {
  if (block >= fill_.size()) {
    throw std::out_of_range("WriteAllocator: block out of range");
  }
  return fill_[block];
}

bool WriteAllocator::CheckInvariants() const {
  for (const Stream& s : streams_) {
    if (s.frontiers.size() > config_.write_frontiers) return false;
    std::set<std::uint64_t> covered;
    for (const BlockId b : s.frontiers) {
      if (b >= fill_.size()) return false;
      if (blocks_.UseOf(b) != BlockUse::kOpen) return false;
      if (fill_[b] > pages_per_block_) return false;
      // At most one open block per (die, stream).  Exhausted-but-unswept
      // frontiers keep their die slot until the next allocation.
      if (!covered.insert(dies_.DieOf(b)).second) return false;
    }
  }
  return true;
}

void WriteAllocator::SaveState(util::StateWriter& w) const {
  w.Tag("WALC");
  w.PutU64(fill_.size());
  for (std::uint32_t f : fill_) w.PutU32(f);
  w.PutU64(streams_.size());
  for (const Stream& s : streams_) {
    w.PutU64Seq(s.frontiers);
    w.PutU64Seq(s.dies_touched);
    w.PutU64(s.reserve);
    w.PutU64(s.growth_fail_generation);
    w.PutU64(s.growth_fail_frontiers);
    s.striper.SaveState(w);
  }
}

void WriteAllocator::LoadState(util::StateReader& r) {
  r.ExpectTag("WALC");
  const std::uint64_t nfill = r.GetU64();
  if (nfill != fill_.size()) {
    throw std::runtime_error("snapshot: write allocator fill size mismatch (have " +
                             std::to_string(fill_.size()) + ", state " +
                             std::to_string(nfill) + ")");
  }
  for (std::uint32_t& f : fill_) f = r.GetU32();
  const std::uint64_t nstreams = r.GetU64();
  if (nstreams != streams_.size()) {
    throw std::runtime_error("snapshot: write allocator stream count mismatch (have " +
                             std::to_string(streams_.size()) + ", state " +
                             std::to_string(nstreams) + ")");
  }
  for (Stream& s : streams_) {
    const std::vector<std::uint64_t> fr = r.GetU64Seq();
    s.frontiers.assign(fr.begin(), fr.end());
    const std::vector<std::uint64_t> dies = r.GetU64Seq();
    s.dies_touched.clear();
    s.dies_touched.insert(dies.begin(), dies.end());
    s.reserve = r.GetU64();
    s.growth_fail_generation = r.GetU64();
    s.growth_fail_frontiers = static_cast<std::size_t>(r.GetU64());
    s.striper.LoadState(r);
  }
}

}  // namespace ctflash::ftl
