// Two-level LRU for the hot data area (paper Fig. 10(a), Algorithm 1).
//
// New hot writes enter the head of the HOT list.  A read of a hot-list entry
// promotes it to the head of the IRON-HOT list (its data will be moved to a
// fast virtual block progressively, on the next update or GC).  Overflow
// demotes: the iron-hot LRU tail falls back to the hot head; the hot LRU
// tail leaves the hot area entirely (demoted to the cold area).  Duplicate
// LBAs are collapsed on every write (Algorithm 1 lines 2-5).
//
// At most one entry can cascade out of the structure per operation, so every
// mutator returns an optional demoted LPN instead of a vector.
//
// Both recency lists are intrusive over arrays indexed by LPN (32-bit links,
// a 1-byte tier per page).  Operations take lpn < lpn_bound unchecked.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/serial.h"
#include "util/types.h"

namespace ctflash::core {

class TwoLevelLru {
 public:
  enum class Tier : std::uint8_t { kNone = 0, kHot = 1, kIronHot = 2 };

  /// Capacities are entry counts (> 0); lpn_bound must be below 2^32.
  TwoLevelLru(std::size_t hot_capacity, std::size_t iron_capacity,
              std::uint64_t lpn_bound);

  Tier TierOf(Lpn lpn) const { return tier_[lpn]; }
  bool Contains(Lpn lpn) const { return TierOf(lpn) != Tier::kNone; }

  struct Outcome {
    /// Tier the caller should place the data in (kHot or kIronHot); kNone
    /// from OnRead means the lpn is not tracked by the hot area.
    Tier tier = Tier::kNone;
    /// Entry pushed out of the hot area (goes to the cold area), if any.
    std::optional<Lpn> demoted_to_cold;
  };

  /// Registers a host write.  Re-writes of an iron-hot entry stay iron-hot
  /// (the VB-list divert rules may still redirect the physical placement);
  /// everything else (re)enters the hot list head.
  Outcome OnWrite(Lpn lpn);

  /// Registers a host read.  Hot entries are promoted to iron-hot; iron-hot
  /// entries are refreshed.  Unknown lpns return tier kNone and no demotion.
  Outcome OnRead(Lpn lpn);

  /// Removes an entry (data reclassified cold by the first stage, or
  /// trimmed).  No-op when absent.
  void Erase(Lpn lpn);

  std::size_t HotSize() const { return lists_[0].size; }
  std::size_t IronSize() const { return lists_[1].size; }
  std::size_t hot_capacity() const { return lists_[0].capacity; }
  std::size_t iron_capacity() const { return lists_[1].capacity; }

  /// Least-recently-used entries (tails), for tests.
  std::optional<Lpn> HotTail() const { return Tail(lists_[0]); }
  std::optional<Lpn> IronTail() const { return Tail(lists_[1]); }

  /// O(lpn_bound) check: links, tiers and sizes agree, within capacity.
  bool CheckInvariants() const;

  /// Serializes both recency lists in MRU->LRU order.  LoadState throws,
  /// leaving this instance as it was, on a list over capacity or an lpn out
  /// of range or listed twice.
  void SaveState(util::StateWriter& w) const;
  void LoadState(util::StateReader& r);

 private:
  static constexpr std::uint32_t kNil = ~0u;

  struct Link {
    std::uint32_t prev = kNil, next = kNil;  // towards the head (MRU) / tail
  };
  struct List {
    std::uint32_t head = kNil, tail = kNil;
    std::size_t size = 0, capacity = 0;
  };

  static std::optional<Lpn> Tail(const List& list) {
    return list.tail == kNil ? std::nullopt : std::optional<Lpn>(list.tail);
  }
  List& ListOf(Tier tier) { return lists_[tier == Tier::kIronHot ? 1 : 0]; }

  /// Inserts an untracked lpn at `tier`'s head, cascading demotions.
  std::optional<Lpn> InsertHead(Lpn lpn, Tier tier);

  List lists_[2];  // [0] hot, [1] iron-hot
  std::vector<Link> links_;
  std::vector<Tier> tier_;
};

}  // namespace ctflash::core
