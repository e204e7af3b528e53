#include "core/two_level_lru.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace ctflash::core {

TwoLevelLru::TwoLevelLru(std::size_t hot_capacity, std::size_t iron_capacity,
                         std::uint64_t lpn_bound) {
  if (hot_capacity == 0 || iron_capacity == 0 || lpn_bound > kNil) {
    throw std::invalid_argument(
        "TwoLevelLru: capacities must be > 0 and lpn_bound below 2^32");
  }
  lists_[0].capacity = hot_capacity;
  lists_[1].capacity = iron_capacity;
  links_.resize(lpn_bound);
  tier_.resize(lpn_bound, Tier::kNone);
}

void TwoLevelLru::Erase(Lpn lpn) {
  if (!Contains(lpn)) return;
  List& list = ListOf(tier_[lpn]);
  const Link link = links_[lpn];
  (link.prev == kNil ? list.head : links_[link.prev].next) = link.next;
  (link.next == kNil ? list.tail : links_[link.next].prev) = link.prev;
  --list.size;
  tier_[lpn] = Tier::kNone;
}

std::optional<Lpn> TwoLevelLru::InsertHead(Lpn lpn, Tier tier) {
  List& list = ListOf(tier);
  links_[lpn] = Link{kNil, list.head};
  const auto index = static_cast<std::uint32_t>(lpn);
  (list.head == kNil ? list.tail : links_[list.head].prev) = index;
  list.head = index;
  tier_[lpn] = tier;
  if (++list.size <= list.capacity) return std::nullopt;
  // Demote the LRU tail: iron-hot -> hot head; hot -> out (cold area).
  const Lpn victim = list.tail;
  Erase(victim);
  if (tier == Tier::kIronHot) return InsertHead(victim, Tier::kHot);
  return victim;
}

TwoLevelLru::Outcome TwoLevelLru::OnWrite(Lpn lpn) {
  const Tier target =
      TierOf(lpn) == Tier::kIronHot ? Tier::kIronHot : Tier::kHot;
  // Algorithm 1 lines 2-5: drop the duplicated entry before re-inserting.
  Erase(lpn);
  return {target, InsertHead(lpn, target)};
}

TwoLevelLru::Outcome TwoLevelLru::OnRead(Lpn lpn) {
  if (!Contains(lpn)) return {};  // not in the hot area
  Erase(lpn);  // "promote if read"
  return {Tier::kIronHot, InsertHead(lpn, Tier::kIronHot)};
}

bool TwoLevelLru::CheckInvariants() const {
  std::size_t tracked = 0;
  for (const Tier t : tier_) tracked += t != Tier::kNone ? 1 : 0;
  if (tracked != HotSize() + IronSize()) return false;
  for (const Tier tier : {Tier::kHot, Tier::kIronHot}) {
    const List& list = lists_[tier == Tier::kIronHot ? 1 : 0];
    std::size_t walked = 0;
    std::uint32_t prev = kNil;
    for (auto x = list.head; x != kNil; prev = x, x = links_[x].next) {
      if (x >= tier_.size() || ++walked > list.capacity) return false;
      if (tier_[x] != tier || links_[x].prev != prev) return false;
    }
    if (walked != list.size || list.tail != prev) return false;
  }
  return true;
}

void TwoLevelLru::SaveState(util::StateWriter& w) const {
  w.Tag("2LRU");
  for (const List& list : lists_) {
    w.PutU64(list.size);
    for (auto x = list.head; x != kNil; x = links_[x].next) w.PutU64(x);
  }
}

void TwoLevelLru::LoadState(util::StateReader& r) {
  r.ExpectTag("2LRU");
  const std::vector<std::uint64_t> hot = r.GetU64Seq();
  const std::vector<std::uint64_t> iron = r.GetU64Seq();
  if (hot.size() > hot_capacity() || iron.size() > iron_capacity()) {
    throw std::runtime_error("snapshot: LRU list exceeds capacity (hot " +
                             std::to_string(hot.size()) + ", iron " +
                             std::to_string(iron.size()) + ")");
  }
  TwoLevelLru loaded(hot_capacity(), iron_capacity(), tier_.size());
  for (const auto& [seq, tier] :
       {std::pair{&hot, Tier::kHot}, std::pair{&iron, Tier::kIronHot}}) {
    // LRU end first, so each list ends with its saved MRU entry at the head;
    // within capacity, nothing is demoted.
    for (auto it = seq->rbegin(); it != seq->rend(); ++it) {
      const bool in_range = *it < tier_.size();
      if (!in_range || loaded.Contains(*it)) {
        throw std::runtime_error("snapshot: LRU lpn " + std::to_string(*it) +
                                 (in_range ? " listed twice" : " out of range"));
      }
      loaded.InsertHead(*it, tier);
    }
  }
  *this = std::move(loaded);
}

}  // namespace ctflash::core
