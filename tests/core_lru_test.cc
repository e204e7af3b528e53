#include "core/two_level_lru.h"

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <optional>
#include <stdexcept>
#include <vector>

#include "util/random.h"
#include "util/serial.h"

namespace ctflash::core {
namespace {

using Tier = TwoLevelLru::Tier;

/// LPN bound of the tables in this file: every lpn used below is smaller.
constexpr std::uint64_t kLpns = 256;

TEST(TwoLevelLru, ZeroCapacityRejected) {
  EXPECT_THROW(TwoLevelLru(0, 1, kLpns), std::invalid_argument);
  EXPECT_THROW(TwoLevelLru(1, 0, kLpns), std::invalid_argument);
}

TEST(TwoLevelLru, LpnBoundMustFitIn32Bits) {
  EXPECT_THROW(TwoLevelLru(1, 1, 1ull << 32), std::invalid_argument);
  EXPECT_THROW(TwoLevelLru(1, 1, ~0ull), std::invalid_argument);
}

TEST(TwoLevelLru, NewWriteEntersHotList) {
  TwoLevelLru lru(4, 4, kLpns);
  const auto out = lru.OnWrite(10);
  EXPECT_EQ(out.tier, Tier::kHot);
  EXPECT_FALSE(out.demoted_to_cold.has_value());
  EXPECT_EQ(lru.TierOf(10), Tier::kHot);
  EXPECT_EQ(lru.HotSize(), 1u);
}

TEST(TwoLevelLru, ReadPromotesHotToIron) {
  TwoLevelLru lru(4, 4, kLpns);
  lru.OnWrite(10);
  const auto out = lru.OnRead(10);
  EXPECT_EQ(out.tier, Tier::kIronHot);
  EXPECT_EQ(lru.TierOf(10), Tier::kIronHot);
  EXPECT_EQ(lru.HotSize(), 0u);
  EXPECT_EQ(lru.IronSize(), 1u);
}

TEST(TwoLevelLru, ReadOfUnknownLpnDoesNothing) {
  TwoLevelLru lru(4, 4, kLpns);
  const auto out = lru.OnRead(99);
  EXPECT_EQ(out.tier, Tier::kNone);
  EXPECT_FALSE(out.demoted_to_cold.has_value());
  EXPECT_EQ(lru.HotSize() + lru.IronSize(), 0u);
}

TEST(TwoLevelLru, IronWriteStaysIron) {
  TwoLevelLru lru(4, 4, kLpns);
  lru.OnWrite(10);
  lru.OnRead(10);
  const auto out = lru.OnWrite(10);  // Algorithm 1: dedup + reinsert as iron
  EXPECT_EQ(out.tier, Tier::kIronHot);
  EXPECT_EQ(lru.IronSize(), 1u);
  EXPECT_EQ(lru.HotSize(), 0u);
}

TEST(TwoLevelLru, HotOverflowDemotesLruTailToCold) {
  TwoLevelLru lru(2, 2, kLpns);
  lru.OnWrite(1);
  lru.OnWrite(2);
  const auto out = lru.OnWrite(3);  // hot = {3, 2}, 1 falls out
  ASSERT_TRUE(out.demoted_to_cold.has_value());
  EXPECT_EQ(*out.demoted_to_cold, 1u);
  EXPECT_EQ(lru.TierOf(1), Tier::kNone);
  EXPECT_EQ(lru.HotSize(), 2u);
}

TEST(TwoLevelLru, IronOverflowCascadesThroughHot) {
  TwoLevelLru lru(1, 1, kLpns);
  lru.OnWrite(1);
  lru.OnRead(1);  // iron = {1}
  lru.OnWrite(2);  // hot = {2}
  const auto out = lru.OnRead(2);  // 2 -> iron, 1 -> hot head; hot empty now
  EXPECT_FALSE(out.demoted_to_cold.has_value());
  EXPECT_EQ(lru.TierOf(2), Tier::kIronHot);
  EXPECT_EQ(lru.TierOf(1), Tier::kHot);
  // One more promotion: 1 -> iron pushes 2 -> hot.
  lru.OnWrite(3);  // hot = {3, 1(overflow)} -> capacity 1: 1 demoted to cold
  EXPECT_EQ(lru.TierOf(3), Tier::kHot);
  EXPECT_EQ(lru.TierOf(1), Tier::kNone);
}

TEST(TwoLevelLru, RewriteRefreshesRecency) {
  TwoLevelLru lru(2, 2, kLpns);
  lru.OnWrite(1);
  lru.OnWrite(2);
  lru.OnWrite(1);  // 1 becomes MRU again
  const auto out = lru.OnWrite(3);
  ASSERT_TRUE(out.demoted_to_cold.has_value());
  EXPECT_EQ(*out.demoted_to_cold, 2u);  // 2 was LRU, not 1
}

TEST(TwoLevelLru, EraseRemovesEntry) {
  TwoLevelLru lru(4, 4, kLpns);
  lru.OnWrite(1);
  lru.OnRead(1);
  lru.Erase(1);
  EXPECT_EQ(lru.TierOf(1), Tier::kNone);
  EXPECT_EQ(lru.IronSize(), 0u);
  lru.Erase(1);  // no-op on absent
}

TEST(TwoLevelLru, TailAccessors) {
  TwoLevelLru lru(4, 4, kLpns);
  EXPECT_FALSE(lru.HotTail().has_value());
  EXPECT_FALSE(lru.IronTail().has_value());
  lru.OnWrite(1);
  lru.OnWrite(2);
  EXPECT_EQ(lru.HotTail().value(), 1u);
  lru.OnRead(1);
  EXPECT_EQ(lru.IronTail().value(), 1u);
}

TEST(TwoLevelLru, InvariantsUnderRandomOps) {
  TwoLevelLru lru(16, 8, kLpns);
  util::Xoshiro256StarStar rng(77);
  for (int i = 0; i < 20000; ++i) {
    const Lpn lpn = rng.UniformBelow(64);
    const auto action = rng.UniformBelow(3);
    if (action == 0) {
      lru.OnWrite(lpn);
    } else if (action == 1) {
      lru.OnRead(lpn);
    } else {
      lru.Erase(lpn);
    }
    ASSERT_LE(lru.HotSize(), 16u);
    ASSERT_LE(lru.IronSize(), 8u);
    if (i % 1000 == 0) {
      ASSERT_TRUE(lru.CheckInvariants()) << "iteration " << i;
    }
  }
  EXPECT_TRUE(lru.CheckInvariants());
}

/// Parameterized capacity sweep: the structure never exceeds its budgets and
/// at most one entry leaves per operation.
class LruCapacitySweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(LruCapacitySweep, BoundedAndLossless) {
  const auto [hot_cap, iron_cap] = GetParam();
  TwoLevelLru lru(hot_cap, iron_cap, kLpns);
  util::Xoshiro256StarStar rng(hot_cap * 31 + iron_cap);
  std::size_t inserted = 0, demoted = 0;
  for (int i = 0; i < 5000; ++i) {
    const Lpn lpn = rng.UniformBelow(256);
    const bool was_tracked = lru.Contains(lpn);
    const auto out =
        rng.Bernoulli(0.5) ? lru.OnWrite(lpn) : lru.OnRead(lpn);
    if (!was_tracked && out.tier != Tier::kNone) ++inserted;
    if (out.demoted_to_cold) ++demoted;
    ASSERT_LE(lru.HotSize(), hot_cap);
    ASSERT_LE(lru.IronSize(), iron_cap);
  }
  // Conservation: tracked + demoted == inserted.
  EXPECT_EQ(lru.HotSize() + lru.IronSize() + demoted, inserted);
  EXPECT_TRUE(lru.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(
    Capacities, LruCapacitySweep,
    ::testing::Values(std::make_pair<std::size_t, std::size_t>(1, 1),
                      std::make_pair<std::size_t, std::size_t>(4, 2),
                      std::make_pair<std::size_t, std::size_t>(32, 16),
                      std::make_pair<std::size_t, std::size_t>(100, 500)));

std::vector<std::uint8_t> Bytes(const TwoLevelLru& lru) {
  util::StateWriter w;
  lru.SaveState(w);
  return w.TakeBytes();
}

/// A 2LRU section as SaveState would write it, with arbitrary lists.
std::vector<std::uint8_t> LruBlob(const std::vector<std::uint64_t>& hot,
                                  const std::vector<std::uint64_t>& iron) {
  util::StateWriter w;
  w.Tag("2LRU");
  w.PutU64Seq(hot);
  w.PutU64Seq(iron);
  return w.TakeBytes();
}

/// The node-based semantics the LPN-indexed table must keep: two
/// std::lists (front = MRU) and an ordered index.
class ReferenceLru {
 public:
  ReferenceLru(std::size_t hot_capacity, std::size_t iron_capacity)
      : hot_capacity_(hot_capacity), iron_capacity_(iron_capacity) {}

  Tier TierOf(Lpn lpn) const {
    const auto it = index_.find(lpn);
    return it == index_.end() ? Tier::kNone : it->second;
  }
  TwoLevelLru::Outcome OnWrite(Lpn lpn) {
    const Tier target =
        TierOf(lpn) == Tier::kIronHot ? Tier::kIronHot : Tier::kHot;
    Erase(lpn);
    return {target, Insert(lpn, target)};
  }
  TwoLevelLru::Outcome OnRead(Lpn lpn) {
    if (TierOf(lpn) == Tier::kNone) return {};
    Erase(lpn);
    return {Tier::kIronHot, Insert(lpn, Tier::kIronHot)};
  }
  void Erase(Lpn lpn) {
    const auto it = index_.find(lpn);
    if (it == index_.end()) return;
    (it->second == Tier::kHot ? hot_ : iron_).remove(lpn);
    index_.erase(it);
  }
  std::size_t HotSize() const { return hot_.size(); }
  std::size_t IronSize() const { return iron_.size(); }
  std::optional<Lpn> HotTail() const {
    return hot_.empty() ? std::nullopt : std::optional<Lpn>(hot_.back());
  }
  std::optional<Lpn> IronTail() const {
    return iron_.empty() ? std::nullopt : std::optional<Lpn>(iron_.back());
  }
  std::vector<std::uint8_t> Bytes() const {
    return LruBlob({hot_.begin(), hot_.end()}, {iron_.begin(), iron_.end()});
  }

 private:
  std::optional<Lpn> Insert(Lpn lpn, Tier tier) {
    std::list<Lpn>& list = tier == Tier::kHot ? hot_ : iron_;
    list.push_front(lpn);
    index_[lpn] = tier;
    if (list.size() <= (tier == Tier::kHot ? hot_capacity_ : iron_capacity_)) {
      return std::nullopt;
    }
    const Lpn victim = list.back();
    list.pop_back();
    index_.erase(victim);
    if (tier == Tier::kIronHot) return Insert(victim, Tier::kHot);
    return victim;
  }

  std::size_t hot_capacity_;
  std::size_t iron_capacity_;
  std::list<Lpn> hot_;
  std::list<Lpn> iron_;
  std::map<Lpn, Tier> index_;
};

/// Seeded random op streams drive the flat table and the reference model
/// side by side: every outcome, size, tail and snapshot byte must agree.
/// Key ranges of a few times the total capacity force demotion cascades;
/// periodic save/load round trips check that LoadState rebuilds the order.
TEST(TwoLevelLru, MatchesNodeBasedReferenceOnRandomStreams) {
  struct Case {
    std::size_t hot, iron;
    std::uint64_t lpns;
  };
  const Case cases[] = {{1, 1, 4},   {1, 3, 8},    {2, 1, 8},
                        {4, 2, 24},  {16, 8, 96},  {37, 64, 256},
                        {100, 50, 256}, {200, 200, 256}};
  std::uint64_t ops = 0;
  std::uint64_t cascades = 0;   // a promotion pushed the iron tail to hot
  std::uint64_t demotions = 0;  // a write pushed the hot tail out
  for (const Case& c : cases) {
    TwoLevelLru lru(c.hot, c.iron, c.lpns);
    ReferenceLru ref(c.hot, c.iron);
    util::Xoshiro256StarStar rng(c.hot * 1000 + c.iron);
    for (int i = 0; i < 16000; ++i, ++ops) {
      const Lpn lpn = rng.UniformBelow(c.lpns);
      const auto action = rng.UniformBelow(8);
      SCOPED_TRACE("capacities " + std::to_string(c.hot) + "/" +
                   std::to_string(c.iron) + " op " + std::to_string(i));
      if (action < 3) {
        const auto got = lru.OnWrite(lpn);
        const auto want = ref.OnWrite(lpn);
        ASSERT_EQ(got.tier, want.tier);
        ASSERT_EQ(got.demoted_to_cold, want.demoted_to_cold);
        demotions += got.demoted_to_cold.has_value() ? 1 : 0;
      } else if (action < 7) {
        if (ref.TierOf(lpn) == Tier::kHot && ref.IronSize() == c.iron) {
          ++cascades;
        }
        const auto got = lru.OnRead(lpn);
        const auto want = ref.OnRead(lpn);
        ASSERT_EQ(got.tier, want.tier);
        ASSERT_EQ(got.demoted_to_cold, want.demoted_to_cold);
      } else {
        lru.Erase(lpn);
        ref.Erase(lpn);
      }
      ASSERT_EQ(lru.TierOf(lpn), ref.TierOf(lpn));
      ASSERT_EQ(lru.HotSize(), ref.HotSize());
      ASSERT_EQ(lru.IronSize(), ref.IronSize());
      ASSERT_EQ(lru.HotTail(), ref.HotTail());
      ASSERT_EQ(lru.IronTail(), ref.IronTail());
      if (i % 1000 == 999) {
        const std::vector<std::uint8_t> bytes = Bytes(lru);
        ASSERT_EQ(bytes, ref.Bytes());
        ASSERT_TRUE(lru.CheckInvariants());
        TwoLevelLru loaded(c.hot, c.iron, c.lpns);
        util::StateReader r(bytes);
        loaded.LoadState(r);
        ASSERT_EQ(Bytes(loaded), bytes);
        lru = std::move(loaded);
      }
    }
    for (Lpn lpn = 0; lpn < c.lpns; ++lpn) {
      ASSERT_EQ(lru.TierOf(lpn), ref.TierOf(lpn));
    }
  }
  EXPECT_GE(ops, 100000u);
  EXPECT_GT(cascades, 1000u);
  EXPECT_GT(demotions, 1000u);
}

TEST(TwoLevelLru, LoadStateRestoresRecencyOrder) {
  TwoLevelLru lru(4, 4, kLpns);
  const std::vector<std::uint8_t> blob = LruBlob({3, 1, 2}, {7, 5});
  util::StateReader r(blob);
  lru.LoadState(r);
  EXPECT_EQ(lru.HotSize(), 3u);
  EXPECT_EQ(lru.HotTail(), 2u);
  EXPECT_EQ(lru.IronTail(), 5u);
  EXPECT_EQ(lru.TierOf(7), Tier::kIronHot);
  EXPECT_TRUE(lru.CheckInvariants());
  EXPECT_EQ(Bytes(lru), blob);
}

TEST(TwoLevelLru, LoadStateRejectsBadLpns) {
  const std::vector<std::vector<std::uint8_t>> bad = {
      LruBlob({1, kLpns}, {}),        // hot lpn out of range
      LruBlob({}, {~0ull}),           // iron lpn out of range
      LruBlob({1, 2, 1}, {}),         // duplicate within hot
      LruBlob({}, {4, 4}),            // duplicate within iron
      LruBlob({1, 2}, {3, 2}),        // listed in both lists
      LruBlob({1, 2, 3, 4, 5}, {}),   // over capacity
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    TwoLevelLru lru(4, 4, kLpns);
    lru.OnWrite(9);
    const std::vector<std::uint8_t> before = Bytes(lru);
    util::StateReader r(bad[i]);
    EXPECT_THROW(lru.LoadState(r), std::runtime_error) << "blob " << i;
    EXPECT_EQ(Bytes(lru), before) << "blob " << i << " left a partial load";
    EXPECT_TRUE(lru.CheckInvariants());
  }
}

}  // namespace
}  // namespace ctflash::core
