#include "core/access_frequency_table.h"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <vector>

#include "util/random.h"
#include "util/serial.h"

namespace ctflash::core {
namespace {

/// LPN bound of the tables in this file: every lpn used below is smaller.
constexpr std::uint64_t kLpns = 128;

/// The live count matches the tracked pages and is within capacity, and
/// untracked pages count 0 (what PpbFtl::CheckInvariants audits).
bool Consistent(const AccessFrequencyTable& t, std::uint64_t lpns = kLpns) {
  std::size_t tracked = 0;
  for (Lpn lpn = 0; lpn < lpns; ++lpn) {
    if (t.Contains(lpn)) {
      ++tracked;
    } else if (t.FrequencyOf(lpn) != 0) {
      return false;
    }
  }
  return tracked == t.Size() && tracked <= t.capacity();
}

TEST(FreqTable, ConstructionValidation) {
  EXPECT_THROW(AccessFrequencyTable(0, 10, kLpns), std::invalid_argument);
  EXPECT_THROW(AccessFrequencyTable(2, 0, kLpns), std::invalid_argument);
  EXPECT_THROW(AccessFrequencyTable(2, 10, 1ull << 32), std::invalid_argument);
}

TEST(FreqTable, UntrackedIsIcyCold) {
  const AccessFrequencyTable t(2, 100, kLpns);
  EXPECT_EQ(t.FrequencyOf(5), 0u);
  EXPECT_FALSE(t.IsCold(5));
}

TEST(FreqTable, ReadsAccumulateAndPromote) {
  AccessFrequencyTable t(2, 100, kLpns);
  EXPECT_EQ(t.OnRead(5), 1u);
  EXPECT_FALSE(t.IsCold(5));  // 1 < threshold 2
  EXPECT_EQ(t.OnRead(5), 2u);
  EXPECT_TRUE(t.IsCold(5));  // write-once-read-many now
}

TEST(FreqTable, WriteResetsPopularity) {
  AccessFrequencyTable t(2, 100, kLpns);
  t.OnRead(5);
  t.OnRead(5);
  ASSERT_TRUE(t.IsCold(5));
  t.OnWrite(5);  // fresh content: popularity unknown again
  EXPECT_FALSE(t.IsCold(5));
  EXPECT_EQ(t.FrequencyOf(5), 0u);
}

TEST(FreqTable, RegisterSeedsFrequency) {
  AccessFrequencyTable t(3, 100, kLpns);
  t.Register(7, 3);
  EXPECT_TRUE(t.IsCold(7));
  t.Register(7, 0);  // overwrite existing seed
  EXPECT_FALSE(t.IsCold(7));
}

TEST(FreqTable, EraseForgets) {
  AccessFrequencyTable t(2, 100, kLpns);
  t.OnRead(5);
  t.Erase(5);
  EXPECT_EQ(t.FrequencyOf(5), 0u);
  EXPECT_EQ(t.Size(), 0u);
}

TEST(FreqTable, DecayHalvesAndDropsZeroes) {
  AccessFrequencyTable t(2, 4, kLpns);
  // Fill to capacity with varying counts.
  t.Register(1, 1);
  t.Register(2, 4);
  t.Register(3, 8);
  t.Register(4, 1);
  EXPECT_EQ(t.Size(), 4u);
  // Next insert triggers aging: counts halve, zeroes evicted.
  t.OnRead(5);
  EXPECT_GE(t.decay_count(), 1u);
  EXPECT_EQ(t.FrequencyOf(1), 0u);  // 1/2 = 0 -> dropped
  EXPECT_EQ(t.FrequencyOf(2), 2u);
  EXPECT_EQ(t.FrequencyOf(3), 4u);
  EXPECT_EQ(t.FrequencyOf(5), 1u);
  EXPECT_LE(t.Size(), 4u);
}

TEST(FreqTable, CapacityNeverExceeded) {
  AccessFrequencyTable t(2, 16, kLpns);
  for (Lpn l = 0; l < 1000; ++l) {
    t.OnRead(l % 100);
    ASSERT_LE(t.Size(), 16u);
  }
}

TEST(FreqTable, PathologicalAllPopularStillBounded) {
  AccessFrequencyTable t(2, 4, kLpns);
  // Every entry has a large count, so halving never zeroes them.
  for (Lpn l = 0; l < 20; ++l) {
    t.Register(l, 1000);
    ASSERT_LE(t.Size(), 4u);
  }
  // Each insert past capacity halved the table and dropped its lowest lpn,
  // so the four newest survive with one halving more per step of age.
  EXPECT_EQ(t.decay_count(), 16u);
  EXPECT_EQ(t.Size(), 4u);
  for (Lpn l = 0; l < 16; ++l) EXPECT_FALSE(t.Contains(l)) << l;
  EXPECT_EQ(t.FrequencyOf(16), 125u);
  EXPECT_EQ(t.FrequencyOf(17), 250u);
  EXPECT_EQ(t.FrequencyOf(18), 500u);
  EXPECT_EQ(t.FrequencyOf(19), 1000u);
  EXPECT_TRUE(Consistent(t));
}

TEST(FreqTable, SaturatesWithoutOverflow) {
  AccessFrequencyTable t(2, 10, kLpns);
  t.Register(1, ~0u);
  EXPECT_EQ(t.OnRead(1), ~0u);  // clamped, no wraparound
}

TEST(FreqTable, ThresholdBoundaryExact) {
  AccessFrequencyTable t(5, 100, kLpns);
  for (int i = 0; i < 4; ++i) t.OnRead(9);
  EXPECT_FALSE(t.IsCold(9));
  t.OnRead(9);
  EXPECT_TRUE(t.IsCold(9));
}

std::vector<std::uint8_t> Bytes(const AccessFrequencyTable& t) {
  util::StateWriter w;
  t.SaveState(w);
  return w.TakeBytes();
}

/// A FREQ section as SaveState would write it, with arbitrary entries.
std::vector<std::uint8_t> FreqBlob(
    const std::vector<std::pair<std::uint64_t, std::uint32_t>>& entries,
    std::uint64_t decays = 0) {
  util::StateWriter w;
  w.Tag("FREQ");
  w.PutU64(entries.size());
  for (const auto& [lpn, count] : entries) {
    w.PutU64(lpn);
    w.PutU32(count);
  }
  w.PutU64(decays);
  return w.TakeBytes();
}

/// The node-based semantics the LPN-indexed table must keep, on an ordered
/// map: the all-popular decay branch drops the lowest lpns first.
class ReferenceFreq {
 public:
  ReferenceFreq(std::uint32_t threshold, std::size_t capacity)
      : threshold_(threshold), capacity_(capacity) {}

  void Register(Lpn lpn, std::uint32_t frequency) {
    const auto it = freq_.find(lpn);
    if (it != freq_.end()) {
      it->second = frequency;
      return;
    }
    MaybeDecay();
    freq_.emplace(lpn, frequency);
  }
  std::uint32_t OnRead(Lpn lpn) {
    const auto it = freq_.find(lpn);
    if (it != freq_.end()) {
      if (it->second < ~0u) ++it->second;
      return it->second;
    }
    MaybeDecay();
    freq_.emplace(lpn, 1);
    return 1;
  }
  std::uint32_t FrequencyOf(Lpn lpn) const {
    const auto it = freq_.find(lpn);
    return it == freq_.end() ? 0 : it->second;
  }
  bool IsCold(Lpn lpn) const { return FrequencyOf(lpn) >= threshold_; }
  void Erase(Lpn lpn) { freq_.erase(lpn); }
  std::size_t Size() const { return freq_.size(); }
  std::uint64_t decays() const { return decays_; }
  std::uint64_t overflow_drops() const { return overflow_drops_; }
  std::vector<std::uint8_t> Bytes() const {
    return FreqBlob({freq_.begin(), freq_.end()}, decays_);
  }

 private:
  void MaybeDecay() {
    if (freq_.size() < capacity_) return;
    ++decays_;
    for (auto it = freq_.begin(); it != freq_.end();) {
      it->second /= 2;
      it = it->second == 0 ? freq_.erase(it) : std::next(it);
    }
    for (; freq_.size() >= capacity_; ++overflow_drops_) {
      freq_.erase(freq_.begin());
    }
  }

  std::uint32_t threshold_;
  std::size_t capacity_;
  std::map<Lpn, std::uint32_t> freq_;
  std::uint64_t decays_ = 0;
  std::uint64_t overflow_drops_ = 0;
};

/// Seeded random op streams drive the flat table and the reference model
/// side by side: every returned count, classification, size, decay count
/// and snapshot byte must agree.  Large seeded counts make the all-popular
/// decay branch fire; near-saturated seeds exercise the clamp; periodic
/// save/load round trips check LoadState.
TEST(FreqTable, MatchesNodeBasedReferenceOnRandomStreams) {
  struct Case {
    std::uint32_t threshold;
    std::size_t capacity;
    std::uint64_t lpns;
  };
  const Case cases[] = {{1, 1, 4},    {2, 2, 8},     {2, 3, 16},
                        {3, 8, 32},   {2, 33, 128},  {4, 100, 512},
                        {2, 600, 512}};
  std::uint64_t ops = 0;
  std::uint64_t decays = 0;
  std::uint64_t overflow_drops = 0;
  for (const Case& c : cases) {
    AccessFrequencyTable t(c.threshold, c.capacity, c.lpns);
    ReferenceFreq ref(c.threshold, c.capacity);
    util::Xoshiro256StarStar rng(c.capacity * 7 + c.threshold);
    for (int i = 0; i < 16000; ++i, ++ops) {
      const Lpn lpn = rng.UniformBelow(c.lpns);
      const auto action = rng.UniformBelow(16);
      SCOPED_TRACE("capacity " + std::to_string(c.capacity) + " op " +
                   std::to_string(i));
      if (action < 9) {
        ASSERT_EQ(t.OnRead(lpn), ref.OnRead(lpn));
      } else if (action < 12) {
        t.OnWrite(lpn);
        ref.Register(lpn, 0);
      } else if (action < 15) {
        const std::uint32_t seeds[] = {0, 1, 3, 1000, ~0u - 1, ~0u};
        const std::uint32_t seed = seeds[rng.UniformBelow(6)];
        t.Register(lpn, seed);
        ref.Register(lpn, seed);
      } else {
        t.Erase(lpn);
        ref.Erase(lpn);
      }
      ASSERT_EQ(t.FrequencyOf(lpn), ref.FrequencyOf(lpn));
      ASSERT_EQ(t.IsCold(lpn), ref.IsCold(lpn));
      ASSERT_EQ(t.Size(), ref.Size());
      ASSERT_EQ(t.decay_count(), ref.decays());
      if (i % 1000 == 999) {
        const std::vector<std::uint8_t> bytes = Bytes(t);
        ASSERT_EQ(bytes, ref.Bytes());
        ASSERT_TRUE(Consistent(t, c.lpns));
        AccessFrequencyTable loaded(c.threshold, c.capacity, c.lpns);
        util::StateReader r(bytes);
        loaded.LoadState(r);
        ASSERT_EQ(Bytes(loaded), bytes);
        t = std::move(loaded);
      }
    }
    EXPECT_EQ(Bytes(t), ref.Bytes());
    decays += t.decay_count();
    overflow_drops += ref.overflow_drops();
  }
  EXPECT_GE(ops, 100000u);
  EXPECT_GT(decays, 1000u);
  EXPECT_GT(overflow_drops, 100u);
}

TEST(FreqTable, LoadStateRejectsBadLpns) {
  const std::vector<std::vector<std::uint8_t>> bad = {
      FreqBlob({{1, 2}, {kLpns, 1}}),          // lpn out of range
      FreqBlob({{~0ull, 1}}),                  // lpn far out of range
      FreqBlob({{3, 1}, {5, 2}, {3, 4}}),      // duplicate lpn
      FreqBlob({{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}}),  // over capacity
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    AccessFrequencyTable t(2, 4, kLpns);
    t.OnRead(9);
    const std::vector<std::uint8_t> before = Bytes(t);
    util::StateReader r(bad[i]);
    EXPECT_THROW(t.LoadState(r), std::runtime_error) << "blob " << i;
    EXPECT_EQ(Bytes(t), before) << "blob " << i << " left a partial load";
    EXPECT_TRUE(Consistent(t));
  }
  AccessFrequencyTable t(2, 4, kLpns);
  const std::vector<std::uint8_t> blob = FreqBlob({{2, 0}, {7, 5}});
  util::StateReader r(blob);
  t.LoadState(r);
  EXPECT_EQ(t.Size(), 2u);
  EXPECT_TRUE(t.IsCold(7));
  EXPECT_TRUE(Consistent(t));
}

}  // namespace
}  // namespace ctflash::core
