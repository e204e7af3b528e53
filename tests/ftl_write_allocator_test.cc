// Property tests for the die-striped write-frontier allocator: page
// conservation, no PPN handed out twice, at most one open block per
// (die, stream), striping really alternating dies, and the seed-compatible
// single-frontier lifecycle (lazy MarkFull, sequential fill).
#include "ftl/write_allocator.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "nand/device.h"
#include "sim/resource.h"
#include "util/random.h"

namespace ctflash::ftl {
namespace {

constexpr std::uint32_t kPagesPerBlock = 8;

/// Block b of `total_blocks` on die b % dies.
std::vector<nand::BlockLocation> StripedLocations(std::uint64_t total_blocks,
                                                  std::uint64_t dies) {
  std::vector<nand::BlockLocation> locations(total_blocks);
  for (BlockId b = 0; b < total_blocks; ++b) {
    locations[b].die = static_cast<std::uint32_t>(b % dies);
  }
  return locations;
}

/// Test fixture simulating a die layout without a FlashTarget: block b sits
/// on die b % dies; per-die busy times are booked on the pool directly.
struct Rig {
  explicit Rig(std::uint64_t total_blocks, std::uint64_t dies,
               WriteAllocatorConfig config = {}, std::uint32_t streams = 2,
               std::uint64_t reserve = 0)
      : blocks(total_blocks, kPagesPerBlock),
        locations(StripedLocations(total_blocks, dies)),
        die_pool(dies),
        alloc(blocks, DieView(locations, die_pool), config, streams,
              reserve) {}

  /// Keeps `die` busy until `until` (from an idle die).
  void Busy(std::uint64_t die, Us until) { die_pool.At(die).Reserve(0, until); }

  BlockManager blocks;
  std::vector<nand::BlockLocation> locations;
  sim::ResourcePool die_pool;
  WriteAllocator alloc;
};

TEST(WriteAllocator, ConstructionValidation) {
  BlockManager bm(4, kPagesPerBlock);
  const std::vector<nand::BlockLocation> locations = StripedLocations(4, 4);
  const sim::ResourcePool die_pool(4);
  const DieView dies(locations, die_pool);
  EXPECT_THROW(
      WriteAllocator(bm, dies,
                     WriteAllocatorConfig{0, StripePolicy::kRoundRobin}, 1, 0),
      std::invalid_argument);
  EXPECT_THROW(WriteAllocator(bm, dies, {}, 0, 0), std::invalid_argument);
  EXPECT_THROW(WriteAllocator(bm, DieView(), {}, 1, 0), std::invalid_argument);
}

TEST(WriteAllocator, FrontierCountCappedByDieCount) {
  // write_frontiers = 8 on a 2-die layout: the stream must stop growing at
  // 2 frontiers (any further claim attempt would only rescan the free list
  // for an uncovered die that cannot exist).
  Rig rig(16, 2, WriteAllocatorConfig{8, StripePolicy::kRoundRobin});
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(rig.alloc.AllocatePage(0, AllocPolicy::kById).has_value());
  }
  EXPECT_EQ(rig.alloc.Frontiers(0).size(), 2u);
  EXPECT_FALSE(rig.alloc.CanGrow(0));
  EXPECT_TRUE(rig.alloc.CheckInvariants());
}

TEST(WriteAllocator, CanGrowTracksReserveAndCaps) {
  Rig rig(6, 4, WriteAllocatorConfig{4, StripePolicy::kRoundRobin},
          /*streams=*/1, /*reserve=*/4);
  EXPECT_TRUE(rig.alloc.CanGrow(0));  // empty stream: first claim
  ASSERT_TRUE(rig.alloc.AllocatePage(0, AllocPolicy::kById).has_value());
  // 5 free <= reserve would be false, 5 > 4 -> may still grow...
  EXPECT_TRUE(rig.alloc.CanGrow(0));
  ASSERT_TRUE(rig.alloc.AllocatePage(0, AllocPolicy::kById).has_value());
  // ...but at 4 free == reserve growth stops.
  EXPECT_EQ(rig.blocks.FreeCount(), 4u);
  EXPECT_FALSE(rig.alloc.CanGrow(0));
}

TEST(WriteAllocator, SingleFrontierFillsBlocksSequentially) {
  // write_frontiers = 1 is the seed active-block behavior: block 0 fills
  // page-by-page, then block 1, with MarkFull deferred to the allocation
  // that discovers the exhaustion (GC must not see the block early).
  Rig rig(4, 2);
  for (std::uint32_t p = 0; p < kPagesPerBlock; ++p) {
    const auto a = rig.alloc.AllocatePage(0, AllocPolicy::kById);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->block, 0u);
    EXPECT_EQ(a->ppn, static_cast<Ppn>(p));
    EXPECT_EQ(a->new_block, p == 0);
  }
  // Exhausted but not yet swept: still open, invariants hold.
  EXPECT_EQ(rig.blocks.UseOf(0), BlockUse::kOpen);
  EXPECT_TRUE(rig.alloc.CheckInvariants());
  const auto a = rig.alloc.AllocatePage(0, AllocPolicy::kById);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->block, 1u);
  EXPECT_EQ(rig.blocks.UseOf(0), BlockUse::kFull);
}

TEST(WriteAllocator, StripingAlternatesDiesOnSequentialWrites) {
  Rig rig(16, 4, WriteAllocatorConfig{4, StripePolicy::kRoundRobin});
  std::vector<std::uint64_t> dies;
  for (int i = 0; i < 12; ++i) {
    const auto a = rig.alloc.AllocatePage(0, AllocPolicy::kById);
    ASSERT_TRUE(a.has_value());
    dies.push_back(a->die);
  }
  // The first four pages land on four distinct dies...
  EXPECT_EQ(std::set<std::uint64_t>(dies.begin(), dies.begin() + 4).size(), 4u);
  // ...and consecutive pages never share a die (round-robin rotation).
  for (std::size_t i = 1; i < dies.size(); ++i) {
    EXPECT_NE(dies[i], dies[i - 1]) << "page " << i;
  }
  EXPECT_EQ(rig.alloc.DiesTouched(0), 4u);
}

TEST(WriteAllocator, LeastBusyPolicyChasesIdleDies) {
  Rig rig(16, 4, WriteAllocatorConfig{2, StripePolicy::kLeastBusy});
  // Open two frontiers (dies 0 and 1), then make die 0 busy far out.
  ASSERT_TRUE(rig.alloc.AllocatePage(0, AllocPolicy::kById).has_value());
  ASSERT_TRUE(rig.alloc.AllocatePage(0, AllocPolicy::kById).has_value());
  rig.Busy(0, 10'000);
  for (int i = 0; i < 3; ++i) {
    const auto a = rig.alloc.AllocatePage(0, AllocPolicy::kById);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->die, 1u) << "least-busy must keep hitting the idle die";
  }
  // Round-robin would alternate regardless of the busy timeline.
  Rig rr(16, 4, WriteAllocatorConfig{2, StripePolicy::kRoundRobin});
  ASSERT_TRUE(rr.alloc.AllocatePage(0, AllocPolicy::kById).has_value());
  ASSERT_TRUE(rr.alloc.AllocatePage(0, AllocPolicy::kById).has_value());
  rr.Busy(0, 10'000);
  const auto a1 = rr.alloc.AllocatePage(0, AllocPolicy::kById);
  const auto a2 = rr.alloc.AllocatePage(0, AllocPolicy::kById);
  ASSERT_TRUE(a1 && a2);
  EXPECT_NE(a1->die, a2->die);
}

TEST(WriteAllocator, ReserveGuardBlocksFrontierGrowth) {
  // First claim always succeeds; growth needs FreeCount > reserve.
  Rig rig(4, 4, WriteAllocatorConfig{4, StripePolicy::kRoundRobin},
          /*streams=*/1, /*reserve=*/3);
  for (std::uint32_t p = 0; p < kPagesPerBlock; ++p) {
    const auto a = rig.alloc.AllocatePage(0, AllocPolicy::kById);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->block, 0u) << "reserve must pin the stream to one frontier";
  }
  EXPECT_EQ(rig.alloc.Frontiers(0).size(), 1u);
}

TEST(WriteAllocator, ExhaustionReturnsNullopt) {
  Rig rig(2, 2, WriteAllocatorConfig{2, StripePolicy::kRoundRobin});
  for (std::uint32_t i = 0; i < 2 * kPagesPerBlock; ++i) {
    ASSERT_TRUE(rig.alloc.AllocatePage(0, AllocPolicy::kById).has_value());
  }
  EXPECT_FALSE(rig.alloc.AllocatePage(0, AllocPolicy::kById).has_value());
}

TEST(WriteAllocator, StreamsKeepIndependentFrontiers) {
  // Two streams may cover the same die — the invariant is per (die, stream).
  Rig rig(8, 2, WriteAllocatorConfig{2, StripePolicy::kRoundRobin});
  std::set<std::uint64_t> host_dies, gc_dies;
  std::set<BlockId> blocks_used;
  for (int i = 0; i < 2; ++i) {
    const auto host = rig.alloc.AllocatePage(0, AllocPolicy::kById);
    const auto gc = rig.alloc.AllocatePage(1, AllocPolicy::kById);
    ASSERT_TRUE(host && gc);
    host_dies.insert(host->die);
    gc_dies.insert(gc->die);
    blocks_used.insert(host->block);
    blocks_used.insert(gc->block);
  }
  // Both streams ended up covering both dies with four distinct blocks:
  // same die across streams is fine, same die within a stream is not.
  EXPECT_EQ(host_dies.size(), 2u);
  EXPECT_EQ(gc_dies.size(), 2u);
  EXPECT_EQ(blocks_used.size(), 4u);
  EXPECT_TRUE(rig.alloc.CheckInvariants());
}

TEST(WriteAllocator, EarliestFrontierFreeAtTracksDieTimelines) {
  Rig rig(16, 4, WriteAllocatorConfig{2, StripePolicy::kRoundRobin});
  EXPECT_FALSE(rig.alloc.EarliestFrontierFreeAt(0).has_value());
  ASSERT_TRUE(rig.alloc.AllocatePage(0, AllocPolicy::kById).has_value());
  ASSERT_TRUE(rig.alloc.AllocatePage(0, AllocPolicy::kById).has_value());
  rig.Busy(0, 500);
  rig.Busy(1, 200);
  const auto free_at = rig.alloc.EarliestFrontierFreeAt(0);
  ASSERT_TRUE(free_at.has_value());
  EXPECT_EQ(*free_at, 200);
}

TEST(WriteAllocator, PropertyFuzzConservationAndUniqueness) {
  // Randomized allocation across streams and frontier configs: every PPN
  // unique, per-block page accounting consistent, structural invariants
  // (one open block per die per stream) after every step.
  util::Xoshiro256StarStar rng(0xA110C);
  for (const std::uint32_t frontiers : {1u, 2u, 3u, 4u}) {
    Rig rig(32, 4, WriteAllocatorConfig{frontiers, StripePolicy::kRoundRobin},
            /*streams=*/3, /*reserve=*/2);
    std::set<Ppn> seen;
    std::map<BlockId, std::uint32_t> handed;
    for (int step = 0; step < 2000; ++step) {
      const auto stream = static_cast<std::uint32_t>(rng.UniformBelow(3));
      const auto a = rig.alloc.AllocatePage(stream, AllocPolicy::kById);
      if (!a) break;  // free pool exhausted — fine, properties still hold
      EXPECT_TRUE(seen.insert(a->ppn).second)
          << "ppn " << a->ppn << " handed out twice";
      handed[a->block]++;
      ASSERT_TRUE(rig.alloc.CheckInvariants()) << "step " << step;
    }
    for (const auto& [block, count] : handed) {
      EXPECT_LE(count, kPagesPerBlock);
      EXPECT_EQ(count, rig.alloc.FillOf(block));
    }
    // Page conservation against the BlockManager's view: every fully
    // handed-out block is kOpen or kFull, never back on the free list.
    for (const auto& [block, count] : handed) {
      EXPECT_NE(rig.blocks.UseOf(block), BlockUse::kFree);
    }
  }
}

}  // namespace
}  // namespace ctflash::ftl
