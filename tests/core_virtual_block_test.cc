#include "core/virtual_block.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/random.h"

namespace ctflash::core {
namespace {

constexpr std::uint32_t kPages = 16;  // 2 slices of 8 for split = 2

struct Fixture {
  explicit Fixture(std::uint64_t blocks = 8, std::uint32_t split = 2,
                   std::uint32_t max_fast = 4)
      : bm(blocks, kPages), vbm(bm, split, max_fast) {}
  ftl::BlockManager bm;
  VirtualBlockManager vbm;
};

TEST(HotnessHelpers, AreaAndSpeedMapping) {
  EXPECT_EQ(AreaOf(HotnessLevel::kIronHot), Area::kHot);
  EXPECT_EQ(AreaOf(HotnessLevel::kHot), Area::kHot);
  EXPECT_EQ(AreaOf(HotnessLevel::kCold), Area::kCold);
  EXPECT_EQ(AreaOf(HotnessLevel::kIcyCold), Area::kCold);
  EXPECT_TRUE(WantsFastPages(HotnessLevel::kIronHot));
  EXPECT_FALSE(WantsFastPages(HotnessLevel::kHot));
  EXPECT_TRUE(WantsFastPages(HotnessLevel::kCold));
  EXPECT_FALSE(WantsFastPages(HotnessLevel::kIcyCold));
  EXPECT_STREQ(HotnessName(HotnessLevel::kIcyCold), "icy-cold");
  EXPECT_STREQ(AreaName(Area::kHot), "hot");
}

TEST(VirtualBlockManager, ConstructionValidation) {
  ftl::BlockManager bm(4, kPages);
  EXPECT_THROW(VirtualBlockManager(bm, 3), std::invalid_argument);
  EXPECT_THROW(VirtualBlockManager(bm, 0), std::invalid_argument);
  EXPECT_THROW(VirtualBlockManager(bm, 6), std::invalid_argument);
  // Striping picks dies, so it needs a die view.
  VbStripingConfig striped;
  striped.alloc.write_frontiers = 2;
  EXPECT_THROW(VirtualBlockManager(bm, 2, 4, striped), std::invalid_argument);
}

TEST(VirtualBlockManager, SliceClassMath) {
  Fixture f;
  EXPECT_EQ(f.vbm.pages_per_slice(), 8u);
  EXPECT_EQ(f.vbm.SliceOfPage(0), 0u);
  EXPECT_EQ(f.vbm.SliceOfPage(7), 0u);
  EXPECT_EQ(f.vbm.SliceOfPage(8), 1u);
  EXPECT_FALSE(f.vbm.IsFastClassPage(0));
  EXPECT_TRUE(f.vbm.IsFastClassPage(8));
}

TEST(VirtualBlockManager, SlowRequestFillsSlowSliceFirst) {
  Fixture f;
  const auto a = f.vbm.AllocatePage(Area::kHot, HotnessLevel::kHot);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->ppn, 0u);
  EXPECT_EQ(a->slice, 0u);
  EXPECT_FALSE(a->fast_class);
  EXPECT_FALSE(a->diverted);
  EXPECT_TRUE(a->new_block);
  EXPECT_EQ(f.vbm.AreaOfBlock(0), Area::kHot);
}

TEST(VirtualBlockManager, FastSliceOnlyAfterSlowFull) {
  Fixture f;
  // First iron-hot request with nothing open: rule III diverts it to a new
  // block's slow slice (pages must be written in order).
  const auto first = f.vbm.AllocatePage(Area::kHot, HotnessLevel::kIronHot);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->diverted);
  EXPECT_FALSE(first->fast_class);
  // Fill the rest of slice 0.
  for (std::uint32_t i = 1; i < 8; ++i) {
    const auto a = f.vbm.AllocatePage(Area::kHot, HotnessLevel::kHot);
    ASSERT_TRUE(a.has_value());
    EXPECT_FALSE(a->fast_class);
  }
  // Now the fast sibling VB is open: iron-hot lands there undiverted.
  const auto fast = f.vbm.AllocatePage(Area::kHot, HotnessLevel::kIronHot);
  ASSERT_TRUE(fast.has_value());
  EXPECT_FALSE(fast->diverted);
  EXPECT_TRUE(fast->fast_class);
  EXPECT_EQ(fast->ppn, 8u);
}

TEST(VirtualBlockManager, PairingInvariantAcrossAreas) {
  Fixture f;
  // Open one block per area; both VBs of a block stay in its area.
  auto hot = f.vbm.AllocatePage(Area::kHot, HotnessLevel::kHot);
  auto cold = f.vbm.AllocatePage(Area::kCold, HotnessLevel::kIcyCold);
  ASSERT_TRUE(hot && cold);
  const BlockId hb = hot->ppn / kPages, cb = cold->ppn / kPages;
  EXPECT_NE(hb, cb);
  EXPECT_EQ(f.vbm.AreaOfBlock(hb), Area::kHot);
  EXPECT_EQ(f.vbm.AreaOfBlock(cb), Area::kCold);
  // Fill hot block fully: every page of it must belong to the hot area.
  for (int i = 0; i < 15; ++i) {
    const auto a = f.vbm.AllocatePage(Area::kHot, HotnessLevel::kHot);
    ASSERT_TRUE(a.has_value());
  }
  EXPECT_EQ(f.vbm.AreaOfBlock(hb), Area::kHot);
  EXPECT_TRUE(f.vbm.CheckInvariants());
}

TEST(VirtualBlockManager, SlowPreferenceOpensNewBlockWithinFastBound) {
  Fixture f(/*blocks=*/8, /*split=*/2, /*max_fast=*/4);
  // Fill block 0's slow slice with hot data -> fast VB of block 0 opens.
  for (int i = 0; i < 8; ++i) f.vbm.AllocatePage(Area::kHot, HotnessLevel::kHot);
  // Next slow-preference write claims a NEW block instead of polluting the
  // open fast VB (Fig. 8 reading).
  const auto a = f.vbm.AllocatePage(Area::kHot, HotnessLevel::kHot);
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->new_block);
  EXPECT_FALSE(a->diverted);
  EXPECT_EQ(a->ppn / kPages, 1u);
}

TEST(VirtualBlockManager, StrictModeDivertsInsteadOfOpening) {
  Fixture f(/*blocks=*/8, /*split=*/2, /*max_fast=*/0);  // Algorithm-1 literal
  for (int i = 0; i < 8; ++i) f.vbm.AllocatePage(Area::kHot, HotnessLevel::kHot);
  // Strict rule I: hot write diverted into the open fast VB.
  const auto a = f.vbm.AllocatePage(Area::kHot, HotnessLevel::kHot);
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->diverted);
  EXPECT_TRUE(a->fast_class);
  EXPECT_EQ(a->ppn / kPages, 0u);
}

TEST(VirtualBlockManager, FastBoundLimitsOpenBlocks) {
  Fixture f(/*blocks=*/16, /*split=*/2, /*max_fast=*/2);
  // Drive slow-demand only: blocks open until 2 fast VBs are pending, after
  // which slow writes divert into them.
  int new_blocks = 0, diverted = 0;
  for (int i = 0; i < 64; ++i) {
    const auto a = f.vbm.AllocatePage(Area::kHot, HotnessLevel::kHot);
    ASSERT_TRUE(a.has_value());
    new_blocks += a->new_block ? 1 : 0;
    diverted += a->diverted ? 1 : 0;
  }
  EXPECT_GT(diverted, 0);  // bound forces diversions
  EXPECT_LE(f.vbm.OpenBlockCount(Area::kHot), 3u);
  EXPECT_TRUE(f.vbm.CheckInvariants());
}

TEST(VirtualBlockManager, ExhaustionReturnsNullopt) {
  Fixture f(/*blocks=*/1);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(f.vbm.AllocatePage(Area::kHot, HotnessLevel::kHot).has_value());
  }
  EXPECT_FALSE(f.vbm.AllocatePage(Area::kHot, HotnessLevel::kHot).has_value());
  EXPECT_FALSE(f.vbm.AllocatePage(Area::kCold, HotnessLevel::kCold).has_value());
  // The filled block is now a GC candidate.
  EXPECT_EQ(f.bm.UseOf(0), ftl::BlockUse::kFull);
}

TEST(VirtualBlockManager, EraseResetsBlockState) {
  // Strict mode so 16 slow-preference writes fill block 0 completely
  // instead of opening a second block.
  Fixture f(/*blocks=*/2, /*split=*/2, /*max_fast=*/0);
  for (int i = 0; i < 16; ++i) f.vbm.AllocatePage(Area::kCold, HotnessLevel::kIcyCold);
  ASSERT_EQ(f.bm.UseOf(0), ftl::BlockUse::kFull);
  f.bm.Release(0);
  f.vbm.OnBlockErased(0);
  EXPECT_EQ(f.vbm.AreaOfBlock(0), Area::kNone);
  EXPECT_EQ(f.vbm.FillOf(0), 0u);
  // Block 0 is reusable, and for either area.
  const auto a = f.vbm.AllocatePage(Area::kHot, HotnessLevel::kHot);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->ppn / kPages, 0u);
  EXPECT_EQ(f.vbm.AreaOfBlock(0), Area::kHot);
}

TEST(VirtualBlockManager, MismatchedAreaLevelThrows) {
  Fixture f;
  EXPECT_THROW(f.vbm.AllocatePage(Area::kHot, HotnessLevel::kCold),
               std::invalid_argument);
  EXPECT_THROW(f.vbm.AllocatePage(Area::kNone, HotnessLevel::kHot),
               std::invalid_argument);
  EXPECT_THROW(f.vbm.AreaOfBlock(99), std::out_of_range);
  EXPECT_THROW(f.vbm.FillOf(99), std::out_of_range);
  EXPECT_THROW(f.vbm.OnBlockErased(99), std::out_of_range);
}

TEST(VirtualBlockManager, GcStreamUsesSeparateSlowBlocks) {
  Fixture f(/*blocks=*/8);
  const auto host = f.vbm.AllocatePage(Area::kCold, HotnessLevel::kIcyCold,
                                       /*gc_stream=*/false);
  const auto gc = f.vbm.AllocatePage(Area::kCold, HotnessLevel::kIcyCold,
                                     /*gc_stream=*/true);
  ASSERT_TRUE(host && gc);
  EXPECT_NE(host->ppn / kPages, gc->ppn / kPages);
  // Both blocks belong to the cold area (pairing preserved).
  EXPECT_EQ(f.vbm.AreaOfBlock(host->ppn / kPages), Area::kCold);
  EXPECT_EQ(f.vbm.AreaOfBlock(gc->ppn / kPages), Area::kCold);
  EXPECT_TRUE(f.vbm.CheckInvariants());
}

TEST(VirtualBlockManager, FastListSharedBetweenStreams) {
  Fixture f(/*blocks=*/8);
  // Host stream fills a slow slice -> fast VB opens.
  for (int i = 0; i < 8; ++i) {
    f.vbm.AllocatePage(Area::kCold, HotnessLevel::kIcyCold, false);
  }
  // A GC-stream fast-class request can use that fast VB (shared pool).
  const auto gc_fast =
      f.vbm.AllocatePage(Area::kCold, HotnessLevel::kCold, /*gc_stream=*/true);
  ASSERT_TRUE(gc_fast.has_value());
  EXPECT_TRUE(gc_fast->fast_class);
  EXPECT_FALSE(gc_fast->diverted);
  EXPECT_EQ(gc_fast->ppn / kPages, 0u);
}

/// Property: under any mix of levels/areas/streams, program order within each
/// block is sequential, pairing holds, and invariants stay green.
class VbmRandomSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(VbmRandomSweep, SequentialOrderAndInvariants) {
  const std::uint32_t split = GetParam();
  ftl::BlockManager bm(32, kPages);
  VirtualBlockManager vbm(bm, kPages, split);
  util::Xoshiro256StarStar rng(split * 1000 + 17);
  std::vector<std::uint32_t> next_page(32, 0);
  for (int i = 0; i < 400; ++i) {
    const auto level = static_cast<HotnessLevel>(rng.UniformBelow(4));
    const bool gc = rng.Bernoulli(0.3);
    const auto a = vbm.AllocatePage(AreaOf(level), level, gc);
    if (!a) break;  // device full
    const BlockId b = a->ppn / kPages;
    const std::uint32_t page = a->ppn % kPages;
    ASSERT_EQ(page, next_page[b]) << "in-block sequential order violated";
    next_page[b]++;
    ASSERT_EQ(vbm.IsFastClassPage(page), a->fast_class);
    if (i % 50 == 0) {
      ASSERT_TRUE(vbm.CheckInvariants());
    }
  }
  EXPECT_TRUE(vbm.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(Splits, VbmRandomSweep, ::testing::Values(2u, 4u, 8u));

}  // namespace
}  // namespace ctflash::core
