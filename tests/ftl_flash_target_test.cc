#include "ftl/flash_target.h"

#include <gtest/gtest.h>

namespace ctflash::ftl {
namespace {

nand::NandGeometry Geo() {
  nand::NandGeometry g;
  g.channels = 2;
  g.chips_per_channel = 1;
  g.dies_per_chip = 1;
  g.planes_per_die = 1;
  g.blocks_per_plane = 4;
  g.pages_per_block = 8;
  g.page_size_bytes = 16 * 1024;
  g.num_layers = 8;
  return g;
}

nand::NandTiming Timing() {
  nand::NandTiming t;
  t.page_read_us = 80;
  t.page_program_us = 600;
  t.block_erase_us = 4000;
  t.transfer_mb_per_s = 16.384;  // 16 KiB transfers in exactly 1000 us
  t.speed_ratio = 2.0;
  return t;
}

TEST(FlashTarget, ServiceTimeReadIsCellPlusTransfer) {
  FlashTarget ft(Geo(), Timing(), 1000, TimingMode::kServiceTime);
  ASSERT_EQ(ft.ProgramPage(0, 0), 0 + 1000 + 600);  // transfer then program
  // Page 0 = top layer: full 80 us cell read + 1000 us transfer.
  EXPECT_EQ(ft.ReadPage(0, 5000), 5000 + 80 + 1000);
}

TEST(FlashTarget, ServiceTimeIgnoresContention) {
  FlashTarget ft(Geo(), Timing(), 1000, TimingMode::kServiceTime);
  ft.ProgramPage(0, 0);
  // Two reads at the same arrival both finish at arrival + service.
  const Us a = ft.ReadPage(0, 100);
  const Us b = ft.ReadPage(0, 100);
  EXPECT_EQ(a, b);
}

TEST(FlashTarget, QueuedModeSerializesChipOps) {
  FlashTarget ft(Geo(), Timing(), 1000, TimingMode::kQueued);
  ft.ProgramPage(0, 0);
  const Us first = ft.ReadPage(0, 10000);
  const Us second = ft.ReadPage(0, 10000);  // queues behind the first
  EXPECT_GT(second, first);
}

TEST(FlashTarget, PartialTransferShortensRead) {
  FlashTarget ft(Geo(), Timing(), 1000, TimingMode::kServiceTime);
  ft.ProgramPage(0, 0);
  const Us full = ft.ReadPage(0, 0, 0);           // whole page
  const Us quarter = ft.ReadPage(0, 0, 4 * 1024); // 4 KiB of 16 KiB
  EXPECT_LT(quarter, full);
  EXPECT_EQ(full - quarter, 750);  // 12 KiB less at 16.384 MB/s
  // Oversized request clamps to the page transfer.
  EXPECT_EQ(ft.ReadPage(0, 0, 1 << 20), full);
}

TEST(FlashTarget, LayerAffectsReadCompletion) {
  FlashTarget ft(Geo(), Timing(), 1000, TimingMode::kServiceTime);
  for (std::uint32_t p = 0; p < 8; ++p) ft.ProgramPage(p, 0);
  const Us top = ft.ReadPage(ft.geometry().PpnOf(0, 0), 0);
  const Us bottom = ft.ReadPage(ft.geometry().PpnOf(0, 7), 0);
  EXPECT_EQ(top - bottom, 40);  // 80 us vs 80/2 us cell time
}

TEST(FlashTarget, EraseCompletion) {
  FlashTarget ft(Geo(), Timing(), 1000, TimingMode::kServiceTime);
  EXPECT_EQ(ft.EraseBlock(0, 123), 123 + 4000);
}

TEST(FlashTarget, BusyTimeTrackedInBothModes) {
  for (auto mode : {TimingMode::kServiceTime, TimingMode::kQueued}) {
    FlashTarget ft(Geo(), Timing(), 1000, mode);
    ft.ProgramPage(0, 0);
    ft.ReadPage(0, 0);
    Us chips = 0, channels = 0;
    for (std::size_t i = 0; i < ft.chips().Count(); ++i) {
      chips += ft.chips().At(i).BusyTime();
    }
    for (std::size_t i = 0; i < ft.channels().Count(); ++i) {
      channels += ft.channels().At(i).BusyTime();
    }
    EXPECT_EQ(chips, 600 + 80);
    EXPECT_EQ(channels, 2000);
  }
}

TEST(FlashTarget, NandStateSharedAcrossOps) {
  FlashTarget ft(Geo(), Timing());
  ft.ProgramPage(0, 0);
  EXPECT_TRUE(ft.nand().IsPageProgrammed(0));
  EXPECT_EQ(ft.nand().counters().programs, 1u);
}

}  // namespace
}  // namespace ctflash::ftl
