// Per-device decode tables: every block's NandDevice::LocationOf entry, every
// page's LatencyModel latency and every page's LayerErrorModel RBER hold
// exactly what NandGeometry's arithmetic and the closed forms compute, and
// FlashTarget's die view answers from the same location table and die pool.
// Checked on the paper's Table 1 shape, the 4 GiB scaled shape the benches
// use, and a shape with no power-of-two dimension.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "ftl/flash_target.h"
#include "nand/device.h"
#include "nand/error_model.h"
#include "nand/geometry.h"
#include "nand/latency_model.h"

namespace ctflash::nand {
namespace {

NandGeometry OddShape() {
  NandGeometry g;
  g.channels = 3;
  g.chips_per_channel = 3;
  g.dies_per_chip = 1;
  g.planes_per_die = 3;
  g.blocks_per_plane = 5;
  g.pages_per_block = 96;
  g.num_layers = 32;
  return g;
}

std::vector<NandGeometry> Shapes() {
  return {NandGeometry{}, ScaledGeometry(NandGeometry{}, 4 * kGiB), OddShape()};
}

double ClosedFormFactor(const NandGeometry& g, double ratio,
                        std::uint32_t page) {
  const std::uint32_t layer = g.LayerOfPage(page);
  const double depth =
      g.num_layers == 1
          ? 1.0
          : static_cast<double>(layer) / static_cast<double>(g.num_layers - 1);
  return 1.0 - depth * (1.0 - 1.0 / ratio);
}

Us ClosedFormUs(Us base, double factor) {
  const Us r =
      static_cast<Us>(std::llround(static_cast<double>(base) * factor));
  return r < 1 ? 1 : r;
}

TEST(DecodeTables, BlockLocationsMatchGeometry) {
  for (const NandGeometry& g : Shapes()) {
    SCOPED_TRACE(g.ToString());
    const NandDevice dev(g, NandTiming{});
    for (BlockId b = 0; b < g.TotalBlocks(); ++b) {
      const BlockLocation& loc = dev.LocationOf(b);
      ASSERT_EQ(loc.plane, g.PlaneOfBlock(b)) << b;
      ASSERT_EQ(loc.die, g.DieOfBlock(b)) << b;
      ASSERT_EQ(loc.chip, g.ChipOfBlock(b)) << b;
      ASSERT_EQ(loc.channel, g.ChannelOfBlock(b)) << b;
    }
    EXPECT_THROW((void)dev.LocationOf(g.TotalBlocks()), std::out_of_range);
  }
}

TEST(DecodeTables, DieViewReadsLocationsAndDiePool) {
  for (const NandGeometry& g : Shapes()) {
    SCOPED_TRACE(g.ToString());
    ftl::FlashTarget target(g, NandTiming{});
    // Erase every 7th block so the die free-at times are not all zero.
    for (BlockId b = 0; b < g.TotalBlocks(); b += 7) target.EraseBlock(b, 0);
    const ftl::DieView view = target.die_view();
    ASSERT_EQ(view.DieCount(), g.TotalDies());
    bool busy_die = false;
    for (BlockId b = 0; b < g.TotalBlocks(); ++b) {
      const std::uint32_t die = target.nand().LocationOf(b).die;
      ASSERT_EQ(view.DieOf(b), die) << b;
      ASSERT_EQ(view.FreeAt(b), target.dies().At(die).FreeAt()) << b;
      busy_die = busy_die || view.FreeAt(b) > 0;
    }
    EXPECT_TRUE(busy_die);
    EXPECT_THROW((void)view.DieOf(g.TotalBlocks()), std::out_of_range);
    EXPECT_THROW((void)view.FreeAt(g.TotalBlocks()), std::out_of_range);
  }
}

TEST(DecodeTables, PageLatenciesMatchClosedForm) {
  for (const NandGeometry& g : Shapes()) {
    SCOPED_TRACE(g.ToString());
    for (const double ratio : {1.0, 2.0, 3.7, 5.0}) {
      for (const bool layer_dependent : {false, true}) {
        SCOPED_TRACE(testing::Message() << "ratio " << ratio
                                        << " program_layer_dependent "
                                        << layer_dependent);
        NandTiming t;
        t.speed_ratio = ratio;
        t.program_layer_dependent = layer_dependent;
        const LatencyModel m(g, t);
        for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
          const double factor = ClosedFormFactor(g, ratio, p);
          ASSERT_EQ(m.SpeedFactor(p), factor) << p;
          ASSERT_EQ(m.ReadUs(p), ClosedFormUs(t.page_read_us, factor)) << p;
          ASSERT_EQ(m.ProgramUs(p),
                    layer_dependent ? ClosedFormUs(t.page_program_us, factor)
                                    : t.page_program_us)
              << p;
        }
        EXPECT_THROW((void)m.SpeedFactor(g.pages_per_block),
                     std::out_of_range);
        EXPECT_THROW((void)m.ReadUs(g.pages_per_block), std::out_of_range);
        EXPECT_THROW((void)m.ProgramUs(g.pages_per_block), std::out_of_range);
      }
    }
  }
}

TEST(DecodeTables, ErrorModelRberMatchesClosedForm) {
  const ErrorModelConfig c;
  for (const NandGeometry& g : Shapes()) {
    SCOPED_TRACE(g.ToString());
    const LayerErrorModel m(g, c);
    for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
      const double depth = static_cast<double>(g.LayerOfPage(p)) /
                           static_cast<double>(g.num_layers - 1);
      for (const std::uint32_t pe : {0u, 1000u, 20000u}) {
        const double rber =
            c.base_rber * std::pow(c.layer_skew, depth) *
            std::exp(static_cast<double>(pe) / c.pe_scale);
        ASSERT_EQ(m.Rber(p, pe), rber >= 1.0 ? 1.0 : rber) << p << " " << pe;
      }
    }
    EXPECT_THROW((void)m.Rber(g.pages_per_block, 0), std::out_of_range);
  }
}

}  // namespace
}  // namespace ctflash::nand
