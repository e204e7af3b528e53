// FaultInjector unit tests: config validation, seeded determinism, RNG
// discipline for disabled fault classes, die/channel loss schedules,
// read-disturb/retention RBER scaling, and snapshot round-trips.
#include "nand/fault_plan.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "util/serial.h"

namespace ctflash::nand {
namespace {

// 2 channels x 2 chips x 2 dies = 8 dies, 4 per channel.
NandGeometry Geo() {
  NandGeometry g;
  g.channels = 2;
  g.chips_per_channel = 2;
  g.dies_per_chip = 2;
  g.planes_per_die = 1;
  g.blocks_per_plane = 4;
  g.pages_per_block = 16;
  g.page_size_bytes = 4096;
  g.num_layers = 16;
  return g;
}

TEST(FaultPlanConfig, Validation) {
  FaultPlanConfig c;
  c.Validate();  // defaults are a no-fault plan
  c.program_fail_prob = 1.0;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = FaultPlanConfig{};
  c.program_fail_prob = -0.1;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = FaultPlanConfig{};
  c.erase_fail_prob = 1.0;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = FaultPlanConfig{};
  c.read_disturb_per_read = -1e-6;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = FaultPlanConfig{};
  c.retention_rber_multiplier = 0.5;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
}

TEST(FaultInjector, RejectsOutOfRangeTargets) {
  FaultPlanConfig c;
  c.fail_dies = {8};  // only dies 0..7 exist
  EXPECT_THROW(FaultInjector(Geo(), c, 1), std::invalid_argument);
  c = FaultPlanConfig{};
  c.fail_channels = {2};  // only channels 0..1 exist
  EXPECT_THROW(FaultInjector(Geo(), c, 1), std::invalid_argument);
}

TEST(FaultInjector, DeterministicForSeed) {
  FaultPlanConfig c;
  c.program_fail_prob = 0.3;
  c.erase_fail_prob = 0.2;
  FaultInjector a(Geo(), c, 42), b(Geo(), c, 42);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.DrawProgramFail(), b.DrawProgramFail());
    EXPECT_EQ(a.DrawEraseFail(), b.DrawEraseFail());
  }
}

TEST(FaultInjector, ProgramFailFrequencyMatchesProbability) {
  FaultPlanConfig c;
  c.program_fail_prob = 0.1;
  FaultInjector inj(Geo(), c, 7);
  const int n = 20000;
  int fails = 0;
  for (int i = 0; i < n; ++i) fails += inj.DrawProgramFail() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(fails) / n, 0.1, 0.01);
}

TEST(FaultInjector, DisabledClassesConsumeNoRng) {
  // With erase faults off, interleaving DrawEraseFail must not perturb the
  // program-fail draw sequence — otherwise toggling one fault class would
  // silently reshuffle every other class's schedule.
  FaultPlanConfig c;
  c.program_fail_prob = 0.25;
  FaultInjector with_noise(Geo(), c, 11), clean(Geo(), c, 11);
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(with_noise.DrawEraseFail());  // disabled: free and false
    EXPECT_EQ(with_noise.DrawProgramFail(), clean.DrawProgramFail());
  }
}

TEST(FaultInjector, DieLossRespectsSchedule) {
  FaultPlanConfig c;
  c.fail_dies = {3};
  c.fail_at_us = 1000;
  const NandGeometry g = Geo();
  FaultInjector inj(g, c, 1);
  EXPECT_FALSE(inj.Unreachable(3, 999));   // before the failure time
  EXPECT_TRUE(inj.Unreachable(3, 1000));   // from fail_at_us onward
  EXPECT_TRUE(inj.Unreachable(3, 50000));
  for (std::uint32_t die = 0; die < g.TotalDies(); ++die) {
    if (die != 3) EXPECT_FALSE(inj.Unreachable(die, 50000)) << die;
  }
  EXPECT_THROW((void)inj.Unreachable(
                   static_cast<std::uint32_t>(g.TotalDies()), 50000),
               std::out_of_range);
}

TEST(FaultInjector, ChannelLossCoversEveryDieOfTheChannel) {
  FaultPlanConfig c;
  c.fail_channels = {1};
  c.fail_at_us = 0;
  const NandGeometry g = Geo();
  FaultInjector inj(g, c, 1);
  for (BlockId b = 0; b < g.TotalBlocks(); ++b) {
    EXPECT_EQ(inj.Unreachable(static_cast<std::uint32_t>(g.DieOfBlock(b)), 5),
              g.ChannelOfBlock(b) == 1u);
  }
}

TEST(FaultInjector, RberScaleAccumulatesDisturbOnRetentionFloor) {
  FaultPlanConfig c;
  c.retention_rber_multiplier = 2.0;
  c.read_disturb_per_read = 0.01;
  FaultInjector inj(Geo(), c, 1);
  EXPECT_DOUBLE_EQ(inj.RberScale(0), 2.0);
  for (int i = 0; i < 10; ++i) inj.OnRead(0);
  EXPECT_EQ(inj.ReadsSinceErase(0), 10u);
  EXPECT_DOUBLE_EQ(inj.RberScale(0), 2.0 * 1.1);
  EXPECT_DOUBLE_EQ(inj.RberScale(1), 2.0);  // per-block accounting
  inj.OnErase(0);
  EXPECT_EQ(inj.ReadsSinceErase(0), 0u);
  EXPECT_DOUBLE_EQ(inj.RberScale(0), 2.0);
}

TEST(FaultInjector, OnReadFreeWhenDisturbDisabled) {
  FaultPlanConfig c;  // read_disturb_per_read == 0
  FaultInjector inj(Geo(), c, 1);
  for (int i = 0; i < 5; ++i) inj.OnRead(0);
  EXPECT_EQ(inj.ReadsSinceErase(0), 0u);
  EXPECT_DOUBLE_EQ(inj.RberScale(0), 1.0);
}

TEST(FaultInjector, StateRoundTripResumesSchedule) {
  FaultPlanConfig c;
  c.program_fail_prob = 0.3;
  c.erase_fail_prob = 0.1;
  c.read_disturb_per_read = 0.001;
  c.retention_rber_multiplier = 1.5;
  c.fail_dies = {5};
  c.fail_channels = {0};
  c.fail_at_us = 777;
  FaultInjector orig(Geo(), c, 99);
  // Advance the stochastic state, then snapshot.
  for (int i = 0; i < 57; ++i) (void)orig.DrawProgramFail();
  for (int i = 0; i < 9; ++i) orig.OnRead(2);
  util::StateWriter w;
  orig.SaveState(w);
  // Restore into an injector built with a *different* plan: the serialized
  // config must fully replace it.
  FaultInjector restored(Geo(), FaultPlanConfig{}, 0);
  util::StateReader r(w.bytes());
  restored.LoadState(r);
  EXPECT_EQ(restored.config().fail_at_us, 777);
  EXPECT_EQ(restored.ReadsSinceErase(2), 9u);
  EXPECT_TRUE(restored.Unreachable(0, 777));  // die 0: channel 0 loss restored
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(restored.DrawProgramFail(), orig.DrawProgramFail());
    EXPECT_EQ(restored.DrawEraseFail(), orig.DrawEraseFail());
  }
}

}  // namespace
}  // namespace ctflash::nand
