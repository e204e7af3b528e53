// Seeded media-fault injection for reliability campaigns.
//
// A FaultPlanConfig describes *what* can go wrong — per-fault-class
// probabilities and schedules — and a FaultInjector draws the actual fault
// sequence deterministically from one seed:
//
//   * program-fail:  each page program independently fails verify with
//     `program_fail_prob` (the page is consumed; the FTL re-allocates and
//     flags the block for retirement at its next erase);
//   * erase-fail:    each block erase independently fails verify with
//     `erase_fail_prob` (the FTL retires the block as grown-bad);
//   * read-disturb:  every read of a block inflates the whole block's RBER
//     by `read_disturb_per_read` per accumulated read since the last erase;
//   * retention:     a static `retention_rber_multiplier` on all reads,
//     modeling an aged / hot device;
//   * die/channel loss: from `fail_at_us` onward the dies in `fail_dies`
//     and every die on the channels in `fail_channels` stop responding —
//     reads of resident data are lost, programs/erases fail.
//
// The injector is part of the device state: config, RNG, and per-block read
// counters all round-trip through SaveState/LoadState bit-exactly, so a
// snapshot taken mid-campaign resumes the same fault schedule.
#pragma once

#include <cstdint>
#include <vector>

#include "nand/geometry.h"
#include "util/random.h"
#include "util/serial.h"
#include "util/types.h"

namespace ctflash::nand {

struct FaultPlanConfig {
  double program_fail_prob = 0.0;          ///< per-program verify-fail prob
  double erase_fail_prob = 0.0;            ///< per-erase verify-fail prob
  double read_disturb_per_read = 0.0;      ///< RBER inflation per block read
  double retention_rber_multiplier = 1.0;  ///< static RBER multiplier (>= 1)
  std::vector<std::uint64_t> fail_dies;    ///< global die indices that die
  std::vector<std::uint32_t> fail_channels;  ///< channels that drop whole
  Us fail_at_us = 0;                       ///< when the die/channel loss hits

  /// True when any fault class is active (an injector is worth arming).
  bool Armed() const {
    return program_fail_prob > 0.0 || erase_fail_prob > 0.0 ||
           read_disturb_per_read > 0.0 || retention_rber_multiplier > 1.0 ||
           !fail_dies.empty() || !fail_channels.empty();
  }

  void Validate() const;
};

class FaultInjector {
 public:
  FaultInjector(const NandGeometry& geometry, const FaultPlanConfig& config,
                std::uint64_t seed);

  const FaultPlanConfig& config() const { return config_; }

  /// Draws whether this program / erase fails verify.  Consumes RNG only
  /// when the corresponding probability is non-zero, so disabled fault
  /// classes leave the draw sequence of the enabled ones untouched.
  bool DrawProgramFail() {
    return config_.program_fail_prob > 0.0 &&
           rng_.Bernoulli(config_.program_fail_prob);
  }
  bool DrawEraseFail() {
    return config_.erase_fail_prob > 0.0 &&
           rng_.Bernoulli(config_.erase_fail_prob);
  }

  /// True when global die `die` (NandDevice::LocationOf(block).die) is
  /// lost — itself or with its channel — at time `now`.  Throws
  /// std::out_of_range for a die index >= TotalDies().
  bool Unreachable(std::uint32_t die, Us now) const;

  /// RBER multiplier for reads of `block`: retention floor plus accumulated
  /// read disturb since the block's last erase.
  double RberScale(BlockId block) const;

  /// Bumps the block's read-disturb counter / resets it on erase.
  void OnRead(BlockId block);
  void OnErase(BlockId block);

  std::uint64_t ReadsSinceErase(BlockId block) const {
    return reads_since_erase_[block];
  }

  void SaveState(util::StateWriter& w) const;
  /// Rebuilds an injector from serialized state (geometry must match the
  /// owning device; the serialized config replaces the constructor's).
  void LoadState(util::StateReader& r);

 private:
  NandGeometry geometry_;
  FaultPlanConfig config_;
  util::Xoshiro256StarStar rng_;
  std::vector<std::uint64_t> reads_since_erase_;  // one per block
  std::vector<bool> die_lost_;                    // one per global die
};

}  // namespace ctflash::nand
