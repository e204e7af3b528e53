#include "nand/fault_plan.h"

#include <stdexcept>
#include <string>

namespace ctflash::nand {

void FaultPlanConfig::Validate() const {
  if (program_fail_prob < 0.0 || program_fail_prob >= 1.0) {
    throw std::invalid_argument(
        "FaultPlanConfig: program_fail_prob must be in [0,1)");
  }
  if (erase_fail_prob < 0.0 || erase_fail_prob >= 1.0) {
    throw std::invalid_argument(
        "FaultPlanConfig: erase_fail_prob must be in [0,1)");
  }
  if (read_disturb_per_read < 0.0) {
    throw std::invalid_argument(
        "FaultPlanConfig: read_disturb_per_read must be >= 0");
  }
  if (retention_rber_multiplier < 1.0) {
    throw std::invalid_argument(
        "FaultPlanConfig: retention_rber_multiplier must be >= 1");
  }
}

FaultInjector::FaultInjector(const NandGeometry& geometry,
                             const FaultPlanConfig& config, std::uint64_t seed)
    : geometry_(geometry),
      config_(config),
      rng_(seed),
      reads_since_erase_(geometry.TotalBlocks(), 0),
      die_lost_(geometry.TotalDies(), false) {
  geometry_.Validate();
  config_.Validate();
  for (const std::uint64_t die : config_.fail_dies) {
    if (die >= geometry_.TotalDies()) {
      throw std::invalid_argument("FaultPlanConfig: fail_dies entry " +
                                  std::to_string(die) + " out of range");
    }
    die_lost_[die] = true;
  }
  const std::uint32_t dies_per_channel =
      geometry_.chips_per_channel * geometry_.dies_per_chip;
  for (const std::uint32_t ch : config_.fail_channels) {
    if (ch >= geometry_.channels) {
      throw std::invalid_argument("FaultPlanConfig: fail_channels entry " +
                                  std::to_string(ch) + " out of range");
    }
    for (std::uint32_t d = 0; d < dies_per_channel; ++d) {
      die_lost_[static_cast<std::uint64_t>(ch) * dies_per_channel + d] = true;
    }
  }
}

bool FaultInjector::Unreachable(std::uint32_t die, Us now) const {
  if (now < config_.fail_at_us) return false;
  return die_lost_.at(die);
}

double FaultInjector::RberScale(BlockId block) const {
  return config_.retention_rber_multiplier *
         (1.0 + config_.read_disturb_per_read *
                    static_cast<double>(reads_since_erase_[block]));
}

void FaultInjector::OnRead(BlockId block) {
  if (config_.read_disturb_per_read > 0.0) reads_since_erase_[block]++;
}

void FaultInjector::OnErase(BlockId block) { reads_since_erase_[block] = 0; }

void FaultInjector::SaveState(util::StateWriter& w) const {
  w.Tag("FLTI");
  w.PutDouble(config_.program_fail_prob);
  w.PutDouble(config_.erase_fail_prob);
  w.PutDouble(config_.read_disturb_per_read);
  w.PutDouble(config_.retention_rber_multiplier);
  w.PutU64Seq(config_.fail_dies);
  w.PutU64Seq(config_.fail_channels);
  w.PutI64(config_.fail_at_us);
  rng_.SaveState(w);
  w.PutU64Seq(reads_since_erase_);
}

void FaultInjector::LoadState(util::StateReader& r) {
  r.ExpectTag("FLTI");
  FaultPlanConfig cfg;
  cfg.program_fail_prob = r.GetDouble();
  cfg.erase_fail_prob = r.GetDouble();
  cfg.read_disturb_per_read = r.GetDouble();
  cfg.retention_rber_multiplier = r.GetDouble();
  cfg.fail_dies = r.GetU64Seq();
  cfg.fail_channels.clear();
  for (const std::uint64_t ch : r.GetU64Seq()) {
    cfg.fail_channels.push_back(static_cast<std::uint32_t>(ch));
  }
  cfg.fail_at_us = r.GetI64();
  // Rebuild through the constructor so die_lost_ and validation track the
  // serialized config, then overwrite the stochastic state.
  *this = FaultInjector(geometry_, cfg, /*seed=*/0);
  rng_.LoadState(r);
  const std::vector<std::uint64_t> reads = r.GetU64Seq();
  if (reads.size() != reads_since_erase_.size()) {
    throw std::runtime_error("snapshot: fault injector block count mismatch");
  }
  reads_since_erase_ = reads;
}

}  // namespace ctflash::nand
