#include "ssd/ssd.h"

#include <stdexcept>

namespace ctflash::ssd {

const char* FtlKindName(FtlKind kind) {
  switch (kind) {
    case FtlKind::kConventional:
      return "conventional";
    case FtlKind::kPpb:
      return "ppb";
  }
  return "?";
}

void SsdConfig::Validate() const {
  geometry.Validate();
  timing.Validate();
  ftl.Validate();
  ppb.Validate();
  if (model_read_errors) error_model.Validate();
  if (endurance_pe_cycles == 0) {
    throw std::invalid_argument("SsdConfig: endurance must be > 0");
  }
  if (ftl.gc_routing == ftl::GcRouting::kScheduled &&
      timing_mode != ftl::TimingMode::kQueued) {
    // Scheduled GC arbitrates against die occupancy; without queued
    // timelines the conflict keys and erase serialization are meaningless
    // and every reported latency would silently be garbage.
    throw std::invalid_argument(
        "SsdConfig: gc_routing = kScheduled requires TimingMode::kQueued");
  }
}

SsdConfig Table1Config(FtlKind kind) {
  SsdConfig cfg;  // geometry/timing defaults are Table 1 already
  cfg.kind = kind;
  return cfg;
}

SsdConfig ScaledConfig(FtlKind kind, std::uint64_t device_bytes,
                       std::uint32_t page_size_bytes, double speed_ratio) {
  return ScaledConfig(kind, device_bytes, page_size_bytes, speed_ratio,
                      nand::NandGeometry{});
}

SsdConfig ScaledConfig(FtlKind kind, std::uint64_t device_bytes,
                       std::uint32_t page_size_bytes, double speed_ratio,
                       const nand::NandGeometry& base_shape) {
  SsdConfig cfg;
  cfg.kind = kind;
  cfg.geometry = base_shape;
  cfg.geometry.page_size_bytes = page_size_bytes;
  cfg.geometry = nand::ScaledGeometry(cfg.geometry, device_bytes);
  cfg.timing.speed_ratio = speed_ratio;
  // Small scaled devices have few blocks; guarantee the over-provisioned
  // spare pool still covers the GC thresholds plus open blocks.
  const double min_spare_blocks =
      static_cast<double>(cfg.ftl.gc_threshold_high) + 16.0;
  const double min_op =
      min_spare_blocks / static_cast<double>(cfg.geometry.TotalBlocks());
  if (min_op > cfg.ftl.op_ratio) cfg.ftl.op_ratio = min_op;
  cfg.Validate();
  return cfg;
}

Ssd::Ssd(const SsdConfig& config) : config_(config) {
  config_.Validate();
  target_ = std::make_unique<ftl::FlashTarget>(config_.geometry, config_.timing,
                                               config_.endurance_pe_cycles,
                                               config_.timing_mode);
  if (config_.model_read_errors) {
    target_->ArmErrorModel(config_.error_model, config_.error_model_seed);
  }
  switch (config_.kind) {
    case FtlKind::kConventional:
      ftl_ = std::make_unique<ftl::ConventionalFtl>(*target_, config_.ftl);
      break;
    case FtlKind::kPpb: {
      auto ppb = std::make_unique<core::PpbFtl>(*target_, config_.ftl,
                                                config_.ppb);
      ppb_ = ppb.get();
      ftl_ = std::move(ppb);
      break;
    }
  }
}

ftl::RequestResult Ssd::Read(std::uint64_t offset_bytes,
                             std::uint64_t size_bytes, Us arrival_us) {
  return ftl_->Read(offset_bytes, size_bytes, arrival_us);
}

ftl::RequestResult Ssd::Write(std::uint64_t offset_bytes,
                              std::uint64_t size_bytes, Us arrival_us) {
  return ftl_->Write(offset_bytes, size_bytes, arrival_us);
}

}  // namespace ctflash::ssd
