// Ssd: the assembled device — NAND array + timing fabric + selected FTL.
//
// This is the library's main entry point for applications: construct an
// SsdConfig (Table1Config() gives the paper's device), pick the FTL kind,
// and issue Read/Write with byte offsets.  All returned latencies come from
// the shared flash timing model, so conventional vs PPB comparisons are
// apples-to-apples.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/ppb_ftl.h"
#include "ftl/conventional_ftl.h"
#include "ftl/flash_target.h"
#include "ftl/ftl_base.h"
#include "nand/geometry.h"
#include "nand/latency_model.h"
#include "util/types.h"

namespace ctflash::campaign {
struct DeviceState;
}

namespace ctflash::ssd {

enum class FtlKind { kConventional = 0, kPpb = 1 };

const char* FtlKindName(FtlKind kind);

struct SsdConfig {
  nand::NandGeometry geometry;     ///< defaults = paper Table 1 (64 GiB)
  nand::NandTiming timing;         ///< defaults = paper Table 1
  ftl::FtlConfig ftl;
  core::PpbConfig ppb;             ///< used only when kind == kPpb
  FtlKind kind = FtlKind::kConventional;
  ftl::TimingMode timing_mode = ftl::TimingMode::kServiceTime;
  std::uint32_t endurance_pe_cycles = 1'000'000;
  /// Arm the synthetic layer error model on every read (reliability study).
  bool model_read_errors = false;
  nand::ErrorModelConfig error_model;
  std::uint64_t error_model_seed = 0x5EED;

  void Validate() const;
};

/// The paper's Table 1 device verbatim.
SsdConfig Table1Config(FtlKind kind = FtlKind::kConventional);

/// Table 1 timing/shape on a proportionally scaled-down array so experiments
/// replay large traces in seconds.  `page_size` of 8 KiB or 16 KiB matches
/// the paper's page-size sweep; `speed_ratio` is the 2x..5x asymmetry.
SsdConfig ScaledConfig(FtlKind kind, std::uint64_t device_bytes,
                       std::uint32_t page_size_bytes, double speed_ratio);

/// Same, but scaling down from `base_shape` instead of the Table 1 geometry
/// — lets parallelism studies vary channel/chip/die counts while keeping
/// the block shape and capacity comparable.
SsdConfig ScaledConfig(FtlKind kind, std::uint64_t device_bytes,
                       std::uint32_t page_size_bytes, double speed_ratio,
                       const nand::NandGeometry& base_shape);

class Ssd {
 public:
  explicit Ssd(const SsdConfig& config);

  Ssd(const Ssd&) = delete;
  Ssd& operator=(const Ssd&) = delete;

  /// Host operations; see ftl::FtlBase for semantics.  Each services the
  /// request through the FTL at `arrival_us` and returns its timing; the
  /// host interface's scheduler (src/host/) calls them at dispatch time and
  /// fires the completion as an event itself, so many transactions can be
  /// in flight across channels/chips/dies at once in TimingMode::kQueued.
  ftl::RequestResult Read(std::uint64_t offset_bytes, std::uint64_t size_bytes,
                          Us arrival_us);
  ftl::RequestResult Write(std::uint64_t offset_bytes, std::uint64_t size_bytes,
                           Us arrival_us);

  std::uint64_t LogicalBytes() const { return ftl_->LogicalBytes(); }
  std::string FtlName() const { return ftl_->Name(); }
  const SsdConfig& config() const { return config_; }

  ftl::FtlBase& ftl() { return *ftl_; }
  const ftl::FtlBase& ftl() const { return *ftl_; }
  ftl::FlashTarget& target() { return *target_; }
  const ftl::FlashTarget& target() const { return *target_; }

  /// Non-null only when configured with FtlKind::kPpb.
  core::PpbFtl* ppb() { return ppb_; }
  const core::PpbFtl* ppb() const { return ppb_; }

  /// Captures the complete device state (campaign/snapshot.h) stamped with
  /// `clock_us` (typically the prefill-end simulated time).  The device
  /// must be quiesced: throws std::logic_error while scheduled-GC
  /// transactions are in flight.  Implemented in campaign/snapshot.cc.
  campaign::DeviceState Snapshot(Us clock_us = 0) const;

  /// Restores state captured from a device of the same shape; throws
  /// std::runtime_error when the shape key does not match this config or
  /// the payload is malformed.  Counters and RNG streams resume exactly
  /// where the producing device left off.
  void Restore(const campaign::DeviceState& state);

 private:
  SsdConfig config_;
  std::unique_ptr<ftl::FlashTarget> target_;
  std::unique_ptr<ftl::FtlBase> ftl_;
  core::PpbFtl* ppb_ = nullptr;  // borrowed view into ftl_
};

}  // namespace ctflash::ssd
