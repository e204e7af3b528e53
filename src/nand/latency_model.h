// Asymmetric page-access latency model for 3D charge-trap NAND.
//
// The liquid-chemical etch that punches vertical channels leaves a wider
// opening at the top gate-stack layer and a narrower one at the bottom, so
// the electric field — and hence program/read speed — grows toward the
// bottom (paper Section 2.1, refs [9][8]).  The paper's footnote 1: bottom
// layer is typically 2x to 5x faster than the top.
//
// Model: let d = layer / (num_layers - 1) in [0, 1] (0 = top, 1 = bottom)
// and R = speed_ratio (top latency / bottom latency).  Then
//     latency(layer) = base * (1 - d * (1 - 1/R))
// so layer 0 runs at `base` (Table 1 values) and the bottom layer at
// base / R, with linear field-strength interpolation between.
//
// The model evaluates this closed form once per page of a block when it is
// built; every per-operation query is a bounds-checked table load.
#pragma once

#include <cstdint>
#include <vector>

#include "nand/geometry.h"
#include "util/types.h"

namespace ctflash::nand {

/// Timing constants; defaults reproduce the paper's Table 1 (Samsung V-NAND).
struct NandTiming {
  Us page_read_us = 49;       ///< slowest-page (top layer) read latency
  Us page_program_us = 600;   ///< page program latency
  Us block_erase_us = 4000;   ///< block erase time (4 ms)
  double transfer_mb_per_s = 533.0;  ///< bus rate ("533 Mbps" per pin, x8 bus)
  double speed_ratio = 2.0;   ///< top/bottom latency ratio R in [1, ...)
  /// Whether program time also scales with the layer.  Real controllers
  /// normalize program time through the ISPP pulse schedule, and the paper's
  /// write-latency deltas (0.0001 %) are only consistent with layer-
  /// independent programs; the field-strength asymmetry manifests in read
  /// sensing.  Kept as an option for sensitivity studies.
  bool program_layer_dependent = false;

  void Validate() const;
};

class LatencyModel {
 public:
  LatencyModel(const NandGeometry& geometry, const NandTiming& timing);

  /// Multiplier in (0, 1] applied to base latency for a page; 1.0 at the top
  /// layer, 1/R at the bottom layer.  Page queries throw std::out_of_range
  /// for a page index >= pages_per_block.
  double SpeedFactor(std::uint32_t page_in_block) const {
    return pages_.at(page_in_block).speed_factor;
  }
  Us ReadUs(std::uint32_t page_in_block) const {
    return pages_.at(page_in_block).read_us;
  }
  Us ProgramUs(std::uint32_t page_in_block) const {
    return pages_.at(page_in_block).program_us;
  }
  Us EraseUs() const { return timing_.block_erase_us; }

  /// Bus time to move `bytes` over the channel.
  Us TransferUs(std::uint64_t bytes) const;

  /// Mean read/program latency over all pages of a block (used by tests and
  /// for back-of-envelope checks in benches).
  double MeanReadUs() const;
  double MeanProgramUs() const;

  const NandGeometry& geometry() const { return geometry_; }
  const NandTiming& timing() const { return timing_; }

 private:
  struct PageLatency {
    double speed_factor;
    Us read_us;
    Us program_us;
  };

  NandGeometry geometry_;
  NandTiming timing_;
  std::vector<PageLatency> pages_;  ///< one per page of a block
};

}  // namespace ctflash::nand
