// Synthetic layer-dependent reliability model for 3D charge-trap NAND.
//
// The paper evaluates performance only, but the same asymmetric feature
// process size that makes bottom layers faster also concentrates the
// electric field there, raising program-disturb and hence raw bit error
// rate (RBER).  Since the authors' silicon data is unavailable, we provide a
// synthetic model (documented substitution, see DESIGN.md):
//
//   RBER(layer, pe) = base_rber
//                     * layer_skew ^ depth(layer)        (field concentration)
//                     * exp(pe / pe_scale)               (wear-out growth)
//
// with depth in [0,1] (1 = bottom).  An LDPC/BCH-style ECC budget declares a
// page read correctable when sampled bit errors per codeword stay within
// `correctable_bits_per_codeword`.  The layer factor (base_rber times the
// skew term) is evaluated once per page of a block at construction; a read
// only multiplies in the wear term.
#pragma once

#include <cstdint>
#include <vector>

#include "nand/geometry.h"
#include "util/random.h"
#include "util/types.h"

namespace ctflash::nand {

struct ErrorModelConfig {
  double base_rber = 1e-7;          ///< fresh top-layer RBER
  double layer_skew = 8.0;          ///< bottom-layer RBER / top-layer RBER
  double pe_scale = 1500.0;         ///< P/E cycles for an e-fold RBER growth
  std::uint32_t codeword_bytes = 1024;
  std::uint32_t correctable_bits_per_codeword = 40;  ///< ECC strength (BCH-40)

  void Validate() const;
};

class LayerErrorModel {
 public:
  LayerErrorModel(const NandGeometry& geometry, const ErrorModelConfig& config);

  /// Raw bit error rate for a page at a given wear level; throws
  /// std::out_of_range for a page index >= pages_per_block.
  double Rber(std::uint32_t page_in_block, std::uint32_t pe_cycles) const;

  /// Samples the number of bit errors in one page read (Poisson
  /// approximation of the binomial; exact enough for RBER << 1).
  /// `transfer_bytes` = 0 (or >= page size) samples the whole page;
  /// smaller transfers sample only the codewords the ECC engine actually
  /// decodes (rounded up to whole codewords).  `rber_scale` multiplies the
  /// modeled RBER — the fault injector uses it for read-disturb/retention
  /// inflation and the read-retry ladder for threshold-shift recovery.
  std::uint64_t SampleBitErrors(std::uint32_t page_in_block,
                                std::uint32_t pe_cycles,
                                util::Xoshiro256StarStar& rng,
                                std::uint64_t transfer_bytes = 0,
                                double rber_scale = 1.0) const;

  /// True when `bit_errors` spread over the transfer's codewords stays
  /// within the ECC budget in the worst-case uniform packing (ceil split).
  /// `transfer_bytes` = 0 means the whole page.
  bool Correctable(std::uint64_t bit_errors,
                   std::uint64_t transfer_bytes = 0) const;

  /// Expected number of P/E cycles after which the mean bit errors per
  /// codeword of the given page exceed the ECC budget (analytic endurance).
  double EnduranceEstimate(std::uint32_t page_in_block) const;

  const ErrorModelConfig& config() const { return config_; }
  const NandGeometry& geometry() const { return geometry_; }

 private:
  std::uint64_t CodewordsPerPage() const;
  /// Bytes the ECC engine decodes for a `transfer_bytes` transfer: the
  /// transfer rounded up to whole codewords, clamped to the page.
  std::uint64_t DecodedBytes(std::uint64_t transfer_bytes) const;

  NandGeometry geometry_;
  ErrorModelConfig config_;
  /// base_rber * layer_skew^depth, one per page of a block.
  std::vector<double> layer_rber_;
};

}  // namespace ctflash::nand
