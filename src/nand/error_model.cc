#include "nand/error_model.h"

#include <cmath>
#include <stdexcept>

namespace ctflash::nand {

void ErrorModelConfig::Validate() const {
  if (base_rber <= 0.0 || base_rber >= 1.0) {
    throw std::invalid_argument("ErrorModelConfig: base_rber must be in (0,1)");
  }
  if (layer_skew < 1.0) {
    throw std::invalid_argument("ErrorModelConfig: layer_skew must be >= 1");
  }
  if (pe_scale <= 0.0) {
    throw std::invalid_argument("ErrorModelConfig: pe_scale must be > 0");
  }
  if (codeword_bytes == 0) {
    throw std::invalid_argument("ErrorModelConfig: codeword_bytes must be > 0");
  }
}

LayerErrorModel::LayerErrorModel(const NandGeometry& geometry,
                                 const ErrorModelConfig& config)
    : geometry_(geometry), config_(config) {
  geometry_.Validate();
  config_.Validate();
  if (geometry_.page_size_bytes % config_.codeword_bytes != 0) {
    throw std::invalid_argument(
        "LayerErrorModel: page size must be a whole number of codewords");
  }
  const std::uint32_t layers = geometry_.num_layers;
  layer_rber_.reserve(geometry_.pages_per_block);
  for (std::uint32_t page = 0; page < geometry_.pages_per_block; ++page) {
    const std::uint32_t layer = geometry_.LayerOfPage(page);
    // A single-layer geometry has no vertical etch gradient: its one layer
    // is the top of the (degenerate) stack, so depth is 0, not 1 —
    // otherwise a 1-layer device would eat the full bottom-layer
    // `layer_skew` while the top layer of every multi-layer device gets
    // skew^0.
    const double depth =
        layers == 1 ? 0.0
                    : static_cast<double>(layer) / static_cast<double>(layers - 1);
    layer_rber_.push_back(config_.base_rber *
                          std::pow(config_.layer_skew, depth));
  }
}

double LayerErrorModel::Rber(std::uint32_t page_in_block,
                             std::uint32_t pe_cycles) const {
  const double rber =
      layer_rber_.at(page_in_block) *
      std::exp(static_cast<double>(pe_cycles) / config_.pe_scale);
  return rber >= 1.0 ? 1.0 : rber;
}

std::uint64_t LayerErrorModel::DecodedBytes(std::uint64_t transfer_bytes) const {
  const std::uint64_t page = geometry_.page_size_bytes;
  if (transfer_bytes == 0 || transfer_bytes >= page) return page;
  const std::uint64_t cw = config_.codeword_bytes;
  const std::uint64_t rounded = (transfer_bytes + cw - 1) / cw * cw;
  return rounded < page ? rounded : page;
}

std::uint64_t LayerErrorModel::SampleBitErrors(
    std::uint32_t page_in_block, std::uint32_t pe_cycles,
    util::Xoshiro256StarStar& rng, std::uint64_t transfer_bytes,
    double rber_scale) const {
  const double bits = static_cast<double>(DecodedBytes(transfer_bytes)) * 8.0;
  double lambda = bits * Rber(page_in_block, pe_cycles);
  lambda *= rber_scale;
  if (lambda > bits) lambda = bits;
  if (lambda <= 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth's method.
    const double limit = std::exp(-lambda);
    double p = 1.0;
    std::uint64_t k = 0;
    do {
      ++k;
      p *= rng.UniformDouble();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation for large lambda.
  const double u1 = rng.UniformDouble();
  const double u2 = rng.UniformDouble();
  const double z = std::sqrt(-2.0 * std::log(1.0 - u1)) *
                   std::cos(2.0 * 3.14159265358979323846 * u2);
  const double v = lambda + std::sqrt(lambda) * z;
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(v));
}

std::uint64_t LayerErrorModel::CodewordsPerPage() const {
  return geometry_.page_size_bytes / config_.codeword_bytes;
}

bool LayerErrorModel::Correctable(std::uint64_t bit_errors,
                                  std::uint64_t transfer_bytes) const {
  const std::uint64_t codewords =
      DecodedBytes(transfer_bytes) / config_.codeword_bytes;
  // Worst-case packing: ceil(bit_errors / codewords) errors in one codeword.
  const std::uint64_t worst = (bit_errors + codewords - 1) / codewords;
  return worst <= config_.correctable_bits_per_codeword;
}

double LayerErrorModel::EnduranceEstimate(std::uint32_t page_in_block) const {
  const double bits_per_codeword = static_cast<double>(config_.codeword_bytes) * 8.0;
  const double budget_rber =
      static_cast<double>(config_.correctable_bits_per_codeword) /
      bits_per_codeword;
  const double fresh = Rber(page_in_block, 0);
  if (fresh >= budget_rber) return 0.0;
  return config_.pe_scale * std::log(budget_rber / fresh);
}

}  // namespace ctflash::nand
