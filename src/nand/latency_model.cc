#include "nand/latency_model.h"

#include <cmath>
#include <stdexcept>

namespace ctflash::nand {

void NandTiming::Validate() const {
  if (page_read_us <= 0 || page_program_us <= 0 || block_erase_us <= 0) {
    throw std::invalid_argument("NandTiming: latencies must be > 0");
  }
  if (transfer_mb_per_s <= 0.0) {
    throw std::invalid_argument("NandTiming: transfer rate must be > 0");
  }
  if (speed_ratio < 1.0) {
    throw std::invalid_argument("NandTiming: speed_ratio must be >= 1");
  }
}

namespace {
Us ScaledUs(Us base, double factor) {
  const double v = static_cast<double>(base) * factor;
  const Us r = static_cast<Us>(std::llround(v));
  return r < 1 ? 1 : r;
}
}  // namespace

LatencyModel::LatencyModel(const NandGeometry& geometry,
                           const NandTiming& timing)
    : geometry_(geometry), timing_(timing) {
  geometry_.Validate();
  timing_.Validate();
  const std::uint32_t layers = geometry_.num_layers;
  const double inv_r = 1.0 / timing_.speed_ratio;
  pages_.reserve(geometry_.pages_per_block);
  for (std::uint32_t page = 0; page < geometry_.pages_per_block; ++page) {
    const std::uint32_t layer = geometry_.LayerOfPage(page);
    const double depth =
        layers == 1 ? 1.0
                    : static_cast<double>(layer) / static_cast<double>(layers - 1);
    const double factor = 1.0 - depth * (1.0 - inv_r);
    pages_.push_back(PageLatency{
        factor, ScaledUs(timing_.page_read_us, factor),
        timing_.program_layer_dependent
            ? ScaledUs(timing_.page_program_us, factor)
            : timing_.page_program_us});
  }
}

Us LatencyModel::TransferUs(std::uint64_t bytes) const {
  const double us = static_cast<double>(bytes) /
                    (timing_.transfer_mb_per_s * 1e6) * 1e6;
  const Us r = static_cast<Us>(std::llround(us));
  return r < 1 ? 1 : r;
}

double LatencyModel::MeanReadUs() const {
  double sum = 0.0;
  for (std::uint32_t p = 0; p < geometry_.pages_per_block; ++p) {
    sum += static_cast<double>(ReadUs(p));
  }
  return sum / geometry_.pages_per_block;
}

double LatencyModel::MeanProgramUs() const {
  double sum = 0.0;
  for (std::uint32_t p = 0; p < geometry_.pages_per_block; ++p) {
    sum += static_cast<double>(ProgramUs(p));
  }
  return sum / geometry_.pages_per_block;
}

}  // namespace ctflash::nand
