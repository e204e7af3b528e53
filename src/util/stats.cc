#include "util/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace ctflash::util {

void RunningMoments::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningMoments::Merge(const RunningMoments& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  sum_ += other.sum_;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningMoments::Reset() { *this = RunningMoments{}; }

double RunningMoments::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningMoments::stddev() const { return std::sqrt(variance()); }

int QuantileEstimator::BinOf(std::uint64_t value) {
  if (value < kSubBins) return static_cast<int>(value);
  const int octave = std::bit_width(value) - 1;  // >= kSubBits
  const int sub = static_cast<int>((value - (std::uint64_t{1} << octave)) >>
                                   (octave - kSubBits));
  return kSubBins + (octave - kSubBits) * kSubBins + sub;
}

std::uint64_t QuantileEstimator::BinLow(int index) {
  if (index < kSubBins) return static_cast<std::uint64_t>(index);
  const int octave = kSubBits + (index - kSubBins) / kSubBins;
  const int sub = (index - kSubBins) % kSubBins;
  return (std::uint64_t{1} << octave) +
         (static_cast<std::uint64_t>(sub) << (octave - kSubBits));
}

std::uint64_t QuantileEstimator::BinHigh(int index) {
  // The very last bin's upper bound is 2^64; saturate instead of wrapping.
  if (index >= kBins - 1) return std::numeric_limits<std::uint64_t>::max();
  if (index < kSubBins) return static_cast<std::uint64_t>(index) + 1;
  const int octave = kSubBits + (index - kSubBins) / kSubBins;
  return BinLow(index) + (std::uint64_t{1} << (octave - kSubBits));
}

void QuantileEstimator::Add(std::uint64_t value) {
  bins_[static_cast<std::size_t>(BinOf(value))]++;
  ++count_;
}

void QuantileEstimator::Merge(const QuantileEstimator& other) {
  for (int i = 0; i < kBins; ++i) bins_[i] += other.bins_[i];
  count_ += other.count_;
}

void QuantileEstimator::Reset() {
  std::fill(bins_.begin(), bins_.end(), 0);
  count_ = 0;
}

double QuantileEstimator::Quantile(double q) const {
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("Quantile: q outside [0,1]");
  }
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  double cum = 0.0;
  for (int b = 0; b < kBins; ++b) {
    const double n = static_cast<double>(bins_[b]);
    if (cum + n >= target && n > 0) {
      const double lo = static_cast<double>(BinLow(b));
      const double hi = static_cast<double>(BinHigh(b));
      const double frac = (target - cum) / n;
      return lo + frac * (hi - lo);
    }
    cum += n;
  }
  return static_cast<double>(BinHigh(kBins - 1));  // unreachable in practice
}

void LatencyStats::Add(Us latency_us) {
  moments_.Add(static_cast<double>(latency_us));
  hist_.Add(latency_us < 0 ? 0u : static_cast<std::uint64_t>(latency_us));
}

void LatencyStats::Merge(const LatencyStats& other) {
  moments_.Merge(other.moments_);
  hist_.Merge(other.hist_);
}

void LatencyStats::Reset() {
  moments_.Reset();
  hist_.Reset();
}

std::string LatencyStats::Summary(const std::string& label) const {
  std::ostringstream os;
  os << label << ": n=" << count() << " total=" << total_seconds() << "s"
     << " mean=" << mean_us() << "us"
     << " p50=" << p50_us() << "us"
     << " p99=" << p99_us() << "us"
     << " p99.9=" << p999_us() << "us"
     << " max=" << max_us() << "us";
  return os.str();
}

}  // namespace ctflash::util
