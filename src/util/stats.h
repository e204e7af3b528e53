// Streaming statistics and latency histograms.
//
// LatencyStats keeps O(1) running moments plus a log-scaled histogram so
// percentile summaries never require storing per-sample data, matching how
// long trace replays (millions of requests) are aggregated.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.h"

namespace ctflash::util {

/// Running mean / min / max / variance (Welford) over double samples.
class RunningMoments {
 public:
  void Add(double x);
  void Merge(const RunningMoments& other);
  void Reset();

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  /// Population variance; 0 when fewer than 2 samples.
  double variance() const;
  double stddev() const;

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Streaming quantile estimator over non-negative integer samples: a
/// fixed-size log-scaled histogram where every power-of-two octave is split
/// into kSubBins linear sub-bins (HdrHistogram-style), bounding the
/// relative quantile error at 1/kSubBins (~6 %) regardless of sample count
/// or range.  O(1) insert, O(bins) quantile, mergeable — built for
/// tail-latency extraction (p99.9 of millions of requests), where a plain
/// power-of-two histogram is too coarse.
class QuantileEstimator {
 public:
  static constexpr int kSubBits = 4;             ///< log2(sub-bins per octave)
  static constexpr int kSubBins = 1 << kSubBits; // 16
  /// Bins 0..15 hold values 0..15 exactly; octaves [2^o, 2^(o+1)) for
  /// o in [kSubBits, 63] each contribute kSubBins bins.
  static constexpr int kBins = kSubBins + (64 - kSubBits) * kSubBins;

  void Add(std::uint64_t value);
  void Merge(const QuantileEstimator& other);
  void Reset();

  std::uint64_t count() const { return count_; }
  /// Estimated value at quantile q in [0,1]; linear interpolation inside
  /// the matched bin.  Throws std::invalid_argument for q outside [0,1].
  double Quantile(double q) const;

  /// Inclusive lower / exclusive upper value bound of bin `index`.
  static std::uint64_t BinLow(int index);
  static std::uint64_t BinHigh(int index);
  static int BinOf(std::uint64_t value);

  /// Raw bin counts (CDF export: replay::LatencyCdf walks these).
  const std::vector<std::uint64_t>& bins() const { return bins_; }

 private:
  std::vector<std::uint64_t> bins_ = std::vector<std::uint64_t>(kBins, 0);
  std::uint64_t count_ = 0;
};

/// Composite latency aggregate: moments + streaming quantiles, in
/// microseconds.
class LatencyStats {
 public:
  void Add(Us latency_us);
  void Merge(const LatencyStats& other);
  void Reset();

  std::uint64_t count() const { return moments_.count(); }
  double total_us() const { return moments_.sum(); }
  double total_seconds() const { return moments_.sum() / 1e6; }
  double mean_us() const { return moments_.mean(); }
  double max_us() const { return moments_.max(); }
  double min_us() const { return moments_.min(); }
  double stddev_us() const { return moments_.stddev(); }
  double p50_us() const { return hist_.Quantile(0.50); }
  double p95_us() const { return hist_.Quantile(0.95); }
  double p99_us() const { return hist_.Quantile(0.99); }
  double p999_us() const { return hist_.Quantile(0.999); }

  /// One-line human-readable summary.
  std::string Summary(const std::string& label) const;

  /// The underlying histogram (full-CDF export, see replay::LatencyCdf).
  const QuantileEstimator& quantiles() const { return hist_; }

 private:
  RunningMoments moments_;
  QuantileEstimator hist_;
};

}  // namespace ctflash::util
