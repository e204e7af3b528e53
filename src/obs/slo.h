// SloMonitor: streaming windowed tail-latency tracking against an SLO
// target, with burn-rate-style breach detection.
//
// One monitor watches one latency stream (a device's reads, a tenant's
// requests).  Each window it receives that window's own QuantileEstimator
// (the cluster feeds per-epoch histograms).  A window breaches when its
// tail quantile exceeds `target_us` (windows with fewer than `min_samples`
// samples never judge — a two-request window has no p99).  The alert is
// burn-rate style: the breach fraction over the trailing `burn_windows`
// windows crossing `burn_threshold` trips it, so one noisy window does not
// page and a sustained burn does — exactly the error-budget framing SRE
// burn alerts use, discretized onto the simulation's deterministic epoch
// grid.
//
// Deterministic across worker counts: the monitor only ever sees merged
// per-device histograms from the serial director phase.
#pragma once

#include <cstdint>
#include <vector>

#include "campaign/json.h"
#include "util/stats.h"

namespace ctflash::obs {

struct SloConfig {
  double quantile = 0.99;        ///< tail quantile tracked per window
  Us target_us = 0;              ///< SLO bound on that quantile; 0 disables
  std::uint64_t min_samples = 16;  ///< windows below this never judge
  std::uint32_t burn_windows = 4;  ///< trailing span of the burn rate
  double burn_threshold = 0.5;   ///< breach fraction that trips the alert

  bool enabled() const { return target_us > 0; }
  void Validate() const;
};

class SloMonitor {
 public:
  explicit SloMonitor(const SloConfig& config = SloConfig{});

  /// Feeds one window's own histogram.
  void ObserveWindow(const util::QuantileEstimator& window);

  std::uint64_t windows() const { return windows_; }
  std::uint64_t breaches() const { return breaches_; }
  /// Tail quantile of the most recent window (0 when it had no samples).
  double last_quantile_us() const { return last_quantile_us_; }
  /// Breach fraction over the trailing burn_windows windows.
  double burn_rate() const;
  /// True when the burn rate has crossed burn_threshold.
  bool alerting() const;
  /// Whether the most recent window breached.
  bool last_window_breached() const {
    return !breach_log_.empty() && breach_log_.back();
  }
  /// Per-window tail quantile (exporter counter tracks).
  const std::vector<double>& quantile_series() const {
    return quantile_series_;
  }

  /// Deterministic snapshot: {"target_us", "windows", "breaches",
  /// "burn_rate", "alerting", "last_p_us"}.
  campaign::Json ToJson() const;

 private:
  SloConfig config_;
  std::uint64_t windows_ = 0;
  std::uint64_t breaches_ = 0;
  double last_quantile_us_ = 0.0;
  std::vector<bool> breach_log_;       ///< one flag per window
  std::vector<double> quantile_series_;
};

}  // namespace ctflash::obs
