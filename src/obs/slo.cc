#include "obs/slo.h"

#include <algorithm>
#include <stdexcept>

namespace ctflash::obs {

void SloConfig::Validate() const {
  if (quantile <= 0.0 || quantile >= 1.0) {
    throw std::runtime_error("slo: quantile must be in (0, 1)");
  }
  if (burn_windows == 0) {
    throw std::runtime_error("slo: burn_windows must be >= 1");
  }
  if (burn_threshold <= 0.0 || burn_threshold > 1.0) {
    throw std::runtime_error("slo: burn_threshold must be in (0, 1]");
  }
}

SloMonitor::SloMonitor(const SloConfig& config) : config_(config) {
  config_.Validate();
}

void SloMonitor::ObserveWindow(const util::QuantileEstimator& window) {
  last_quantile_us_ = window.Quantile(config_.quantile);
  quantile_series_.push_back(last_quantile_us_);
  // Low-sample windows never judge: they contribute "no breach" to the
  // burn rate, the conservative reading of an idle window.
  const bool breach = config_.enabled() &&
                      window.count() >= config_.min_samples &&
                      last_quantile_us_ >
                          static_cast<double>(config_.target_us);
  breach_log_.push_back(breach);
  if (breach) ++breaches_;
  ++windows_;
}

double SloMonitor::burn_rate() const {
  if (breach_log_.empty()) return 0.0;
  const std::size_t span =
      std::min<std::size_t>(breach_log_.size(), config_.burn_windows);
  std::size_t hits = 0;
  for (std::size_t i = breach_log_.size() - span; i < breach_log_.size();
       ++i) {
    if (breach_log_[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(span);
}

bool SloMonitor::alerting() const {
  return config_.enabled() && windows_ > 0 &&
         burn_rate() >= config_.burn_threshold;
}

campaign::Json SloMonitor::ToJson() const {
  campaign::Json out;
  out["target_us"] = static_cast<std::uint64_t>(config_.target_us);
  out["windows"] = windows_;
  out["breaches"] = breaches_;
  out["burn_rate"] = burn_rate();
  out["alerting"] = alerting();
  out["last_p_us"] = last_quantile_us_;
  return out;
}

}  // namespace ctflash::obs
