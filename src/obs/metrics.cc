#include "obs/metrics.h"

#include <algorithm>

namespace ctflash::obs {

void MetricsRegistry::AddCounter(const std::string& name,
                                 std::uint64_t delta) {
  counters_[name] += delta;
}

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  gauges_[name] = value;
}

util::LatencyStats& MetricsRegistry::Histogram(const std::string& name) {
  return histograms_[name];
}

std::uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::GaugeValue(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) {
    counters_[name] += value;
  }
  for (const auto& [name, value] : other.gauges_) {
    const auto it = gauges_.find(name);
    if (it == gauges_.end()) {
      gauges_.emplace(name, value);
    } else {
      it->second = std::max(it->second, value);
    }
  }
  for (const auto& [name, hist] : other.histograms_) {
    histograms_[name].Merge(hist);
  }
}

void MetricsRegistry::Reset() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

campaign::Json MetricsRegistry::ToJson() const {
  campaign::Json out;
  campaign::Json counters;
  for (const auto& [name, value] : counters_) counters[name] = value;
  campaign::Json gauges;
  for (const auto& [name, value] : gauges_) gauges[name] = value;
  campaign::Json histograms;
  for (const auto& [name, hist] : histograms_) {
    campaign::Json h;
    h["count"] = hist.count();
    h["mean_us"] = hist.mean_us();
    h["p50_us"] = hist.p50_us();
    h["p99_us"] = hist.p99_us();
    h["p999_us"] = hist.p999_us();
    h["max_us"] = hist.max_us();
    histograms[name] = std::move(h);
  }
  out["counters"] = std::move(counters);
  out["gauges"] = std::move(gauges);
  out["histograms"] = std::move(histograms);
  return out;
}

}  // namespace ctflash::obs
