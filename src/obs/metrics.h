// MetricsRegistry: one enumerable, mergeable home for every counter,
// gauge, and latency histogram the stack reports.
//
// The tree keeps a *Stats struct per subsystem (FtlStats, HostStats,
// TenantStats, FaultStats, ReadErrorStats, ...) as the hot-path
// representation, each with its own field list and JSON shape.  The
// registry gives report-time numbers hierarchical dot-separated names
// ("gc_qos.read.media.p99_us") so exporters can enumerate them without
// knowing any struct layout; obs/export.h's ExportPhaseStats fills it from
// the tracer's phase aggregates and benches add their own counters.
//
// Three metric kinds, matching how they merge across shards/devices:
//   counters   - uint64, merge by sum;
//   gauges     - double point-in-time samples, merge by max (a fleet's
//                peak occupancy is the max of per-device peaks);
//   histograms - util::LatencyStats (QuantileEstimator-backed), merge by
//                histogram merge.
// Names sort deterministically (std::map), so ToJson() bytes are stable —
// the same contract as everything else the campaign layer compares.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "campaign/json.h"
#include "util/stats.h"

namespace ctflash::obs {

class MetricsRegistry {
 public:
  /// Adds `delta` to counter `name` (created at zero on first touch).
  void AddCounter(const std::string& name, std::uint64_t delta);
  /// Sets gauge `name` to `value` (last write wins within one registry).
  void SetGauge(const std::string& name, double value);
  /// The histogram named `name`, created empty on first access.
  util::LatencyStats& Histogram(const std::string& name);

  std::uint64_t CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, util::LatencyStats>& histograms() const {
    return histograms_;
  }

  std::size_t Size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Merges another registry: counters sum, gauges keep the max,
  /// histograms merge.
  void Merge(const MetricsRegistry& other);
  void Reset();

  /// Deterministic JSON snapshot: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, mean_us, p50_us, p99_us, p999_us,
  /// max_us}}}.
  campaign::Json ToJson() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, util::LatencyStats> histograms_;
};

}  // namespace ctflash::obs
