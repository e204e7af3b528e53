// HealthMonitor: SMART-style per-device health telemetry.
//
// One monitor watches one device.  Once per window (the cluster feeds it
// every epoch from the serial director step) it receives a HealthSample of
// CUMULATIVE counters the device already maintains — spare-pool state from
// the BlockManager, wear from the NAND erase tally, media-error trend from
// the read-retry ladder, GC pressure from the tracer's die-busy-gc stall
// attribution — and folds them into one score (normalized so 1.0 means "a
// failing threshold is hit"; overshoot past 1 is kept, capped at 4) with
// typed degradation states:
//
//   healthy   score <  degraded_frac
//   degraded  score in [degraded_frac, 1)
//   failing   score >= 1
//
// Each signal is normalized against its own configured failing threshold
// ("retired blocks ate spare_fail_frac of the spare budget", "retry rate
// hit retry_fail_rate", ...), the worst signal wins, and an EWMA smooths
// window-to-window jitter.  The spare signal is measured against the
// FIRST sample's baseline, so an aged prefill does not start a device off
// sick; rate signals (retries, verify fails, GC stall share) are
// per-window deltas.  Wear alone is an absolute odometer (mean P/E vs the
// endurance budget) — an aged device genuinely IS further through its
// life.  Everything is integer-counter arithmetic in a fixed order —
// byte-deterministic for any worker count, like every aggregate here.
//
// The score EWMA of a monotone signal ramp is itself monotone (the EWMA is
// a convex combination of past raw scores, so it trails the max), which is
// what makes healthy -> degraded -> failing transitions one-way under a
// wear/fault ramp — the property obs_health_test locks in and the cluster
// director's predictive drain relies on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/json.h"

namespace ctflash::obs {

enum class HealthState : std::uint8_t {
  kHealthy = 0,
  kDegraded,
  kFailing,
};

inline const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kFailing:
      return "failing";
  }
  return "?";
}

struct HealthConfig {
  /// EWMA weight of the newest window's raw score.
  double ewma_alpha = 0.4;
  /// Score fraction at which healthy tips into degraded.
  double degraded_frac = 0.5;
  /// Spare signal fails when retirement has consumed this fraction of the
  /// spare budget (baseline free blocks above the GC floor).
  double spare_fail_frac = 0.5;
  /// Wear signal fails at this fraction of the endurance P/E budget.
  double wear_fail_frac = 0.9;
  /// Media signal fails at this per-window read-retry rate
  /// (retried / sampled); any unrecovered read fails it outright.
  double retry_fail_rate = 0.25;
  /// Program signal (SMART "program fail count" trend) fails at this
  /// per-window verify-fail rate (failures / page programs).  Programs
  /// fail from the very first write on a sick device — long before the
  /// failing blocks reach a GC erase and show up as spare-pool burn — so
  /// this is the earliest wear-ramp discriminator the monitor has.
  double program_fail_rate = 0.05;
  /// GC signal fails when die-busy-gc stall reaches this share of the
  /// window's read media time.
  double gc_stall_fail_share = 0.5;

  void Validate() const;

  /// The defaults overridden by whichever of the seven threshold keys
  /// (named as the fields above) `json` carries — the campaign's
  /// `observability.health` and the cluster's `rebalance.health` object.
  /// Does not validate.
  static HealthConfig FromJson(const campaign::Json& json);
  /// All seven thresholds under the same keys (config echoes).
  campaign::Json ToJson() const;
};

/// Cumulative device counters, sampled once per window.  The collector
/// (cluster director, campaign runner, tests) fills whatever it has;
/// signals whose inputs stay zero simply score zero.
struct HealthSample {
  // Spare pool (BlockManager).
  std::uint64_t free_blocks = 0;
  std::uint64_t retired_blocks = 0;
  std::uint64_t total_blocks = 0;
  std::uint64_t gc_floor_blocks = 0;  ///< FtlConfig::gc_threshold_low
  // Wear (NAND erase tally vs the endurance budget).
  std::uint64_t total_erases = 0;
  std::uint64_t endurance_pe_cycles = 0;
  // Media-error trend (host + GC ReadErrorStats, FaultStats).
  std::uint64_t sampled_reads = 0;
  std::uint64_t retried_reads = 0;
  std::uint64_t unrecovered_reads = 0;
  std::uint64_t lost_pages = 0;
  // Program-verify trend (FtlStats page programs, FaultStats failures).
  std::uint64_t program_pages = 0;
  std::uint64_t program_failures = 0;
  // GC pressure (tracer: cumulative read die-busy-gc stall vs media time).
  std::uint64_t read_stall_gc_us = 0;
  std::uint64_t read_media_us = 0;
};

/// Latest per-signal raw scores: 1.0 == that signal's failing threshold is
/// exactly hit, values above 1 (capped at 4) mean it is exceeded — the
/// overshoot is what lets the smoothed score actually cross 1.0.
struct HealthSignals {
  double spare = 0.0;
  double wear = 0.0;
  double media = 0.0;
  double gc = 0.0;
  double program = 0.0;

  double Worst() const;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(const HealthConfig& config = HealthConfig{});

  /// Feeds one window's cumulative sample.  The first call fixes the
  /// baseline (and scores from it); later calls score deltas against the
  /// baseline / previous window.
  void Observe(const HealthSample& cumulative);

  std::uint64_t windows() const { return windows_; }
  /// EWMA-smoothed score; >= 1 means failing.
  double score() const { return score_; }
  HealthState state() const;
  const HealthSignals& signals() const { return signals_; }
  /// Per-window smoothed score (exporter counter tracks).
  const std::vector<double>& score_series() const { return score_series_; }

  /// Deterministic snapshot: {"state", "score", "windows", "signals":
  /// {"spare", "wear", "media", "gc", "program"}}.
  campaign::Json ToJson() const;

 private:
  HealthConfig config_;
  std::uint64_t windows_ = 0;
  double score_ = 0.0;
  HealthSignals signals_;
  std::vector<double> score_series_;
  HealthSample baseline_;
  HealthSample prev_;
};

}  // namespace ctflash::obs
