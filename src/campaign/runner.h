// Campaign runner: executes an expanded CampaignSpec across a worker pool.
//
// Two-phase execution:
//
//   1. Prefill phase (share_prefill, the default): arms are grouped by
//      device shape (campaign/snapshot.h shape key) + prefill parameters;
//      each group prefills ONE device and snapshots it.  A 16-arm grid over
//      {ftl, gc_routing, queue_depth} with one device shape runs two
//      prefills (one per FTL kind) instead of sixteen.
//   2. Arm phase: every arm constructs a fresh device, restores its group's
//      snapshot (or prefills straight through when sharing is off), then
//      runs its workload through the host interface.
//
// Both phases shard over `workers` threads.  Arms never share mutable
// state — each owns its Ssd/HostInterface/EventQueue — so results are
// bit-for-bit identical for any worker count; CampaignResult splits the
// report into a deterministic part (byte-comparable across worker counts,
// which bench_campaign asserts) and a timing part (wall clock, prefill
// savings).
//
// An arm that throws is reported as a failed arm in the results rather than
// aborting the campaign; a prefill failure aborts (every arm of the group
// would fail identically).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/json.h"
#include "campaign/snapshot.h"
#include "campaign/spec.h"
#include "obs/health.h"
#include "obs/tracer.h"
#include "ssd/ssd.h"

namespace ctflash::campaign {

struct ArmResult {
  std::string name;
  std::uint64_t index = 0;
  bool ok = false;
  std::string error;  ///< exception text when !ok
  /// Fault-arm classification; empty for fault-free arms.
  ///   "masked"    — faults armed but nothing visible happened,
  ///   "recovered" — recovery machinery ran (retries, retirement, program
  ///                 re-allocation) and no data was lost,
  ///   "data-loss" — pages lost or the arm died on an unrecoverable error.
  std::string outcome;
  Json config;        ///< ArmSpec::ConfigSummary()
  Json metrics;       ///< workload + device counters; deterministic
};

struct CampaignResult {
  std::string campaign;
  std::uint32_t workers = 1;
  bool share_prefill = true;
  std::vector<ArmResult> arms;  ///< in spec expansion order

  // Wall-clock accounting (excluded from the deterministic report).
  double total_wall_ms = 0.0;
  double prefill_wall_ms = 0.0;
  double arms_wall_ms = 0.0;
  std::uint64_t prefill_groups = 0;   ///< distinct prefills actually run
  std::uint64_t prefill_restores = 0; ///< arms served from a snapshot
  std::uint64_t arm_threads = 0;          ///< distinct threads that ran arms
  std::uint64_t peak_arms_in_flight = 0;  ///< most arms running at once

  /// Everything except wall-clock timing: campaign name, per-arm config
  /// echo + metrics.  Dump() of this value is byte-identical across worker
  /// counts and between shared-prefill and straight-through execution.
  Json DeterministicJson() const;

  /// DeterministicJson() plus a "timing" block (wall clock, prefill reuse).
  Json Report() const;

  /// One row per arm: name, ok, requests, iops, latency percentiles, WAF.
  std::string Csv() const;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignSpec spec);

  /// Runs every arm; `workers_override` > 0 replaces the spec's worker
  /// count (bench/CI knob).
  CampaignResult Run(std::uint32_t workers_override = 0);

  const CampaignSpec& spec() const { return spec_; }

 private:
  CampaignSpec spec_;
};

/// Runs one arm in isolation (used by the runner's workers and by
/// bench_campaign's straight-through reference runs).  `shared` non-null
/// restores that snapshot instead of prefilling.
ArmResult RunCampaignArm(const ArmSpec& arm, const DeviceState* shared);

/// Cumulative wear / media-error / GC counters of `ssd` for an
/// obs::HealthMonitor window; a non-null `tracer` adds the read stall
/// behind GC.  Campaign arms sample before and after the measured
/// workload, the cluster director once per epoch per device.
obs::HealthSample CollectHealthSample(const ssd::Ssd& ssd,
                                      const obs::Tracer* tracer);

/// RFC 4180 CSV field encoding: fields containing a comma, double quote,
/// CR or LF are wrapped in double quotes with embedded quotes doubled;
/// anything else passes through unquoted.  Shared by the campaign and
/// cluster report exporters (arm names and config summaries embed commas
/// and, in hostile specs, quotes/newlines).
std::string CsvField(const std::string& value);

}  // namespace ctflash::campaign
