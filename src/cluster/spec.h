// ClusterSpec: a JSON-declared storage-cluster scenario.
//
// The spec reads like a campaign spec (campaign/spec.h) with the device
// template in `device` resolved through the same machinery, plus the
// cluster-level sections:
//
//   {
//     "cluster": "device-loss-rebalance",
//     "workers": 4,
//     "fleet": {"devices": 8, "spares": 1},
//     "router": {"shards": 128, "replicas": 2, "vnodes": 64},
//     "device": {"device_bytes": "64MiB", "ftl": "conventional",
//                "prefill_pct": 80},
//     "users": {"count": 1000000, "zipf_theta": 0.9},
//     "workload": {"rate_iops": 30000, "read_fraction": 0.9,
//                  "request_bytes": "16KiB", "epochs": 6,
//                  "epoch_us": 250000, "timeout_us": 1000000},
//     "qos": {"user_weight": 8, "rebuild_weight": 1},
//     "rebalance": {"policy": "on_failure", "fail_on_lost_pages": 1,
//                   "migration_chunk": "64KiB", "shard_bytes": "auto",
//                   "rebuild_epochs": 0, "rebuild_bytes_per_sec": 4194304},
//     "faults": [{"device": 3, "kind": "channel", "at_us": 500000}],
//     "seed": 7
//   }
//
// Every device in the fleet shares one shape, so the whole fleet restores
// from a single aged prefill snapshot.  `faults` arms nand::FaultInjector
// schedules on individual devices (kinds: "die" = first die, "channel" =
// first channel, "device" = every channel); `at_us` is relative to the
// measured run's start (the prefill-end clock).  The rebalance policy
// "none" is the experimental control: the router never reacts to failures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/json.h"
#include "campaign/spec.h"
#include "cluster/shard_router.h"
#include "ftl/flash_target.h"
#include "host/host_interface.h"
#include "nand/fault_plan.h"
#include "obs/health.h"
#include "obs/slo.h"
#include "ssd/ssd.h"
#include "util/types.h"

namespace ctflash::cluster {

using campaign::Json;

/// QoS tenant ids every fleet device is configured with: user traffic
/// outweighs rebuild traffic so migration rides along without trampling
/// serving latency.
inline constexpr qos::TenantId kUserTenant = 0;
inline constexpr qos::TenantId kRebuildTenant = 1;

/// One scheduled device failure or degradation.  Kinds "die", "channel"
/// and "device" schedule hard loss at `at_us`; kind "wear" arms a
/// progressive media ramp (verify-fail probabilities retire blocks until
/// the spare pool is gone, RBER knobs inflate the retry ladder) — the
/// scenario the on_observed policy evacuates BEFORE the eventual death.
struct DeviceFaultSpec {
  DeviceId device = 0;
  std::string kind = "channel";  ///< "die" | "channel" | "device" | "wear"
  Us at_us = 0;                  ///< relative to the measured run's start
  // "wear" ramp knobs (nand::FaultPlanConfig passthrough).
  double program_fail_prob = 0.0;
  double erase_fail_prob = 0.0;
  double read_disturb_per_read = 0.0;
  double retention_rber_multiplier = 1.0;
};

enum class RebalancePolicy {
  kOnFailure = 0,   ///< director remaps + rebuilds on detected failure
  kNone = 1,        ///< control: router never reacts
  kOnObserved = 2,  ///< on_failure + predictive drain on health/SLO signals
};

const char* RebalancePolicyName(RebalancePolicy policy);

struct ClusterSpec {
  std::string name = "cluster";
  std::uint32_t workers = 1;
  std::uint64_t seed = 1;

  RouterConfig router;  ///< num_devices/spare_devices filled from "fleet"

  /// Shared device template (campaign-style device section).
  campaign::DeviceSectionSpec device;
  Json device_json;  ///< the raw "device" object, echoed in reports

  // Users and traffic.
  std::uint64_t user_count = 1'000'000;  ///< at most 2^32 - 1
  double zipf_theta = 0.9;         ///< user-popularity skew; 0 = uniform
  double rate_iops = 20'000.0;     ///< cluster-wide open-loop arrival rate
  double read_fraction = 0.9;
  std::uint64_t request_bytes = 16 * kKiB;
  std::uint32_t epochs = 6;
  Us epoch_us = 250'000;
  /// Latency charged to a request routed at (or stranded on) a dead
  /// device: the cluster-level SLA timeout.
  Us timeout_us = 1'000'000;

  // Per-device QoS weights (tenant tables on every fleet member).
  std::uint32_t user_weight = 8;
  std::uint32_t rebuild_weight = 1;

  // Rebalancing.
  RebalancePolicy policy = RebalancePolicy::kOnFailure;
  /// Mark a device failed once its run-relative lost-page count reaches
  /// this (or it dies on an unrecoverable media error).
  std::uint64_t fail_on_lost_pages = 1;
  /// Bytes re-replicated per displaced shard; 0 = auto (the device's
  /// prefilled bytes / num_shards, i.e. the shard's fair share).
  std::uint64_t shard_bytes = 0;
  std::uint64_t migration_chunk_bytes = 64 * kKiB;
  /// Epochs the rebuild is paced over (rebuild I/O swamping the fleet in
  /// one epoch would trade the SLA for repair speed).  0 = every epoch
  /// left after detection.
  std::uint32_t rebuild_epochs = 0;
  /// Token-bucket throughput cap on the rebuild tenant (bytes/s; applied
  /// per device at admission).  0 = uncapped.  Scheduling weight alone
  /// cannot protect the serving tail from rebuild-driven GC on the
  /// adopting device — capping admission can.
  double rebuild_bytes_per_sec = 0.0;

  /// Observed-policy thresholds ({"rebalance": {"health": {...},
  /// "slo": {...}}}): the director feeds every device's counters into an
  /// obs::HealthMonitor each epoch and drains a device once it reports
  /// failing — or once its per-epoch read tail burns through the SLO.
  obs::HealthConfig health;
  obs::SloConfig slo;  ///< slo.target_us == 0 leaves the SLO leg off

  std::vector<DeviceFaultSpec> faults;

  /// Observability ({"observability": {"phases": true}}): every fleet
  /// device gets an aggregate-only obs::Tracer and the result carries
  /// per-epoch phase breakdowns merged across the fleet.  Forced on by
  /// policy on_observed (the health monitor's GC-stall signal reads the
  /// tracer).
  bool trace_phases = false;

  static ClusterSpec Parse(const std::string& json_text);
  static ClusterSpec Parse(const Json& root);
  static ClusterSpec Parse(const char* json_text) {
    return Parse(std::string(json_text));
  }

  /// Deterministic config echo for reports.
  Json ConfigSummary() const;

  /// The fault plan for one device (empty plans for unlisted devices) and
  /// the shared handling policy.
  nand::FaultPlanConfig FaultPlanFor(DeviceId device, Us run_start_us) const;
  ftl::FaultHandlingConfig fault_handling;

  void Validate() const;
};

}  // namespace ctflash::cluster
