// Campaign specification: a JSON-declared grid of experiment arms.
//
// The spec follows the fleet-campaign config style: a `defaults` object
// holds the full arm configuration once, a `grid` object maps dotted
// override paths to value lists (expanded as a cartesian product), and an
// optional `arms` list adds hand-written overrides; every grid combination
// is crossed with every listed arm.  `workers: N` sizes the runner's thread
// pool.  Example:
//
//   {
//     "campaign": "ftl-sweep",
//     "workers": 4,
//     "defaults": {
//       "device_bytes": "256MiB",
//       "ftl": "conventional",
//       "gc_routing": "inline",
//       "prefill_pct": 85,
//       "seed": 1,
//       "workload": {"kind": "closed_loop", "requests": 20000,
//                     "queue_depth": 16, "read_fraction": 0.5}
//     },
//     "grid": {"ftl": ["conventional", "ppb"],
//              "gc_routing": ["inline", "scheduled"],
//              "workload.queue_depth": [4, 32]}
//   }
//
// expands to 2 x 2 x 2 = 8 arms named "ftl=conventional,gc_routing=inline,
// workload.queue_depth=4" etc.  Arms that do not override `seed` get
// `defaults.seed + arm_index` so replicated arms decorrelate by default.
//
// Workload kinds, on the two host-path load drivers:
//  * host::LoadGenerator — "closed_loop" (one stream at a fixed queue
//    depth, uniform random) and "tenants" (one closed or paced stream per
//    entry; requires a `qos` tenant list);
//  * replay::ReplayEngine — "synthetic" ("web" / "media" preset traces)
//    and "trace" (an MSR-format CSV, streamed; `limit` caps its records),
//    both replayed open-loop with `time_scale` (finite, > 0) stretching
//    the inter-arrival gaps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/json.h"
#include "ftl/flash_target.h"
#include "host/host_interface.h"
#include "host/load_generator.h"
#include "nand/fault_plan.h"
#include "obs/health.h"
#include "ssd/ssd.h"
#include "util/types.h"

namespace ctflash::campaign {

/// One fully resolved arm: the merged JSON plus the derived device/host
/// configuration objects the runner needs.
struct ArmSpec {
  std::string name;
  std::uint64_t index = 0;        ///< position in expansion order
  Json merged;                    ///< defaults + grid + arm overrides
  ssd::SsdConfig device;
  host::HostConfig host;
  /// Prefill share of the device's logical capacity (the runner resolves
  /// bytes against the constructed device, which knows the true capacity
  /// after over-provisioning adjustments).
  std::uint32_t prefill_pct = 85;
  std::uint64_t prefill_chunk_bytes = 0;
  std::uint64_t seed = 0;

  /// Fault-injection settings, parsed from a top-level "faults" object
  /// (absent or null -> fault-free arm).  The plan/handling are NOT device
  /// configuration: they are armed *after* restore, so all fault arms of a
  /// grid share one aged prefill snapshot.
  bool inject_faults = false;
  nand::FaultPlanConfig fault_plan;
  ftl::FaultHandlingConfig fault_handling;
  /// Fault-draw seed; "faults.seed" pins it, otherwise derived from the
  /// arm seed so replicated arms draw decorrelated fault sequences.
  std::uint64_t fault_seed = 0;

  /// Observability settings, parsed from a top-level "observability"
  /// object ({"phases": true, "metrics_epoch_us": N}).  With phases on,
  /// the runner attaches an aggregate-only obs::Tracer for the measured
  /// workload and the result carries a per-arm phase breakdown.
  bool trace_phases = false;
  Us metrics_epoch_us = 0;
  /// Health evaluation ({"observability": {"health": true}} or
  /// {"health": {<HealthConfig knobs>}}): the runner samples the device's
  /// wear/media/GC counters before and after the measured workload, scores
  /// them through one obs::HealthMonitor window, and reports
  /// metrics["health"] plus health_state / health_score report columns.
  bool eval_health = false;
  obs::HealthConfig health;

  /// Canonical config echo for the result report (deterministic fields
  /// only: name, ftl, gc_routing, device/workload shape, seed).
  Json ConfigSummary() const;
};

struct CampaignSpec {
  std::string name = "campaign";
  std::uint32_t workers = 1;
  /// Share one prefill snapshot per device shape (default).  Disabled,
  /// every arm prefills its own device — the straight-through mode the
  /// campaign bench compares against.
  bool share_prefill = true;
  std::vector<ArmSpec> arms;

  /// Parses and expands a spec; throws std::runtime_error /
  /// std::invalid_argument naming the offending field.
  static CampaignSpec Parse(const std::string& json_text);
  static CampaignSpec Parse(const Json& root);
  /// Disambiguates string literals (Json also converts from const char*).
  static CampaignSpec Parse(const char* json_text) {
    return Parse(std::string(json_text));
  }
};

/// The device/host/prefill subset of an arm configuration, resolved from a
/// merged campaign-style object ("device_bytes", "page_size", "ftl",
/// "gc_routing", "host", "qos", "error_model", "prefill_pct", ...).  The
/// cluster layer (src/cluster/) reuses this to stamp out a whole fleet of
/// devices from one device template, so cluster specs read exactly like
/// campaign specs.
struct DeviceSectionSpec {
  ssd::SsdConfig device;
  host::HostConfig host;
  std::uint32_t prefill_pct = 85;
  std::uint64_t prefill_chunk_bytes = 0;
};

/// Parses and validates the device/host/prefill fields of `merged`; throws
/// std::runtime_error naming the offending field.
DeviceSectionSpec ResolveDeviceSection(const Json& merged);

/// The byte size under `parent[key]`: a JSON number or a string like
/// "256MiB"; `fallback` when the key is absent or null.
std::uint64_t BytesOf(const Json& parent, const std::string& key,
                      std::uint64_t fallback);

/// RFC 7386-style merge: object fields of `patch` merge recursively into
/// `base`, everything else replaces.  Null patch fields delete.
Json MergePatch(const Json& base, const Json& patch);

/// Sets `root[path]` where `path` is dot-separated ("workload.queue_depth"),
/// creating intermediate objects.
void SetJsonPath(Json& root, const std::string& path, const Json& value);

/// Renders a grid/override value for arm names ("ppb", "32", "2.5").
std::string JsonValueLabel(const Json& value);

}  // namespace ctflash::campaign
