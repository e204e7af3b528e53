// ClusterSim: a storage-cluster scenario over a fleet of simulated devices.
//
// The fleet is N + S full Ssd instances (spares included) stamped from one
// device template.  All of them restore from a single aged prefill snapshot
// (the campaign trick: pay the prefill once per shape), then per-device
// fault schedules arm and the measured run starts.
//
// Time advances in EPOCH LOCKSTEP, which is what makes the simulation both
// parallel and bit-deterministic for any worker count:
//
//   1. serial    generate this epoch's user arrivals (evenly spaced at the
//                cluster rate; users drawn Zipf; routed to their shard's
//                primary) and bucket them per device;
//   2. parallel  each device independently submits its bucket through its
//                own HostInterface/EventQueue and advances to the epoch
//                boundary — devices share no simulation state, so worker
//                scheduling cannot reorder anything observable;
//   3. serial    the ClusterDirector reads per-device health (unrecoverable
//                media errors = the device threw, or injected faults pushed
//                its lost-page count past the threshold), marks failures on
//                the ShardRouter, and converts the returned ShardMoves into
//                rebuild traffic for the NEXT epoch — reads on a surviving
//                replica, writes on the new placement, submitted through the
//                normal host path as the low-weight "rebuild" QoS tenant.
//
// Requests routed to a fatally-failed device complete at `timeout_us` (the
// cluster SLA timeout): under the "on_failure" policy the router stops
// routing there after one detection epoch, under the "none" control policy
// the timeouts keep accumulating — the contrast bench_cluster quantifies.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/json.h"
#include "cluster/shard_router.h"
#include "cluster/spec.h"
#include "host/host_interface.h"
#include "obs/tracer.h"
#include "ssd/ssd.h"
#include "util/random.h"
#include "util/stats.h"

namespace ctflash::cluster {

/// Cluster-level latency aggregate for one epoch (merged over devices, plus
/// the timeout samples charged to dead-device traffic).
struct EpochSummary {
  util::LatencyStats read;
  util::LatencyStats write;
  std::uint64_t arrivals = 0;  ///< user requests generated this epoch
  std::uint64_t timeouts = 0;  ///< charged at timeout_us (dead device)
  /// Phase breakdown merged across the fleet (populated only with
  /// observability on; dead-device timeouts book as dead-device stall).
  obs::PhaseStats phases;
  // Observed-policy fleet health counts at this epoch's director step.
  std::uint64_t devices_degraded = 0;
  std::uint64_t devices_failing = 0;
  std::uint64_t slo_breaches = 0;  ///< devices whose window breached the SLO
};

/// End-of-run state of one fleet device.
struct DeviceSummary {
  bool alive = true;        ///< router-alive (never marked failed)
  bool fatal = false;       ///< its simulation threw (unrecoverable media)
  bool in_ring = false;     ///< holds ring points at end of run
  std::uint64_t completed = 0;  ///< user requests it completed
  std::uint64_t lost_pages = 0;
  util::LatencyStats read;  ///< whole-run user read latency on this device
  std::uint64_t rebuild_reads = 0;   ///< rebuild-tenant dispatches (source)
  std::uint64_t rebuild_writes = 0;  ///< rebuild-tenant dispatches (target)
  std::uint64_t primary_shards = 0;  ///< shards it primaries at end of run
  bool drained = false;  ///< predictively evacuated while still alive
  /// Whole-run phase breakdown for this device (observability on only).
  obs::PhaseStats phases;
  /// Final health / SLO monitor snapshots (policy on_observed only).
  campaign::Json health;
  campaign::Json slo;
};

struct ClusterResult {
  std::string name;
  campaign::Json config;
  std::vector<EpochSummary> epochs;
  std::vector<DeviceSummary> devices;
  /// Director log: one object per detection ({"epoch", "device", "cause",
  /// "shards_moved", "unrecoverable", "spare_adopted"}).
  std::vector<campaign::Json> events;

  std::uint64_t devices_failed = 0;
  std::uint64_t devices_drained = 0;  ///< predictive evacuations (on_observed)
  std::uint64_t shards_moved = 0;
  std::uint64_t spares_used = 0;
  std::uint64_t unrecoverable_shards = 0;
  std::uint64_t migration_ops = 0;    ///< rebuild chunk reads + writes
  std::uint64_t migration_bytes = 0;  ///< bytes written to new placements
  /// Phase breakdowns populated (spec observability.phases); gates the
  /// "phases" fields in the JSON report and the CSV phase columns.
  bool has_phases = false;
  /// Health/SLO monitors ran (policy on_observed); gates the "health" and
  /// "slo" report sections and the CSV health columns.
  bool has_health = false;
  double wall_ms = 0.0;

  /// Everything except wall-clock timing: byte-identical across runs and
  /// worker counts (the determinism contract bench_cluster asserts).
  campaign::Json DeterministicJson() const;
  /// DeterministicJson + timing.
  campaign::Json Report() const;
  /// Per-(epoch, device) CSV with RFC 4180 quoting.
  std::string Csv() const;
};

class ClusterSim {
 public:
  explicit ClusterSim(ClusterSpec spec);

  /// Runs the whole scenario; workers_override != 0 replaces spec.workers.
  /// Deterministic: two runs from one spec return identical
  /// DeterministicJson() for ANY worker counts.
  ClusterResult Run(std::uint32_t workers_override = 0);

  const ClusterSpec& spec() const { return spec_; }

  /// Perfetto-loadable Chrome trace of the whole fleet: one process per
  /// device with its phase/GC counter tracks, plus — under on_observed —
  /// per-device health-score (per-mille) and SLO window-p99 counter tracks.
  /// Valid after Run() when the spec enables tracing; "{}" otherwise.
  std::string FleetChromeTrace() const;

 private:
  /// One scheduled I/O for a device (user or rebuild traffic).
  struct PendingOp {
    Us at = 0;
    qos::TenantId tenant = kUserTenant;
    bool is_read = true;
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
  };

  /// One fleet member; simulation state touched only by its worker during
  /// the parallel phase.
  struct Device {
    std::unique_ptr<ssd::Ssd> ssd;
    std::unique_ptr<host::HostInterface> host;
    /// Aggregate-only lifecycle tracer (observability on); touched only by
    /// this device's worker during the parallel phase.
    std::unique_ptr<obs::Tracer> tracer;
    bool fatal = false;
    bool router_alive = true;  ///< mirror of router state (serial phase)
    bool drained = false;      ///< predictively evacuated (on_observed)
    std::vector<PendingOp> bucket;  ///< this epoch's arrivals
    // User-op accounting (timeout attribution when the device dies with
    // requests in flight).
    std::uint64_t submitted_reads = 0, completed_reads = 0;
    std::uint64_t submitted_writes = 0, completed_writes = 0;
    std::uint64_t completed = 0;
    // Per-epoch user latency, merged into the cluster epochs serially.
    std::vector<util::LatencyStats> epoch_read;
    std::vector<util::LatencyStats> epoch_write;
    util::LatencyStats run_read;
    std::uint64_t epoch_timeouts = 0;  ///< this epoch (in-flight at death)
  };

  void BuildFleet(ClusterResult& result);
  /// Phase 1: generate + route this epoch's arrivals into device buckets.
  void GenerateEpoch(std::uint32_t epoch, ClusterResult& result);
  /// Phase 2 body: submit the device's bucket and advance to `until`.
  void RunDeviceEpoch(Device& dev, std::uint32_t epoch, Us until);
  /// Phase 3: detect failures, remap, emit next epoch's rebuild traffic.
  void DirectorStep(std::uint32_t epoch, ClusterResult& result);
  /// Director helper: mark `d` failed/drained on the router, remap its
  /// shards, and pace the rebuild traffic into future epoch buckets.
  /// Fills the move-accounting fields of `event`.
  void RebalanceDevice(std::uint32_t d, std::uint32_t epoch,
                       ClusterResult& result, campaign::Json& event);
  /// A device died (its host path threw): mark it fatal and charge its
  /// in-flight user requests the SLA timeout in `epoch`, with the tracer's
  /// dead-device charge filed at `charge_at`.
  void ChargeDeadDevice(Device& dev, std::uint32_t epoch, Us charge_at);

  std::uint32_t EpochOf(Us at) const;
  std::uint64_t UserOffset(std::uint64_t user) const;

  ClusterSpec spec_;
  std::unique_ptr<ShardRouter> router_;
  std::vector<Device> devices_;
  /// Per-device monitors, one each per fleet member; sized only under
  /// policy on_observed (zero-cost otherwise).  Observed serially in the
  /// director phase, so byte-deterministic for any worker count.
  std::vector<obs::HealthMonitor> health_;
  std::vector<obs::SloMonitor> slo_;
  util::Xoshiro256StarStar rng_;       ///< serial-phase draws only
  std::unique_ptr<util::ZipfSampler> zipf_;
  Us run_start_us_ = 0;
  std::uint64_t prefill_bytes_ = 0;
  std::uint64_t offset_slots_ = 0;
};

}  // namespace ctflash::cluster
