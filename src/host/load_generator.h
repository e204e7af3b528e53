// Closed-loop load generator driving the host interface.
//
// LoadGenerator runs one or more arrival streams (TenantWorkload)
// concurrently through one host interface.  A stream is either a closed
// loop at a fixed queue depth (the classic fio/MQSim queue-depth-driven
// loop: every completion immediately submits the next request, so
// measured IOPS tracks what the device sustains at that concurrency) or
// paced arrivals at a fixed interval regardless of completions (the shape
// that exposes noisy-neighbor interference).  On a host with tenants
// configured each stream submits as its tenant; on a host without, every
// stream is tenant 0 and submits through the single-tenant path.
//
// Trace-driven open-loop load (timestamps, time warps, multi-source
// merges) goes through replay::ReplayEngine instead.
//
// The generator expects an idle host interface, resets its stats, and
// reports the whole run (host-wide latencies and per-resource utilization:
// busy-time deltas over the run's makespan) plus one result per stream.
#pragma once

#include <cstdint>
#include <vector>

#include "host/host_interface.h"
#include "trace/trace.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/types.h"

namespace ctflash::host {

/// Aggregates for one run (or one stream of a run).
struct LoadStats {
  std::uint64_t requests = 0;
  Us start_us = 0;
  Us end_us = 0;
  util::LatencyStats read_latency;
  util::LatencyStats write_latency;
  /// Busy-time share of the run's makespan, averaged over pool members.
  double die_utilization = 0.0;
  double channel_utilization = 0.0;

  Us MakespanUs() const { return end_us - start_us; }
  double Iops() const {
    return MakespanUs() == 0
               ? 0.0
               : static_cast<double>(requests) * 1e6 /
                     static_cast<double>(MakespanUs());
  }
  /// Read + write latencies merged (percentile reporting).
  util::LatencyStats AllLatency() const {
    util::LatencyStats all = read_latency;
    all.Merge(write_latency);
    return all;
  }
};

/// One arrival stream for LoadGenerator: either a closed loop at
/// `queue_depth` (interarrival_us == 0) or paced arrivals every
/// `interarrival_us` (offered load fixed regardless of completions).
/// Offsets are drawn request-aligned and uniform from the stream's own
/// working-set range [footprint_base_bytes, footprint_base_bytes +
/// footprint_bytes), so streams can be given disjoint (or deliberately
/// overlapping) data.
struct TenantWorkload {
  qos::TenantId tenant = 0;        ///< must be 0 on a host without tenants
  std::uint32_t queue_depth = 8;   ///< closed-loop arm
  Us interarrival_us = 0;          ///< > 0: paced open-loop arm
  std::uint64_t total_requests = 1'000;
  double read_fraction = 1.0;
  std::uint64_t request_bytes = 16 * kKiB;
  std::uint64_t footprint_base_bytes = 0;
  std::uint64_t footprint_bytes = 0;  ///< 0 = through end of device
  std::uint64_t seed = 1;

  void Validate() const;
};

/// One stream's results; `load` carries the stream's own request latencies
/// (end-to-end, including any rate-limit pacing) and IOPS over the stream's
/// first-submission..last-completion span.  Utilization is device-wide and
/// does not decompose per stream: read it from LoadResult::total.
struct TenantLoadStats {
  qos::TenantId tenant = 0;
  LoadStats load;
};

/// What LoadGenerator::Run() reports.
struct LoadResult {
  /// The whole run: host-wide latencies, utilization, and end_us at the
  /// drained host's clock, which can be later than the last completion
  /// (scheduled GC work still draining).
  LoadStats total;
  /// Per stream, in workload order.
  std::vector<TenantLoadStats> streams;
};

class LoadGenerator {
 public:
  LoadGenerator(HostInterface& host, std::vector<TenantWorkload> workloads);

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Submits every stream from an idle host (closed loops first fill their
  /// queue depth, paced streams schedule all arrivals up front, in
  /// workload order), drains, reports.
  LoadResult Run();

  /// The exact request stream of the last run in draw order, timestamped
  /// with each request's submission time (determinism and sync-path
  /// equivalence checks).
  const std::vector<trace::TraceRecord>& issued() const { return issued_; }

 private:
  struct StreamRun {
    TenantWorkload workload;
    util::Xoshiro256StarStar rng;
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    Us last_completion_us = 0;
    util::LatencyStats read_latency;
    util::LatencyStats write_latency;
  };

  /// Draws the stream's next request, to be submitted at `at`.
  trace::TraceRecord NextRecord(StreamRun& run, Us at);
  /// Submits now, as the stream's tenant when the host has tenants.
  void Submit(std::size_t idx, const trace::TraceRecord& record);
  void SubmitNext(std::size_t idx);  ///< closed-loop chain
  void OnComplete(std::size_t idx, const HostCompletion& completion);

  HostInterface& host_;
  std::vector<StreamRun> runs_;
  std::vector<trace::TraceRecord> issued_;
};

/// Snapshot/delta helper for load drivers: utilization of the device's
/// resource pools between two points in simulated time.
struct UtilizationProbe {
  explicit UtilizationProbe(const ftl::FlashTarget& target);

  /// Fills the utilization fields of `stats` for [stats.start_us,
  /// stats.end_us] relative to the construction-time snapshot.
  void Finish(LoadStats& stats) const;

 private:
  const ftl::FlashTarget& target_;
  Us die_busy_0_;
  Us channel_busy_0_;
};

}  // namespace ctflash::host
