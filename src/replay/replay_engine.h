// ReplayEngine: the open-loop load driver.  Drives a trace (plan or bare
// source) through a host::HostInterface with streaming admission and
// windowed telemetry.
//
// Every record becomes an arrival event at its (warped) timestamp and is
// submitted through HostInterface::SubmitAs / Submit, so queue
// backpressure, out-of-order page scheduling, scheduled GC, and the
// multi-tenant QoS engine all apply.  Tenant-tagged records from a
// ReplayPlan route to their tenant's submission queues (SubmitAtAs
// semantics); per-tenant results are read back from the qos::TenantTable
// attribution.  This is the path the Figures 13/14 validation, the
// campaign's trace-driven arms and mixed-tenant studies run on.
//
// Arrivals are CHAINED: one pending arrival event at a time, pulling the
// next record only when the previous arrival fires.  Replay memory is
// O(source window), never O(trace) — the event queue does not materialize
// a million arrivals up front.  Records whose timestamps run backward
// (out-of-order MSR arrivals) are clamped to the current simulated time,
// preserving record order.
//
// Telemetry: total and per-window (config.window_us) arrival/completion
// counts, IOPS, read/write p50/p99 and end-of-window queue depth, plus the
// full latency histograms for CDF extraction (latency_cdf.h) and
// conservation counters (pulled == submitted == completed when the run
// drains).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "host/host_interface.h"
#include "replay/replay_plan.h"
#include "replay/trace_source.h"
#include "util/stats.h"
#include "util/types.h"

namespace ctflash::replay {

struct ReplayEngineConfig {
  /// Telemetry interval; 0 disables windowed telemetry.
  Us window_us = 0;

  void Validate() const;
};

/// One telemetry interval ([start_us, end_us)).
struct ReplayWindow {
  Us start_us = 0;
  Us end_us = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  double iops = 0.0;  ///< completions over the window
  double read_p50_us = 0.0;
  double read_p99_us = 0.0;
  double write_p50_us = 0.0;
  double write_p99_us = 0.0;
  /// Host queue depth (admitted, incomplete) when the window closed.
  std::uint32_t outstanding_end = 0;
};

/// Per-tenant slice of a replay, read from the QoS engine's
/// attribution (qos::TenantTable::TenantStats).
struct TenantReplayResult {
  qos::TenantId tenant = qos::kNoTenant;
  std::string name;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t throttled = 0;
  util::LatencyStats read_latency;
  util::LatencyStats write_latency;
  Us first_submit_us = 0;
  Us last_completion_us = 0;

  /// Completions per second over the tenant's own active span.
  double Iops() const {
    const Us span = last_completion_us - first_submit_us;
    return span <= 0 ? 0.0
                     : static_cast<double>(completed) * 1e6 /
                           static_cast<double>(span);
  }
};

struct ReplayResult {
  // Conservation: pulled records all submit; a drained run completes all.
  std::uint64_t pulled = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;

  Us start_us = 0;
  Us end_us = 0;  ///< the drained host's clock
  util::LatencyStats read_latency;
  util::LatencyStats write_latency;
  std::vector<ReplayWindow> windows;
  std::vector<TenantReplayResult> tenants;  ///< hosts with tenants only
  std::vector<SourceCounters> sources;      ///< plan runs only

  Us MakespanUs() const { return end_us - start_us; }
  double Iops() const {
    return MakespanUs() <= 0 ? 0.0
                             : static_cast<double>(completed) * 1e6 /
                                   static_cast<double>(MakespanUs());
  }
  util::LatencyStats AllLatency() const {
    util::LatencyStats all = read_latency;
    all.Merge(write_latency);
    return all;
  }
};

class ReplayEngine {
 public:
  /// The host interface must be idle at Run().  Run() resets the host's
  /// stats (and tenant stats) like host::LoadGenerator does; the replay
  /// starts at the host queue's current time.
  ReplayEngine(host::HostInterface& host, const ReplayEngineConfig& config);

  ReplayEngine(const ReplayEngine&) = delete;
  ReplayEngine& operator=(const ReplayEngine&) = delete;

  /// Replays a merged tenant-tagged plan (resets it first).
  ReplayResult Run(ReplayPlan& plan);

  /// Replays a bare source as a single untagged stream (resets it first).
  ReplayResult Run(TraceSource& source);

 private:
  using Puller = std::function<std::optional<TaggedRecord>()>;

  ReplayResult RunPuller(const Puller& pull);
  /// Arrival event: submit `staged`, pull the next record, chain the next
  /// arrival event.
  void OnArrival(Us now);
  void Submit(const TaggedRecord& record);
  void OnComplete(const TaggedRecord& record, Us latency_us,
                  Us completion_us);
  /// Closes telemetry windows up to the one containing `now`.
  void WindowAdvance(Us now);
  void FlushWindow(Us close_time);

  host::HostInterface& host_;
  ReplayEngineConfig config_;

  // Per-run state.
  Puller pull_;
  std::optional<TaggedRecord> staged_;
  ReplayResult result_;
  util::LatencyStats window_read_;
  util::LatencyStats window_write_;
  std::uint64_t window_arrivals_ = 0;
  std::uint64_t window_completions_ = 0;
  Us window_start_ = 0;
};

}  // namespace ctflash::replay
