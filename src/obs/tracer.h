// Lifecycle tracer: phase-tagged end-to-end latency attribution for every
// host request and background transaction in the stack.
//
// The tracer plugs into three seams:
//   * host::HostInterface calls the On{Submit,Throttled,Backlogged,Admit,
//     RequestComplete} hooks (AttachTracer wires all three seams at once);
//   * the IoScheduler publishes dispatches and executions through
//     sched::SchedulerObserver (which this class implements);
//   * ftl::FlashTarget reports read-retry ladders and dead-die accesses
//     through obs::MediaHook.
//
// From those events it derives, per completed request, the exact phase
// decomposition documented in obs/phase.h (paced + queued + media ==
// end-to-end, conservation holds sample-by-sample) and attributes stall
// time to causes: token-bucket pacing vs backpressure for the paced phase,
// the GC write-admission guard for the queued phase, and die-busy-on-GC vs
// die-busy-on-host for the media phase (the tracer tracks in-flight GC per
// die, so it knows WHO held the die the critical transaction waited for).
//
// Everything is deterministic: the tracer only transforms the simulation's
// own deterministic event stream, holds no clocks of its own, and its
// aggregates/spans serialize byte-identically for any campaign/cluster
// worker count (each device's tracer is touched only by that device's
// worker).
//
// Cost model: compiled-in, off by default.  A host interface without an
// attached tracer pays one null-pointer check per hook site; the scheduler
// with no observers skips all context computation.  Attached, the tracer
// keeps its state in dense arrays: per request under the host interface's
// request slot, per transaction under the scheduler's in-flight slot, and
// in-flight GC per die under the die index.  They grow to the peak depth
// and are then reused, so with phases-only tracing (record_spans = false)
// a request costs a few array writes and LatencyStats adds, with no
// hashing and no heap allocation — cheap enough for whole campaigns.
// Each slot entry also records its request id (or transaction seq), so
// hooks for a request or transaction the tracer never saw start (it was
// attached mid-run) are ignored.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/media_hook.h"
#include "obs/phase.h"
#include "sched/observer.h"
#include "util/types.h"

namespace ctflash::obs {

struct TracerConfig {
  /// Keep per-event timeline spans for Chrome/Perfetto export.  Off,
  /// the tracer aggregates phases only (campaign mode).
  bool record_spans = true;
  /// Span cap; events beyond it are counted in dropped_spans, not stored.
  std::size_t max_spans = 1u << 20;
  /// Keep one PhaseRecord per completed request (property tests and
  /// outlier drill-down).  Subject to max_spans as well.
  bool record_requests = false;
  /// Epoch length for time-series sampling (per-epoch PhaseStats rows and
  /// exporter counter tracks); 0 disables the series.
  Us metrics_epoch_us = 0;
  /// Simulated time of epoch 0's start (typically the prefill end).
  Us epoch_base_us = 0;
  /// Epoch index clamp (events past the end land in the last epoch, the
  /// cluster convention); 0 = unbounded.
  std::uint32_t max_epochs = 0;
};

/// One timeline slice for the Chrome trace export.  `name` points at a
/// string literal chosen at record time.
struct TraceSpan {
  enum class TrackKind : std::uint8_t { kDie = 0, kQueue, kTenant };

  Us start_us = 0;
  Us dur_us = 0;
  TrackKind track = TrackKind::kDie;
  std::uint32_t track_id = 0;
  const char* name = "";
  std::uint64_t request_id = 0;
  StallCause cause = StallCause::kNone;
  Us stall_us = 0;      ///< attributed stall inside this span
  std::uint64_t detail = 0;  ///< retry rungs / pages / phase-specific
};

/// Full phase decomposition of one completed request.
struct PhaseRecord {
  std::uint64_t request_id = 0;
  bool is_read = true;
  std::uint32_t tenant = ~0u;
  Us submit_us = 0;
  Us admit_us = 0;
  Us dispatch_us = 0;  ///< critical (last-completing) transaction
  Us completion_us = 0;
  StallCause pace_cause = StallCause::kNone;
  StallCause queue_cause = StallCause::kNone;
  StallCause media_cause = StallCause::kNone;
  Us media_stall_us = 0;  ///< die wait inside the media phase

  Us PacedUs() const { return admit_us - submit_us; }
  Us QueuedUs() const { return dispatch_us - admit_us; }
  Us MediaUs() const { return completion_us - dispatch_us; }
  Us TotalUs() const { return completion_us - submit_us; }
};

/// Per-epoch activity counters (exported as Chrome counter tracks).
struct EpochCounters {
  std::uint64_t reads_completed = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t gc_copies = 0;
  std::uint64_t gc_erases = 0;
  std::uint64_t retry_rungs = 0;
  std::uint64_t timeouts = 0;
};

class Tracer : public sched::SchedulerObserver, public MediaHook {
 public:
  explicit Tracer(const TracerConfig& config = TracerConfig{});

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  const TracerConfig& config() const { return config_; }

  // --- host interface hooks ------------------------------------------------
  // `slot` is the host interface's request slot, `request_id` the id it
  // returned for the request.
  void OnSubmit(std::uint32_t slot, std::uint64_t request_id, bool is_read,
                std::uint32_t tenant, Us submit_us);
  /// The submission was deferred by the tenant's token buckets.
  void OnThrottled(std::uint32_t slot, std::uint64_t request_id);
  /// The submission found every eligible queue full (host-side backlog).
  void OnBacklogged(std::uint32_t slot, std::uint64_t request_id);
  /// The request entered submission queue `queue` at `admit_us`.
  void OnAdmit(std::uint32_t slot, std::uint64_t request_id,
               std::uint32_t queue, Us admit_us);
  void OnRequestComplete(std::uint32_t slot, std::uint64_t request_id,
                         Us completion_us);
  /// Cluster SLA accounting: the device died with `reads`+`writes` user
  /// requests unfinished; each is charged `charged_us` at `at_us`.  Clears
  /// all in-flight tracer state for the device.
  void ChargeDeadDevice(std::uint64_t reads, std::uint64_t writes,
                        Us charged_us, Us at_us);

  // --- sched::SchedulerObserver --------------------------------------------
  void OnDispatch(const sched::FlashTransaction& txn,
                  const sched::DispatchContext& context) override;
  void OnTxnExecuted(const sched::FlashTransaction& txn, std::uint32_t slot,
                     Us dispatch_us, Us completion_us) override;

  // --- obs::MediaHook ------------------------------------------------------
  void OnReadRetry(std::uint32_t die, Us start_us, Us dur_us,
                   std::uint32_t rungs, bool recovered) override;
  void OnUnreachable(std::uint32_t die, Us now_us) override;

  // --- results -------------------------------------------------------------
  const PhaseStats& phases() const { return phases_; }
  /// Per-epoch phase rows (empty unless metrics_epoch_us > 0); index ==
  /// epoch number, rows exist up to the last epoch that saw a completion.
  const std::vector<PhaseStats>& epoch_phases() const { return epoch_phases_; }
  const std::vector<EpochCounters>& epoch_counters() const {
    return epoch_counters_;
  }
  const std::vector<TraceSpan>& spans() const { return spans_; }
  const std::vector<PhaseRecord>& requests() const { return requests_; }
  std::uint64_t dropped_spans() const { return dropped_spans_; }
  /// Requests submitted but not yet completed (should be 0 after a full
  /// drain; nonzero means the device died with work in flight).
  std::size_t PendingRequests() const;

  void Reset();

 private:
  struct PendingRequest {
    bool active = false;  ///< submitted and not yet completed
    std::uint64_t request_id = 0;
    Us submit_us = 0;
    bool is_read = true;
    std::uint32_t tenant = ~0u;
    std::uint32_t queue = ~0u;
    StallCause pace_cause = StallCause::kNone;
    Us admit_us = -1;
    // Critical-path candidate: the latest-completing transaction seen.
    Us crit_completion_us = -1;
    Us crit_dispatch_us = 0;
    StallCause crit_queue_cause = StallCause::kNone;
    StallCause crit_media_cause = StallCause::kNone;
    Us crit_media_stall_us = 0;
  };

  /// Dispatch-time facts held until the transaction executes.
  struct InflightTxn {
    bool active = false;  ///< dispatched and not yet executed
    std::uint64_t seq = 0;
    std::uint32_t die = ~0u;
    Us die_stall_us = 0;
    StallCause media_cause = StallCause::kNone;
    StallCause queue_cause = StallCause::kNone;
  };

  /// The pending request in `slot` if it is `request_id`, else null.
  PendingRequest* Find(std::uint32_t slot, std::uint64_t request_id);
  std::size_t EpochOf(Us at_us) const;
  PhaseStats& EpochRow(Us at_us);
  EpochCounters& EpochRowCounters(Us at_us);
  void RecordSpan(const TraceSpan& span);

  TracerConfig config_;
  PhaseStats phases_;
  std::vector<PhaseStats> epoch_phases_;
  std::vector<EpochCounters> epoch_counters_;
  std::vector<TraceSpan> spans_;
  std::vector<PhaseRecord> requests_;
  std::uint64_t dropped_spans_ = 0;
  std::vector<PendingRequest> pending_;  ///< by host request slot
  std::vector<InflightTxn> inflight_;    ///< by scheduler in-flight slot
  /// In-flight GC transactions per die (die-busy attribution).
  std::vector<std::uint32_t> gc_on_die_;
};

}  // namespace ctflash::obs
