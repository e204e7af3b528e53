// NVMe-flavored multi-queue host interface: the traffic-serving front end
// of the simulated device.
//
// Byte-range requests enter one of `num_queues` bounded submission queues
// (round-robin placement, as a multi-core driver would distribute them),
// are split into page-level flash transactions, and dispatch out-of-order
// across channels/chips/dies through the IoScheduler.  A request's queue
// slot stays occupied until its last page completes (the completion-queue
// entry), so num_queues * queue_capacity bounds outstanding requests;
// submissions beyond that wait in a host-side backlog — a blocked
// submitter, never dropped work.
//
// Offsets are clipped into the exported logical space the same way the
// trace-replay harness clips them (wrapped traces), so any TraceRecord can
// be submitted directly.
//
// All progress is driven by the owned sim::EventQueue: Submit() computes
// flash timing through the resource timelines and completions fire as
// events, which makes runs bit-for-bit deterministic.  Construct the Ssd
// with TimingMode::kQueued — with pure service-time accounting there is no
// contention and queue depth cannot matter.
//
// Request slots (not to be confused with submission-queue slots): from
// submission to completion every request owns one record of a pool (a
// vector plus a free list) holding the request, its completion callback
// and its page count.  The pacing queues and backlogs hold slot indices,
// each page transaction carries its slot (FlashTransaction::host_slot),
// and the tracer files its per-request state under the same index — so
// the request path does no hashing, and in steady state no heap
// allocation beyond what the caller's callback needs.  A completed
// request's slot is free before its callback runs, so a closed loop's next
// request reuses it.  Request ids stay public and monotonic and are never
// reused.
//
// Multi-tenant QoS (HostConfig::qos): tenants own disjoint submission
// queues and submit through SubmitAs/SubmitAtAs.  Admission applies the
// tenant's token buckets first — a rate-limited request waits in a
// host-side per-tenant pacing queue and never occupies a queue slot — and
// the scheduler arbitrates tenants inside each priority class by weighted
// deficit round robin (see io_scheduler.h and src/qos/).  An empty
// QosConfig keeps the pre-QoS single-tenant path bit-identical to the seed.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "host/io_scheduler.h"
#include "host/request.h"
#include "qos/tenant.h"
#include "qos/tenant_table.h"
#include "sim/event_queue.h"
#include "ssd/ssd.h"
#include "util/types.h"

namespace ctflash::obs {
class Tracer;
}

namespace ctflash::host {

struct HostConfig {
  std::uint32_t num_queues = 4;      ///< submission/completion queue pairs
  std::uint32_t queue_capacity = 64; ///< outstanding requests per queue
  std::uint32_t device_slots = 32;   ///< in-flight page transactions
  SchedPolicy policy = SchedPolicy::kOutOfOrder;
  /// Scheduled-GC aging bound: a waiting GC transaction overtaken by this
  /// many host dispatches is boosted above host writes (see io_scheduler.h).
  std::uint32_t gc_aging_limit = 64;
  /// Host-write aging bound: a ready host write overtaken by this many
  /// host-READ dispatches is boosted into the read rank, closing the
  /// open-loop read-flood starvation gap.  0 (default) disables the bound
  /// and preserves the seed dispatch order bit-for-bit.
  std::uint32_t write_aging_limit = 0;
  /// Multi-tenant QoS; empty (default) disables the layer entirely.
  /// Requires SchedPolicy::kOutOfOrder (weights rank, FIFO cannot).
  qos::QosConfig qos;

  void Validate() const;
};

class HostInterface {
 public:
  using CompletionCallback = std::function<void(const HostCompletion&)>;

  HostInterface(ssd::Ssd& ssd, const HostConfig& config);

  HostInterface(const HostInterface&) = delete;
  HostInterface& operator=(const HostInterface&) = delete;

  /// Submits a request at the current simulated time; returns its id.
  /// `cb` (optional) fires when the last page transaction completes.
  /// With tenants configured this is SubmitAs(tenant 0, ...).
  std::uint64_t Submit(trace::OpType op, std::uint64_t offset_bytes,
                       std::uint64_t size_bytes,
                       CompletionCallback cb = nullptr);

  /// Schedules a submission at absolute simulated time `at` (open-loop
  /// arrivals from trace timestamps).  The arguments wait in a pooled
  /// record, not in a heap-allocated closure.
  void SubmitAt(Us at, trace::OpType op, std::uint64_t offset_bytes,
                std::uint64_t size_bytes, CompletionCallback cb = nullptr);

  /// Multi-tenant submission: rate-limit admission against `tenant`'s
  /// token buckets (waiting host-side in its pacing queue if throttled),
  /// then round-robin across the tenant's own submission queues.  Requires
  /// a HostConfig with tenants configured; throws std::logic_error
  /// otherwise, std::out_of_range for an unknown tenant.
  std::uint64_t SubmitAs(qos::TenantId tenant, trace::OpType op,
                         std::uint64_t offset_bytes, std::uint64_t size_bytes,
                         CompletionCallback cb = nullptr);

  /// Open-loop arrival for a tenant (SubmitAs at absolute time `at`).
  void SubmitAtAs(Us at, qos::TenantId tenant, trace::OpType op,
                  std::uint64_t offset_bytes, std::uint64_t size_bytes,
                  CompletionCallback cb = nullptr);

  /// Runs the event queue until all submitted work has completed.
  void Run() { queue_.RunToCompletion(); }

  /// Advances simulated time without submitting (e.g. past the end of a
  /// synchronous prefill, whose flash work already booked the timelines).
  void AdvanceTo(Us at) { queue_.RunUntil(at); }

  sim::EventQueue& queue() { return queue_; }
  ssd::Ssd& ssd() { return ssd_; }
  const HostConfig& config() const { return config_; }
  const HostStats& stats() const { return stats_; }
  void ResetStats() {
    stats_ = HostStats{};
    stats_.per_queue.resize(config_.num_queues);
    if (tenants_) tenants_->ResetStats();
  }

  /// Non-null only with tenants configured (per-tenant telemetry, DRR
  /// deficits, throttle counters).
  qos::TenantTable* tenants() { return tenants_.get(); }
  const qos::TenantTable* tenants() const { return tenants_.get(); }
  /// Requests waiting host-side in `tenant`'s rate-limit pacing queue;
  /// 0 for unknown tenants and for hosts without tenants configured.
  std::size_t PacedDepth(qos::TenantId tenant) const {
    return tenant < pace_queues_.size() ? pace_queues_[tenant].size() : 0;
  }

  /// Admitted-but-incomplete requests across all queues.
  std::uint32_t Outstanding() const { return outstanding_; }
  std::size_t BacklogDepth() const { return backlog_.size(); }
  std::uint64_t TxnsDispatched() const { return scheduler_.DispatchedCount(); }
  std::uint32_t PeakDeviceInFlight() const {
    return scheduler_.PeakInFlight();
  }

  /// Direct scheduler access (GC-routing counters, test dispatch hooks).
  IoScheduler& scheduler() { return scheduler_; }
  const IoScheduler& scheduler() const { return scheduler_; }

  /// Wires a lifecycle tracer (borrowed; must outlive this host) into all
  /// three seams at once: the host admission hooks here, the scheduler's
  /// observer list, and the flash target's media hook.  Pass nullptr to
  /// detach.  Without a tracer every hook site is one null check.
  void AttachTracer(obs::Tracer* tracer);
  obs::Tracer* tracer() { return tracer_; }

 private:
  /// One request from submission to completion.
  struct Slot {
    HostRequest request;
    CompletionCallback cb;
    std::uint32_t qid = 0;  ///< submission queue once admitted
    std::uint32_t pages = 0;
    std::uint32_t pages_left = 0;
    Us completion_us = 0;
  };

  /// Takes a free slot for a new request and stamps its id and submission
  /// time.
  std::uint32_t NewRequest(trace::OpType op, std::uint64_t offset_bytes,
                           std::uint64_t size_bytes, CompletionCallback cb);
  /// Places the request in submission queue `qid` and hands its page
  /// transactions to the scheduler.
  void Admit(std::uint32_t slot, std::uint32_t qid);
  /// Tenant placement: round-robin over the tenant's queues with
  /// fall-through; full queues push to the tenant's backlog.
  void PlaceTenantRequest(qos::TenantId tenant, std::uint32_t slot);
  /// Drains `tenant`'s pacing queue while its buckets allow, rescheduling
  /// itself at the next admission time otherwise.
  void PumpPaceQueue(qos::TenantId tenant);
  void OnTxnComplete(const FlashTransaction& txn,
                     const ftl::RequestResult& result);
  /// Retires a fully completed request: stats, queue slot, backlog pull,
  /// request slot, completion callback.
  void FinalizeRequest(std::uint32_t slot);

  /// A SubmitAt/SubmitAtAs call waiting for its time.
  struct TimedSubmit {
    bool as_tenant = false;  ///< SubmitAs(tenant, ...) rather than Submit
    qos::TenantId tenant = 0;
    trace::OpType op = trace::OpType::kRead;
    std::uint64_t offset_bytes = 0;
    std::uint64_t size_bytes = 0;
    CompletionCallback cb;
  };
  /// Parks `submit` in the timed pool and schedules it at `at`; the event
  /// captures only the pool index, so it fits std::function's small buffer.
  void ScheduleSubmit(Us at, TimedSubmit submit);
  void FireTimedSubmit(std::uint32_t index);

  ssd::Ssd& ssd_;
  HostConfig config_;
  sim::EventQueue queue_;
  /// Built before the scheduler, which borrows it for arbitration.
  std::unique_ptr<qos::TenantTable> tenants_;
  IoScheduler scheduler_;
  HostStats stats_;
  std::vector<Slot> slots_;                ///< request slot pool
  std::vector<std::uint32_t> free_slots_;  ///< free request slots
  std::vector<std::uint32_t> queue_fill_;  ///< occupancy per submission queue
  std::deque<std::uint32_t> backlog_;      ///< slots, in arrival order
  /// Per-tenant state (sized TenantCount() in multi-tenant mode, else
  /// empty): rate-limit pacing queues (FIFO; at most one wake event armed
  /// per tenant), queue-placement cursors, and full-queue backlogs.
  std::vector<std::deque<std::uint32_t>> pace_queues_;
  std::vector<std::uint32_t> tenant_rr_;
  std::vector<std::deque<std::uint32_t>> tenant_backlogs_;
  std::uint64_t next_id_ = 1;
  std::uint32_t rr_next_queue_ = 0;
  std::uint32_t outstanding_ = 0;
  /// Borrowed lifecycle tracer; null (the default) disables tracing.
  obs::Tracer* tracer_ = nullptr;
  /// Timed-submit pool and its free list.  Both give their storage back
  /// when the last pending timed submit fires.
  std::vector<TimedSubmit> timed_;
  std::vector<std::uint32_t> free_timed_;
};

}  // namespace ctflash::host
