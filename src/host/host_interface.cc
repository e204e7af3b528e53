#include "host/host_interface.h"

#include <stdexcept>
#include <utility>

#include "obs/tracer.h"
#include "util/logging.h"

namespace ctflash::host {

void HostConfig::Validate() const {
  if (num_queues == 0) {
    throw std::invalid_argument("HostConfig: num_queues must be > 0");
  }
  if (queue_capacity == 0) {
    throw std::invalid_argument("HostConfig: queue_capacity must be > 0");
  }
  if (device_slots == 0) {
    throw std::invalid_argument("HostConfig: device_slots must be > 0");
  }
  if (gc_aging_limit == 0) {
    throw std::invalid_argument("HostConfig: gc_aging_limit must be > 0");
  }
  // write_aging_limit = 0 is the documented "disabled" setting.
  if (qos.Enabled()) {
    if (policy != SchedPolicy::kOutOfOrder) {
      throw std::invalid_argument(
          "HostConfig: multi-tenant QoS requires SchedPolicy::kOutOfOrder "
          "(FIFO dispatch cannot express weights)");
    }
    qos.Validate(num_queues);
  }
}

HostInterface::HostInterface(ssd::Ssd& ssd, const HostConfig& config)
    : ssd_(ssd),
      config_(config),
      tenants_(config.qos.Enabled() ? std::make_unique<qos::TenantTable>(
                                          config.qos, config.num_queues)
                                    : nullptr),
      scheduler_(ssd, queue_, config.policy, config.device_slots,
                 config.gc_aging_limit, config.write_aging_limit,
                 tenants_.get()),
      queue_fill_(config.num_queues, 0) {
  config_.Validate();
  if (tenants_) {
    pace_queues_.resize(tenants_->TenantCount());
    tenant_rr_.resize(tenants_->TenantCount(), 0);
    tenant_backlogs_.resize(tenants_->TenantCount());
  }
  stats_.per_queue.resize(config_.num_queues);
  scheduler_.OnTxnComplete(
      [this](const FlashTransaction& txn, const ftl::RequestResult& result) {
        OnTxnComplete(txn, result);
      });
}

void HostInterface::AttachTracer(obs::Tracer* tracer) {
  if (tracer_ != nullptr) {
    scheduler_.DetachObserver(tracer_);
    ssd_.target().AttachMediaHook(nullptr);
  }
  tracer_ = tracer;
  if (tracer_ != nullptr) {
    scheduler_.AttachObserver(tracer_);
    ssd_.target().AttachMediaHook(tracer_);
  }
}

std::uint32_t HostInterface::NewRequest(trace::OpType op,
                                        std::uint64_t offset_bytes,
                                        std::uint64_t size_bytes,
                                        CompletionCallback cb) {
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.request.id = next_id_++;
  s.request.op = op;
  s.request.offset_bytes = offset_bytes;
  s.request.size_bytes = size_bytes;
  s.request.submit_us = queue_.Now();
  s.cb = std::move(cb);
  s.pages = 0;
  s.pages_left = 0;
  s.completion_us = 0;
  stats_.submitted++;
  return slot;
}

std::uint64_t HostInterface::Submit(trace::OpType op,
                                    std::uint64_t offset_bytes,
                                    std::uint64_t size_bytes,
                                    CompletionCallback cb) {
  if (tenants_) {
    // Tenant-less submissions in multi-tenant mode are attributed to
    // tenant 0 so they still obey its limits and weights.
    return SubmitAs(0, op, offset_bytes, size_bytes, std::move(cb));
  }
  const std::uint32_t slot =
      NewRequest(op, offset_bytes, size_bytes, std::move(cb));
  const std::uint64_t id = slots_[slot].request.id;
  if (tracer_ != nullptr) {
    tracer_->OnSubmit(slot, id, op == trace::OpType::kRead, qos::kNoTenant,
                      queue_.Now());
  }

  // Round-robin queue placement; fall through to the first queue with a
  // free slot so one hot queue does not block an idle device.
  const std::uint32_t start = rr_next_queue_;
  rr_next_queue_ = (rr_next_queue_ + 1) % config_.num_queues;
  for (std::uint32_t probe = 0; probe < config_.num_queues; ++probe) {
    const std::uint32_t qid = (start + probe) % config_.num_queues;
    if (queue_fill_[qid] < config_.queue_capacity) {
      Admit(slot, qid);
      return id;
    }
  }
  stats_.backlogged++;
  if (tracer_ != nullptr) tracer_->OnBacklogged(slot, id);
  backlog_.push_back(slot);
  return id;
}

void HostInterface::SubmitAt(Us at, trace::OpType op,
                             std::uint64_t offset_bytes,
                             std::uint64_t size_bytes, CompletionCallback cb) {
  ScheduleSubmit(at, TimedSubmit{false, 0, op, offset_bytes, size_bytes,
                                 std::move(cb)});
}

void HostInterface::ScheduleSubmit(Us at, TimedSubmit submit) {
  // Schedule before taking the record: a rejected time leaves the pool as
  // it was.
  const auto index = static_cast<std::uint32_t>(
      free_timed_.empty() ? timed_.size() : free_timed_.back());
  queue_.ScheduleAt(at, [this, index](Us) { FireTimedSubmit(index); });
  if (free_timed_.empty()) {
    timed_.push_back(std::move(submit));
  } else {
    free_timed_.pop_back();
    timed_[index] = std::move(submit);
  }
}

void HostInterface::FireTimedSubmit(std::uint32_t index) {
  TimedSubmit submit = std::move(timed_[index]);
  free_timed_.push_back(index);
  if (free_timed_.size() == timed_.size()) {
    // Drained: an epoch's batch can be large, so keep nothing in between.
    timed_ = std::vector<TimedSubmit>();
    free_timed_ = std::vector<std::uint32_t>();
  }
  if (submit.as_tenant) {
    SubmitAs(submit.tenant, submit.op, submit.offset_bytes, submit.size_bytes,
             std::move(submit.cb));
  } else {
    Submit(submit.op, submit.offset_bytes, submit.size_bytes,
           std::move(submit.cb));
  }
}

std::uint64_t HostInterface::SubmitAs(qos::TenantId tenant, trace::OpType op,
                                      std::uint64_t offset_bytes,
                                      std::uint64_t size_bytes,
                                      CompletionCallback cb) {
  if (!tenants_) {
    throw std::logic_error("HostInterface: SubmitAs without tenants");
  }
  if (tenant >= tenants_->TenantCount()) {
    throw std::out_of_range("HostInterface: unknown tenant " +
                            std::to_string(tenant));
  }
  const std::uint32_t slot =
      NewRequest(op, offset_bytes, size_bytes, std::move(cb));
  const std::uint64_t id = slots_[slot].request.id;
  const Us now = queue_.Now();
  if (tracer_ != nullptr) {
    tracer_->OnSubmit(slot, id, op == trace::OpType::kRead, tenant, now);
  }
  auto& tstats = tenants_->StatsOf(tenant);
  tstats.submitted++;
  if (tstats.first_submit_us < 0) tstats.first_submit_us = now;

  if (tenants_->Limited(tenant)) {
    auto& pace = pace_queues_[tenant];
    if (!pace.empty()) {
      // FIFO behind earlier throttled work; its wake event is already
      // armed and will drain this request in turn.
      tstats.throttled++;
      if (tracer_ != nullptr) tracer_->OnThrottled(slot, id);
      pace.push_back(slot);
      return id;
    }
    const Us at = tenants_->AdmissionAt(tenant, now, size_bytes);
    if (at > now) {
      tstats.throttled++;
      if (tracer_ != nullptr) tracer_->OnThrottled(slot, id);
      pace.push_back(slot);
      queue_.ScheduleAt(at, [this, tenant](Us) { PumpPaceQueue(tenant); });
      return id;
    }
    tenants_->ChargeAdmission(tenant, now, size_bytes);
  }
  PlaceTenantRequest(tenant, slot);
  return id;
}

void HostInterface::SubmitAtAs(Us at, qos::TenantId tenant, trace::OpType op,
                               std::uint64_t offset_bytes,
                               std::uint64_t size_bytes,
                               CompletionCallback cb) {
  ScheduleSubmit(at, TimedSubmit{true, tenant, op, offset_bytes, size_bytes,
                                 std::move(cb)});
}

void HostInterface::PumpPaceQueue(qos::TenantId tenant) {
  auto& pace = pace_queues_[tenant];
  while (!pace.empty()) {
    const Us now = queue_.Now();
    const std::uint32_t slot = pace.front();
    const HostRequest& request = slots_[slot].request;
    const Us at = tenants_->AdmissionAt(tenant, now, request.size_bytes);
    if (at > now) {
      queue_.ScheduleAt(at, [this, tenant](Us) { PumpPaceQueue(tenant); });
      return;
    }
    pace.pop_front();
    tenants_->ChargeAdmission(tenant, now, request.size_bytes);
    tenants_->StatsOf(tenant).throttle_wait_us += now - request.submit_us;
    PlaceTenantRequest(tenant, slot);
  }
}

void HostInterface::PlaceTenantRequest(qos::TenantId tenant,
                                       std::uint32_t slot) {
  // Round-robin within the tenant's own queues with fall-through, the
  // tenant-local analogue of the global placement in Submit.
  const auto& queues = tenants_->ConfigOf(tenant).queues;
  const std::uint32_t count = static_cast<std::uint32_t>(queues.size());
  const std::uint32_t start = tenant_rr_[tenant];
  tenant_rr_[tenant] = (start + 1) % count;
  for (std::uint32_t probe = 0; probe < count; ++probe) {
    const std::uint32_t qid = queues[(start + probe) % count];
    if (queue_fill_[qid] < config_.queue_capacity) {
      Admit(slot, qid);
      return;
    }
  }
  stats_.backlogged++;
  if (tracer_ != nullptr) tracer_->OnBacklogged(slot, slots_[slot].request.id);
  tenant_backlogs_[tenant].push_back(slot);
}

void HostInterface::Admit(std::uint32_t slot, std::uint32_t qid) {
  queue_fill_[qid]++;
  outstanding_++;
  stats_.per_queue[qid].admitted++;
  // Admission never submits, so `s` stays valid throughout.
  Slot& s = slots_[slot];
  const HostRequest& request = s.request;
  s.qid = qid;
  if (tracer_ != nullptr) {
    tracer_->OnAdmit(slot, request.id, qid, queue_.Now());
  }
  const qos::TenantId tenant =
      tenants_ ? tenants_->TenantOfQueue(qid) : qos::kNoTenant;

  // Clip into the exported logical space (wrapped traces), mirroring the
  // trace-replay harness.
  const std::uint64_t logical = ssd_.LogicalBytes();
  std::uint64_t offset = request.offset_bytes;
  std::uint64_t size = request.size_bytes;
  if (offset >= logical) offset %= logical;
  if (offset + size > logical) size = logical - offset;

  if (size == 0) {
    // Clipped away entirely: carries no flash work, completes instantly —
    // still via the event queue so callback ordering stays deterministic.
    s.completion_us = queue_.Now();
    queue_.ScheduleAt(queue_.Now(),
                      [this, slot](Us) { FinalizeRequest(slot); });
    return;
  }

  const std::uint32_t page = ssd_.config().geometry.page_size_bytes;
  const Lpn first = offset / page;
  const Lpn last = (offset + size - 1) / page;
  s.pages = static_cast<std::uint32_t>(last - first + 1);
  s.pages_left = s.pages;

  for (Lpn lpn = first; lpn <= last; ++lpn) {
    const std::uint64_t page_start = lpn * page;
    const std::uint64_t lo = std::max<std::uint64_t>(page_start, offset);
    const std::uint64_t hi =
        std::min<std::uint64_t>(page_start + page, offset + size);
    FlashTransaction txn;
    txn.request_id = request.id;
    txn.source = request.op == trace::OpType::kRead
                     ? sched::TxnSource::kHostRead
                     : sched::TxnSource::kHostWrite;
    txn.tenant = tenant;
    txn.host_slot = slot;
    txn.offset_bytes = lo;
    txn.size_bytes = hi - lo;
    txn.lpn = lpn;
    scheduler_.Enqueue(txn);  // the scheduler stamps the intake seq
  }
}

void HostInterface::OnTxnComplete(const FlashTransaction& txn,
                                  const ftl::RequestResult& result) {
  CTFLASH_CHECK(txn.host_slot < slots_.size());
  Slot& s = slots_[txn.host_slot];
  CTFLASH_CHECK(s.request.id == txn.request_id);
  stats_.transactions_completed++;
  if (result.completion_us > s.completion_us) {
    s.completion_us = result.completion_us;
  }
  CTFLASH_CHECK(s.pages_left > 0);
  if (--s.pages_left == 0) FinalizeRequest(txn.host_slot);
}

void HostInterface::FinalizeRequest(std::uint32_t slot) {
  CTFLASH_CHECK(slot < slots_.size());
  Slot& s = slots_[slot];
  HostCompletion completion;
  completion.request = s.request;
  completion.completion_us = s.completion_us;
  completion.pages = s.pages;
  const std::uint32_t qid = s.qid;
  // Free the slot before anything below can submit: the backlog admission
  // and the callback may take slots, this one included.
  const CompletionCallback cb = std::move(s.cb);
  free_slots_.push_back(slot);

  outstanding_--;
  queue_fill_[qid]--;
  stats_.completed++;
  if (tracer_ != nullptr) {
    tracer_->OnRequestComplete(slot, completion.request.id,
                               completion.completion_us);
  }
  const bool is_read = completion.request.op == trace::OpType::kRead;
  const Us latency_us = completion.LatencyUs();
  (is_read ? stats_.read_latency : stats_.write_latency).Add(latency_us);
  QueueStats& qstats = stats_.per_queue[qid];
  qstats.completed++;
  qstats.bytes_completed += completion.request.size_bytes;
  (is_read ? qstats.read_latency : qstats.write_latency).Add(latency_us);

  if (tenants_) {
    const qos::TenantId tenant = tenants_->TenantOfQueue(qid);
    auto& tstats = tenants_->StatsOf(tenant);
    tstats.completed++;
    tstats.bytes_completed += completion.request.size_bytes;
    (is_read ? tstats.read_latency : tstats.write_latency).Add(latency_us);
    if (completion.completion_us > tstats.last_completion_us) {
      tstats.last_completion_us = completion.completion_us;
    }
    // The freed queue slot belongs to this tenant's queue: its backlog
    // refills it.
    auto& backlog = tenant_backlogs_[tenant];
    if (!backlog.empty()) {
      const std::uint32_t next = backlog.front();
      backlog.pop_front();
      Admit(next, qid);
    }
  } else if (!backlog_.empty()) {
    const std::uint32_t next = backlog_.front();
    backlog_.pop_front();
    Admit(next, qid);
  }
  if (cb) cb(completion);
}

}  // namespace ctflash::host
