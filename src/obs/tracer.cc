#include "obs/tracer.h"

#include <algorithm>

namespace ctflash::obs {

Tracer::Tracer(const TracerConfig& config) : config_(config) {}

std::size_t Tracer::EpochOf(Us at_us) const {
  if (config_.metrics_epoch_us <= 0 || at_us <= config_.epoch_base_us) {
    return 0;
  }
  std::size_t idx = static_cast<std::size_t>(
      (at_us - config_.epoch_base_us) / config_.metrics_epoch_us);
  if (config_.max_epochs != 0 && idx >= config_.max_epochs) {
    idx = config_.max_epochs - 1;
  }
  return idx;
}

PhaseStats& Tracer::EpochRow(Us at_us) {
  const std::size_t idx = EpochOf(at_us);
  if (epoch_phases_.size() <= idx) epoch_phases_.resize(idx + 1);
  return epoch_phases_[idx];
}

EpochCounters& Tracer::EpochRowCounters(Us at_us) {
  const std::size_t idx = EpochOf(at_us);
  if (epoch_counters_.size() <= idx) epoch_counters_.resize(idx + 1);
  return epoch_counters_[idx];
}

void Tracer::RecordSpan(const TraceSpan& span) {
  if (spans_.size() >= config_.max_spans) {
    ++dropped_spans_;
    return;
  }
  spans_.push_back(span);
}

std::size_t Tracer::PendingRequests() const {
  return static_cast<std::size_t>(
      std::count_if(pending_.begin(), pending_.end(),
                    [](const PendingRequest& r) { return r.active; }));
}

Tracer::PendingRequest* Tracer::Find(std::uint32_t slot,
                                     std::uint64_t request_id) {
  if (slot >= pending_.size()) return nullptr;
  PendingRequest& req = pending_[slot];
  return req.active && req.request_id == request_id ? &req : nullptr;
}

void Tracer::OnSubmit(std::uint32_t slot, std::uint64_t request_id,
                      bool is_read, std::uint32_t tenant, Us submit_us) {
  if (slot >= pending_.size()) pending_.resize(slot + 1);
  PendingRequest& req = pending_[slot];
  req = PendingRequest{};
  req.active = true;
  req.request_id = request_id;
  req.submit_us = submit_us;
  req.is_read = is_read;
  req.tenant = tenant;
}

void Tracer::OnThrottled(std::uint32_t slot, std::uint64_t request_id) {
  PendingRequest* req = Find(slot, request_id);
  if (req != nullptr) req->pace_cause = StallCause::kTokenBucket;
}

void Tracer::OnBacklogged(std::uint32_t slot, std::uint64_t request_id) {
  PendingRequest* req = Find(slot, request_id);
  // Token-bucket pacing wins the attribution when both occurred: it acted
  // first and is the configured policy, not a capacity accident.
  if (req != nullptr && req->pace_cause == StallCause::kNone) {
    req->pace_cause = StallCause::kBackpressure;
  }
}

void Tracer::OnAdmit(std::uint32_t slot, std::uint64_t request_id,
                     std::uint32_t queue, Us admit_us) {
  PendingRequest* req = Find(slot, request_id);
  if (req == nullptr) return;
  req->admit_us = admit_us;
  req->queue = queue;
}

void Tracer::OnDispatch(const sched::FlashTransaction& txn,
                        const sched::DispatchContext& context) {
  InflightTxn rec;
  rec.active = true;
  rec.seq = txn.seq;
  rec.die = context.die;
  rec.die_stall_us = context.die_free_at > context.dispatch_us
                         ? context.die_free_at - context.dispatch_us
                         : 0;
  if (rec.die_stall_us > 0) {
    // Who holds the resource this transaction will wait for?  With a
    // resolvable die, in-flight GC on it decides GC-vs-host attribution;
    // writes stall on the shared write frontier (other host/GC programs).
    const bool gc_busy = context.die < gc_on_die_.size() &&
                         gc_on_die_[context.die] > 0;
    rec.media_cause =
        gc_busy ? StallCause::kDieBusyGc : StallCause::kDieBusyHost;
  }
  if (context.write_held) rec.queue_cause = StallCause::kWriteHold;
  if (sched::IsGc(txn.source) && context.die != sched::kNoDie) {
    if (context.die >= gc_on_die_.size()) gc_on_die_.resize(context.die + 1);
    ++gc_on_die_[context.die];
  }
  if (context.slot >= inflight_.size()) inflight_.resize(context.slot + 1);
  inflight_[context.slot] = rec;
}

void Tracer::OnTxnExecuted(const sched::FlashTransaction& txn,
                           std::uint32_t slot, Us dispatch_us,
                           Us completion_us) {
  InflightTxn rec;
  if (slot < inflight_.size() && inflight_[slot].active &&
      inflight_[slot].seq == txn.seq) {
    rec = inflight_[slot];
    inflight_[slot].active = false;
  }
  if (sched::IsGc(txn.source)) {
    if (rec.die < gc_on_die_.size() && gc_on_die_[rec.die] > 0) {
      --gc_on_die_[rec.die];
    }
    EpochCounters& ec = EpochRowCounters(completion_us);
    if (txn.source == sched::TxnSource::kGcCopy) {
      ++ec.gc_copies;
    } else {
      ++ec.gc_erases;
    }
    if (config_.record_spans) {
      TraceSpan span;
      span.start_us = dispatch_us;
      span.dur_us = completion_us - dispatch_us;
      span.track = TraceSpan::TrackKind::kDie;
      span.track_id = rec.die == sched::kNoDie ? 0 : rec.die;
      span.name = txn.source == sched::TxnSource::kGcCopy ? "gc-copy"
                                                          : "gc-erase";
      span.request_id = txn.request_id;
      span.cause = rec.media_cause;
      span.stall_us = rec.die_stall_us;
      RecordSpan(span);
    }
    return;
  }

  PendingRequest* req = Find(txn.host_slot, txn.request_id);
  // The request's phase decomposition follows its CRITICAL transaction: the
  // one that completes last (its completion IS the request's).
  if (req != nullptr && completion_us > req->crit_completion_us) {
    req->crit_completion_us = completion_us;
    req->crit_dispatch_us = dispatch_us;
    req->crit_queue_cause = rec.queue_cause;
    req->crit_media_cause = rec.media_cause;
    req->crit_media_stall_us = rec.die_stall_us;
  }
  if (config_.record_spans) {
    TraceSpan span;
    span.start_us = dispatch_us;
    span.dur_us = completion_us - dispatch_us;
    span.track = TraceSpan::TrackKind::kDie;
    span.track_id = rec.die == sched::kNoDie ? 0 : rec.die;
    span.name =
        txn.source == sched::TxnSource::kHostRead ? "read" : "write";
    span.request_id = txn.request_id;
    span.cause = rec.media_cause;
    span.stall_us = rec.die_stall_us;
    span.detail = txn.lpn;
    RecordSpan(span);
  }
}

void Tracer::OnRequestComplete(std::uint32_t slot, std::uint64_t request_id,
                               Us completion_us) {
  PendingRequest* found = Find(slot, request_id);
  if (found == nullptr) return;
  const PendingRequest req = *found;
  found->active = false;

  const Us admit = req.admit_us >= 0 ? req.admit_us : req.submit_us;
  // Requests with no flash work (fully clipped) have no critical
  // transaction: they complete at admission, queued == media == 0.
  Us dispatch = req.crit_completion_us >= 0 ? req.crit_dispatch_us : admit;
  if (dispatch < admit) dispatch = admit;
  if (dispatch > completion_us) dispatch = completion_us;
  const Us paced = admit - req.submit_us;
  const Us queued = dispatch - admit;
  const Us media = completion_us - dispatch;
  const Us media_stall = std::min(req.crit_media_stall_us, media);

  const auto book = [&](PhaseStats& stats) {
    PhaseBreakdown& b = req.is_read ? stats.read : stats.write;
    b.Add(paced, queued, media);
    b.Attribute(req.pace_cause, paced);
    b.Attribute(req.crit_queue_cause, queued);
    b.Attribute(req.crit_media_cause, media_stall);
  };
  book(phases_);
  if (config_.metrics_epoch_us > 0) book(EpochRow(completion_us));
  EpochCounters& ec = EpochRowCounters(completion_us);
  if (req.is_read) {
    ++ec.reads_completed;
  } else {
    ++ec.writes_completed;
  }

  if (config_.record_requests && requests_.size() < config_.max_spans) {
    PhaseRecord rec;
    rec.request_id = request_id;
    rec.is_read = req.is_read;
    rec.tenant = req.tenant;
    rec.submit_us = req.submit_us;
    rec.admit_us = admit;
    rec.dispatch_us = dispatch;
    rec.completion_us = completion_us;
    rec.pace_cause = req.pace_cause;
    rec.queue_cause = req.crit_queue_cause;
    rec.media_cause = req.crit_media_cause;
    rec.media_stall_us = media_stall;
    requests_.push_back(rec);
  }

  if (!config_.record_spans) return;
  // Queue track: the request's lifetime as phase segments, so a timeline
  // shows at a glance where each request's time went.
  const std::uint32_t qid = req.queue == ~0u ? 0 : req.queue;
  const char* op = req.is_read ? "read" : "write";
  if (paced > 0) {
    TraceSpan span;
    span.start_us = req.submit_us;
    span.dur_us = paced;
    span.track = TraceSpan::TrackKind::kQueue;
    span.track_id = qid;
    span.name = "paced";
    span.request_id = request_id;
    span.cause = req.pace_cause;
    span.stall_us = paced;
    RecordSpan(span);
  }
  if (queued > 0) {
    TraceSpan span;
    span.start_us = admit;
    span.dur_us = queued;
    span.track = TraceSpan::TrackKind::kQueue;
    span.track_id = qid;
    span.name = "queued";
    span.request_id = request_id;
    span.cause = req.crit_queue_cause;
    RecordSpan(span);
  }
  if (media > 0) {
    TraceSpan span;
    span.start_us = dispatch;
    span.dur_us = media;
    span.track = TraceSpan::TrackKind::kQueue;
    span.track_id = qid;
    span.name = op;
    span.request_id = request_id;
    span.cause = req.crit_media_cause;
    span.stall_us = media_stall;
    RecordSpan(span);
  }
  if (req.tenant != ~0u && completion_us > req.submit_us) {
    TraceSpan span;
    span.start_us = req.submit_us;
    span.dur_us = completion_us - req.submit_us;
    span.track = TraceSpan::TrackKind::kTenant;
    span.track_id = req.tenant;
    span.name = op;
    span.request_id = request_id;
    RecordSpan(span);
  }
}

void Tracer::ChargeDeadDevice(std::uint64_t reads, std::uint64_t writes,
                              Us charged_us, Us at_us) {
  const auto book = [&](bool is_read, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      phases_.AddTimeout(is_read, charged_us);
      if (config_.metrics_epoch_us > 0) {
        EpochRow(at_us).AddTimeout(is_read, charged_us);
      }
    }
  };
  book(true, reads);
  book(false, writes);
  EpochRowCounters(at_us).timeouts += reads + writes;
  pending_.clear();
  inflight_.clear();
  gc_on_die_.clear();
}

void Tracer::OnReadRetry(std::uint32_t die, Us start_us, Us dur_us,
                         std::uint32_t rungs, bool recovered) {
  EpochRowCounters(start_us + dur_us).retry_rungs += rungs;
  if (!config_.record_spans) return;
  TraceSpan span;
  span.start_us = start_us;
  span.dur_us = dur_us;
  span.track = TraceSpan::TrackKind::kDie;
  span.track_id = die;
  span.name = recovered ? "read-retry" : "read-retry-failed";
  span.detail = rungs;
  RecordSpan(span);
}

void Tracer::OnUnreachable(std::uint32_t die, Us now_us) {
  if (!config_.record_spans) return;
  TraceSpan span;
  span.start_us = now_us;
  span.dur_us = 0;
  span.track = TraceSpan::TrackKind::kDie;
  span.track_id = die;
  span.name = "die-lost";
  span.cause = StallCause::kDeadDevice;
  RecordSpan(span);
}

void Tracer::Reset() {
  phases_ = PhaseStats{};
  epoch_phases_.clear();
  epoch_counters_.clear();
  spans_.clear();
  requests_.clear();
  dropped_spans_ = 0;
  pending_.clear();
  inflight_.clear();
  gc_on_die_.clear();
}

}  // namespace ctflash::obs
