#include "replay/replay_engine.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ctflash::replay {

void ReplayEngineConfig::Validate() const {
  if (window_us < 0) {
    throw std::invalid_argument("ReplayEngineConfig: window_us must be >= 0");
  }
}

ReplayEngine::ReplayEngine(host::HostInterface& host,
                           const ReplayEngineConfig& config)
    : host_(host), config_(config) {
  config_.Validate();
}

ReplayResult ReplayEngine::Run(ReplayPlan& plan) {
  plan.Reset();
  ReplayResult result = RunPuller([&plan]() { return plan.Next(); });
  for (std::uint32_t i = 0; i < plan.SourceCount(); ++i) {
    result.sources.push_back(plan.CountersOf(i));
  }
  return result;
}

ReplayResult ReplayEngine::Run(TraceSource& source) {
  source.Reset();
  return RunPuller([&source]() -> std::optional<TaggedRecord> {
    auto record = source.Next();
    if (!record) return std::nullopt;
    return TaggedRecord{*record, qos::kNoTenant, 0};
  });
}

ReplayResult ReplayEngine::RunPuller(const Puller& pull) {
  if (host_.Outstanding() != 0) {
    throw std::logic_error("ReplayEngine: host interface not idle");
  }
  host_.ResetStats();
  sim::EventQueue& queue = host_.queue();

  pull_ = pull;
  result_ = ReplayResult{};
  result_.start_us = queue.Now();
  result_.end_us = result_.start_us;
  window_read_.Reset();
  window_write_.Reset();
  window_arrivals_ = 0;
  window_completions_ = 0;
  window_start_ = result_.start_us;

  staged_ = pull_();
  if (staged_) {
    result_.pulled++;
    const Us at = std::max(result_.start_us + staged_->record.timestamp_us,
                           queue.Now());
    queue.ScheduleAt(at, [this](Us now) { OnArrival(now); });
    host_.Run();
  }

  result_.end_us = queue.Now();
  if (config_.window_us > 0 &&
      (window_arrivals_ > 0 || window_completions_ > 0)) {
    FlushWindow(std::max(result_.end_us, window_start_ + 1));
  }

  if (host_.tenants() != nullptr) {
    const qos::TenantTable& table = *host_.tenants();
    for (qos::TenantId t = 0; t < table.TenantCount(); ++t) {
      const auto& stats = table.StatsOf(t);
      TenantReplayResult tenant;
      tenant.tenant = t;
      tenant.name = table.ConfigOf(t).name;
      tenant.submitted = stats.submitted;
      tenant.completed = stats.completed;
      tenant.throttled = stats.throttled;
      tenant.read_latency = stats.read_latency;
      tenant.write_latency = stats.write_latency;
      tenant.first_submit_us = std::max<Us>(stats.first_submit_us, 0);
      tenant.last_completion_us = stats.last_completion_us;
      result_.tenants.push_back(tenant);
    }
  }
  pull_ = nullptr;
  staged_.reset();
  return result_;
}

void ReplayEngine::OnArrival(Us now) {
  WindowAdvance(now);
  window_arrivals_++;
  const TaggedRecord record = *staged_;

  // Pull and chain the next arrival BEFORE submitting, so the arrival's
  // event is queued ahead of any event the submission schedules at the
  // same time.
  staged_ = pull_();
  if (staged_) {
    result_.pulled++;
    const Us at =
        std::max(result_.start_us + staged_->record.timestamp_us, now);
    host_.queue().ScheduleAt(at, [this](Us t) { OnArrival(t); });
  }

  Submit(record);
}

void ReplayEngine::Submit(const TaggedRecord& record) {
  const trace::TraceRecord& r = record.record;
  result_.submitted++;
  auto cb = [this, record](const host::HostCompletion& c) {
    OnComplete(record, c.LatencyUs(), c.completion_us);
  };
  if (host_.tenants() != nullptr && record.tenant != qos::kNoTenant) {
    host_.SubmitAs(record.tenant, r.op, r.offset_bytes, r.size_bytes,
                   std::move(cb));
  } else {
    host_.Submit(r.op, r.offset_bytes, r.size_bytes, std::move(cb));
  }
}

void ReplayEngine::OnComplete(const TaggedRecord& record, Us latency_us,
                              Us completion_us) {
  // Completions fire as events at completion_us, so the window cursor
  // advances with them.
  WindowAdvance(completion_us);
  result_.completed++;
  window_completions_++;
  if (record.record.op == trace::OpType::kRead) {
    result_.read_latency.Add(latency_us);
    window_read_.Add(latency_us);
  } else {
    result_.write_latency.Add(latency_us);
    window_write_.Add(latency_us);
  }
}

void ReplayEngine::WindowAdvance(Us now) {
  if (config_.window_us <= 0) return;
  while (now >= window_start_ + config_.window_us) {
    if (window_arrivals_ == 0 && window_completions_ == 0) {
      // Idle gap: jump straight to the window containing `now` instead of
      // materializing one empty ReplayWindow per interval — telemetry
      // memory stays bounded by ACTIVE intervals, not by the makespan
      // (a week-long sparse trace must not allocate millions of rows).
      const Us span = now - window_start_;
      window_start_ += span / config_.window_us * config_.window_us;
      break;
    }
    FlushWindow(window_start_ + config_.window_us);
  }
}

void ReplayEngine::FlushWindow(Us close_time) {
  ReplayWindow window;
  window.start_us = window_start_;
  window.end_us = close_time;
  window.arrivals = window_arrivals_;
  window.completions = window_completions_;
  const Us span = close_time - window_start_;
  window.iops = span <= 0 ? 0.0
                          : static_cast<double>(window_completions_) * 1e6 /
                                static_cast<double>(span);
  window.read_p50_us = window_read_.p50_us();
  window.read_p99_us = window_read_.p99_us();
  window.write_p50_us = window_write_.p50_us();
  window.write_p99_us = window_write_.p99_us();
  window.outstanding_end = host_.Outstanding();
  result_.windows.push_back(window);

  window_start_ = close_time;
  window_arrivals_ = 0;
  window_completions_ = 0;
  window_read_.Reset();
  window_write_.Reset();
}

}  // namespace ctflash::replay
