#include "host/load_generator.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace ctflash::host {

UtilizationProbe::UtilizationProbe(const ftl::FlashTarget& target)
    : target_(target),
      die_busy_0_(target.dies().TotalBusyTime()),
      channel_busy_0_(target.channels().TotalBusyTime()) {}

void UtilizationProbe::Finish(LoadStats& stats) const {
  const Us makespan = stats.MakespanUs();
  if (makespan <= 0) return;
  const auto share = [makespan](Us busy, std::size_t members) {
    return static_cast<double>(busy) /
           (static_cast<double>(makespan) * static_cast<double>(members));
  };
  stats.die_utilization =
      share(target_.dies().TotalBusyTime() - die_busy_0_,
            target_.dies().Count());
  stats.channel_utilization =
      share(target_.channels().TotalBusyTime() - channel_busy_0_,
            target_.channels().Count());
}

void TenantWorkload::Validate() const {
  if (total_requests == 0) {
    throw std::invalid_argument("TenantWorkload: total_requests must be > 0");
  }
  if (request_bytes == 0) {
    throw std::invalid_argument("TenantWorkload: request_bytes must be > 0");
  }
  if (read_fraction < 0.0 || read_fraction > 1.0) {
    throw std::invalid_argument(
        "TenantWorkload: read_fraction must be in [0, 1]");
  }
  if (interarrival_us == 0 && queue_depth == 0) {
    throw std::invalid_argument(
        "TenantWorkload: closed loop needs queue_depth > 0");
  }
}

LoadGenerator::LoadGenerator(HostInterface& host,
                             std::vector<TenantWorkload> workloads)
    : host_(host) {
  if (workloads.empty()) {
    throw std::invalid_argument("LoadGenerator: no workloads");
  }
  const std::size_t tenants =
      host_.tenants() != nullptr ? host_.tenants()->TenantCount() : 1;
  const std::uint64_t logical = host_.ssd().LogicalBytes();
  for (auto& workload : workloads) {
    workload.Validate();
    if (workload.tenant >= tenants) {
      throw std::out_of_range("LoadGenerator: unknown tenant " +
                              std::to_string(workload.tenant));
    }
    if (workload.footprint_base_bytes >= logical) {
      throw std::invalid_argument(
          "LoadGenerator: working set starts beyond the device");
    }
    const std::uint64_t cap = logical - workload.footprint_base_bytes;
    if (workload.footprint_bytes == 0 || workload.footprint_bytes > cap) {
      workload.footprint_bytes = cap;
    }
    if (workload.footprint_bytes < workload.request_bytes) {
      throw std::invalid_argument(
          "LoadGenerator: working set smaller than one request");
    }
    runs_.push_back(StreamRun{workload,
                              util::Xoshiro256StarStar(workload.seed),
                              0,
                              0,
                              0,
                              {},
                              {}});
  }
}

trace::TraceRecord LoadGenerator::NextRecord(StreamRun& run, Us at) {
  const TenantWorkload& w = run.workload;
  run.issued++;
  const trace::OpType op = run.rng.Bernoulli(w.read_fraction)
                               ? trace::OpType::kRead
                               : trace::OpType::kWrite;
  const std::uint64_t slots = w.footprint_bytes / w.request_bytes;
  const std::uint64_t offset =
      w.footprint_base_bytes + run.rng.UniformBelow(slots) * w.request_bytes;
  issued_.push_back({at, op, offset, w.request_bytes});
  return issued_.back();
}

void LoadGenerator::OnComplete(std::size_t idx,
                               const HostCompletion& completion) {
  StreamRun& run = runs_[idx];
  run.completed++;
  if (completion.completion_us > run.last_completion_us) {
    run.last_completion_us = completion.completion_us;
  }
  const Us latency = completion.LatencyUs();
  if (completion.request.op == trace::OpType::kRead) {
    run.read_latency.Add(latency);
  } else {
    run.write_latency.Add(latency);
  }
  if (run.workload.interarrival_us == 0) SubmitNext(idx);
}

void LoadGenerator::Submit(std::size_t idx, const trace::TraceRecord& r) {
  auto cb = [this, idx](const HostCompletion& c) { OnComplete(idx, c); };
  if (host_.tenants() != nullptr) {
    host_.SubmitAs(runs_[idx].workload.tenant, r.op, r.offset_bytes,
                   r.size_bytes, std::move(cb));
  } else {
    host_.Submit(r.op, r.offset_bytes, r.size_bytes, std::move(cb));
  }
}

void LoadGenerator::SubmitNext(std::size_t idx) {
  StreamRun& run = runs_[idx];
  if (run.issued >= run.workload.total_requests) return;
  Submit(idx, NextRecord(run, host_.queue().Now()));
}

LoadResult LoadGenerator::Run() {
  if (host_.Outstanding() != 0) {
    throw std::logic_error("LoadGenerator: host interface not idle");
  }
  host_.ResetStats();
  issued_.clear();
  LoadResult result;
  result.total.start_us = host_.queue().Now();
  const Us start = result.total.start_us;
  UtilizationProbe probe(host_.ssd().target());

  for (std::size_t idx = 0; idx < runs_.size(); ++idx) {
    StreamRun& run = runs_[idx];
    run.issued = 0;
    run.completed = 0;
    run.last_completion_us = start;
    run.read_latency.Reset();
    run.write_latency.Reset();
    const TenantWorkload& w = run.workload;
    if (w.interarrival_us == 0) {
      const std::uint64_t initial =
          std::min<std::uint64_t>(w.queue_depth, w.total_requests);
      for (std::uint64_t i = 0; i < initial; ++i) SubmitNext(idx);
      continue;
    }
    // Paced open loop: every arrival is scheduled up front at its fixed
    // cadence; the record stream is drawn here, in arrival order, so the
    // run stays deterministic.
    for (std::uint64_t i = 0; i < w.total_requests; ++i) {
      const trace::TraceRecord r =
          NextRecord(run, start + static_cast<Us>(i) * w.interarrival_us);
      host_.queue().ScheduleAt(r.timestamp_us,
                               [this, idx, r](Us) { Submit(idx, r); });
    }
  }
  host_.Run();

  result.total.end_us = host_.queue().Now();
  result.total.requests = host_.stats().completed;
  result.total.read_latency = host_.stats().read_latency;
  result.total.write_latency = host_.stats().write_latency;
  probe.Finish(result.total);

  result.streams.reserve(runs_.size());
  for (const StreamRun& run : runs_) {
    TenantLoadStats out;
    out.tenant = run.workload.tenant;
    out.load.requests = run.completed;
    out.load.start_us = start;
    out.load.end_us = run.last_completion_us;
    out.load.read_latency = run.read_latency;
    out.load.write_latency = run.write_latency;
    result.streams.push_back(std::move(out));
  }
  return result;
}

}  // namespace ctflash::host
