#include "ssd/experiment.h"

#include <algorithm>
#include <stdexcept>

#include "host/host_interface.h"
#include "host/load_generator.h"

namespace ctflash::ssd {

double Enhancement(double base_total, double ours_total) {
  if (base_total <= 0.0) return 0.0;
  return (base_total - ours_total) / base_total;
}

ExperimentRunner::ExperimentRunner(Ssd& ssd) : ssd_(ssd) {}

Us ExperimentRunner::Prefill(std::uint64_t bytes, std::uint64_t chunk_bytes) {
  if (chunk_bytes == 0) {
    throw std::invalid_argument("Prefill: chunk_bytes must be > 0");
  }
  const std::uint64_t limit = std::min(bytes, ssd_.LogicalBytes());
  const Us start = clock_us_;
  std::uint64_t offset = 0;
  while (offset < limit) {
    const std::uint64_t len = std::min(chunk_bytes, limit - offset);
    const auto r = ssd_.Write(offset, len, clock_us_);
    clock_us_ = r.completion_us;
    offset += len;
  }
  ssd_.ftl().ResetStats();
  ssd_.target().nand().ResetCounters();
  if (ssd_.ppb() != nullptr) ssd_.ppb()->ResetPpbStats();
  return clock_us_ - start;
}

ExperimentResult ExperimentRunner::Replay(
    const std::vector<trace::TraceRecord>& records,
    const std::string& workload_name) {
  ExperimentResult result;
  const Us base = clock_us_;
  const std::uint64_t logical = ssd_.LogicalBytes();
  for (const auto& rec : records) {
    // Clip to the exported logical space.
    std::uint64_t offset = rec.offset_bytes;
    std::uint64_t size = rec.size_bytes;
    if (offset >= logical) offset %= logical;
    if (offset + size > logical) size = logical - offset;
    if (size == 0) continue;

    const Us arrival = std::max(base + rec.timestamp_us, clock_us_);
    if (rec.op == trace::OpType::kRead) {
      const auto r = ssd_.Read(offset, size, arrival);
      result.read_latency.Add(r.LatencyUs());
      clock_us_ = std::max(clock_us_, r.completion_us);
    } else {
      const auto r = ssd_.Write(offset, size, arrival);
      result.write_latency.Add(r.LatencyUs());
      clock_us_ = std::max(clock_us_, r.completion_us);
    }
  }

  result.ftl_name = ssd_.FtlName();
  result.workload_name = workload_name;
  const auto& stats = ssd_.ftl().stats();
  result.erase_count = stats.gc_erases;
  result.gc_page_copies = stats.gc_page_copies;
  result.host_read_pages = stats.host_read_pages;
  result.host_write_pages = stats.host_write_pages;
  result.waf = stats.Waf();
  result.sim_end_us = clock_us_;
  return result;
}

ExperimentResult RunExperiment(const SsdConfig& config,
                               const std::vector<trace::TraceRecord>& records,
                               std::uint64_t footprint_bytes,
                               const std::string& workload_name) {
  Ssd ssd(config);
  ExperimentRunner runner(ssd);
  runner.Prefill(footprint_bytes);
  return runner.Replay(records, workload_name);
}

std::vector<QdSweepPoint> RunQdSweep(const SsdConfig& config,
                                     const QdSweepOptions& options) {
  if (options.prefill_pct > 100) {
    throw std::invalid_argument("RunQdSweep: prefill_pct must be <= 100");
  }
  std::vector<QdSweepPoint> points;
  for (const std::uint32_t qd : options.queue_depths) {
    SsdConfig cfg = config;
    cfg.timing_mode = ftl::TimingMode::kQueued;
    Ssd ssd(cfg);
    ExperimentRunner runner(ssd);
    const Us prefill_end =
        runner.Prefill(ssd.LogicalBytes() / 100 * options.prefill_pct);

    host::HostConfig host_cfg;
    host_cfg.device_slots = options.device_slots;
    host_cfg.queue_capacity =
        std::max<std::uint32_t>(host_cfg.queue_capacity, qd);
    host::HostInterface host(ssd, host_cfg);
    host.AdvanceTo(prefill_end);  // flash timelines are booked to here

    host::TenantWorkload stream;
    stream.queue_depth = qd;
    stream.total_requests = options.requests_per_point;
    stream.read_fraction = options.read_fraction;
    stream.request_bytes = options.request_bytes;
    stream.footprint_bytes = ssd.LogicalBytes() / 100 * options.prefill_pct;
    stream.seed = options.seed;
    const host::LoadStats load =
        host::LoadGenerator(host, {stream}).Run().total;

    QdSweepPoint point;
    point.queue_depth = qd;
    point.requests = load.requests;
    point.iops = load.Iops();
    const util::LatencyStats all = load.AllLatency();
    point.mean_us = all.mean_us();
    point.p50_us = all.p50_us();
    point.p95_us = all.p95_us();
    point.p99_us = all.p99_us();
    point.p999_us = all.p999_us();
    point.die_utilization = load.die_utilization;
    point.channel_utilization = load.channel_utilization;
    point.makespan_us = load.MakespanUs();
    points.push_back(point);
  }
  return points;
}

}  // namespace ctflash::ssd
