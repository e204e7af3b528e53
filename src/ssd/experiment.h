// Trace-replay experiment harness.
//
// Replays a block trace against an Ssd and aggregates the metrics the
// paper's figures report: cumulative/mean read latency, cumulative/mean
// write latency, and erased-block count.  Replay is closed-loop (a request
// is issued at max(its trace timestamp, previous completion)), which keeps
// per-request latency device-bound and deterministic.  Open-loop replay
// for queueing studies runs through the host interface instead
// (replay::ReplayEngine).
//
// The standard protocol, matching trace-driven FTL evaluation practice, is:
//   1. Prefill: sequentially write the trace's footprint so every read hits
//      mapped data and GC pressure is realistic;
//   2. reset all counters;
//   3. replay the trace and report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ssd/ssd.h"
#include "trace/trace.h"
#include "util/stats.h"
#include "util/types.h"

namespace ctflash::ssd {

struct ExperimentResult {
  std::string ftl_name;
  std::string workload_name;
  util::LatencyStats read_latency;
  util::LatencyStats write_latency;
  std::uint64_t erase_count = 0;
  std::uint64_t gc_page_copies = 0;
  std::uint64_t host_read_pages = 0;
  std::uint64_t host_write_pages = 0;
  double waf = 1.0;
  Us sim_end_us = 0;

  double TotalReadSeconds() const { return read_latency.total_seconds(); }
  double TotalWriteSeconds() const { return write_latency.total_seconds(); }
};

/// Relative enhancement of `ours` over `base` on a total-latency metric:
/// (base - ours) / base, i.e. +0.10 means 10 % faster.
double Enhancement(double base_total, double ours_total);

class ExperimentRunner {
 public:
  explicit ExperimentRunner(Ssd& ssd);

  /// Sequentially writes `bytes` (clipped to logical capacity) in
  /// `chunk_bytes` requests, then resets all statistics.  Returns the
  /// simulated time consumed by the prefill.
  Us Prefill(std::uint64_t bytes, std::uint64_t chunk_bytes = 256 * kKiB);

  /// Replays the trace.  Requests beyond the logical capacity are clipped
  /// (wrapped traces) — zero-length results are skipped.
  ExperimentResult Replay(const std::vector<trace::TraceRecord>& records,
                          const std::string& workload_name);

 private:
  Ssd& ssd_;
  Us clock_us_ = 0;  ///< completion time of the latest request
};

/// Convenience one-shot: build an Ssd from `config`, prefill `footprint`,
/// replay `records`, return the result.
ExperimentResult RunExperiment(const SsdConfig& config,
                               const std::vector<trace::TraceRecord>& records,
                               std::uint64_t footprint_bytes,
                               const std::string& workload_name);

// --- queue-depth sweeps (closed-loop, via the host interface) -------------

/// Knobs for RunQdSweep.  Each sweep point rebuilds and prefills a fresh
/// device so points are independent and bit-for-bit deterministic.
struct QdSweepOptions {
  std::vector<std::uint32_t> queue_depths = {1, 2, 4, 8, 16, 32};
  std::uint64_t requests_per_point = 20'000;
  double read_fraction = 1.0;  ///< writes funnel through one active block
  std::uint64_t request_bytes = 16 * kKiB;
  /// Prefill share of the logical space (percent) so reads hit mapped data.
  std::uint32_t prefill_pct = 80;
  std::uint64_t seed = 1;
  /// Max in-flight page transactions on the device (the device's internal
  /// command queue; the knob that caps parallelism extraction).
  std::uint32_t device_slots = 64;
};

/// One measured point of the sweep.
struct QdSweepPoint {
  std::uint32_t queue_depth = 0;
  std::uint64_t requests = 0;
  double iops = 0.0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double die_utilization = 0.0;
  double channel_utilization = 0.0;
  Us makespan_us = 0;
};

/// Closed-loop QD sweep: prefill, then `requests_per_point` random
/// request-aligned I/Os at each queue depth.  Forces TimingMode::kQueued —
/// with pure service-time accounting queue depth cannot matter.
std::vector<QdSweepPoint> RunQdSweep(const SsdConfig& config,
                                     const QdSweepOptions& options);

}  // namespace ctflash::ssd
