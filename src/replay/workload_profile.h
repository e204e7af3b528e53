// WorkloadProfile: one-pass streaming characterization of a block trace.
//
// Answers "what is this trace?" with the first-order properties the paper's
// analysis (Section 3) ties PPB's benefit to — read/write mix, request-size
// distributions, sequentiality, region-popularity skew — plus
// working-set-over-time, and can FIT a trace::SyntheticWorkloadConfig to
// the measurements, closing the loop between real MSR traces and the
// shipped synthetic stand-ins: profile the real trace once, then generate
// arbitrarily long synthetic traffic with matching shape.
//
// The profiler is strictly streaming: O(regions + distinct sizes) state,
// never O(records), so it runs ahead of a multi-GB replay as a cheap first
// pass (TraceSources are Reset()-able for exactly this).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "replay/trace_source.h"
#include "trace/synthetic.h"
#include "trace/trace.h"
#include "util/stats.h"
#include "util/types.h"

namespace ctflash::replay {

struct WorkloadProfileConfig {
  /// Popularity granularity (matches SyntheticWorkloadConfig::region_bytes).
  std::uint64_t region_bytes = kMiB;
  /// Working-set-over-time sampling interval.
  Us window_us = 1'000'000;
  /// Distinct request sizes tracked exactly for distribution fitting;
  /// overflow still lands in the log histograms.
  std::size_t max_distinct_sizes = 1024;

  void Validate() const;
};

struct WorkloadProfile {
  WorkloadProfileConfig config;

  // Mix and volume.
  std::uint64_t requests = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t max_offset_bytes = 0;  ///< highest offset+size (footprint)
  /// OR of every record's offset and size; its lowest set bit is the
  /// largest power of two dividing all of them (FitSynthetic's alignment).
  std::uint64_t alignment_or = 0;
  Us duration_us = 0;                  ///< last arrival timestamp
  double ReadFraction() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(reads) /
                               static_cast<double>(requests);
  }
  double NativeIops() const {
    return duration_us <= 0 ? 0.0
                            : static_cast<double>(requests) * 1e6 /
                                  static_cast<double>(duration_us);
  }

  // Request sizes: exact counts for the most common sizes (capped at
  // config.max_distinct_sizes).
  std::unordered_map<std::uint64_t, std::uint64_t> read_size_counts;
  std::unordered_map<std::uint64_t, std::uint64_t> write_size_counts;

  // Sequentiality: a read/write is sequential when it starts exactly where
  // the previous request of the same op class ended.
  std::uint64_t sequential_reads = 0;
  std::uint64_t sequential_writes = 0;
  /// Lengths (in requests) of maximal sequential read runs.
  util::RunningMoments read_run_length;
  double SequentialReadFraction() const {
    return reads == 0 ? 0.0
                      : static_cast<double>(sequential_reads) /
                            static_cast<double>(reads);
  }

  // Region popularity (touch counts per region_bytes-sized region).
  std::unordered_map<std::uint64_t, std::uint64_t> read_region_touches;
  std::unordered_map<std::uint64_t, std::uint64_t> write_region_touches;
  /// Fitted Zipf skew of the region-popularity distributions (log-log
  /// rank/frequency regression; 0 = uniform).
  double read_zipf_theta = 0.0;
  double write_zipf_theta = 0.0;
  /// Share of touches landing in the most popular 1 % / 10 % of touched
  /// regions (reads + writes combined).
  double top1pct_share = 0.0;
  double top10pct_share = 0.0;
  /// Overlap of the read-hot and write-hot top-decile region sets, in
  /// [0, 1]: 1 = the most-written regions are the most-read ones.
  double rw_popularity_overlap = 0.0;

  // Working set over time: distinct regions touched per window_us, plus
  // the overall distinct count.
  std::vector<std::uint64_t> working_set_regions;
  std::uint64_t distinct_regions = 0;

  /// Fits a synthetic generator config with matching first-order shape
  /// (mix, sizes, skew, sequentiality, arrival rate, footprint).
  trace::SyntheticWorkloadConfig FitSynthetic(
      const std::string& name, std::uint64_t num_requests = 0) const;
};

class WorkloadProfiler {
 public:
  explicit WorkloadProfiler(const WorkloadProfileConfig& config = {});

  void Add(const trace::TraceRecord& record);

  /// Closes runs/windows and computes the derived metrics.  The profiler
  /// may keep accepting Add()s afterwards (Finish is idempotent-ish but
  /// cheap enough to call once at the end).
  WorkloadProfile Finish() const;

 private:
  WorkloadProfileConfig config_;
  WorkloadProfile profile_;
  // Run tracking.
  std::uint64_t prev_read_end_ = 0;
  std::uint64_t prev_write_end_ = 0;
  bool have_read_ = false;
  bool have_write_ = false;
  std::uint64_t current_read_run_ = 0;
  mutable util::RunningMoments run_length_;  // folded at Finish
  // Working set tracking.
  std::unordered_set<std::uint64_t> window_regions_;
  std::unordered_set<std::uint64_t> all_regions_;
  std::size_t window_index_ = 0;
};

/// One-shot: Reset `source`, stream it through a profiler, return the
/// profile (the source is left exhausted; Reset it before replaying).
WorkloadProfile Characterize(TraceSource& source,
                             const WorkloadProfileConfig& config = {});

/// Human-readable multi-line summary (benches and examples print this).
std::string ProfileSummary(const WorkloadProfile& profile);

}  // namespace ctflash::replay
