#include "replay/workload_profile.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace ctflash::replay {

void WorkloadProfileConfig::Validate() const {
  if (region_bytes == 0) {
    throw std::invalid_argument(
        "WorkloadProfileConfig: region_bytes must be > 0");
  }
  if (window_us <= 0) {
    throw std::invalid_argument("WorkloadProfileConfig: window_us must be > 0");
  }
  if (max_distinct_sizes == 0) {
    throw std::invalid_argument(
        "WorkloadProfileConfig: max_distinct_sizes must be > 0");
  }
}

WorkloadProfiler::WorkloadProfiler(const WorkloadProfileConfig& config)
    : config_(config) {
  config_.Validate();
  profile_.config = config_;
}

void WorkloadProfiler::Add(const trace::TraceRecord& record) {
  if (record.size_bytes == 0) return;
  profile_.requests++;
  if (record.timestamp_us > profile_.duration_us) {
    profile_.duration_us = record.timestamp_us;
  }
  const std::uint64_t end = record.offset_bytes + record.size_bytes;
  if (end > profile_.max_offset_bytes) profile_.max_offset_bytes = end;
  profile_.alignment_or |= record.offset_bytes | record.size_bytes;

  const bool is_read = record.op == trace::OpType::kRead;
  auto& size_counts =
      is_read ? profile_.read_size_counts : profile_.write_size_counts;
  if (is_read) {
    profile_.reads++;
    profile_.read_bytes += record.size_bytes;
  } else {
    profile_.writes++;
    profile_.write_bytes += record.size_bytes;
  }
  if (size_counts.size() < config_.max_distinct_sizes ||
      size_counts.count(record.size_bytes) > 0) {
    size_counts[record.size_bytes]++;
  }

  // Sequentiality (per op class): starts exactly at the previous end.
  if (is_read) {
    if (have_read_ && record.offset_bytes == prev_read_end_) {
      profile_.sequential_reads++;
      current_read_run_++;
    } else {
      if (current_read_run_ > 0) {
        run_length_.Add(static_cast<double>(current_read_run_ + 1));
      }
      current_read_run_ = 0;
    }
    prev_read_end_ = end;
    have_read_ = true;
  } else {
    if (have_write_ && record.offset_bytes == prev_write_end_) {
      profile_.sequential_writes++;
    }
    prev_write_end_ = end;
    have_write_ = true;
  }

  // Region popularity + working set over time.
  const std::uint64_t first_region = record.offset_bytes / config_.region_bytes;
  const std::uint64_t last_region = (end - 1) / config_.region_bytes;
  auto& touches =
      is_read ? profile_.read_region_touches : profile_.write_region_touches;
  const std::size_t window =
      static_cast<std::size_t>(record.timestamp_us / config_.window_us);
  if (window != window_index_) {
    // Windows can arrive out of order only for clamped MSR timestamps;
    // fold into the later window rather than reopening an old one.
    if (window > window_index_) {
      profile_.working_set_regions.resize(window, 0);
      profile_.working_set_regions[window_index_] =
          static_cast<std::uint64_t>(window_regions_.size());
      window_regions_.clear();
      window_index_ = window;
    }
  }
  for (std::uint64_t region = first_region; region <= last_region; ++region) {
    touches[region]++;
    window_regions_.insert(region);
    all_regions_.insert(region);
  }
}

namespace {

/// Least-squares slope of ln(count) over ln(rank+1), counts sorted
/// descending: the Zipf exponent estimate (negated).  0 for degenerate
/// inputs.
double FitZipfTheta(
    const std::unordered_map<std::uint64_t, std::uint64_t>& touches) {
  if (touches.size() < 2) return 0.0;
  std::vector<std::uint64_t> counts;
  counts.reserve(touches.size());
  for (const auto& [region, count] : touches) counts.push_back(count);
  std::sort(counts.begin(), counts.end(), std::greater<>());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  const double n = static_cast<double>(counts.size());
  for (std::size_t rank = 0; rank < counts.size(); ++rank) {
    const double x = std::log(static_cast<double>(rank + 1));
    const double y = std::log(static_cast<double>(counts[rank]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double denom = n * sxx - sx * sx;
  if (denom <= 0.0) return 0.0;
  const double slope = (n * sxy - sx * sy) / denom;
  return std::clamp(-slope, 0.0, 3.0);
}

/// Regions holding the top `fraction` of the sorted-descending counts.
std::vector<std::uint64_t> TopRegions(
    const std::unordered_map<std::uint64_t, std::uint64_t>& touches,
    double fraction) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted(touches.begin(),
                                                              touches.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;  // deterministic tie-break
  });
  const std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(sorted.size()) *
                                  fraction));
  std::vector<std::uint64_t> regions;
  regions.reserve(keep);
  for (std::size_t i = 0; i < keep && i < sorted.size(); ++i) {
    regions.push_back(sorted[i].first);
  }
  return regions;
}

double TopShare(const std::unordered_map<std::uint64_t, std::uint64_t>& touches,
                double fraction) {
  if (touches.empty()) return 0.0;
  std::vector<std::uint64_t> counts;
  counts.reserve(touches.size());
  std::uint64_t total = 0;
  for (const auto& [region, count] : touches) {
    counts.push_back(count);
    total += count;
  }
  std::sort(counts.begin(), counts.end(), std::greater<>());
  const std::size_t keep = std::max<std::size_t>(
      1,
      static_cast<std::size_t>(static_cast<double>(counts.size()) * fraction));
  std::uint64_t top = 0;
  for (std::size_t i = 0; i < keep && i < counts.size(); ++i) top += counts[i];
  return total == 0 ? 0.0
                    : static_cast<double>(top) / static_cast<double>(total);
}

std::vector<trace::SizeWeight> FitSizes(
    const std::unordered_map<std::uint64_t, std::uint64_t>& counts,
    std::size_t top_n) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted(counts.begin(),
                                                              counts.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<trace::SizeWeight> out;
  for (std::size_t i = 0; i < sorted.size() && i < top_n; ++i) {
    out.push_back({sorted[i].first, static_cast<double>(sorted[i].second)});
  }
  if (out.empty()) out.push_back({16 * kKiB, 1.0});
  return out;
}

}  // namespace

WorkloadProfile WorkloadProfiler::Finish() const {
  WorkloadProfile profile = profile_;
  // Close the open sequential run and working-set window.
  util::RunningMoments runs = run_length_;
  if (current_read_run_ > 0) {
    runs.Add(static_cast<double>(current_read_run_ + 1));
  }
  profile.read_run_length = runs;
  profile.working_set_regions.resize(window_index_ + 1, 0);
  profile.working_set_regions[window_index_] =
      static_cast<std::uint64_t>(window_regions_.size());
  profile.distinct_regions = static_cast<std::uint64_t>(all_regions_.size());

  profile.read_zipf_theta = FitZipfTheta(profile.read_region_touches);
  profile.write_zipf_theta = FitZipfTheta(profile.write_region_touches);

  std::unordered_map<std::uint64_t, std::uint64_t> combined =
      profile.read_region_touches;
  for (const auto& [region, count] : profile.write_region_touches) {
    combined[region] += count;
  }
  profile.top1pct_share = TopShare(combined, 0.01);
  profile.top10pct_share = TopShare(combined, 0.10);

  if (!profile.read_region_touches.empty() &&
      !profile.write_region_touches.empty()) {
    const auto read_top = TopRegions(profile.read_region_touches, 0.10);
    const auto write_top = TopRegions(profile.write_region_touches, 0.10);
    const std::unordered_set<std::uint64_t> read_set(read_top.begin(),
                                                     read_top.end());
    std::size_t overlap = 0;
    for (const std::uint64_t region : write_top) {
      if (read_set.count(region) > 0) overlap++;
    }
    profile.rw_popularity_overlap =
        static_cast<double>(overlap) /
        static_cast<double>(std::max<std::size_t>(1, write_top.size()));
  }
  return profile;
}

trace::SyntheticWorkloadConfig WorkloadProfile::FitSynthetic(
    const std::string& name, std::uint64_t num_requests) const {
  trace::SyntheticWorkloadConfig fit;
  fit.name = name;
  fit.num_requests = num_requests > 0 ? num_requests : requests;
  const std::uint64_t region = config.region_bytes;
  fit.region_bytes = region;
  fit.footprint_bytes =
      std::max(region, (max_offset_bytes + region - 1) / region * region);
  fit.read_fraction = ReadFraction();
  fit.read_zipf_theta = read_zipf_theta;
  fit.write_zipf_theta = write_zipf_theta;
  fit.rw_popularity_correlation = rw_popularity_overlap;
  fit.sequential_read_fraction = SequentialReadFraction();
  fit.read_sizes = FitSizes(read_size_counts, 4);
  fit.write_sizes = FitSizes(write_size_counts, 4);
  fit.mean_interarrival_us =
      requests == 0 ? 1
                    : std::max<Us>(1, duration_us / static_cast<Us>(requests));

  // Alignment: the largest power of two dividing every offset and size
  // (the streaming OR accumulator covers all records, not just the capped
  // distinct-size tables), clamped to the range the generators accept
  // sensibly.
  const std::uint64_t bits = alignment_or;
  std::uint64_t align = bits == 0 ? 4096 : (bits & ~(bits - 1));
  align = std::clamp<std::uint64_t>(align, 512, 64 * kKiB);
  fit.alignment_bytes = align;
  return fit;
}

WorkloadProfile Characterize(TraceSource& source,
                             const WorkloadProfileConfig& config) {
  source.Reset();
  WorkloadProfiler profiler(config);
  while (auto record = source.Next()) profiler.Add(*record);
  return profiler.Finish();
}

std::string ProfileSummary(const WorkloadProfile& profile) {
  std::ostringstream os;
  os << "requests=" << profile.requests << " (" << profile.reads << " reads / "
     << profile.writes << " writes, read fraction "
     << profile.ReadFraction() << ")\n"
     << "volume: read " << profile.read_bytes / kMiB << " MiB, write "
     << profile.write_bytes / kMiB << " MiB, footprint "
     << profile.max_offset_bytes / kMiB << " MiB, duration "
     << profile.duration_us / 1000 << " ms (native "
     << profile.NativeIops() << " IOPS)\n"
     << "sequential reads: " << profile.SequentialReadFraction() * 100.0
     << " % (mean run " << profile.read_run_length.mean() << " reqs)\n"
     << "popularity: zipf theta read " << profile.read_zipf_theta
     << " / write " << profile.write_zipf_theta << ", top-1% share "
     << profile.top1pct_share * 100.0 << " %, top-10% share "
     << profile.top10pct_share * 100.0 << " %, rw overlap "
     << profile.rw_popularity_overlap << "\n"
     << "working set: " << profile.distinct_regions << " regions ("
     << profile.distinct_regions * profile.config.region_bytes / kMiB
     << " MiB) over " << profile.working_set_regions.size() << " windows";
  return os.str();
}

}  // namespace ctflash::replay
