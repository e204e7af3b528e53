// WorkloadProfile characterization tests: the profiler must recover the
// first-order properties the synthetic generators were configured with,
// and FitSynthetic must close the loop (profile -> config -> generator)
// with matching shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "replay/trace_source.h"
#include "replay/workload_profile.h"
#include "trace/synthetic.h"

namespace ctflash::replay {
namespace {

constexpr std::uint64_t kFootprint = 256 * kMiB;

WorkloadProfile ProfileOf(const trace::SyntheticWorkloadConfig& cfg) {
  SyntheticTraceSource source(cfg);
  return Characterize(source);
}

TEST(WorkloadProfile, RecoversMixVolumeAndFootprint) {
  auto cfg = trace::WebServerWorkload(kFootprint, 20'000);
  const auto profile = ProfileOf(cfg);
  EXPECT_EQ(profile.requests, 20'000u);
  EXPECT_EQ(profile.reads + profile.writes, profile.requests);
  EXPECT_NEAR(profile.ReadFraction(), cfg.read_fraction, 0.02);
  EXPECT_LE(profile.max_offset_bytes, kFootprint);
  EXPECT_GT(profile.max_offset_bytes, kFootprint / 2);
  EXPECT_GT(profile.duration_us, 0);
  EXPECT_NEAR(profile.NativeIops(),
              1e6 / static_cast<double>(cfg.mean_interarrival_us),
              0.25 * 1e6 / static_cast<double>(cfg.mean_interarrival_us));
}

TEST(WorkloadProfile, SizeHistogramsSeeTheConfiguredSizes) {
  auto cfg = trace::WebServerWorkload(kFootprint, 10'000);
  const auto profile = ProfileOf(cfg);
  // Every configured web read size shows up in the exact counts.
  for (const auto& sw : cfg.read_sizes) {
    EXPECT_GT(profile.read_size_counts.count(sw.bytes), 0u)
        << "missing read size " << sw.bytes;
  }
}

TEST(WorkloadProfile, DetectsSequentialityAndSkewOrdering) {
  // Media (mostly-sequential large reads, strong skew) vs a uniform
  // random workload: the profile must order them correctly.
  auto media = trace::MediaServerWorkload(kFootprint, 15'000);
  const auto media_profile = ProfileOf(media);

  trace::SyntheticWorkloadConfig uniform;
  uniform.num_requests = 15'000;
  uniform.footprint_bytes = kFootprint;
  uniform.read_fraction = 0.9;
  uniform.read_zipf_theta = 0.0;
  uniform.write_zipf_theta = 0.0;
  uniform.sequential_read_fraction = 0.0;
  const auto uniform_profile = ProfileOf(uniform);

  EXPECT_GT(media_profile.SequentialReadFraction(),
            uniform_profile.SequentialReadFraction() + 0.2);
  EXPECT_GT(media_profile.read_run_length.mean(), 1.5);
  EXPECT_GT(media_profile.read_zipf_theta,
            uniform_profile.read_zipf_theta);
  EXPECT_GT(media_profile.top10pct_share,
            uniform_profile.top10pct_share);
  EXPECT_GT(media_profile.distinct_regions, 0u);
  EXPECT_FALSE(media_profile.working_set_regions.empty());
}

TEST(WorkloadProfile, WorkingSetWindowsCoverTheDuration) {
  auto cfg = trace::WebServerWorkload(kFootprint, 5'000);
  SyntheticTraceSource source(cfg);
  WorkloadProfileConfig pcfg;
  pcfg.window_us = 50'000;
  const auto profile = Characterize(source, pcfg);
  const std::size_t expected_windows =
      static_cast<std::size_t>(profile.duration_us / pcfg.window_us) + 1;
  EXPECT_EQ(profile.working_set_regions.size(), expected_windows);
  std::uint64_t max_window = 0;
  for (const auto n : profile.working_set_regions) {
    max_window = std::max(max_window, n);
  }
  EXPECT_GT(max_window, 0u);
  EXPECT_LE(max_window, profile.distinct_regions);
}

TEST(WorkloadProfile, FitSyntheticClosesTheLoop) {
  auto cfg = trace::WebServerWorkload(kFootprint, 20'000);
  const auto profile = ProfileOf(cfg);
  const auto fit = profile.FitSynthetic("refit", 10'000);

  EXPECT_EQ(fit.num_requests, 10'000u);
  EXPECT_NEAR(fit.read_fraction, cfg.read_fraction, 0.02);
  EXPECT_GE(fit.footprint_bytes, profile.max_offset_bytes);
  EXPECT_GT(fit.read_zipf_theta, 0.3) << "web workload is skewed";
  fit.Validate();  // must be generator-acceptable

  // The refit config generates, and its own profile matches the original
  // on the first-order properties.
  SyntheticTraceSource refit_source(fit);
  const auto refit_profile = Characterize(refit_source);
  EXPECT_NEAR(refit_profile.ReadFraction(), profile.ReadFraction(), 0.05);
  const double mean_read_a =
      profile.reads ? static_cast<double>(profile.read_bytes) /
                          static_cast<double>(profile.reads)
                    : 0.0;
  const double mean_read_b =
      refit_profile.reads ? static_cast<double>(refit_profile.read_bytes) /
                                static_cast<double>(refit_profile.reads)
                          : 0.0;
  EXPECT_NEAR(mean_read_b, mean_read_a, 0.25 * mean_read_a);
}

TEST(WorkloadProfile, ValidatesConfig) {
  WorkloadProfileConfig bad;
  bad.region_bytes = 0;
  EXPECT_THROW(WorkloadProfiler{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace ctflash::replay
