// ReplayEngine integration tests: conservation, windowed telemetry,
// determinism, per-tenant attribution, CDF extraction, and the sample-CSV
// two-tenant mixed replay smoke.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "host/host_interface.h"
#include "replay/latency_cdf.h"
#include "replay/replay_engine.h"
#include "replay/replay_plan.h"
#include "replay/trace_source.h"
#include "ssd/ssd.h"
#include "trace/synthetic.h"

namespace ctflash::replay {
namespace {

ssd::SsdConfig DeviceConfig(ftl::TimingMode mode) {
  auto cfg =
      ssd::ScaledConfig(ssd::FtlKind::kConventional, 1ull << 28, 16 * 1024, 2.0);
  cfg.timing_mode = mode;
  return cfg;
}

std::vector<trace::TraceRecord> WebRecords(std::uint64_t n,
                                           std::uint64_t footprint) {
  const auto cfg = trace::WebServerWorkload(footprint, n);
  return trace::SyntheticTraceGenerator(cfg).Generate();
}

TEST(HostMode, SingleStreamConservation) {
  ssd::Ssd ssd(DeviceConfig(ftl::TimingMode::kQueued));
  host::HostConfig host_cfg;
  host::HostInterface host(ssd, host_cfg);
  ReplayEngineConfig config;
  config.window_us = 50'000;
  ReplayEngine engine(host, config);

  const auto records = WebRecords(3000, (1ull << 28) / 2);
  VectorTraceSource source(records);
  const ReplayResult result = engine.Run(source);

  EXPECT_EQ(result.pulled, records.size());
  EXPECT_EQ(result.submitted, records.size());
  EXPECT_EQ(result.completed, records.size());
  EXPECT_EQ(result.read_latency.count() + result.write_latency.count(),
            records.size());
  EXPECT_EQ(host.Outstanding(), 0u);
  EXPECT_GT(result.MakespanUs(), 0);
  // Windowed telemetry covers every completion.
  std::uint64_t windowed = 0;
  for (const auto& w : result.windows) windowed += w.completions;
  EXPECT_EQ(windowed, result.completed);
}

TEST(HostMode, DeterministicAcrossRuns) {
  auto run = []() {
    ssd::Ssd ssd(DeviceConfig(ftl::TimingMode::kQueued));
    host::HostConfig host_cfg;
    host::HostInterface host(ssd, host_cfg);
    ReplayEngine engine(host, ReplayEngineConfig{});
    const auto records = WebRecords(2000, (1ull << 28) / 2);
    VectorTraceSource source(records);
    const ReplayResult r = engine.Run(source);
    return std::make_pair(r.read_latency.total_us(), r.end_us);
  };
  EXPECT_EQ(run(), run());
}

qos::QosConfig TwoTenants() {
  qos::QosConfig qos;
  qos.tenants.resize(2);
  qos.tenants[0].name = "media";
  qos.tenants[0].weight = 8;
  qos.tenants[0].queues = {0, 1};
  qos.tenants[1].name = "web";
  qos.tenants[1].weight = 1;
  qos.tenants[1].queues = {2, 3};
  return qos;
}

TEST(HostMode, TenantTaggedMergeAttributesPerTenant) {
  ssd::Ssd ssd(DeviceConfig(ftl::TimingMode::kQueued));
  host::HostConfig host_cfg;
  host_cfg.qos = TwoTenants();
  host::HostInterface host(ssd, host_cfg);
  ReplayEngine engine(host, ReplayEngineConfig{});

  const std::uint64_t logical = ssd.LogicalBytes();
  ReplayPlan plan;
  SourceOptions media;
  media.name = "media";
  media.tenant = 0;
  media.remap.policy = RemapPolicy::kWrap;
  media.remap.footprint_bytes = logical / 2;
  plan.AddSource(std::make_unique<VectorTraceSource>(WebRecords(800, 4 * logical)),
                 media);
  SourceOptions web;
  web.name = "web";
  web.tenant = 1;
  web.remap.policy = RemapPolicy::kHashScatter;
  web.remap.footprint_bytes = logical / 2;
  web.remap.base_bytes = logical / 2;
  plan.AddSource(
      std::make_unique<VectorTraceSource>(WebRecords(600, 4 * logical)), web);

  const ReplayResult result = engine.Run(plan);
  ASSERT_EQ(result.sources.size(), 2u);
  ASSERT_EQ(result.tenants.size(), 2u);

  const std::uint64_t emitted =
      result.sources[0].emitted + result.sources[1].emitted;
  EXPECT_EQ(result.pulled, emitted);
  EXPECT_EQ(result.completed, emitted);
  EXPECT_EQ(result.tenants[0].name, "media");
  EXPECT_EQ(result.tenants[0].completed, result.sources[0].emitted);
  EXPECT_EQ(result.tenants[1].completed, result.sources[1].emitted);
  for (const auto& tenant : result.tenants) {
    EXPECT_GT(tenant.completed, 0u);
    EXPECT_GE(tenant.last_completion_us, tenant.first_submit_us);
    EXPECT_GT(tenant.Iops(), 0.0);
    EXPECT_EQ(tenant.read_latency.count() + tenant.write_latency.count(),
              tenant.completed);
  }
}

TEST(HostMode, SampleCsvTwoTenantMixedReplayConserves) {
  const std::string path =
      std::string(CTFLASH_TEST_DATA_DIR) + "/sample_msr.csv";
  ssd::Ssd ssd(DeviceConfig(ftl::TimingMode::kQueued));
  host::HostConfig host_cfg;
  host_cfg.qos = TwoTenants();
  host::HostInterface host(ssd, host_cfg);
  ReplayEngine engine(host, ReplayEngineConfig{});

  const std::uint64_t logical = ssd.LogicalBytes();
  ReplayPlan plan;
  StreamingMsrCsvSource::Options media_opts;
  media_opts.hostname_filter = "mds0";
  SourceOptions media;
  media.name = "mds0";
  media.tenant = 0;
  media.remap.policy = RemapPolicy::kWrap;
  media.remap.footprint_bytes = logical / 2;
  plan.AddSource(std::make_unique<StreamingMsrCsvSource>(path, media_opts),
                 media);
  StreamingMsrCsvSource::Options web_opts;
  web_opts.hostname_filter = "web0";
  SourceOptions web;
  web.name = "web0";
  web.tenant = 1;
  web.remap.policy = RemapPolicy::kWrap;
  web.remap.footprint_bytes = logical / 2;
  web.remap.base_bytes = logical / 2;
  web.warp.acceleration = 2.0;
  plan.AddSource(std::make_unique<StreamingMsrCsvSource>(path, web_opts), web);

  const ReplayResult result = engine.Run(plan);
  // Conservation: all 200 sample records split 100/100, every emitted
  // record submitted and completed.
  EXPECT_EQ(result.sources[0].pulled, 100u);
  EXPECT_EQ(result.sources[1].pulled, 100u);
  EXPECT_EQ(result.pulled,
            result.sources[0].emitted + result.sources[1].emitted);
  EXPECT_EQ(result.completed, result.pulled);
  EXPECT_EQ(result.tenants[0].completed, result.sources[0].emitted);
  EXPECT_EQ(result.tenants[1].completed, result.sources[1].emitted);
  EXPECT_EQ(host.Outstanding(), 0u);
}

TEST(LatencyCdfExtraction, StaircaseIsMonotoneAndComplete) {
  util::LatencyStats stats;
  for (int i = 0; i < 900; ++i) stats.Add(100);
  for (int i = 0; i < 100; ++i) stats.Add(1000 + i * 90);
  const auto cdf = LatencyCdf(stats);
  ASSERT_GE(cdf.size(), 3u);
  double prev_cum = 0.0;
  double prev_lat = 0.0;
  std::uint64_t total = 0;
  for (const auto& point : cdf) {
    EXPECT_GT(point.cum_fraction, prev_cum);
    EXPECT_GT(point.latency_us, prev_lat);
    prev_cum = point.cum_fraction;
    prev_lat = point.latency_us;
    total += point.count;
  }
  EXPECT_DOUBLE_EQ(cdf.back().cum_fraction, 1.0);
  EXPECT_EQ(total, stats.count());

  // The knee sits where the tail takes off: at/after the 100 us mode.
  const std::size_t knee = KneeIndex(cdf);
  ASSERT_LT(knee, cdf.size());
  EXPECT_GE(cdf[knee].cum_fraction, 0.8);
}

TEST(LatencyCdfExtraction, EmptyAndTinyInputs) {
  util::LatencyStats empty;
  EXPECT_TRUE(LatencyCdf(empty).empty());
  util::LatencyStats one;
  one.Add(50);
  const auto cdf = LatencyCdf(one);
  ASSERT_EQ(cdf.size(), 1u);
  EXPECT_DOUBLE_EQ(cdf[0].cum_fraction, 1.0);
  EXPECT_EQ(KneeIndex(cdf), cdf.size());  // no interior to bend
}

}  // namespace
}  // namespace ctflash::replay
