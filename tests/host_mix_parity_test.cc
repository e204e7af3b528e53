// Golden lock-in for the paced + flooder mix (the noisy-neighbor shape
// bench_tenant_qos reports), driven through host::LoadGenerator.
//
// A paced stream (16 KiB reads every 2 ms over a private 20 % slice) shares
// the device with a closed-loop QD-32 read flooder over the next 40 %, at
// 80 % prefill and 4 device slots, on both FTL variants:
//   * with QoS — two tenants at 8:1 DRR weights, paced tenant listed first;
//   * without — no tenants: both streams submit as tenant 0 through the
//     seed single-tenant path, flooder listed first.
// The goldens (per-stream read p50/p99/mean, flooder IOPS, and a
// fingerprint of the dispatch order) were captured from the drivers this
// generator replaced: the QoS arm from the tenant-only generator, the
// no-QoS arm from a hand-rolled submit chain.  A failure means a request
// stream, a submission order, or the host dispatch path changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "host/host_interface.h"
#include "host/load_generator.h"
#include "ssd/experiment.h"
#include "ssd/ssd.h"

namespace ctflash {
namespace {

std::uint64_t Fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;  // FNV-1a
  }
  return h;
}

constexpr std::uint64_t kRequestBytes = 16 * 1024;

struct MixRun {
  util::LatencyStats paced;
  util::LatencyStats flooder;
  double flooder_iops = 0.0;
  std::uint64_t dispatch = 0;  ///< every transaction in dispatch order
};

MixRun RunMix(ssd::FtlKind kind, bool with_qos) {
  auto cfg = ssd::ScaledConfig(kind, 256ull << 20, kRequestBytes, 2.0);
  cfg.timing_mode = ftl::TimingMode::kQueued;
  ssd::Ssd ssd(cfg);
  const Us prefill_end =
      ssd::ExperimentRunner(ssd).Prefill(ssd.LogicalBytes() / 100 * 80);

  host::HostConfig host_cfg;
  host_cfg.device_slots = 4;
  if (with_qos) {
    host_cfg.qos.tenants.resize(2);
    host_cfg.qos.tenants[0].name = "paced";
    host_cfg.qos.tenants[0].weight = 8;
    host_cfg.qos.tenants[0].queues = {0, 1};
    host_cfg.qos.tenants[1].name = "flooder";
    host_cfg.qos.tenants[1].weight = 1;
    host_cfg.qos.tenants[1].queues = {2, 3};
  }
  host::HostInterface host(ssd, host_cfg);
  host.AdvanceTo(prefill_end);

  MixRun run;
  host.scheduler().OnDispatch([&run](const host::FlashTransaction& txn) {
    run.dispatch = Fold(run.dispatch, static_cast<std::uint64_t>(txn.source));
    run.dispatch = Fold(run.dispatch, static_cast<std::uint64_t>(txn.tenant));
    run.dispatch = Fold(run.dispatch, txn.seq);
    run.dispatch = Fold(run.dispatch, txn.lpn);
    run.dispatch = Fold(run.dispatch, txn.offset_bytes);
  });

  host::TenantWorkload paced;
  paced.interarrival_us = 2'000;
  paced.total_requests = 400;
  paced.request_bytes = kRequestBytes;
  paced.footprint_bytes = ssd.LogicalBytes() / 100 * 20;
  paced.seed = 31;
  host::TenantWorkload flooder;
  flooder.tenant = with_qos ? 1 : 0;
  flooder.queue_depth = 32;
  flooder.total_requests = 40'000;
  flooder.request_bytes = kRequestBytes;
  flooder.footprint_base_bytes = ssd.LogicalBytes() / 100 * 20;
  flooder.footprint_bytes = ssd.LogicalBytes() / 100 * 40;
  flooder.seed = 32;

  const std::size_t paced_index = with_qos ? 0 : 1;
  const auto streams = with_qos ? std::vector{paced, flooder}
                                : std::vector{flooder, paced};
  const auto results = host::LoadGenerator(host, streams).Run().streams;
  const host::LoadStats& p = results[paced_index].load;
  const host::LoadStats& f = results[1 - paced_index].load;
  EXPECT_EQ(p.requests, paced.total_requests);
  EXPECT_EQ(f.requests, flooder.total_requests);
  run.paced = p.read_latency;
  run.flooder = f.read_latency;
  run.flooder_iops = f.Iops();
  return run;
}

struct StreamGolden {
  double p50_us;
  double p99_us;
  double mean_us;
};

struct Golden {
  ssd::FtlKind kind;
  bool with_qos;
  StreamGolden paced;
  StreamGolden flooder;
  double flooder_iops;
  std::uint64_t dispatch;
};

// The conventional no-QoS row is bench_tenant_qos's default-size "no-qos"
// arm (paced p99 2230.86 us, mean 800.42 us, flooder 35901.5 IOPS).
constexpr Golden kGoldens[] = {
    {ssd::FtlKind::kConventional, true,
     {76.727272727272734, 104, 77.032499999999942},
     {212.45637583892616, 2291.4723404255319, 890.65347499999427},
     35912.671157546196, 0x8ee8b0738ff77604ull},
    {ssd::FtlKind::kConventional, false,
     {112, 2230.8571428571427, 800.42249999999945},
     {211.63120567375887, 2288.8798370672098, 890.93187499999601},
     35901.45409864463, 0xff513501a0cf03f0ull},
    {ssd::FtlKind::kPpb, true,
     {78.033898305084747, 104, 78.087499999999935},
     {205.70700636942675, 2278.745945945946, 885.55674999999439},
     36123.056805312983, 0x3f54e2524f7f50c0ull},
    {ssd::FtlKind::kPpb, false,
     {124, 2112, 810.88750000000027},
     {205.37062937062936, 2273.2929292929293, 885.72874999999863},
     36116.044462462334, 0x4a49bf524b3b35b8ull},
};

void ExpectStream(const util::LatencyStats& got, const StreamGolden& want,
                  const std::string& what) {
  EXPECT_DOUBLE_EQ(got.p50_us(), want.p50_us) << what;
  EXPECT_DOUBLE_EQ(got.p99_us(), want.p99_us) << what;
  EXPECT_DOUBLE_EQ(got.mean_us(), want.mean_us) << what;
}

TEST(HostMixParity, PacedPlusFlooderMatchesGoldens) {
  for (const Golden& golden : kGoldens) {
    const std::string arm = std::string(ssd::FtlKindName(golden.kind)) +
                            (golden.with_qos ? "/qos" : "/no-qos");
    const MixRun run = RunMix(golden.kind, golden.with_qos);
    ExpectStream(run.paced, golden.paced, arm + " paced");
    ExpectStream(run.flooder, golden.flooder, arm + " flooder");
    EXPECT_DOUBLE_EQ(run.flooder_iops, golden.flooder_iops) << arm;
    EXPECT_EQ(run.dispatch, golden.dispatch)
        << arm << " dispatch fingerprint: 0x" << std::hex << run.dispatch;
  }
}

}  // namespace
}  // namespace ctflash
