// Multi-tenant QoS engine, end to end through the host interface: weighted
// DRR throughput proportionality, noisy-neighbor isolation, token-bucket
// rate capping, the write-aging starvation fix, per-queue telemetry and
// bit-for-bit determinism.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "host/host_interface.h"
#include "host/load_generator.h"
#include "qos/tenant.h"
#include "ssd/experiment.h"
#include "ssd/ssd.h"

namespace ctflash::host {
namespace {

ssd::SsdConfig SmallConfig() {
  auto cfg = ssd::ScaledConfig(ssd::FtlKind::kConventional, 1ull << 28,
                               16 * 1024, 2.0);
  cfg.timing_mode = ftl::TimingMode::kQueued;
  return cfg;
}

Us Prefill(ssd::Ssd& ssd, std::uint32_t fraction_pct) {
  ssd::ExperimentRunner runner(ssd);
  return runner.Prefill(ssd.LogicalBytes() / 100 * fraction_pct);
}

/// Two tenants on queues {0,1} and {2,3}.
qos::QosConfig TwoTenants(std::uint32_t weight_a, std::uint32_t weight_b) {
  qos::QosConfig qos;
  qos.tenants.resize(2);
  qos.tenants[0].name = "a";
  qos.tenants[0].weight = weight_a;
  qos.tenants[0].queues = {0, 1};
  qos.tenants[1].name = "b";
  qos.tenants[1].weight = weight_b;
  qos.tenants[1].queues = {2, 3};
  return qos;
}

TEST(TenantQos, WeightedDrrTwoToOneThroughputUnderSaturation) {
  // The acceptance shape: identical saturating closed-loop read workloads
  // at 2:1 weights serve 2:1 within +-10 %.  Measured as the per-tenant
  // dispatch ratio over the contention window (counting stops the moment
  // the faster tenant's work is exhausted, before its tail drains).
  ssd::Ssd ssd(SmallConfig());
  const Us prefill_end = Prefill(ssd, 80);
  HostConfig cfg;
  cfg.qos = TwoTenants(2, 1);
  cfg.device_slots = 4;  // keep the ready set deep so arbitration decides
  HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);

  const std::uint64_t kRequests = 6'000;  // 1 page each (16 KiB)
  std::uint64_t dispatches[2] = {0, 0};
  bool counting = true;
  host.scheduler().OnDispatch([&](const FlashTransaction& txn) {
    if (!counting || txn.tenant == qos::kNoTenant) return;
    dispatches[txn.tenant]++;
    if (dispatches[txn.tenant] >= kRequests) counting = false;
  });

  TenantWorkload base;
  base.queue_depth = 16;
  base.total_requests = kRequests;
  base.read_fraction = 1.0;
  base.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
  std::vector<TenantWorkload> workloads(2, base);
  workloads[0].tenant = 0;
  workloads[0].seed = 21;
  workloads[1].tenant = 1;
  workloads[1].seed = 22;
  LoadGenerator(host, workloads).Run();

  ASSERT_FALSE(counting) << "one tenant should exhaust its work";
  ASSERT_GT(dispatches[1], 0u);
  const double ratio = static_cast<double>(dispatches[0]) /
                       static_cast<double>(dispatches[1]);
  EXPECT_GE(ratio, 1.8) << dispatches[0] << ":" << dispatches[1];
  EXPECT_LE(ratio, 2.2) << dispatches[0] << ":" << dispatches[1];
}

/// Paced (latency-sensitive) reads on a private working-set slice plus an
/// optional closed-loop flooder; returns the paced stream's read p99.  With
/// tenants configured the paced stream is tenant 0 and the flooder tenant
/// 1; with an empty `qos` both submit as tenant 0 through the seed
/// single-tenant path, the flooder first, so its ready transactions compete
/// with the paced reads on die keys alone.
double PacedP99(const qos::QosConfig& qos, bool with_flooder) {
  ssd::Ssd ssd(SmallConfig());
  const Us prefill_end = Prefill(ssd, 80);
  HostConfig cfg;
  cfg.qos = qos;
  cfg.device_slots = 4;
  HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);

  TenantWorkload paced;
  paced.tenant = 0;
  paced.interarrival_us = 2'000;
  paced.total_requests = 400;
  paced.read_fraction = 1.0;
  paced.footprint_bytes = ssd.LogicalBytes() / 100 * 20;
  paced.seed = 31;
  std::vector<TenantWorkload> workloads = {paced};
  std::size_t paced_index = 0;
  if (with_flooder) {
    TenantWorkload flooder;
    flooder.queue_depth = 32;
    flooder.total_requests = 40'000;
    flooder.read_fraction = 1.0;
    flooder.footprint_base_bytes = ssd.LogicalBytes() / 100 * 20;
    flooder.footprint_bytes = ssd.LogicalBytes() / 100 * 40;
    flooder.seed = 32;
    if (qos.Enabled()) {
      flooder.tenant = 1;
      workloads.push_back(flooder);
    } else {
      workloads.insert(workloads.begin(), flooder);
      paced_index = 1;
    }
  }
  const auto results = LoadGenerator(host, workloads).Run().streams;
  return results[paced_index].load.read_latency.p99_us();
}

TEST(TenantQos, NoisyNeighborIsolationBounded) {
  // A closed-loop flooder at QD 32 shares the device with a paced tenant.
  // With QoS weights in the paced tenant's favor, its read p99 stays
  // within 2x of its solo-run p99 (the acceptance bound); pushing the same
  // mix through the tenant-less seed path degrades it strictly more.
  auto favored = TwoTenants(8, 1);
  const double solo = PacedP99(favored, /*with_flooder=*/false);
  const double with_qos = PacedP99(favored, /*with_flooder=*/true);
  const double no_qos = PacedP99(qos::QosConfig{}, /*with_flooder=*/true);
  ASSERT_GT(solo, 0.0);
  EXPECT_LE(with_qos, 2.0 * solo)
      << "solo " << solo << " us, with qos " << with_qos << " us";
  EXPECT_GT(no_qos, with_qos)
      << "the tenant-less path should hurt more: " << no_qos << " vs "
      << with_qos;
}

TEST(TenantQos, TokenBucketCapsFlooderIops) {
  // A closed-loop flooder capped at 2000 IOPS drains at the cap, not at
  // device speed, and the pacing queue (not the submission queues) absorbs
  // the excess.
  ssd::Ssd ssd(SmallConfig());
  const Us prefill_end = Prefill(ssd, 80);
  auto qos = TwoTenants(1, 1);
  qos.tenants[0].iops_limit = 2'000.0;
  qos.tenants[0].iops_burst = 8.0;
  HostConfig cfg;
  cfg.qos = qos;
  HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);

  TenantWorkload flood;
  flood.tenant = 0;
  flood.queue_depth = 32;
  flood.total_requests = 2'000;
  flood.read_fraction = 1.0;
  flood.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
  flood.seed = 41;
  const auto results = LoadGenerator(host, {flood}).Run().streams;

  const double iops = results[0].load.Iops();
  EXPECT_LE(iops, 2'000.0 * 1.1) << "cap exceeded";
  EXPECT_GE(iops, 2'000.0 * 0.8) << "cap wildly undershot";
  const auto& tstats = host.tenants()->StatsOf(0);
  EXPECT_GT(tstats.throttled, 0u);
  EXPECT_GT(tstats.throttle_wait_us, 0);
  EXPECT_EQ(tstats.completed, flood.total_requests);
}

TEST(TenantQos, BytesBucketCapsThroughput) {
  // 16 MiB/s cap on 16 KiB requests = 1024 IOPS equivalent.
  ssd::Ssd ssd(SmallConfig());
  const Us prefill_end = Prefill(ssd, 80);
  auto qos = TwoTenants(1, 1);
  qos.tenants[0].bytes_per_sec_limit = 16.0 * 1024 * 1024;
  HostConfig cfg;
  cfg.qos = qos;
  HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);

  TenantWorkload flood;
  flood.tenant = 0;
  flood.queue_depth = 16;
  flood.total_requests = 1'000;
  flood.read_fraction = 1.0;
  flood.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
  flood.seed = 43;
  const auto results = LoadGenerator(host, {flood}).Run().streams;
  const double bytes_per_sec =
      static_cast<double>(results[0].load.requests) * 16.0 * 1024 /
      (static_cast<double>(results[0].load.MakespanUs()) / 1e6);
  EXPECT_LE(bytes_per_sec, 16.0 * 1024 * 1024 * 1.1);
}

/// Read flood + a handful of writes; returns (last write completion,
/// makespan, aged-write dispatches).
std::tuple<Us, Us, std::uint64_t> ReadFloodWrites(
    std::uint32_t write_aging_limit) {
  ssd::Ssd ssd(SmallConfig());
  const Us prefill_end = Prefill(ssd, 80);
  HostConfig cfg;
  cfg.device_slots = 2;
  cfg.write_aging_limit = write_aging_limit;
  HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);

  const std::uint32_t page = ssd.config().geometry.page_size_bytes;
  const std::uint64_t read_span = ssd.LogicalBytes() / 100 * 60;
  const Us t0 = host.queue().Now();
  // Open-loop read flood: arrivals far faster than service, so the ready
  // set stays read-saturated for the whole run.
  for (int i = 0; i < 2'000; ++i) {
    const std::uint64_t offset =
        (static_cast<std::uint64_t>(i) * 37 * page) % read_span;
    host.SubmitAt(t0 + i * 5, trace::OpType::kRead, offset, page);
  }
  Us last_write_done = 0;
  for (int i = 0; i < 4; ++i) {
    host.SubmitAt(t0 + 100 + i, trace::OpType::kWrite,
                  read_span + static_cast<std::uint64_t>(i) * page, page,
                  [&](const HostCompletion& c) {
                    last_write_done = std::max(last_write_done,
                                               c.completion_us - t0);
                  });
  }
  host.Run();
  return {last_write_done, host.queue().Now() - t0,
          host.scheduler().AgedWriteDispatches()};
}

TEST(TenantQos, WriteAgingBoundsReadFloodStarvation) {
  // Regression for the documented starvation gap: with no write aging
  // (seed behavior) a sustained read flood postpones the writes to the
  // very end of the run; with HostConfig::write_aging_limit they complete
  // early, after a bounded number of read overtakes.  No tenants involved
  // — the fix must work outside QoS mode.
  const auto [starved_done, starved_span, starved_boosts] = ReadFloodWrites(0);
  const auto [aged_done, aged_span, aged_boosts] = ReadFloodWrites(64);
  EXPECT_EQ(starved_boosts, 0u);
  EXPECT_GT(starved_done, starved_span * 9 / 10)
      << "without aging the flood should starve writes to the end";
  EXPECT_GE(aged_boosts, 1u);
  EXPECT_LT(aged_done, aged_span / 4)
      << "aged writes should complete early in the flood";
  EXPECT_LT(aged_done, starved_done / 2);
}

TEST(TenantQos, PerQueueBreakdownConserves) {
  // Per-queue slices sum to the aggregate, and in multi-tenant mode
  // requests only land on their tenant's queues.
  ssd::Ssd ssd(SmallConfig());
  const Us prefill_end = Prefill(ssd, 80);
  HostConfig cfg;
  cfg.qos = TwoTenants(1, 1);
  HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);

  TenantWorkload only_b;
  only_b.tenant = 1;
  only_b.queue_depth = 8;
  only_b.total_requests = 500;
  only_b.read_fraction = 0.5;
  only_b.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
  only_b.seed = 51;
  LoadGenerator(host, {only_b}).Run();

  const auto& stats = host.stats();
  ASSERT_EQ(stats.per_queue.size(), 4u);
  std::uint64_t sum_completed = 0;
  std::uint64_t sum_samples = 0;
  for (const auto& q : stats.per_queue) {
    sum_completed += q.completed;
    sum_samples += q.read_latency.count() + q.write_latency.count();
  }
  EXPECT_EQ(sum_completed, stats.completed);
  EXPECT_EQ(sum_samples, stats.completed);
  // Tenant 1 owns queues 2 and 3; 0 and 1 must stay untouched.
  EXPECT_EQ(stats.per_queue[0].admitted, 0u);
  EXPECT_EQ(stats.per_queue[1].admitted, 0u);
  EXPECT_GT(stats.per_queue[2].admitted, 0u);
  EXPECT_GT(stats.per_queue[3].admitted, 0u);
  // The tenant table attributes every dispatch to its tenant.
  const qos::TenantTable& table = *host.tenants();
  EXPECT_EQ(table.StatsOf(0).read_dispatches, 0u);
  EXPECT_GT(table.StatsOf(1).read_dispatches, 0u);
  EXPECT_GT(table.StatsOf(1).write_dispatches, 0u);
}

TEST(TenantQos, MultiTenantRunDeterministic) {
  auto run = [] {
    ssd::Ssd ssd(SmallConfig());
    const Us prefill_end = Prefill(ssd, 80);
    HostConfig cfg;
    auto qos = TwoTenants(3, 1);
    qos.tenants[1].iops_limit = 5'000.0;
    cfg.qos = qos;
    cfg.write_aging_limit = 32;
    HostInterface host(ssd, cfg);
    host.AdvanceTo(prefill_end);
    TenantWorkload base;
    base.queue_depth = 12;
    base.total_requests = 1'500;
    base.read_fraction = 0.7;
    base.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
    std::vector<TenantWorkload> workloads(2, base);
    workloads[0].tenant = 0;
    workloads[0].seed = 61;
    workloads[1].tenant = 1;
    workloads[1].seed = 62;
    const auto results = LoadGenerator(host, workloads).Run().streams;
    std::vector<std::tuple<std::uint64_t, Us, double, double>> out;
    for (const auto& r : results) {
      out.emplace_back(r.load.requests, r.load.end_us,
                       r.load.read_latency.total_us(),
                       r.load.write_latency.total_us());
    }
    return out;
  };
  EXPECT_EQ(run(), run());
}

TEST(TenantQos, ApiContracts) {
  ssd::Ssd ssd(SmallConfig());
  // FIFO cannot express weights.
  {
    HostConfig cfg;
    cfg.qos = TwoTenants(1, 1);
    cfg.policy = SchedPolicy::kFifo;
    EXPECT_THROW(HostInterface(ssd, cfg), std::invalid_argument);
  }
  // Tenants must partition the queues.
  {
    HostConfig cfg;
    cfg.qos = TwoTenants(1, 1);
    cfg.qos.tenants[1].queues = {2};  // queue 3 unowned
    EXPECT_THROW(HostInterface(ssd, cfg), std::invalid_argument);
  }
  // SubmitAs needs tenants; unknown tenants are rejected.
  {
    HostInterface host(ssd, HostConfig{});
    EXPECT_THROW(host.SubmitAs(0, trace::OpType::kRead, 0, 4096),
                 std::logic_error);
  }
  {
    HostConfig cfg;
    cfg.qos = TwoTenants(1, 1);
    HostInterface host(ssd, cfg);
    EXPECT_THROW(host.SubmitAs(7, trace::OpType::kRead, 0, 4096),
                 std::out_of_range);
    TenantWorkload stream;
    stream.tenant = 2;
    EXPECT_THROW(LoadGenerator(host, {stream}), std::out_of_range);
  }
  // Without tenants every generator stream is tenant 0.
  {
    HostInterface host(ssd, HostConfig{});
    TenantWorkload stream;
    stream.tenant = 1;
    EXPECT_THROW(LoadGenerator(host, {stream}), std::out_of_range);
  }
}

}  // namespace
}  // namespace ctflash::host
