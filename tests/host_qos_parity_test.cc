// Seed-parity lock-in for the multi-tenant QoS layer.
//
// A default HostConfig — no tenants configured, `write_aging_limit = 0` —
// must reproduce the pre-QoS host dispatch path bit-for-bit: identical
// dispatch order, identical latency totals and identical GC activity, for
// both GC routings and both FTL variants.  The golden fingerprints below
// were captured from the host interface before `src/qos/` existed; if this
// test fails, the QoS layer leaked into the default single-tenant path and
// silently changed every host-driven bench.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

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

std::uint64_t Fold(std::uint64_t h, double v) {
  return Fold(h, std::bit_cast<std::uint64_t>(v));
}

struct Fingerprint {
  std::uint64_t dispatch = 0;  ///< every transaction in dispatch order
  std::uint64_t stats = 0;     ///< run aggregates + FTL counters
};

/// 85 % prefill, then a mixed closed-loop burst (QD 16, 50 % reads) through
/// a default-configured host interface; folds the full dispatch stream and
/// all replay-visible aggregates.
Fingerprint RunScenario(ssd::FtlKind kind, ftl::GcRouting routing) {
  auto cfg = ssd::ScaledConfig(kind, 128ull << 20, 16 * 1024, 2.0);
  cfg.timing_mode = ftl::TimingMode::kQueued;
  cfg.ftl.gc_routing = routing;
  ssd::Ssd ssd(cfg);
  ssd::ExperimentRunner runner(ssd);
  const Us prefill_end = runner.Prefill(ssd.LogicalBytes() / 100 * 85);
  ssd.ftl().ResetStats();

  host::HostConfig host_cfg;  // the compatibility setting under test
  host::HostInterface host(ssd, host_cfg);
  host.AdvanceTo(prefill_end);

  Fingerprint fp;
  host.scheduler().OnDispatch([&fp](const host::FlashTransaction& txn) {
    fp.dispatch = Fold(fp.dispatch, static_cast<std::uint64_t>(txn.source));
    fp.dispatch = Fold(fp.dispatch, txn.seq);
    fp.dispatch = Fold(fp.dispatch, txn.lpn);
    fp.dispatch = Fold(fp.dispatch, txn.offset_bytes);
  });

  host::TenantWorkload burst;
  burst.queue_depth = 16;
  burst.total_requests = 30'000;
  burst.read_fraction = 0.5;
  burst.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
  burst.seed = 77;
  const host::LoadStats load = host::LoadGenerator(host, {burst}).Run().total;

  // The burst must be GC-heavy, otherwise the dispatch stream cannot tell
  // the routings (or a QoS leak into the GC arbitration) apart.
  EXPECT_GT(ssd.ftl().stats().gc_erases, 0u)
      << ssd::FtlKindName(kind) << "/" << ftl::GcRoutingName(routing);

  std::uint64_t h = 0;
  h = Fold(h, load.requests);
  h = Fold(h, static_cast<std::uint64_t>(load.end_us));
  h = Fold(h, load.read_latency.total_us());
  h = Fold(h, load.write_latency.total_us());
  h = Fold(h, load.read_latency.p99_us());
  h = Fold(h, load.write_latency.p99_us());
  h = Fold(h, host.TxnsDispatched());
  const auto& s = ssd.ftl().stats();
  h = Fold(h, s.host_read_pages);
  h = Fold(h, s.host_write_pages);
  h = Fold(h, s.gc_page_copies);
  h = Fold(h, s.gc_erases);
  h = Fold(h, s.gc_stale_copies);
  fp.stats = h;
  return fp;
}

// Golden fingerprints captured from the pre-qos host dispatch path.
struct Golden {
  ssd::FtlKind kind;
  ftl::GcRouting routing;
  std::uint64_t dispatch;
  std::uint64_t stats;
};

constexpr Golden kGoldens[] = {
    {ssd::FtlKind::kConventional, ftl::GcRouting::kInline,
     0xb609a8930e2ba90aull, 0x7d16ad52aef82027ull},
    {ssd::FtlKind::kConventional, ftl::GcRouting::kScheduled,
     0x3080e7caff105c60ull, 0x8e3c3ad82017e7d4ull},
    {ssd::FtlKind::kPpb, ftl::GcRouting::kScheduled, 0x6f54ca1b698f7267ull,
     0x0da16ff388026607ull},
};

TEST(HostQosParity, DefaultConfigMatchesPreQosDispatchPath) {
  for (const auto& golden : kGoldens) {
    const auto fp = RunScenario(golden.kind, golden.routing);
    EXPECT_EQ(fp.dispatch, golden.dispatch)
        << ssd::FtlKindName(golden.kind) << "/"
        << ftl::GcRoutingName(golden.routing) << " dispatch fingerprint: 0x"
        << std::hex << fp.dispatch;
    EXPECT_EQ(fp.stats, golden.stats)
        << ssd::FtlKindName(golden.kind) << "/"
        << ftl::GcRoutingName(golden.routing) << " stats fingerprint: 0x"
        << std::hex << fp.stats;
  }
}

}  // namespace
}  // namespace ctflash
