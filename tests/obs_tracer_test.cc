// Lifecycle-tracer integration on real devices: the conservation property
// (paced + queued + media == end-to-end for EVERY traced request), stall
// attribution under GC pressure, agreement with the host interface's own
// latency aggregates, and the zero-interference contract — attaching a
// tracer (or the legacy OnDispatch callback, now an observer adapter)
// never changes the dispatch order or any simulated outcome.
#include "obs/tracer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "host/host_interface.h"
#include "host/load_generator.h"
#include "obs/phase.h"
#include "sched/transaction.h"
#include "ssd/experiment.h"
#include "ssd/ssd.h"

namespace ctflash::obs {
namespace {

ssd::SsdConfig GcHeavyConfig() {
  auto cfg = ssd::ScaledConfig(ssd::FtlKind::kConventional, 256ull << 20,
                               16 * 1024, 2.0);
  cfg.timing_mode = ftl::TimingMode::kQueued;
  cfg.ftl.gc_routing = ftl::GcRouting::kScheduled;
  return cfg;
}

Us Prefill(ssd::Ssd& ssd, std::uint32_t fraction_pct) {
  ssd::ExperimentRunner runner(ssd);
  return runner.Prefill(ssd.LogicalBytes() / 100 * fraction_pct);
}

host::TenantWorkload MixedBurst(const ssd::Ssd& ssd, double read_frac,
                                std::uint64_t requests) {
  host::TenantWorkload burst;
  burst.queue_depth = 16;
  burst.total_requests = requests;
  burst.read_fraction = read_frac;
  burst.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
  burst.seed = 7;
  return burst;
}

TEST(ObsTracer, ConservationHoldsForEveryRequest) {
  ssd::Ssd ssd(GcHeavyConfig());
  const Us prefill_end = Prefill(ssd, 85);
  host::HostInterface host(ssd, host::HostConfig{});
  host.AdvanceTo(prefill_end);

  TracerConfig tc;
  tc.record_spans = false;
  tc.record_requests = true;
  Tracer tracer(tc);
  host.AttachTracer(&tracer);

  const host::LoadStats load =
      host::LoadGenerator(host, {MixedBurst(ssd, 0.5, 20000)}).Run().total;

  ASSERT_EQ(tracer.requests().size(), 20000u);
  for (const PhaseRecord& r : tracer.requests()) {
    ASSERT_EQ(r.PacedUs() + r.QueuedUs() + r.MediaUs(), r.TotalUs())
        << "conservation violated on request " << r.request_id;
    ASSERT_GE(r.PacedUs(), 0);
    ASSERT_GE(r.QueuedUs(), 0);
    ASSERT_GE(r.MediaUs(), 0);
  }
  EXPECT_EQ(tracer.PendingRequests(), 0u);

  // The aggregate form of the same identity, and agreement with the host
  // interface's own latency accounting: same counts, same total time.
  for (const PhaseBreakdown* b :
       {&tracer.phases().read, &tracer.phases().write}) {
    EXPECT_EQ(b->paced.count(), b->total.count());
    EXPECT_DOUBLE_EQ(
        b->paced.total_us() + b->queued.total_us() + b->media.total_us(),
        b->total.total_us());
  }
  EXPECT_EQ(tracer.phases().read.total.count(), load.read_latency.count());
  EXPECT_EQ(tracer.phases().write.total.count(), load.write_latency.count());
  EXPECT_DOUBLE_EQ(tracer.phases().read.total.total_us(),
                   load.read_latency.total_us());
  EXPECT_DOUBLE_EQ(tracer.phases().write.total.total_us(),
                   load.write_latency.total_us());
}

TEST(ObsTracer, GcPressureAttributesReadStallToGcByName) {
  ssd::Ssd ssd(GcHeavyConfig());
  const Us prefill_end = Prefill(ssd, 85);
  host::HostInterface host(ssd, host::HostConfig{});
  host.AdvanceTo(prefill_end);

  TracerConfig tc;
  tc.record_spans = false;
  Tracer tracer(tc);
  host.AttachTracer(&tracer);

  host::LoadGenerator(host, {MixedBurst(ssd, 0.5, 30000)}).Run();
  ASSERT_GT(ssd.ftl().stats().gc_erases, 0u) << "burst was expected to GC";

  const PhaseBreakdown& read = tracer.phases().read;
  const auto gc = static_cast<std::size_t>(StallCause::kDieBusyGc);
  EXPECT_GT(read.stall_us[gc], 0u)
      << "scheduled GC holds dies; read waits must name it";
  EXPECT_GT(read.stall_events[gc], 0u);
}

TEST(ObsTracer, WriteHoldAttributedUnderSustainedWrites) {
  ssd::Ssd ssd(GcHeavyConfig());
  const Us prefill_end = Prefill(ssd, 85);
  host::HostInterface host(ssd, host::HostConfig{});
  host.AdvanceTo(prefill_end);

  TracerConfig tc;
  tc.record_spans = false;
  Tracer tracer(tc);
  host.AttachTracer(&tracer);

  host::LoadGenerator(host, {MixedBurst(ssd, 0.0, 30000)}).Run();
  ASSERT_GT(host.scheduler().WriteHoldPicks(), 0u)
      << "the admission guard was expected to engage";

  const PhaseBreakdown& write = tracer.phases().write;
  const auto hold = static_cast<std::size_t>(StallCause::kWriteHold);
  EXPECT_GT(write.stall_events[hold], 0u)
      << "held writes must book their queue time as write-hold";
}

// The observer seam must be invisible: the legacy OnDispatch callback (now
// an adapter on the observer list) sees the identical dispatch sequence
// whether or not a tracer is also attached, and every simulated outcome is
// bit-identical.  This is the regression lock for promoting the test-only
// hook onto the tracer sink interface.
TEST(ObsTracer, AttachingTracerNeverChangesDispatchOrder) {
  using DispatchKey = std::tuple<std::uint8_t, std::uint64_t, std::uint64_t>;
  const auto run = [](bool with_tracer) {
    ssd::Ssd ssd(GcHeavyConfig());
    const Us prefill_end = Prefill(ssd, 85);
    host::HostInterface host(ssd, host::HostConfig{});
    host.AdvanceTo(prefill_end);

    std::vector<DispatchKey> order;
    host.scheduler().OnDispatch([&](const sched::FlashTransaction& txn) {
      order.emplace_back(static_cast<std::uint8_t>(txn.source),
                         txn.request_id, txn.seq);
    });
    Tracer tracer;
    if (with_tracer) host.AttachTracer(&tracer);

    const host::LoadStats load =
        host::LoadGenerator(host, {MixedBurst(ssd, 0.3, 10000)}).Run().total;
    return std::tuple{std::move(order), load.end_us,
                      load.read_latency.total_us(),
                      load.write_latency.total_us(),
                      ssd.ftl().stats().gc_erases,
                      ssd.ftl().stats().gc_page_copies};
  };
  const auto bare = run(false);
  const auto traced = run(true);
  ASSERT_FALSE(std::get<0>(bare).empty());
  EXPECT_EQ(bare, traced);
}

TEST(ObsTracer, OnDispatchReplacementDetachesOldCallback) {
  ssd::Ssd ssd(GcHeavyConfig());
  const Us prefill_end = Prefill(ssd, 50);
  host::HostInterface host(ssd, host::HostConfig{});
  host.AdvanceTo(prefill_end);

  std::uint64_t first = 0, second = 0;
  host.scheduler().OnDispatch(
      [&](const sched::FlashTransaction&) { ++first; });
  host.scheduler().OnDispatch(
      [&](const sched::FlashTransaction&) { ++second; });
  host::LoadGenerator(host, {MixedBurst(ssd, 0.5, 200)}).Run();
  EXPECT_EQ(first, 0u) << "replaced callback must stop firing";
  EXPECT_GT(second, 0u);

  // Clearing the callback detaches the adapter entirely.
  host.scheduler().OnDispatch(nullptr);
  host::LoadGenerator(host, {MixedBurst(ssd, 0.5, 200)}).Run();
  EXPECT_GT(second, 0u);
}

TEST(ObsTracer, EpochRowsTileTheRunAndMergeToTheAggregate) {
  ssd::Ssd ssd(GcHeavyConfig());
  const Us prefill_end = Prefill(ssd, 85);
  host::HostInterface host(ssd, host::HostConfig{});
  host.AdvanceTo(prefill_end);

  TracerConfig tc;
  tc.record_spans = false;
  tc.metrics_epoch_us = 10'000;
  tc.epoch_base_us = prefill_end;
  Tracer tracer(tc);
  host.AttachTracer(&tracer);

  host::LoadGenerator(host, {MixedBurst(ssd, 0.5, 10000)}).Run();

  ASSERT_FALSE(tracer.epoch_phases().empty());
  PhaseStats merged;
  for (const PhaseStats& row : tracer.epoch_phases()) merged.Merge(row);
  EXPECT_EQ(merged.read.total.count(), tracer.phases().read.total.count());
  EXPECT_EQ(merged.write.total.count(), tracer.phases().write.total.count());
  EXPECT_DOUBLE_EQ(merged.read.total.total_us(),
                   tracer.phases().read.total.total_us());
}

}  // namespace
}  // namespace ctflash::obs
