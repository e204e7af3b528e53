// Exporter unit tests on a hand-driven tracer: the Chrome trace-event JSON
// round-trips through the project's own parser, spans/metadata land on the
// right tracks, phase arithmetic is exact on synthetic event streams, and
// identical event streams serialize to identical bytes (the digest the
// campaign/cluster determinism assertions reuse).
#include "obs/export.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "obs/phase.h"
#include "obs/tracer.h"
#include "sched/observer.h"
#include "sched/transaction.h"

namespace ctflash::obs {
namespace {

sched::FlashTransaction HostRead(std::uint32_t host_slot,
                                 std::uint64_t request_id, std::uint64_t seq,
                                 Lpn lpn) {
  sched::FlashTransaction txn;
  txn.host_slot = host_slot;
  txn.request_id = request_id;
  txn.seq = seq;
  txn.source = sched::TxnSource::kHostRead;
  txn.lpn = lpn;
  return txn;
}

sched::FlashTransaction GcCopy(std::uint64_t job, std::uint64_t seq) {
  sched::FlashTransaction txn;
  txn.request_id = job;
  txn.seq = seq;
  txn.source = sched::TxnSource::kGcCopy;
  txn.gc_src = 0;
  txn.gc_block = 1;
  return txn;
}

sched::DispatchContext At(std::uint32_t slot, Us dispatch_us, Us enqueue_us,
                          std::uint32_t die, Us die_free_at) {
  sched::DispatchContext ctx;
  ctx.slot = slot;
  ctx.dispatch_us = dispatch_us;
  ctx.enqueue_us = enqueue_us;
  ctx.die = die;
  ctx.die_free_at = die_free_at;
  return ctx;
}

/// One deterministic synthetic stream: a GC copy occupies die 2, a host
/// read dispatches behind it, a retry ladder fires, and the request
/// completes.  Phase arithmetic: paced 10, queued 10, media 80.  Request 1
/// holds host slot 0; the copy and the read hold in-flight slots 0 and 1.
void DriveOne(Tracer& tracer) {
  tracer.OnDispatch(GcCopy(900, 1), At(/*slot=*/0, 100, 90, 2, 100));
  tracer.OnSubmit(/*slot=*/0, /*request_id=*/1, /*is_read=*/true,
                  /*tenant=*/0, /*submit_us=*/100);
  tracer.OnThrottled(0, 1);
  tracer.OnAdmit(0, 1, /*queue=*/0, /*admit_us=*/110);
  tracer.OnDispatch(HostRead(0, 1, 2, 7), At(/*slot=*/1, 120, 110, 2, 150));
  tracer.OnTxnExecuted(GcCopy(900, 1), /*slot=*/0, 100, 150);
  tracer.OnReadRetry(/*die=*/2, /*start_us=*/160, /*dur_us=*/20, /*rungs=*/2,
                     /*recovered=*/true);
  tracer.OnTxnExecuted(HostRead(0, 1, 2, 7), /*slot=*/1, 120, 200);
  tracer.OnUnreachable(/*die=*/3, /*now_us=*/210);
  tracer.OnRequestComplete(0, 1, 200);
}

TracerConfig FullConfig() {
  TracerConfig cfg;
  cfg.record_spans = true;
  cfg.record_requests = true;
  cfg.metrics_epoch_us = 100;
  cfg.epoch_base_us = 0;
  return cfg;
}

TEST(ObsExport, SyntheticStreamPhaseArithmeticIsExact) {
  Tracer tracer(FullConfig());
  DriveOne(tracer);

  ASSERT_EQ(tracer.requests().size(), 1u);
  const PhaseRecord& r = tracer.requests()[0];
  EXPECT_EQ(r.PacedUs(), 10);
  EXPECT_EQ(r.QueuedUs(), 10);
  EXPECT_EQ(r.MediaUs(), 80);
  EXPECT_EQ(r.TotalUs(), 100);
  EXPECT_EQ(r.PacedUs() + r.QueuedUs() + r.MediaUs(), r.TotalUs());
  EXPECT_EQ(r.pace_cause, StallCause::kTokenBucket);
  // The read dispatched onto die 2 while GC job 900 was still in flight
  // there: the 30 us die wait is attributed to GC by name.
  EXPECT_EQ(r.media_cause, StallCause::kDieBusyGc);
  EXPECT_EQ(r.media_stall_us, 30);

  const PhaseBreakdown& read = tracer.phases().read;
  EXPECT_EQ(read.total.count(), 1u);
  EXPECT_DOUBLE_EQ(read.paced.total_us() + read.queued.total_us() +
                       read.media.total_us(),
                   read.total.total_us());
  EXPECT_EQ(read.stall_us[static_cast<std::size_t>(StallCause::kDieBusyGc)],
            30u);
  EXPECT_EQ(tracer.PendingRequests(), 0u);
}

TEST(ObsExport, ChromeTraceRoundTripsThroughJsonParser) {
  Tracer tracer(FullConfig());
  DriveOne(tracer);

  const std::string trace = ChromeTraceJson(tracer);
  const campaign::Json parsed = campaign::Json::Parse(trace);
  const campaign::Json* events = parsed.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->AsArray().empty());

  std::uint64_t metas = 0, spans = 0, counters = 0;
  bool saw_gc_span = false, saw_retry = false, saw_die_lost = false;
  for (const campaign::Json& e : events->AsArray()) {
    const std::string ph = e.GetStringOr("ph", "");
    if (ph == "M") ++metas;
    if (ph == "C") ++counters;
    if (ph == "X") {
      ++spans;
      const std::string name = e.GetStringOr("name", "");
      if (name == "gc-copy") saw_gc_span = true;
      if (name == "read-retry") saw_retry = true;
      if (name == "die-lost") saw_die_lost = true;
    }
  }
  EXPECT_GT(metas, 0u) << "track names missing";
  EXPECT_GT(spans, 0u);
  EXPECT_GT(counters, 0u) << "metrics_epoch_us > 0 should emit counters";
  EXPECT_TRUE(saw_gc_span);
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_die_lost);
}

TEST(ObsExport, IdenticalStreamsSerializeToIdenticalBytes) {
  Tracer a(FullConfig());
  Tracer b(FullConfig());
  DriveOne(a);
  DriveOne(b);
  const std::string ja = ChromeTraceJson(a);
  const std::string jb = ChromeTraceJson(b);
  EXPECT_EQ(ja, jb);
  EXPECT_EQ(TraceDigest(ja), TraceDigest(jb));
  EXPECT_EQ(TracerJson(a).Dump(2), TracerJson(b).Dump(2));
}

TEST(ObsExport, FleetExportSkipsNullTracersAndSplitsProcesses) {
  Tracer tracer(FullConfig());
  DriveOne(tracer);
  const std::vector<std::pair<std::string, const Tracer*>> fleet = {
      {"dev0", &tracer}, {"dev1", nullptr}};
  const campaign::Json parsed = campaign::Json::Parse(ChromeTraceJson(fleet));
  bool saw_dev0 = false, saw_dev1 = false;
  for (const campaign::Json& e : parsed.Get("traceEvents")->AsArray()) {
    if (e.GetStringOr("ph", "") != "M") continue;
    if (e.GetStringOr("name", "") != "process_name") continue;
    const std::string name = e.Get("args")->GetStringOr("name", "");
    if (name == "dev0") saw_dev0 = true;
    if (name == "dev1") saw_dev1 = true;
  }
  EXPECT_TRUE(saw_dev0);
  EXPECT_FALSE(saw_dev1);
}

TEST(ObsExport, ChargeDeadDeviceBooksTimeoutsAsDeadDeviceStall) {
  TracerConfig cfg;
  cfg.record_spans = false;
  cfg.metrics_epoch_us = 1000;
  Tracer tracer(cfg);
  tracer.OnSubmit(0, 5, true, 0, 100);  // stranded in flight
  tracer.ChargeDeadDevice(/*reads=*/2, /*writes=*/1, /*charged_us=*/5000,
                          /*at_us=*/1500);

  const PhaseStats& phases = tracer.phases();
  EXPECT_EQ(phases.read.total.count(), 2u);
  EXPECT_EQ(phases.write.total.count(), 1u);
  EXPECT_DOUBLE_EQ(phases.read.media.total_us(), 10000.0);
  const auto dead = static_cast<std::size_t>(StallCause::kDeadDevice);
  EXPECT_EQ(phases.read.stall_us[dead], 10000u);
  EXPECT_EQ(phases.read.stall_events[dead], 2u);
  // All in-flight tracer state for the device is gone.
  EXPECT_EQ(tracer.PendingRequests(), 0u);
  // The charge landed in epoch 1 (at_us 1500 on a 1000 us grid).
  ASSERT_GE(tracer.epoch_counters().size(), 2u);
  EXPECT_EQ(tracer.epoch_counters()[1].timeouts, 3u);

  const campaign::Json json = PhaseStatsJson(phases);
  EXPECT_EQ(json.Get("read")
                ->Get("stalls")
                ->Get("dead-device")
                ->GetUintOr("events", 0),
            2u);
}

TEST(ObsExport, SpanCapCountsDropsInsteadOfGrowing)  {
  TracerConfig cfg;
  cfg.record_spans = true;
  cfg.max_spans = 4;
  Tracer tracer(cfg);
  for (std::uint64_t i = 0; i < 10; ++i) {
    tracer.OnDispatch(GcCopy(i, i),
                      At(0, 100 + static_cast<Us>(i), 100, 0, 0));
    tracer.OnTxnExecuted(GcCopy(i, i), 0, 100 + static_cast<Us>(i),
                         110 + static_cast<Us>(i));
  }
  EXPECT_EQ(tracer.spans().size(), 4u);
  EXPECT_EQ(tracer.dropped_spans(), 6u);
}

}  // namespace
}  // namespace ctflash::obs
