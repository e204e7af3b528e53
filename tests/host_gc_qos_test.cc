// Property tests for the unified priority-transaction API (gc_routing =
// kScheduled): GC relocation work flows through the host IoScheduler as
// preemptible transactions instead of booking die timelines inline.
//
//  * conservation — every GC transaction the FTL emits is dispatched and
//    executed exactly once, and the device ends structurally consistent;
//  * no-starvation — under sustained writes the admission guard keeps the
//    free pool from falling below the GC trigger;
//  * preemption — a ready host read dispatches before every queued GC
//    copy (priority classes, die-level overtaking);
//  * QoS outcome — read latency during GC-heavy load improves over the
//    inline routing on the identical request stream;
//  * determinism — scheduled routing stays bit-for-bit reproducible.
#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <vector>

#include "ftl/conventional_ftl.h"
#include "host/host_interface.h"
#include "host/load_generator.h"
#include "sched/transaction.h"
#include "ssd/experiment.h"
#include "ssd/ssd.h"

namespace ctflash::host {
namespace {

ssd::SsdConfig QosConfig(ssd::FtlKind kind, ftl::GcRouting routing) {
  auto cfg = ssd::ScaledConfig(kind, 256ull << 20, 16 * 1024, 2.0);
  cfg.timing_mode = ftl::TimingMode::kQueued;
  cfg.ftl.gc_routing = routing;
  return cfg;
}

/// Synchronous prefill BEFORE the host interface exists: the GC sink is not
/// attached yet, so inline GC keeps the pool healthy regardless of routing.
Us Prefill(ssd::Ssd& ssd, std::uint32_t fraction_pct) {
  ssd::ExperimentRunner runner(ssd);
  return runner.Prefill(ssd.LogicalBytes() / 100 * fraction_pct);
}

TenantWorkload WriteBurst(const ssd::Ssd& ssd, double read_frac,
                          std::uint64_t requests) {
  TenantWorkload burst;
  burst.queue_depth = 16;
  burst.total_requests = requests;
  burst.read_fraction = read_frac;
  burst.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
  burst.seed = 7;
  return burst;
}

void ExpectGcConservation(ssd::Ssd& ssd, const HostInterface& host) {
  auto& ftl = ssd.ftl();
  EXPECT_GT(ftl.stats().gc_erases, 0u) << "workload was expected to GC";
  EXPECT_GT(ftl.GcTransactionsEmitted(), 0u);
  EXPECT_EQ(ftl.GcTransactionsOutstanding(), 0u);
  EXPECT_EQ(ftl.GcTransactionsEmitted(), ftl.GcTransactionsExecuted());
  EXPECT_EQ(host.scheduler().GcReadyCount(), 0u);
  EXPECT_EQ(host.scheduler().GcDispatchedCount(),
            ftl.GcTransactionsExecuted());
  EXPECT_EQ(host.scheduler().GcDispatchedCount(),
            host.scheduler().GcCompletedCount());
  // Scheduled GC replenished the pool past the trigger before standing down.
  EXPECT_GT(ftl.FreeBlockCount(), ftl.config().gc_threshold_low);
}

TEST(GcQos, ScheduledConservationConventional) {
  ssd::Ssd ssd(QosConfig(ssd::FtlKind::kConventional, ftl::GcRouting::kScheduled));
  const Us prefill_end = Prefill(ssd, 80);
  HostInterface host(ssd, HostConfig{});
  host.AdvanceTo(prefill_end);
  LoadGenerator(host, {WriteBurst(ssd, 0.2, 30000)}).Run();
  ExpectGcConservation(ssd, host);
  const auto& conv = dynamic_cast<const ftl::ConventionalFtl&>(ssd.ftl());
  EXPECT_TRUE(conv.CheckInvariants());
}

TEST(GcQos, ScheduledConservationPpb) {
  ssd::Ssd ssd(QosConfig(ssd::FtlKind::kPpb, ftl::GcRouting::kScheduled));
  const Us prefill_end = Prefill(ssd, 80);
  HostInterface host(ssd, HostConfig{});
  host.AdvanceTo(prefill_end);
  LoadGenerator(host, {WriteBurst(ssd, 0.2, 30000)}).Run();
  ExpectGcConservation(ssd, host);
  ASSERT_NE(ssd.ppb(), nullptr);
  EXPECT_TRUE(ssd.ppb()->CheckInvariants());
}

TEST(GcQos, NoStarvationUnderSustainedWritesConventional) {
  // Pure sustained writes at QD 16: without the admission guard the write
  // class would monopolize the device and write the pool empty.  The guard
  // holds writes while GC transactions are ready and the pool sits at the
  // floor, so the pool never falls below the GC trigger.
  ssd::Ssd ssd(QosConfig(ssd::FtlKind::kConventional, ftl::GcRouting::kScheduled));
  const Us prefill_end = Prefill(ssd, 80);
  HostInterface host(ssd, HostConfig{});
  host.AdvanceTo(prefill_end);
  ssd.ftl().ResetFreePoolWatermark();
  LoadGenerator(host, {WriteBurst(ssd, 0.0, 30000)}).Run();
  EXPECT_GT(ssd.ftl().stats().gc_erases, 0u);
  EXPECT_GE(ssd.ftl().blocks().MinFreeWatermark(),
            ssd.ftl().config().gc_threshold_low);
  // The floor held because the admission guard actually engaged.
  EXPECT_GT(host.scheduler().WriteHoldPicks(), 0u);
}

TEST(GcQos, NoStarvationUnderSustainedWritesPpb) {
  // PPB relocations scatter across per-(area, class) lists, so one victim
  // can claim more open blocks mid-relocation than the conventional
  // single GC stream — PpbFtl widens GcScheduleLead() to cover that
  // fan-out, and the pool still never falls below the GC trigger.
  ssd::Ssd ssd(QosConfig(ssd::FtlKind::kPpb, ftl::GcRouting::kScheduled));
  const Us prefill_end = Prefill(ssd, 80);
  HostInterface host(ssd, HostConfig{});
  host.AdvanceTo(prefill_end);
  ssd.ftl().ResetFreePoolWatermark();
  LoadGenerator(host, {WriteBurst(ssd, 0.0, 30000)}).Run();
  EXPECT_GT(ssd.ftl().stats().gc_erases, 0u);
  EXPECT_GE(ssd.ftl().blocks().MinFreeWatermark(),
            ssd.ftl().config().gc_threshold_low);
  // The floor held because the admission guard actually engaged.
  EXPECT_GT(host.scheduler().WriteHoldPicks(), 0u);
}

TEST(GcQos, NoStarvationTightThresholdsPpb) {
  // Regression guard for the admission-floor sizing: with a tight trigger
  // (gc_threshold_low = 3) a lead that undercounts PPB's per-victim claim
  // fan-out would let the pool hit zero mid-relocation and abort on the
  // must-claim CHECK.  The variant-sized GcScheduleLead() keeps the run
  // alive and the pool at/above the trigger.
  auto cfg = QosConfig(ssd::FtlKind::kPpb, ftl::GcRouting::kScheduled);
  cfg.ftl.gc_threshold_low = 3;
  cfg.ftl.gc_threshold_high = 6;
  ssd::Ssd ssd(cfg);
  const Us prefill_end = Prefill(ssd, 80);
  HostInterface host(ssd, HostConfig{});
  host.AdvanceTo(prefill_end);
  ssd.ftl().ResetFreePoolWatermark();
  LoadGenerator(host, {WriteBurst(ssd, 0.0, 30000)}).Run();
  EXPECT_GT(ssd.ftl().stats().gc_erases, 0u);
  EXPECT_GE(ssd.ftl().blocks().MinFreeWatermark(),
            ssd.ftl().config().gc_threshold_low);
  ASSERT_NE(ssd.ppb(), nullptr);
  EXPECT_TRUE(ssd.ppb()->CheckInvariants());
}

TEST(GcQos, HostReadPreemptsQueuedGcCopies) {
  // Deterministic preemption probe: the moment the first GC copy
  // dispatches, schedule a host read of a mapped page.  From that point
  // until the read dispatches, NO further GC transaction may dispatch —
  // the read outranks GC in every state (even urgency-boosted GC only
  // rises above host writes).
  ssd::Ssd ssd(QosConfig(ssd::FtlKind::kConventional, ftl::GcRouting::kScheduled));
  const Us prefill_end = Prefill(ssd, 80);
  HostConfig cfg;
  cfg.device_slots = 4;  // small command queue: GC really queues
  HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);

  const std::uint32_t page = ssd.config().geometry.page_size_bytes;
  Lpn probe_lpn = 0;
  while (ssd.ftl().ProbePpn(probe_lpn) == kInvalidPpn) ++probe_lpn;

  std::vector<sched::TxnSource> trace;
  std::size_t read_submitted_at = ~std::size_t{0};
  std::size_t probe_read_pos = ~std::size_t{0};
  bool probe_submitted = false;
  host.scheduler().OnDispatch([&](const FlashTransaction& txn) {
    trace.push_back(txn.source);
    if (txn.source == sched::TxnSource::kGcCopy && !probe_submitted) {
      probe_submitted = true;
      // Fires right after the current event finishes, while the rest of
      // the GC job still queues.
      host.queue().ScheduleAt(host.queue().Now(), [&](Us) {
        read_submitted_at = trace.size();
        host.Submit(trace::OpType::kRead, probe_lpn * page, page);
      });
    } else if (txn.source == sched::TxnSource::kHostRead &&
               probe_submitted && probe_read_pos == ~std::size_t{0} &&
               read_submitted_at != ~std::size_t{0}) {
      probe_read_pos = trace.size() - 1;
    }
  });

  LoadGenerator(host, {WriteBurst(ssd, 0.0, 20000)}).Run();

  ASSERT_TRUE(probe_submitted) << "workload never produced a GC copy";
  ASSERT_NE(probe_read_pos, ~std::size_t{0}) << "probe read never dispatched";
  for (std::size_t i = read_submitted_at; i < probe_read_pos; ++i) {
    EXPECT_FALSE(sched::IsGc(trace[i]))
        << "GC transaction dispatched at " << i
        << " while a host read was ready (read dispatched at "
        << probe_read_pos << ")";
  }
  EXPECT_GT(host.scheduler().GcDispatchedCount(), 0u);
}

TEST(GcQos, EraseNeverDispatchesBeforeItsCopies) {
  // Per-victim dependency: in the dispatch trace, each gc-erase must come
  // after every gc-copy of the same job (the victim is fully relocated
  // before its erase books the die).
  ssd::Ssd ssd(QosConfig(ssd::FtlKind::kConventional, ftl::GcRouting::kScheduled));
  const Us prefill_end = Prefill(ssd, 80);
  HostInterface host(ssd, HostConfig{});
  host.AdvanceTo(prefill_end);

  std::vector<FlashTransaction> gc_trace;
  host.scheduler().OnDispatch([&](const FlashTransaction& txn) {
    if (sched::IsGc(txn.source)) gc_trace.push_back(txn);
  });
  LoadGenerator(host, {WriteBurst(ssd, 0.1, 30000)}).Run();

  ASSERT_FALSE(gc_trace.empty());
  std::uint64_t erased_jobs = 0;
  for (std::size_t i = 0; i < gc_trace.size(); ++i) {
    if (gc_trace[i].source != sched::TxnSource::kGcErase) continue;
    ++erased_jobs;
    for (std::size_t j = i + 1; j < gc_trace.size(); ++j) {
      EXPECT_NE(gc_trace[j].request_id, gc_trace[i].request_id)
          << "transaction of job " << gc_trace[i].request_id
          << " dispatched after its erase";
    }
  }
  EXPECT_GT(erased_jobs, 0u);
}

TEST(GcQos, ScheduledReadLatencyBeatsInlineUnderGcPressure) {
  // The acceptance shape in miniature: identical mixed request stream over
  // a GC-heavy phase; scheduled routing lets reads overtake queued GC
  // copies, so aggregate read latency strictly improves.
  auto run = [](ftl::GcRouting routing) {
    ssd::Ssd ssd(QosConfig(ssd::FtlKind::kConventional, routing));
    const Us prefill_end = Prefill(ssd, 80);
    HostInterface host(ssd, HostConfig{});
    host.AdvanceTo(prefill_end);
    const LoadStats load =
        LoadGenerator(host, {WriteBurst(ssd, 0.5, 40000)}).Run().total;
    return std::tuple{load.read_latency.total_us(),
                      load.read_latency.p99_us(),
                      ssd.ftl().stats().gc_erases};
  };
  const auto inline_run = run(ftl::GcRouting::kInline);
  const auto sched_run = run(ftl::GcRouting::kScheduled);
  EXPECT_GT(std::get<2>(inline_run), 0u);
  EXPECT_GT(std::get<2>(sched_run), 0u);
  EXPECT_LT(std::get<0>(sched_run), std::get<0>(inline_run));
  EXPECT_LT(std::get<1>(sched_run), std::get<1>(inline_run));
}

TEST(GcQos, ScheduledRoutingDeterministicAcrossRuns) {
  auto run = [] {
    ssd::Ssd ssd(QosConfig(ssd::FtlKind::kPpb, ftl::GcRouting::kScheduled));
    const Us prefill_end = Prefill(ssd, 80);
    HostInterface host(ssd, HostConfig{});
    host.AdvanceTo(prefill_end);
    const LoadStats load =
        LoadGenerator(host, {WriteBurst(ssd, 0.3, 20000)}).Run().total;
    return std::tuple{load.end_us, load.read_latency.total_us(),
                      load.write_latency.total_us(),
                      ssd.ftl().stats().gc_erases,
                      ssd.ftl().stats().gc_page_copies,
                      ssd.ftl().stats().gc_stale_copies,
                      host.scheduler().ReadPreemptionsOfGc()};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

TEST(GcQos, ScheduledRoutingRejectsServiceTimeDevice) {
  // Scheduled GC arbitrates against die occupancy; a service-time device
  // has none, so every latency it reported would silently be garbage.
  auto cfg = QosConfig(ssd::FtlKind::kConventional, ftl::GcRouting::kScheduled);
  cfg.timing_mode = ftl::TimingMode::kServiceTime;
  EXPECT_THROW(ssd::Ssd{cfg}, std::invalid_argument);
}

TEST(GcQos, ChargeGcToWriteIsInlineOnly) {
  // Foreground-GC accounting models the inline path stalling the
  // triggering write; with scheduled routing it would be a silent no-op.
  auto cfg = QosConfig(ssd::FtlKind::kConventional, ftl::GcRouting::kScheduled);
  cfg.ftl.charge_gc_to_write = true;
  EXPECT_THROW(cfg.ftl.Validate(), std::invalid_argument);
}

TEST(GcQos, SecondGcSchedulerRejectedWhileFirstAttached) {
  // One GC sink at a time: a second scheduler's destructor would wipe plan
  // state the first still depends on.  Sequential replacement stays legal.
  ssd::Ssd ssd(QosConfig(ssd::FtlKind::kConventional, ftl::GcRouting::kScheduled));
  {
    HostInterface host(ssd, HostConfig{});
    EXPECT_THROW((HostInterface{ssd, HostConfig{}}), std::logic_error);
  }
  EXPECT_NO_THROW((HostInterface{ssd, HostConfig{}}));
}

TEST(GcQos, ScheduledGcTimeBoundedByMakespan) {
  // Scheduled transactions overlap on the die timelines; gc_time_us counts
  // the union of their busy intervals, so it can never exceed the run's
  // makespan (summing per-transaction waits used to blow well past it).
  ssd::Ssd ssd(QosConfig(ssd::FtlKind::kConventional, ftl::GcRouting::kScheduled));
  const Us prefill_end = Prefill(ssd, 80);
  HostInterface host(ssd, HostConfig{});
  host.AdvanceTo(prefill_end);
  const LoadStats load =
      LoadGenerator(host, {WriteBurst(ssd, 0.2, 30000)}).Run().total;
  EXPECT_GT(ssd.ftl().stats().gc_erases, 0u);
  EXPECT_GT(ssd.ftl().stats().gc_time_us, 0u);
  EXPECT_LE(ssd.ftl().stats().gc_time_us, load.end_us);
}

}  // namespace
}  // namespace ctflash::host
