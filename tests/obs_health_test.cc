// Health/SLO monitor unit tests plus the contracts the cluster's
// observation-driven control loop stands on:
//   * HealthMonitor state transitions are one-way (monotone) under a
//     monotone signal ramp — the property that makes predictive drains
//     stable instead of flapping;
//   * the signal cap lets the EWMA actually cross the failing threshold
//     (an EWMA of values clipped AT 1.0 converges from below forever);
//   * the program-verify signal fires on the FIRST sick window, before
//     any spare-pool burn — the early-warning path the on_observed
//     policy drains on;
//   * the scheduler observer seam: every attached observer sees the
//     identical DispatchContext stream, and detaching while transactions
//     are in flight stops events cleanly without disturbing the run.
#include "obs/health.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "host/host_interface.h"
#include "host/load_generator.h"
#include "obs/slo.h"
#include "sched/observer.h"
#include "ssd/experiment.h"
#include "ssd/ssd.h"
#include "util/stats.h"

namespace ctflash::obs {
namespace {

// --- HealthMonitor ---------------------------------------------------------

HealthSample BaseSample() {
  HealthSample s;
  s.free_blocks = 64;
  s.retired_blocks = 0;
  s.total_blocks = 1024;
  s.gc_floor_blocks = 8;
  s.total_erases = 0;
  s.endurance_pe_cycles = 3000;
  return s;
}

TEST(HealthMonitor, FreshMonitorIsHealthy) {
  HealthMonitor mon;
  EXPECT_EQ(mon.windows(), 0u);
  EXPECT_DOUBLE_EQ(mon.score(), 0.0);
  EXPECT_EQ(mon.state(), HealthState::kHealthy);
  const std::string dump = mon.ToJson().Dump();
  EXPECT_NE(dump.find("\"state\""), std::string::npos);
  EXPECT_NE(dump.find("healthy"), std::string::npos);
  EXPECT_NE(dump.find("\"program\""), std::string::npos);
}

TEST(HealthMonitor, AgedBaselineDoesNotStartSick) {
  // A device restored from an aged snapshot arrives with retirement and
  // error history on the clock.  Baseline-relative signals (spare) and
  // rate signals (media) measure against the FIRST sample, so the monitor
  // must still read healthy.  Wear is the exception by design: it is an
  // absolute odometer (mean P/E vs endurance) — an aged device IS further
  // through its life — so moderate absolute wear scores, mildly.
  HealthSample s = BaseSample();
  s.retired_blocks = 40;
  s.total_erases = 500'000;  // mean P/E ~488 of 3000: real but mild wear
  s.sampled_reads = 1'000'000;
  s.retried_reads = 900'000;

  HealthMonitor mon;
  mon.Observe(s);
  EXPECT_EQ(mon.state(), HealthState::kHealthy)
      << "baseline counters must not score as damage";
  EXPECT_DOUBLE_EQ(mon.signals().spare, 0.0);
  EXPECT_DOUBLE_EQ(mon.signals().media, 0.0);
  EXPECT_GT(mon.signals().wear, 0.0) << "the odometer still reads";
  EXPECT_LT(mon.signals().wear, 1.0);
}

TEST(HealthMonitor, StateTransitionsAreMonotoneUnderARamp) {
  HealthConfig hc;
  hc.ewma_alpha = 0.5;
  hc.spare_fail_frac = 0.5;
  HealthMonitor mon(hc);

  // Monotone spare-pool burn: retire blocks a few at a time until the
  // budget is gone.  Budget = baseline free (64) - floor (8) = 56; the
  // spare signal hits 1.0 at 28 retired (spare_fail_frac 0.5) and keeps
  // climbing to the cap past that.
  std::vector<HealthState> states;
  HealthSample s = BaseSample();
  for (std::uint64_t retired = 0; retired <= 112; retired += 8) {
    s.retired_blocks = retired;
    s.free_blocks = 64 > retired ? 64 - retired : 0;
    mon.Observe(s);
    states.push_back(mon.state());
  }

  for (std::size_t i = 1; i < states.size(); ++i) {
    EXPECT_GE(static_cast<int>(states[i]), static_cast<int>(states[i - 1]))
        << "health state regressed at window " << i
        << " under a monotone ramp";
  }
  EXPECT_EQ(states.front(), HealthState::kHealthy);
  EXPECT_EQ(states.back(), HealthState::kFailing);
  // The smoothed score trail is itself monotone for a monotone raw series.
  const std::vector<double>& series = mon.score_series();
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i], series[i - 1]);
  }
}

TEST(HealthMonitor, SignalOvershootLetsTheEwmaCrossFailing) {
  // A signal exactly AT its threshold scores 1.0 raw; the EWMA of 1.0s
  // converges to 1 from below and never crosses.  Overshoot (capped at 4)
  // is what makes kFailing reachable — lock that in.
  HealthConfig hc;
  hc.ewma_alpha = 0.4;
  hc.program_fail_rate = 0.05;
  HealthMonitor mon(hc);

  HealthSample s = BaseSample();
  mon.Observe(s);  // healthy baseline window
  for (int w = 0; w < 4; ++w) {
    s.program_pages += 1000;
    s.program_failures += 400;  // 8x the failing rate -> capped at 4.0
    mon.Observe(s);
  }
  EXPECT_DOUBLE_EQ(mon.signals().program, 4.0) << "cap should bound at 4";
  EXPECT_GT(mon.score(), 1.0);
  EXPECT_EQ(mon.state(), HealthState::kFailing);
}

TEST(HealthMonitor, ProgramSignalFiresBeforeSpareBurn) {
  // The wear ramp's first symptom: verify-fails on host writes, epochs
  // before any flagged block reaches a GC erase.  With zero retirement
  // the program signal alone must carry the score.
  HealthConfig hc;
  hc.program_fail_rate = 0.025;
  HealthMonitor mon(hc);

  HealthSample s = BaseSample();
  mon.Observe(s);
  s.program_pages += 10'000;
  s.program_failures += 500;  // window rate 0.05 = 2x threshold
  mon.Observe(s);
  EXPECT_DOUBLE_EQ(mon.signals().program, 2.0);
  EXPECT_DOUBLE_EQ(mon.signals().spare, 0.0);
  EXPECT_GT(mon.score(), hc.degraded_frac);
}

TEST(HealthMonitor, UnrecoveredReadPinsMediaAtTheCap) {
  HealthMonitor mon;
  HealthSample s = BaseSample();
  mon.Observe(s);
  s.sampled_reads += 1000;
  s.unrecovered_reads += 1;  // data loss: instant fail, pinned at the cap
  mon.Observe(s);
  EXPECT_DOUBLE_EQ(mon.signals().media, 4.0);
}

TEST(HealthMonitor, FreePoolBelowFloorIsBudgetSpent) {
  HealthConfig hc;
  hc.spare_fail_frac = 0.5;
  HealthMonitor mon(hc);
  HealthSample s = BaseSample();
  mon.Observe(s);
  // However it got there, free < floor means the spendable budget is gone.
  s.free_blocks = s.gc_floor_blocks - 1;
  mon.Observe(s);
  EXPECT_DOUBLE_EQ(mon.signals().spare, 2.0);  // 1.0 used / 0.5 frac
}

TEST(HealthMonitor, ValidateRejectsBadConfig) {
  HealthConfig hc;
  hc.ewma_alpha = 0.0;
  EXPECT_THROW(HealthMonitor{hc}, std::runtime_error);
  hc = HealthConfig{};
  hc.degraded_frac = 1.0;
  EXPECT_THROW(HealthMonitor{hc}, std::runtime_error);
  hc = HealthConfig{};
  hc.program_fail_rate = 1.5;
  EXPECT_THROW(HealthMonitor{hc}, std::runtime_error);
}

// --- SloMonitor ------------------------------------------------------------

util::QuantileEstimator WindowOf(const std::vector<std::uint64_t>& vals) {
  util::QuantileEstimator q;
  for (const std::uint64_t v : vals) q.Add(v);
  return q;
}

TEST(SloMonitor, BelowTargetNeverBreaches) {
  SloConfig sc;
  sc.target_us = 1000;
  sc.min_samples = 4;
  SloMonitor mon(sc);
  for (int w = 0; w < 6; ++w) {
    mon.ObserveWindow(WindowOf({100, 200, 300, 400, 500}));
  }
  EXPECT_EQ(mon.windows(), 6u);
  EXPECT_EQ(mon.breaches(), 0u);
  EXPECT_FALSE(mon.alerting());
}

TEST(SloMonitor, LowSampleWindowsNeverJudge) {
  SloConfig sc;
  sc.target_us = 10;
  sc.min_samples = 16;
  SloMonitor mon(sc);
  // Two requests at 100x the target: a two-request window has no p99.
  mon.ObserveWindow(WindowOf({1000, 1000}));
  EXPECT_EQ(mon.breaches(), 0u);
  EXPECT_FALSE(mon.last_window_breached());
}

TEST(SloMonitor, OneNoisyWindowDoesNotPageASustainedBurnDoes) {
  SloConfig sc;
  sc.target_us = 500;
  sc.min_samples = 4;
  sc.burn_windows = 4;
  sc.burn_threshold = 0.5;
  SloMonitor mon(sc);

  const auto good = std::vector<std::uint64_t>{100, 120, 140, 160, 180};
  const auto bad = std::vector<std::uint64_t>{2000, 2100, 2200, 2300, 2400};

  for (int w = 0; w < 3; ++w) mon.ObserveWindow(WindowOf(good));
  mon.ObserveWindow(WindowOf(bad));  // one noisy window: 1/4 < 0.5
  EXPECT_TRUE(mon.last_window_breached());
  EXPECT_FALSE(mon.alerting()) << "a single bad window must not page";

  mon.ObserveWindow(WindowOf(bad));  // sustained: 2/4 >= 0.5 trips it
  EXPECT_TRUE(mon.alerting());
  EXPECT_DOUBLE_EQ(mon.burn_rate(), 0.5);

  const std::string dump = mon.ToJson().Dump();
  EXPECT_NE(dump.find("\"alerting\":true"), std::string::npos);
}

TEST(SloMonitor, DisabledTargetJudgesNothing) {
  SloMonitor mon;  // target_us = 0: off
  mon.ObserveWindow(WindowOf({1000000, 2000000, 3000000, 4000000}));
  EXPECT_EQ(mon.breaches(), 0u);
  EXPECT_FALSE(mon.alerting());
}

// --- Scheduler observer seam ----------------------------------------------

/// Records every event with enough context to compare streams.
class RecordingObserver : public sched::SchedulerObserver {
 public:
  struct Dispatch {
    std::uint64_t request_id;
    std::uint64_t seq;
    Us dispatch_us;
    Us enqueue_us;
    std::uint32_t die;
    Us die_free_at;
    bool write_held;

    bool operator==(const Dispatch&) const = default;
  };

  void OnDispatch(const sched::FlashTransaction& txn,
                  const sched::DispatchContext& c) override {
    dispatches.push_back({txn.request_id, txn.seq, c.dispatch_us,
                          c.enqueue_us, c.die, c.die_free_at, c.write_held});
  }
  void OnTxnExecuted(const sched::FlashTransaction&, std::uint32_t, Us,
                     Us) override {
    ++executed;
  }

  std::vector<Dispatch> dispatches;
  std::uint64_t executed = 0;
};

ssd::SsdConfig SmallQueuedConfig() {
  auto cfg = ssd::ScaledConfig(ssd::FtlKind::kConventional, 64ull << 20,
                               16 * 1024, 2.0);
  cfg.timing_mode = ftl::TimingMode::kQueued;
  return cfg;
}

TEST(SchedulerObserver, EveryObserverSeesIdenticalDispatchContexts) {
  ssd::Ssd ssd(SmallQueuedConfig());
  ssd::ExperimentRunner runner(ssd);
  const Us prefill_end = runner.Prefill(ssd.LogicalBytes() / 2);
  host::HostInterface host(ssd, host::HostConfig{});
  host.AdvanceTo(prefill_end);

  RecordingObserver a;
  RecordingObserver b;
  host.scheduler().AttachObserver(&a);
  host.scheduler().AttachObserver(&b);

  host::TenantWorkload burst;
  burst.queue_depth = 8;
  burst.total_requests = 2000;
  burst.read_fraction = 0.5;
  burst.footprint_bytes = ssd.LogicalBytes() / 2;
  burst.seed = 11;
  host::LoadGenerator(host, {burst}).Run();

  ASSERT_FALSE(a.dispatches.empty());
  EXPECT_EQ(a.dispatches, b.dispatches)
      << "all observers must see one dispatch stream with one context";
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_GT(a.executed, 0u);
}

TEST(SchedulerObserver, DetachWhileTxnsInFlightStopsEventsCleanly) {
  ssd::Ssd ssd(SmallQueuedConfig());
  ssd::ExperimentRunner runner(ssd);
  const Us prefill_end = runner.Prefill(ssd.LogicalBytes() / 2);
  host::HostInterface host(ssd, host::HostConfig{});
  host.AdvanceTo(prefill_end);

  RecordingObserver transient;
  RecordingObserver persistent;
  host.scheduler().AttachObserver(&transient);
  host.scheduler().AttachObserver(&persistent);

  // Fill the device queue, then advance only partway so transactions are
  // genuinely in flight (dispatched, not yet executed) at detach time.
  for (int i = 0; i < 64; ++i) {
    host.Submit(trace::OpType::kRead, (i * 16384ull) % ssd.LogicalBytes(),
                16384);
  }
  host.AdvanceTo(prefill_end + 50);
  ASSERT_GT(host.scheduler().InFlight(), 0u)
      << "test needs in-flight transactions at the detach point";
  ASSERT_GT(transient.dispatches.size(), 0u);
  const std::size_t dispatched_at_detach = transient.dispatches.size();
  const std::uint64_t executed_at_detach = transient.executed;
  host.scheduler().DetachObserver(&transient);

  host.AdvanceTo(prefill_end + 10'000'000);
  EXPECT_EQ(host.scheduler().InFlight(), 0u);

  // The detached observer is frozen — no dispatches, and crucially no
  // executions for transactions that were in flight when it left.
  EXPECT_EQ(transient.dispatches.size(), dispatched_at_detach);
  EXPECT_EQ(transient.executed, executed_at_detach);
  // The surviving observer kept receiving everything.
  EXPECT_EQ(persistent.dispatches.size(), 64u);
  EXPECT_EQ(persistent.executed, 64u);

  // Re-attach after the fact: the stream resumes for new work.
  host.scheduler().AttachObserver(&transient);
  host.Submit(trace::OpType::kRead, 0, 16384);
  host.AdvanceTo(prefill_end + 20'000'000);
  EXPECT_EQ(transient.dispatches.size(), dispatched_at_detach + 1);
}

}  // namespace
}  // namespace ctflash::obs
