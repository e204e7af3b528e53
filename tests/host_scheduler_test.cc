// IoScheduler properties the ROADMAP's scaling work leans on: transaction
// conservation, die exclusivity, FIFO-vs-out-of-order latency ordering,
// and bit-for-bit determinism of closed-loop runs.
#include "host/io_scheduler.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "host/host_interface.h"
#include "host/load_generator.h"
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

/// Mapped lpns currently living on (predicate true) / off the given die.
std::vector<Lpn> LpnsOnDie(ssd::Ssd& ssd, std::uint64_t die, bool on,
                           std::size_t count) {
  const auto& geo = ssd.config().geometry;
  std::vector<Lpn> out;
  const Lpn logical_pages = ssd.LogicalBytes() / geo.page_size_bytes;
  for (Lpn lpn = 0; lpn < logical_pages && out.size() < count; ++lpn) {
    const Ppn ppn = ssd.ftl().ProbePpn(lpn);
    if (ppn == kInvalidPpn) continue;
    const bool here = geo.DieOfBlock(geo.BlockOf(ppn)) == die;
    if (here == on) out.push_back(lpn);
  }
  return out;
}

TEST(IoScheduler, TransactionConservation) {
  // Every submitted page dispatches and completes exactly once, across
  // multi-page requests, sub-page requests and wrapped offsets.
  ssd::Ssd ssd(SmallConfig());
  const Us prefill_end = Prefill(ssd, 60);
  HostConfig cfg;
  cfg.device_slots = 8;
  HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);

  std::map<std::uint64_t, int> completions;
  std::uint64_t pages_reported = 0;
  const std::uint64_t logical = ssd.LogicalBytes();
  const std::uint64_t sizes[] = {4096, 16 * 1024, 48 * 1024, 128 * 1024};
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t size = sizes[i % 4];
    const std::uint64_t offset = (static_cast<std::uint64_t>(i) * 37 * 16 *
                                  1024) % (logical + 64 * 1024);  // some wrap
    const trace::OpType op =
        i % 3 == 0 ? trace::OpType::kWrite : trace::OpType::kRead;
    host.Submit(op, offset, size, [&](const HostCompletion& c) {
      completions[c.request.id]++;
      pages_reported += c.pages;
    });
  }
  host.Run();

  EXPECT_EQ(host.stats().submitted, static_cast<std::uint64_t>(n));
  EXPECT_EQ(host.stats().completed, static_cast<std::uint64_t>(n));
  EXPECT_EQ(completions.size(), static_cast<std::size_t>(n));
  for (const auto& [id, count] : completions) EXPECT_EQ(count, 1) << id;
  // Dispatched == completed == sum of per-request page counts.
  EXPECT_EQ(host.TxnsDispatched(), host.stats().transactions_completed);
  EXPECT_EQ(host.stats().transactions_completed, pages_reported);
  EXPECT_EQ(host.Outstanding(), 0u);
}

TEST(IoScheduler, DieExclusivityNoOverlappingReservations) {
  // A die's added busy time can never exceed the span it had available —
  // overlapping reservations on one die would violate this.
  ssd::Ssd ssd(SmallConfig());
  const Us prefill_end = Prefill(ssd, 60);
  HostInterface host(ssd, HostConfig{});
  host.AdvanceTo(prefill_end);
  const auto& dies = ssd.target().dies();
  std::vector<Us> busy_before(dies.Count());
  for (std::size_t i = 0; i < dies.Count(); ++i) {
    busy_before[i] = dies.At(i).BusyTime();
    ASSERT_LE(dies.At(i).FreeAt(), prefill_end);
  }
  const Us run_start = host.queue().Now();

  TenantWorkload stream;
  stream.queue_depth = 16;
  stream.total_requests = 3000;
  stream.read_fraction = 0.8;
  stream.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
  LoadGenerator(host, {stream}).Run();

  std::size_t active_dies = 0;
  for (std::size_t i = 0; i < dies.Count(); ++i) {
    const Us busy_delta = dies.At(i).BusyTime() - busy_before[i];
    if (busy_delta == 0) continue;  // die saw no traffic this run
    ++active_dies;
    const Us span = dies.At(i).FreeAt() - run_start;
    EXPECT_LE(busy_delta, span) << "die " << i << " reservations overlap";
  }
  EXPECT_GT(active_dies, 1u) << "run was expected to exercise many dies";
}

TEST(FlashTargetDies, QueuedCellOpsSerializePerDieNotPerChip) {
  // Two dies on one chip interleave cell ops (the parallelism the host
  // scheduler exploits); two ops on one die strictly serialize.
  nand::NandGeometry g;
  g.channels = 1;
  g.chips_per_channel = 1;
  g.dies_per_chip = 2;
  g.planes_per_die = 1;
  g.blocks_per_plane = 4;
  g.pages_per_block = 8;
  g.num_layers = 8;
  nand::NandTiming t;
  ftl::FlashTarget ft(g, t, 1000, ftl::TimingMode::kQueued);
  // Blocks stripe plane-major: block 0 -> die 0, block 1 -> die 1.
  ASSERT_EQ(g.DieOfBlock(0), 0u);
  ASSERT_EQ(g.DieOfBlock(1), 1u);
  ft.ProgramPage(g.PpnOf(0, 0), 0);
  ft.ProgramPage(g.PpnOf(1, 0), 0);

  const Us same_a = ft.ReadPage(g.PpnOf(0, 0), 10000);
  const Us same_b = ft.ReadPage(g.PpnOf(0, 0), 10000);  // same die: queues
  EXPECT_GT(same_b, same_a);

  ftl::FlashTarget ft2(g, t, 1000, ftl::TimingMode::kQueued);
  ft2.ProgramPage(g.PpnOf(0, 0), 0);
  ft2.ProgramPage(g.PpnOf(1, 0), 0);
  const Us cross_a = ft2.ReadPage(g.PpnOf(0, 0), 10000);
  const Us cross_b = ft2.ReadPage(g.PpnOf(1, 0), 10000);  // other die
  // Cell sensing overlaps; only the shared channel serializes, so the
  // second read beats the same-die case.
  EXPECT_LT(cross_b, same_b);
  EXPECT_GE(cross_a, 10000);
}

TEST(IoScheduler, OutOfOrderBeatsFifoOnDieSkewedLoad) {
  // A burst against one hot die followed by reads to idle dies: FIFO holds
  // the idle-die reads behind the burst (head-of-line blocking), while
  // out-of-order dispatch overtakes.  Same device state, same request
  // order, only the policy differs.
  auto run = [](SchedPolicy policy) {
    ssd::Ssd ssd(SmallConfig());
    const Us prefill_end = Prefill(ssd, 60);
    HostConfig cfg;
    cfg.policy = policy;
    cfg.device_slots = 2;  // small device queue: ready set really queues
    HostInterface host(ssd, cfg);
    host.AdvanceTo(prefill_end);

    const auto hot = LpnsOnDie(ssd, 0, true, 24);
    const auto cold = LpnsOnDie(ssd, 0, false, 8);
    EXPECT_GE(hot.size(), 24u);
    EXPECT_GE(cold.size(), 8u);
    const std::uint32_t page = ssd.config().geometry.page_size_bytes;
    for (const Lpn lpn : hot) {
      host.Submit(trace::OpType::kRead, lpn * page, page);
    }
    for (const Lpn lpn : cold) {
      host.Submit(trace::OpType::kRead, lpn * page, page);
    }
    host.Run();
    return host.stats().read_latency.total_us();
  };

  const double fifo = run(SchedPolicy::kFifo);
  const double ooo = run(SchedPolicy::kOutOfOrder);
  EXPECT_LT(ooo, fifo);
}

TEST(IoScheduler, UnmappedReadDoesNotLeapfrogMappedIdleDieRead) {
  // Regression for the KeyOf neutral-key fix: unmapped reads used to key as
  // {0, 0} — "startable now on plane 0" — which let them jump dies they
  // will never use, overtaking mapped reads that are equally startable on
  // a real idle die.  With the neutral key (startable now, worst plane)
  // the mapped read must dispatch first; the unmapped read, which carries
  // no flash work, loses the tie it had no stake in.
  ssd::Ssd ssd(SmallConfig());
  const Us prefill_end = Prefill(ssd, 60);
  HostConfig cfg;
  cfg.device_slots = 1;  // serialize picks: the ready set really queues
  HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);

  const auto& geo = ssd.config().geometry;
  const std::uint32_t page = geo.page_size_bytes;
  // A mapped blocker, a mapped read on a DIFFERENT die (idle, startable
  // now), and an unmapped probe (prefill maps lpns from 0 upward, so the
  // top of the logical space is untouched).
  const auto blocker = LpnsOnDie(ssd, 0, true, 1);
  const auto mapped = LpnsOnDie(ssd, 0, false, 1);
  ASSERT_EQ(blocker.size(), 1u);
  ASSERT_EQ(mapped.size(), 1u);
  const Lpn unmapped = ssd.LogicalBytes() / page - 1;
  ASSERT_EQ(ssd.ftl().ProbePpn(unmapped), kInvalidPpn);

  std::vector<Lpn> dispatch_order;
  host.scheduler().OnDispatch(
      [&](const FlashTransaction& txn) { dispatch_order.push_back(txn.lpn); });

  host.Submit(trace::OpType::kRead, blocker[0] * page, page);
  host.Submit(trace::OpType::kRead, unmapped * page, page);
  host.Submit(trace::OpType::kRead, mapped[0] * page, page);
  host.Run();

  ASSERT_EQ(dispatch_order.size(), 3u);
  EXPECT_EQ(dispatch_order[0], blocker[0]);  // took the only slot instantly
  EXPECT_EQ(dispatch_order[1], mapped[0])
      << "mapped idle-die read must beat the unmapped read's neutral key";
  EXPECT_EQ(dispatch_order[2], unmapped);
}

TEST(IoScheduler, ClosedLoopQd8DeterministicAcrossRuns) {
  auto run = [] {
    ssd::Ssd ssd(SmallConfig());
    const Us prefill_end = Prefill(ssd, 60);
    HostInterface host(ssd, HostConfig{});
    host.AdvanceTo(prefill_end);
    TenantWorkload stream;
    stream.queue_depth = 8;
    stream.total_requests = 2000;
    stream.read_fraction = 0.75;
    stream.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
    stream.seed = 42;
    LoadGenerator generator(host, {stream});
    const LoadStats load = generator.Run().total;
    return std::tuple{generator.issued(), load.requests, load.end_us,
                      load.read_latency.total_us(),
                      load.write_latency.total_us(),
                      load.read_latency.p99_us(), load.Iops()};
  };

  const auto a = run();
  const auto b = run();
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));  // identical request streams
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  EXPECT_DOUBLE_EQ(std::get<3>(a), std::get<3>(b));
  EXPECT_DOUBLE_EQ(std::get<4>(a), std::get<4>(b));
  EXPECT_DOUBLE_EQ(std::get<5>(a), std::get<5>(b));
  EXPECT_DOUBLE_EQ(std::get<6>(a), std::get<6>(b));
}

TEST(IoScheduler, QdSweepIopsMonotoneToSaturation) {
  // The acceptance shape of the subsystem, in miniature: closed-loop IOPS
  // never regresses as QD grows (within a small tolerance near
  // saturation), and a deeper queue beats QD=1 outright.
  auto cfg = SmallConfig();
  ssd::QdSweepOptions sweep;
  sweep.queue_depths = {1, 2, 4, 8, 16};
  sweep.requests_per_point = 3000;
  const auto points = ssd::RunQdSweep(cfg, sweep);
  ASSERT_EQ(points.size(), 5u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].iops, points[i - 1].iops * 0.98)
        << "QD " << points[i].queue_depth << " regressed";
  }
  EXPECT_GT(points.back().iops, points.front().iops * 2.0);
}

}  // namespace
}  // namespace ctflash::host
