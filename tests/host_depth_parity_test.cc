// Dispatch-order lock-in at deep queue depth.
//
// host_qos_parity_test runs QD 16 against 32 device slots, so at most one
// host transaction ever waits at a pick and its golden never sees the
// scheduler choose between reads.  These scenarios hold 512 requests
// outstanding over 8 submission queues, so hundreds of transactions wait
// at every pick, and cover each arbitration path the scheduler has:
//   * conventional and PPB, scheduled GC, 8 write frontiers, each under
//     round-robin and least-busy die striping (least-busy reads every
//     frontier die's timeline at every page it places);
//   * inline GC with write aging (aged writes dispatch, and run GC,
//     while reads wait, so waiting reads see their mapping move);
//   * two tenants at 2:1 weights (deficit round robin per pick);
//   * a lost die: reads of its pages unmap their LPN, so other reads of
//     the same LPN that are still waiting turn into unmapped reads;
//   * FIFO order.
// The golden fingerprints were captured from the scheduler's linear-scan
// implementation (the least-busy ones from the write allocator's
// std::function die hooks).  Any change to the scheduler's data
// structures or to the write path's die lookups must reproduce them
// exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "host/host_interface.h"
#include "ssd/experiment.h"
#include "ssd/ssd.h"
#include "util/random.h"

namespace ctflash {
namespace {

std::uint64_t Fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;  // FNV-1a
  }
  return h;
}

constexpr std::uint32_t kQueueDepth = 512;
constexpr std::uint32_t kQueues = 8;
constexpr std::uint64_t kRequests = 12'000;
constexpr double kReadFraction = 0.7;

struct Scenario {
  const char* name;
  ssd::FtlKind kind = ssd::FtlKind::kConventional;
  ftl::GcRouting routing = ftl::GcRouting::kScheduled;
  host::SchedPolicy policy = host::SchedPolicy::kOutOfOrder;
  ftl::StripePolicy stripe_policy = ftl::StripePolicy::kRoundRobin;
  std::uint32_t write_aging_limit = 0;
  bool two_tenants = false;
  bool lose_die = false;
  /// Pages the requests draw from; 0 = the whole prefilled span.  A small
  /// span makes several waiting reads target the same LPN.
  std::uint64_t footprint_pages = 0;
};

struct Fingerprint {
  std::uint64_t dispatch = 0;  ///< (source, seq, lpn, tenant) per dispatch
  std::uint64_t context = 0;   ///< observer-facing DispatchContext per dispatch
  std::uint64_t stats = 0;     ///< run aggregates + FTL/scheduler counters
};

/// Folds every dispatch and its resolved context.
class FoldingObserver final : public sched::SchedulerObserver {
 public:
  explicit FoldingObserver(Fingerprint& fp) : fp_(fp) {}

  void OnDispatch(const sched::FlashTransaction& txn,
                  const sched::DispatchContext& ctx) override {
    fp_.dispatch = Fold(fp_.dispatch, static_cast<std::uint64_t>(txn.source));
    fp_.dispatch = Fold(fp_.dispatch, txn.seq);
    fp_.dispatch = Fold(fp_.dispatch, txn.lpn);
    fp_.dispatch = Fold(fp_.dispatch, txn.tenant);
    auto& c = fp_.context;
    c = Fold(c, static_cast<std::uint64_t>(ctx.dispatch_us));
    c = Fold(c, static_cast<std::uint64_t>(ctx.enqueue_us));
    c = Fold(c, ctx.die);
    c = Fold(c, static_cast<std::uint64_t>(ctx.die_free_at));
    c = Fold(c, ctx.write_held ? 1u : 0u);
  }
  void OnTxnExecuted(const sched::FlashTransaction&, std::uint32_t, Us,
                     Us) override {}

 private:
  Fingerprint& fp_;
};

/// What the scenario exercised, so a golden cannot silently lock in a run
/// that never reached the path it names.
struct Coverage {
  std::size_t peak_ready = 0;
  std::uint64_t gc_erases = 0;
  std::uint64_t aged_writes = 0;
  std::uint64_t write_hold_picks = 0;
  /// Reads whose page moved to another plane while they waited.
  std::uint64_t moved_while_waiting = 0;
  /// Reads whose LPN was mapped at submission but unmapped at dispatch.
  std::uint64_t unmapped_while_waiting = 0;
  std::uint64_t tenant_reads[2] = {0, 0};
};

Fingerprint RunScenario(const Scenario& s, Coverage& cov) {
  // Table 1 shape with 64-page blocks: 256 blocks, so GC cycles many
  // victims within the run.
  nand::NandGeometry shape;
  shape.pages_per_block = 64;
  auto cfg = ssd::ScaledConfig(s.kind, 256ull << 20, 16 * 1024, 2.0, shape);
  cfg.timing_mode = ftl::TimingMode::kQueued;
  cfg.ftl.gc_routing = s.routing;
  cfg.ftl.write_frontiers = 8;
  cfg.ftl.stripe_policy = s.stripe_policy;
  // Spares for the GC thresholds plus one frontier set per write stream.
  const double min_spare = static_cast<double>(cfg.ftl.gc_threshold_high) +
                           2.0 * cfg.ftl.write_frontiers + 8.0;
  cfg.ftl.op_ratio =
      std::max(cfg.ftl.op_ratio,
               min_spare / static_cast<double>(cfg.geometry.TotalBlocks()));
  ssd::Ssd ssd(cfg);
  const auto& geo = cfg.geometry;
  const std::uint64_t page = geo.page_size_bytes;
  const std::uint64_t prefill_bytes = ssd.LogicalBytes() / 100 * 96;
  const Us prefill_end = ssd::ExperimentRunner(ssd).Prefill(prefill_bytes);
  if (s.lose_die) {
    nand::FaultPlanConfig plan;
    plan.fail_dies = {0};
    plan.fail_at_us = prefill_end;
    ssd.target().ArmFaults(plan, ftl::FaultHandlingConfig{}, 5);
  }

  host::HostConfig host_cfg;
  host_cfg.num_queues = kQueues;
  host_cfg.queue_capacity = kQueueDepth / kQueues;
  host_cfg.policy = s.policy;
  host_cfg.write_aging_limit = s.write_aging_limit;
  if (s.two_tenants) {
    qos::TenantConfig heavy;
    heavy.name = "heavy";
    heavy.weight = 2;
    heavy.queues = {0, 1, 2, 3};
    qos::TenantConfig light;
    light.name = "light";
    light.weight = 1;
    light.queues = {4, 5, 6, 7};
    host_cfg.qos.tenants = {heavy, light};
  }
  host::HostInterface host(ssd, host_cfg);
  host.AdvanceTo(prefill_end);

  Fingerprint fp;
  FoldingObserver folder(fp);
  host.scheduler().AttachObserver(&folder);
  std::unordered_map<std::uint64_t, Ppn> ppn_at_submit;  // per read request
  host.scheduler().OnDispatch([&](const host::FlashTransaction& txn) {
    cov.peak_ready = std::max(cov.peak_ready, host.scheduler().ReadyCount());
    if (txn.source != sched::TxnSource::kHostRead) return;
    if (txn.tenant < 2) ++cov.tenant_reads[txn.tenant];
    // Reads that dispatch inside their own Submit are not recorded yet;
    // they never waited.
    const auto it = ppn_at_submit.find(txn.request_id);
    if (it == ppn_at_submit.end() || it->second == kInvalidPpn) return;
    const Ppn then = it->second;
    const Ppn now = ssd.ftl().ProbePpn(txn.lpn);
    if (now == kInvalidPpn) {
      ++cov.unmapped_while_waiting;
    } else if (geo.BlockOf(then) % geo.TotalPlanes() !=
               geo.BlockOf(now) % geo.TotalPlanes()) {
      ++cov.moved_while_waiting;
    }
  });

  // One closed loop per tenant (a single loop without tenants), each
  // holding its share of the queue depth and replacing every completion.
  const std::uint32_t loops = s.two_tenants ? 2 : 1;
  const std::uint64_t per_loop = kRequests / loops;
  const std::uint64_t span =
      s.footprint_pages != 0 ? s.footprint_pages : prefill_bytes / page;
  util::Xoshiro256StarStar rng(1009);
  std::vector<std::uint64_t> issued(loops, 0);
  std::uint64_t completed = 0;
  std::uint64_t read_latency = 0;
  std::uint64_t write_latency = 0;
  std::function<void(std::uint32_t)> submit = [&](std::uint32_t loop) {
    ++issued[loop];
    const bool read = rng.Bernoulli(kReadFraction);
    const Lpn lpn = rng.UniformBelow(span);
    const auto op = read ? trace::OpType::kRead : trace::OpType::kWrite;
    const Ppn ppn = ssd.ftl().ProbePpn(lpn);
    auto done = [&, loop, read](const host::HostCompletion& c) {
      ++completed;
      (read ? read_latency : write_latency) +=
          static_cast<std::uint64_t>(c.LatencyUs());
      if (issued[loop] < per_loop) submit(loop);
    };
    const std::uint64_t id =
        s.two_tenants ? host.SubmitAs(loop, op, lpn * page, page, done)
                      : host.Submit(op, lpn * page, page, done);
    if (read) ppn_at_submit[id] = ppn;
  };
  for (std::uint32_t loop = 0; loop < loops; ++loop) {
    for (std::uint32_t i = 0; i < kQueueDepth / loops; ++i) submit(loop);
  }
  host.Run();
  EXPECT_EQ(completed, per_loop * loops) << s.name;

  const auto& sched = host.scheduler();
  const auto& st = ssd.ftl().stats();
  cov.gc_erases = st.gc_erases;
  cov.aged_writes = sched.AgedWriteDispatches();
  cov.write_hold_picks = sched.WriteHoldPicks();

  std::uint64_t h = 0;
  h = Fold(h, completed);
  h = Fold(h, static_cast<std::uint64_t>(host.queue().Now()));
  h = Fold(h, read_latency);
  h = Fold(h, write_latency);
  h = Fold(h, host.TxnsDispatched());
  h = Fold(h, st.host_read_pages);
  h = Fold(h, st.host_write_pages);
  h = Fold(h, st.gc_page_copies);
  h = Fold(h, st.gc_erases);
  h = Fold(h, st.gc_stale_copies);
  h = Fold(h, ssd.ftl().fault_stats().host_unreadable_pages);
  h = Fold(h, sched.GcDispatchedCount());
  h = Fold(h, sched.ReadPreemptionsOfGc());
  h = Fold(h, sched.WriteHoldPicks());
  h = Fold(h, sched.AgedWriteDispatches());
  h = Fold(h, sched.PeakInFlight());
  fp.stats = h;
  host.scheduler().DetachObserver(&folder);
  return fp;
}

/// Runs `s` and checks its fingerprints plus the coverage every scenario
/// needs: a deep ready set and GC cycling underneath.
Coverage ExpectGolden(const Scenario& s, const Fingerprint& golden) {
  Coverage cov;
  const Fingerprint fp = RunScenario(s, cov);
  EXPECT_EQ(fp.dispatch, golden.dispatch)
      << s.name << " dispatch fingerprint: 0x" << std::hex << fp.dispatch;
  EXPECT_EQ(fp.context, golden.context)
      << s.name << " context fingerprint: 0x" << std::hex << fp.context;
  EXPECT_EQ(fp.stats, golden.stats)
      << s.name << " stats fingerprint: 0x" << std::hex << fp.stats;
  EXPECT_GE(cov.peak_ready, 400u) << s.name;
  EXPECT_GT(cov.gc_erases, 0u) << s.name;
  return cov;
}

Scenario Named(const char* name) {
  Scenario s;
  s.name = name;
  return s;
}

TEST(HostDepthParity, ConventionalScheduledGc) {
  const Coverage cov =
      ExpectGolden(Named("conventional/scheduled"),
                   {0x6287baef24d094b9ull, 0xf25da500378ff5f3ull,
                    0x99ab474d57a46b14ull});
  EXPECT_GT(cov.write_hold_picks, 0u);
}

TEST(HostDepthParity, PpbScheduledGc) {
  Scenario s = Named("ppb/scheduled");
  s.kind = ssd::FtlKind::kPpb;
  const Coverage cov = ExpectGolden(
      s, {0xb69542a97661e769ull, 0xd5dc9be3d2e21cf5ull, 0x854c80805d39fa5cull});
  EXPECT_GT(cov.write_hold_picks, 0u);
}

TEST(HostDepthParity, ConventionalLeastBusyStriping) {
  Scenario s = Named("conventional/scheduled/least-busy");
  s.stripe_policy = ftl::StripePolicy::kLeastBusy;
  const Coverage cov = ExpectGolden(
      s, {0x3401565707f56026ull, 0xa000cc318edeba83ull, 0x376507b76919fb0eull});
  EXPECT_GT(cov.write_hold_picks, 0u);
}

TEST(HostDepthParity, PpbLeastBusyStriping) {
  Scenario s = Named("ppb/scheduled/least-busy");
  s.kind = ssd::FtlKind::kPpb;
  s.stripe_policy = ftl::StripePolicy::kLeastBusy;
  const Coverage cov = ExpectGolden(
      s, {0xa7089ce0c16de047ull, 0xd689bd640fbb1a18ull, 0x68cb2d16cb248bedull});
  EXPECT_GT(cov.write_hold_picks, 0u);
}

TEST(HostDepthParity, InlineGcWithWriteAging) {
  Scenario s = Named("conventional/inline/write-aging-32");
  s.routing = ftl::GcRouting::kInline;
  s.write_aging_limit = 32;
  const Coverage cov = ExpectGolden(
      s, {0x27bedd2db1f87545ull, 0x226221d20bd78dd7ull, 0x35a1d34b07e3f548ull});
  EXPECT_GT(cov.aged_writes, 0u);
  EXPECT_GT(cov.moved_while_waiting, 0u);
}

TEST(HostDepthParity, TwoTenantsAtTwoToOne) {
  Scenario s = Named("conventional/scheduled/tenants-2:1");
  s.two_tenants = true;
  const Coverage cov = ExpectGolden(
      s, {0x837c124ac68fd345ull, 0x8ebb332453688682ull, 0x32d6c56c22ad5310ull});
  EXPECT_GT(cov.tenant_reads[0], 0u);
  EXPECT_GT(cov.tenant_reads[1], 0u);
}

TEST(HostDepthParity, LostDieUnmapsWaitingReads) {
  Scenario s = Named("conventional/scheduled/die-0-lost");
  s.lose_die = true;
  s.footprint_pages = 1024;
  const Coverage cov = ExpectGolden(
      s, {0xd852414899411f4dull, 0x438fddf625a5ac28ull, 0xf56745946687263dull});
  EXPECT_GT(cov.unmapped_while_waiting, 0u);
}

TEST(HostDepthParity, Fifo) {
  Scenario s = Named("conventional/scheduled/fifo");
  s.policy = host::SchedPolicy::kFifo;
  ExpectGolden(
      s, {0x54803383441d3155ull, 0x608f9fd12c632bfcull, 0x3a866fc833881066ull});
}

}  // namespace
}  // namespace ctflash
