// Request and transaction slots on the host path:
//   * a closed loop at QD 64 on a scheduled-GC device makes (almost) no
//     heap allocation per request, with or without a phases-only tracer —
//     the host's request slots, the scheduler's in-flight slots and the
//     tracer's slot-indexed state are reused, not reallocated;
//   * so does an open loop fed through SubmitAt / SubmitAtAs: a timed
//     submit waits in a pooled record and its event in a FIFO run;
//   * a completion callback's next request takes the slot just freed, and
//     both requests keep correct completions and phase records;
//   * throttled and backlogged requests keep their slot until admitted,
//     and their token-bucket / backpressure attribution with it;
//   * a dead device's tracer forgets every slot, so the next request on a
//     reused slot is traced from scratch.
//
// The allocation budget replaces the global operator new/delete; every
// tests/*.cc is its own executable, so the replacement stays local here.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <vector>

#include "host/host_interface.h"
#include "obs/phase.h"
#include "obs/tracer.h"
#include "qos/tenant.h"
#include "sched/transaction.h"
#include "ssd/experiment.h"
#include "ssd/ssd.h"
#include "util/random.h"
#include "util/types.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC sees free() on memory from operator new once these inline into a
// container; the pair is consistent because operator new calls malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace ctflash::host {
namespace {

constexpr std::uint64_t kPage = 16 * kKiB;

Us Prefill(ssd::Ssd& ssd, std::uint32_t fraction_pct) {
  return ssd::ExperimentRunner(ssd).Prefill(ssd.LogicalBytes() / 100 *
                                            fraction_pct);
}

ssd::SsdConfig QueuedConfig(std::uint64_t bytes) {
  auto cfg = ssd::ScaledConfig(ssd::FtlKind::kConventional, bytes, kPage, 2.0);
  cfg.timing_mode = ftl::TimingMode::kQueued;
  return cfg;
}

/// Closed loop at a fixed depth: every completion submits the next
/// request.  The callback captures one pointer, so std::function keeps it
/// in its small buffer.
class ClosedLoop {
 public:
  ClosedLoop(HostInterface& host, std::uint64_t footprint_bytes)
      : host_(host), pages_(footprint_bytes / kPage), rng_(29) {}

  void Start(std::uint32_t depth) {
    for (std::uint32_t i = 0; i < depth; ++i) SubmitNext();
  }

  /// Steps the simulation until `count` more requests completed.
  void RunFor(std::uint64_t count) {
    const std::uint64_t target = completed_ + count;
    while (completed_ < target && host_.queue().Step()) {
    }
    ASSERT_GE(completed_, target) << "the loop ran dry";
  }

 private:
  void SubmitNext() {
    const auto op = rng_.Bernoulli(0.7) ? trace::OpType::kRead
                                        : trace::OpType::kWrite;
    host_.Submit(op, rng_.UniformBelow(pages_) * kPage, kPage,
                 [this](const HostCompletion&) {
                   ++completed_;
                   SubmitNext();
                 });
  }

  HostInterface& host_;
  std::uint64_t pages_;
  util::Xoshiro256StarStar rng_;
  std::uint64_t completed_ = 0;
};

/// Heap allocations in a window of `window` requests after `warmup`
/// requests of a QD 64 closed loop on a queued-timing, scheduled-GC device.
std::uint64_t AllocationsInWindow(bool traced, std::uint64_t warmup,
                                  std::uint64_t window) {
  auto cfg = QueuedConfig(256 * kMiB);
  cfg.ftl.gc_routing = ftl::GcRouting::kScheduled;
  ssd::Ssd ssd(cfg);
  const Us prefill_end = Prefill(ssd, 85);
  obs::TracerConfig tc;
  tc.record_spans = false;  // phases only
  obs::Tracer tracer(tc);
  HostInterface host(ssd, HostConfig{});
  host.AdvanceTo(prefill_end);
  if (traced) host.AttachTracer(&tracer);

  ClosedLoop loop(host, ssd.LogicalBytes() / 100 * 80);
  loop.Start(64);
  loop.RunFor(warmup);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  loop.RunFor(window);
  const std::uint64_t made =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_GT(ssd.ftl().stats().gc_erases, 0u)
      << "the window must include scheduled GC";
  if (traced) {
    EXPECT_GT(tracer.phases().read.total.count(), window / 2);
  }
  return made;
}

TEST(HostSlots, ClosedLoopMakesAlmostNoHeapAllocationPerRequest) {
  constexpr std::uint64_t kWarmup = 10'000;
  constexpr std::uint64_t kWindow = 20'000;
  // Before the slots a request cost ~3.3 allocations untraced and ~5.4
  // traced (closures per transaction, hash-map nodes per request).
  EXPECT_LT(AllocationsInWindow(false, kWarmup, kWindow), kWindow / 100);
  EXPECT_LT(AllocationsInWindow(true, kWarmup, kWindow), kWindow / 100);
}

/// Open loop at a fixed arrival rate: arrivals are scheduled one batch
/// ahead through SubmitAt (or SubmitAtAs on a host with one tenant), from
/// outside any callback, the way a cluster epoch feeds a device.  The
/// completion callback captures one pointer.
class OpenLoop {
 public:
  static constexpr std::uint64_t kBatch = 256;
  static constexpr Us kPeriodUs = 1000;  // 1k IOPS, well below saturation

  OpenLoop(HostInterface& host, std::uint64_t footprint_bytes, bool as_tenant)
      : host_(host),
        pages_(footprint_bytes / kPage),
        as_tenant_(as_tenant),
        rng_(31),
        next_at_(host.queue().Now()) {}

  /// Schedules the next batch, then runs up to its first arrival: the
  /// previous batch fires while this one waits, so arrivals stay pending.
  void RunFor(std::uint64_t count) {
    for (std::uint64_t done = 0; done < count; done += kBatch) {
      const Us batch_start = next_at_;
      for (std::uint64_t i = 0; i < kBatch; ++i) {
        const auto op = rng_.Bernoulli(0.7) ? trace::OpType::kRead
                                            : trace::OpType::kWrite;
        const std::uint64_t offset = rng_.UniformBelow(pages_) * kPage;
        auto done_cb = [this](const HostCompletion&) { ++completed_; };
        if (as_tenant_) {
          host_.SubmitAtAs(next_at_, 0, op, offset, kPage, done_cb);
        } else {
          host_.SubmitAt(next_at_, op, offset, kPage, done_cb);
        }
        next_at_ += kPeriodUs;
      }
      host_.AdvanceTo(batch_start);
    }
  }

  std::uint64_t completed() const { return completed_; }

 private:
  HostInterface& host_;
  std::uint64_t pages_;
  bool as_tenant_;
  util::Xoshiro256StarStar rng_;
  Us next_at_;
  std::uint64_t completed_ = 0;
};

/// Heap allocations over `window` open-loop requests after `warmup`.
std::uint64_t OpenLoopAllocationsInWindow(bool as_tenant, std::uint64_t warmup,
                                          std::uint64_t window) {
  auto cfg = QueuedConfig(256 * kMiB);
  cfg.ftl.gc_routing = ftl::GcRouting::kScheduled;
  ssd::Ssd ssd(cfg);
  const Us prefill_end = Prefill(ssd, 85);
  HostConfig host_cfg;
  if (as_tenant) {
    host_cfg.qos.tenants.resize(1);
    host_cfg.qos.tenants[0].name = "users";
    host_cfg.qos.tenants[0].queues = {0, 1, 2, 3};
  }
  HostInterface host(ssd, host_cfg);
  host.AdvanceTo(prefill_end);

  OpenLoop loop(host, ssd.LogicalBytes() / 100 * 80, as_tenant);
  loop.RunFor(warmup);
  const std::uint64_t completed = loop.completed();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  loop.RunFor(window);
  const std::uint64_t made =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_GT(loop.completed() - completed, window * 9 / 10);
  EXPECT_EQ(host.BacklogDepth(), 0u) << "the rate must stay sustainable";
  EXPECT_GT(ssd.ftl().stats().gc_erases, 0u)
      << "the window must include scheduled GC";
  return made;
}

TEST(HostSlots, OpenLoopMakesAlmostNoHeapAllocationPerRequest) {
  constexpr std::uint64_t kWarmup = 10'240;
  constexpr std::uint64_t kWindow = 20'480;
  // A timed submit used to capture its arguments and callback in a 64-byte
  // closure: one allocation per request.
  EXPECT_LT(OpenLoopAllocationsInWindow(false, kWarmup, kWindow),
            kWindow / 100);
  EXPECT_LT(OpenLoopAllocationsInWindow(true, kWarmup, kWindow),
            kWindow / 100);
}

/// Records which host slot each request's transactions carried.
struct SlotWatch {
  std::map<std::uint64_t, std::vector<std::uint32_t>> slots;  ///< by id

  void Attach(HostInterface& host) {
    host.scheduler().OnDispatch([this](const FlashTransaction& txn) {
      slots[txn.request_id].push_back(txn.host_slot);
    });
  }
  /// The one slot all of `id`'s transactions carried.
  std::uint32_t SlotOf(std::uint64_t id) const {
    const auto it = slots.find(id);
    EXPECT_NE(it, slots.end()) << "request " << id << " never dispatched";
    if (it == slots.end()) return ~0u;
    for (const std::uint32_t slot : it->second) {
      EXPECT_EQ(slot, it->second.front()) << "request " << id;
    }
    return it->second.front();
  }
};

const obs::PhaseRecord* RecordOf(const obs::Tracer& tracer, std::uint64_t id) {
  for (const obs::PhaseRecord& r : tracer.requests()) {
    if (r.request_id == id) return &r;
  }
  ADD_FAILURE() << "no phase record for request " << id;
  return nullptr;
}

obs::TracerConfig RecordingConfig() {
  obs::TracerConfig tc;
  tc.record_spans = false;
  tc.record_requests = true;
  return tc;
}

TEST(HostSlots, CallbackSubmissionReusesTheFreedSlot) {
  ssd::Ssd ssd(QueuedConfig(64 * kMiB));
  const Us prefill_end = Prefill(ssd, 50);
  obs::Tracer tracer(RecordingConfig());
  HostInterface host(ssd, HostConfig{});
  host.AdvanceTo(prefill_end);
  host.AttachTracer(&tracer);
  SlotWatch watch;
  watch.Attach(host);

  std::vector<HostCompletion> done;
  std::uint64_t second = 0;
  // Three pages, then one: the reused slot must not keep the old count.
  const std::uint64_t first = host.Submit(
      trace::OpType::kRead, 0, 3 * kPage, [&](const HostCompletion& c) {
        done.push_back(c);
        second = host.Submit(trace::OpType::kWrite, 8 * kPage, kPage,
                             [&](const HostCompletion& c2) {
                               done.push_back(c2);
                             });
      });
  host.Run();

  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].request.id, first);
  EXPECT_EQ(done[0].pages, 3u);
  EXPECT_EQ(done[1].request.id, second);
  EXPECT_EQ(done[1].pages, 1u);
  EXPECT_EQ(done[1].request.op, trace::OpType::kWrite);
  EXPECT_EQ(done[1].request.submit_us, done[0].completion_us);
  EXPECT_GT(done[1].completion_us, done[1].request.submit_us);
  EXPECT_EQ(watch.SlotOf(second), watch.SlotOf(first));
  EXPECT_EQ(watch.slots[first].size(), 3u);
  EXPECT_EQ(host.stats().transactions_completed, 4u);

  ASSERT_EQ(tracer.requests().size(), 2u);
  EXPECT_EQ(tracer.PendingRequests(), 0u);
  for (const HostCompletion& c : done) {
    const obs::PhaseRecord* r = RecordOf(tracer, c.request.id);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->is_read, c.request.op == trace::OpType::kRead);
    EXPECT_EQ(r->submit_us, c.request.submit_us);
    EXPECT_EQ(r->completion_us, c.completion_us);
    EXPECT_EQ(r->TotalUs(), c.LatencyUs());
    EXPECT_EQ(r->PacedUs() + r->QueuedUs() + r->MediaUs(), r->TotalUs());
    EXPECT_EQ(r->pace_cause, obs::StallCause::kNone);
  }
}

TEST(HostSlots, BackloggedRequestKeepsItsSlotUntilAdmitted) {
  ssd::Ssd ssd(QueuedConfig(64 * kMiB));
  const Us prefill_end = Prefill(ssd, 50);
  obs::Tracer tracer(RecordingConfig());
  HostConfig cfg;
  cfg.num_queues = 1;
  cfg.queue_capacity = 1;  // the second outstanding request waits
  HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);
  host.AttachTracer(&tracer);
  SlotWatch watch;
  watch.Attach(host);

  std::uint64_t third = 0;
  const std::uint64_t first = host.Submit(
      trace::OpType::kRead, 0, kPage, [&](const HostCompletion&) {
        // The first request's slot is free again; the backlogged second
        // request still holds its own.
        third = host.Submit(trace::OpType::kRead, 2 * kPage, kPage);
      });
  const std::uint64_t second = host.Submit(trace::OpType::kRead, kPage, kPage);
  EXPECT_EQ(host.BacklogDepth(), 1u);
  host.Run();

  EXPECT_EQ(host.stats().completed, 3u);
  EXPECT_EQ(host.stats().backlogged, 2u);
  EXPECT_NE(watch.SlotOf(second), watch.SlotOf(first));
  EXPECT_EQ(watch.SlotOf(third), watch.SlotOf(first));
  const obs::PhaseRecord* r1 = RecordOf(tracer, first);
  const obs::PhaseRecord* r2 = RecordOf(tracer, second);
  const obs::PhaseRecord* r3 = RecordOf(tracer, third);
  ASSERT_TRUE(r1 != nullptr && r2 != nullptr && r3 != nullptr);
  EXPECT_EQ(r1->pace_cause, obs::StallCause::kNone);
  EXPECT_EQ(r2->pace_cause, obs::StallCause::kBackpressure);
  EXPECT_EQ(r3->pace_cause, obs::StallCause::kBackpressure);
  // Each waited exactly until the request ahead of it completed.
  EXPECT_EQ(r2->admit_us, r1->completion_us);
  EXPECT_EQ(r3->admit_us, r2->completion_us);
  EXPECT_EQ(tracer.PendingRequests(), 0u);
}

TEST(HostSlots, ThrottledRequestKeepsItsSlotUntilAdmitted) {
  ssd::Ssd ssd(QueuedConfig(64 * kMiB));
  const Us prefill_end = Prefill(ssd, 50);
  obs::Tracer tracer(RecordingConfig());
  HostConfig cfg;
  cfg.num_queues = 1;
  cfg.qos.tenants.resize(1);
  cfg.qos.tenants[0].name = "paced";
  cfg.qos.tenants[0].queues = {0};
  cfg.qos.tenants[0].iops_limit = 1000.0;  // one admission per ms
  cfg.qos.tenants[0].iops_burst = 1.0;
  HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);
  host.AttachTracer(&tracer);
  SlotWatch watch;
  watch.Attach(host);

  std::uint64_t third = 0;
  const std::uint64_t first = host.SubmitAs(
      0, trace::OpType::kRead, 0, kPage, [&](const HostCompletion&) {
        third = host.SubmitAs(0, trace::OpType::kRead, 2 * kPage, kPage);
      });
  const std::uint64_t second =
      host.SubmitAs(0, trace::OpType::kRead, kPage, kPage);
  EXPECT_EQ(host.PacedDepth(0), 1u);
  host.Run();

  EXPECT_EQ(host.stats().completed, 3u);
  EXPECT_EQ(host.tenants()->StatsOf(0).throttled, 2u);
  EXPECT_NE(watch.SlotOf(second), watch.SlotOf(first));
  EXPECT_EQ(watch.SlotOf(third), watch.SlotOf(first));
  const obs::PhaseRecord* r1 = RecordOf(tracer, first);
  const obs::PhaseRecord* r2 = RecordOf(tracer, second);
  const obs::PhaseRecord* r3 = RecordOf(tracer, third);
  ASSERT_TRUE(r1 != nullptr && r2 != nullptr && r3 != nullptr);
  EXPECT_EQ(r1->pace_cause, obs::StallCause::kNone);
  EXPECT_EQ(r2->pace_cause, obs::StallCause::kTokenBucket);
  EXPECT_EQ(r3->pace_cause, obs::StallCause::kTokenBucket);
  EXPECT_EQ(r1->PacedUs(), 0);
  EXPECT_GT(r2->PacedUs(), 0);
  EXPECT_GT(r3->admit_us, r2->admit_us);
  EXPECT_EQ(tracer.PendingRequests(), 0u);
}

TEST(HostSlots, DeadDeviceTracesTheNextRequestFromScratch) {
  obs::Tracer tracer(RecordingConfig());
  // A throttled request and a GC copy are in flight when the device dies.
  sched::FlashTransaction copy;
  copy.request_id = 900;
  copy.seq = 1;
  copy.source = sched::TxnSource::kGcCopy;
  sched::DispatchContext ctx;
  ctx.slot = 0;
  ctx.dispatch_us = 100;
  ctx.die = 2;
  ctx.die_free_at = 100;
  tracer.OnDispatch(copy, ctx);
  tracer.OnSubmit(/*slot=*/0, /*request_id=*/5, true, 0, 100);
  tracer.OnThrottled(0, 5);
  EXPECT_EQ(tracer.PendingRequests(), 1u);
  tracer.ChargeDeadDevice(/*reads=*/1, /*writes=*/0, /*charged_us=*/5000,
                          /*at_us=*/150);
  EXPECT_EQ(tracer.PendingRequests(), 0u);

  // Late hooks for the stranded request are ignored ...
  tracer.OnAdmit(0, 5, 0, 160);
  tracer.OnRequestComplete(0, 5, 170);
  EXPECT_TRUE(tracer.requests().empty());

  // ... and the next request on slot 0 starts clean: no inherited pacing
  // cause, and a read on die 2 no longer waits behind the charged GC copy.
  tracer.OnSubmit(0, 6, true, 0, 200);
  tracer.OnAdmit(0, 6, 0, 200);
  sched::FlashTransaction read;
  read.request_id = 6;
  read.host_slot = 0;
  read.seq = 2;
  read.source = sched::TxnSource::kHostRead;
  ctx.dispatch_us = 200;
  ctx.die_free_at = 230;
  tracer.OnDispatch(read, ctx);
  tracer.OnTxnExecuted(read, 0, 200, 300);
  tracer.OnRequestComplete(0, 6, 300);

  ASSERT_EQ(tracer.requests().size(), 1u);
  const obs::PhaseRecord& r = tracer.requests()[0];
  EXPECT_EQ(r.request_id, 6u);
  EXPECT_EQ(r.pace_cause, obs::StallCause::kNone);
  EXPECT_EQ(r.PacedUs(), 0);
  EXPECT_EQ(r.MediaUs(), 100);
  EXPECT_EQ(r.media_cause, obs::StallCause::kDieBusyHost);
  EXPECT_EQ(r.media_stall_us, 30);
  EXPECT_EQ(tracer.PendingRequests(), 0u);
}

}  // namespace
}  // namespace ctflash::host
