// deep_queue: a closed loop held at a deep queue depth through the host
// interface.  A 4-channel queued-timing device with scheduled GC and
// die-striped write frontiers is prefilled, then the benchmark itself keeps
// `queue_depth` random requests (mixed reads and writes) outstanding across
// the submission queues: it submits with HostInterface::Submit whenever a
// completion frees a slot and advances the simulation one event at a time
// with EventQueue::Step.  The scheduler's ready set stays hundreds deep, so
// per-dispatch scheduler cost dominates the host time.
#include <algorithm>
#include <exception>
#include <string>
#include <vector>

#include "host/host_interface.h"
#include "obs/tracer.h"
#include "spans.h"
#include "ssd/experiment.h"
#include "ssd/ssd.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ctflash::Us;
namespace ftl = ctflash::ftl;
namespace host = ctflash::host;
namespace obs = ctflash::obs;
namespace ssd = ctflash::ssd;
namespace util = ctflash::util;

constexpr std::uint64_t kDeviceBytes = 256ull << 20;
constexpr std::uint32_t kChannels = 4;
constexpr std::uint32_t kWriteFrontiers = 8;
constexpr std::uint64_t kPrefillPct = 90;
constexpr std::uint32_t kSubmissionQueues = 8;
constexpr std::uint64_t kRequestBytes = 16 * 1024;
constexpr double kReadFraction = 0.7;

struct Request {
  bool read = true;
  std::uint64_t offset = 0;
};

struct Inputs {
  ssd::SsdConfig device;
  host::HostConfig host;
  std::uint64_t prefill_bytes = 0;
  std::vector<std::vector<Request>> streams;
};

Inputs MakeInputs(const DeepQueueConfig& c, std::uint64_t seed) {
  Inputs in;
  ctflash::nand::NandGeometry shape;  // Table 1
  shape.channels = kChannels;
  in.device = ssd::ScaledConfig(ssd::FtlKind::kConventional, kDeviceBytes,
                                16 * 1024, /*speed_ratio=*/2.0, shape);
  in.device.timing_mode = ftl::TimingMode::kQueued;
  in.device.ftl.write_frontiers = kWriteFrontiers;
  in.device.ftl.gc_routing = ftl::GcRouting::kScheduled;
  // Spares for the GC thresholds plus one frontier set per write stream.
  const double min_spare = static_cast<double>(in.device.ftl.gc_threshold_high) +
                           2.0 * kWriteFrontiers + 8.0;
  in.device.ftl.op_ratio = std::max(
      in.device.ftl.op_ratio,
      min_spare / static_cast<double>(in.device.geometry.TotalBlocks()));

  in.host.num_queues = kSubmissionQueues;
  in.host.queue_capacity =
      (c.queue_depth + kSubmissionQueues - 1) / kSubmissionQueues;

  const ssd::Ssd probe(in.device);
  in.prefill_bytes = probe.LogicalBytes() / 100 * kPrefillPct;
  const std::uint64_t slots = in.prefill_bytes / kRequestBytes;
  in.streams.resize(c.streams);
  for (std::size_t s = 0; s < in.streams.size(); ++s) {
    util::Xoshiro256StarStar rng(MixSeed(seed, 16 + s));
    in.streams[s].resize(c.requests_per_stream);
    for (Request& r : in.streams[s]) {
      r.read = rng.Bernoulli(kReadFraction);
      r.offset = rng.UniformBelow(slots) * kRequestBytes;
    }
  }
  return in;
}

struct LoopResult {
  std::string error;  ///< non-empty when the stream threw
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t events = 0;
  util::LatencyStats read;
  util::LatencyStats write;
  host::HostStats host_stats;
  ftl::FtlStats ftl;
  std::uint64_t txns = 0;
  std::uint64_t gc_txns = 0;
  std::uint64_t read_preemptions = 0;
  std::uint64_t write_hold_picks = 0;
  std::uint64_t peak_in_flight = 0;
  std::uint64_t free_blocks_min = 0;
  double die_busy_share = 0.0;
  double channel_busy_share = 0.0;
  Us end_us = 0;
  double setup_s = 0.0;
  double timed_s = 0.0;
  // Traced rounds only.
  util::QuantileEstimator ready_depth;
  obs::PhaseStats phases;
};

template <bool kTraced>
void ClosedLoop(host::HostInterface& hi, const std::vector<Request>& requests,
                const DeepQueueConfig& c, SpanRecorder* rec, LoopResult& out) {
  SpanRecorder::Kind submit_kind = 0;
  SpanRecorder::Kind step_kind = 0;
  if constexpr (kTraced) {
    submit_kind = rec->Register("host.submit");
    step_kind = rec->Register("sim.step");
  }
  std::uint32_t credits = c.queue_depth;
  const host::HostInterface::CompletionCallback on_done =
      [&](const host::HostCompletion& done) {
        ++out.completed;
        ++credits;
        (done.request.op == ctflash::trace::OpType::kRead ? out.read
                                                          : out.write)
            .Add(done.LatencyUs());
      };
  ctflash::sim::EventQueue& queue = hi.queue();
  while (out.completed < requests.size()) {
    while (credits > 0 && out.submitted < requests.size()) {
      --credits;
      const Request& r = requests[out.submitted++];
      const auto op = r.read ? ctflash::trace::OpType::kRead
                             : ctflash::trace::OpType::kWrite;
      if constexpr (kTraced) rec->Begin(submit_kind);
      hi.Submit(op, r.offset, kRequestBytes, on_done);
      if constexpr (kTraced) rec->End();
    }
    if constexpr (kTraced) rec->Begin(step_kind);
    const bool fired = queue.Step();
    if constexpr (kTraced) rec->End();
    if (!fired) break;
    ++out.events;
    if constexpr (kTraced) out.ready_depth.Add(hi.scheduler().ReadyCount());
  }
  out.end_us = queue.Now();
}

/// One stream: a fresh device, prefilled, driven through its closed loop.
LoopResult RunStream(const Inputs& in, const std::vector<Request>& requests,
                     const DeepQueueConfig& c, SpanRecorder* rec) {
  LoopResult out;
  try {
    const std::int64_t t0 = NowNs();
    ssd::Ssd ssd(in.device);
    Us prefill_end = 0;
    {
      ScopedSpan span(rec, "ssd.prefill");
      prefill_end = ssd::ExperimentRunner(ssd).Prefill(in.prefill_bytes);
    }
    ssd.ftl().ResetFreePoolWatermark();
    obs::TracerConfig tracer_config;
    tracer_config.record_spans = false;
    obs::Tracer tracer(tracer_config);  // declared first: outlives `hi`
    host::HostInterface hi(ssd, in.host);
    hi.AdvanceTo(prefill_end);
    if (rec != nullptr) hi.AttachTracer(&tracer);
    const Us start = hi.queue().Now();
    const Us die_busy = ssd.target().dies().TotalBusyTime();
    const Us channel_busy = ssd.target().channels().TotalBusyTime();
    const std::int64_t t1 = NowNs();
    out.setup_s = static_cast<double>(t1 - t0) / 1e9;
    if (rec != nullptr) {
      ClosedLoop<true>(hi, requests, c, rec, out);
    } else {
      ClosedLoop<false>(hi, requests, c, rec, out);
    }
    out.timed_s = static_cast<double>(NowNs() - t1) / 1e9;

    hi.Run();  // background GC still queued after the last completion
    out.host_stats = hi.stats();
    out.ftl = ssd.ftl().stats();
    const host::IoScheduler& sched = hi.scheduler();
    out.txns = sched.DispatchedCount();
    out.gc_txns = sched.GcDispatchedCount();
    out.read_preemptions = sched.ReadPreemptionsOfGc();
    out.write_hold_picks = sched.WriteHoldPicks();
    out.peak_in_flight = sched.PeakInFlight();
    out.free_blocks_min = ssd.ftl().blocks().MinFreeWatermark();
    out.die_busy_share =
        BusyShare(ssd.target().dies(), die_busy, out.end_us - start);
    out.channel_busy_share =
        BusyShare(ssd.target().channels(), channel_busy, out.end_us - start);
    if (rec != nullptr) out.phases = tracer.phases();
  } catch (const std::exception& e) {
    out.error = e.what();
    if (out.error.empty()) out.error = "unknown error";
  }
  return out;
}

/// Folds stream `s` into the merged view of a round's streams.
void Merge(LoopResult& into, const LoopResult& s) {
  if (into.error.empty()) into.error = s.error;
  into.submitted += s.submitted;
  into.completed += s.completed;
  into.events += s.events;
  into.read.Merge(s.read);
  into.write.Merge(s.write);
  into.host_stats.submitted += s.host_stats.submitted;
  into.host_stats.completed += s.host_stats.completed;
  into.host_stats.transactions_completed += s.host_stats.transactions_completed;
  into.ftl.host_read_pages += s.ftl.host_read_pages;
  into.ftl.host_write_pages += s.ftl.host_write_pages;
  into.ftl.gc_page_copies += s.ftl.gc_page_copies;
  into.ftl.gc_erases += s.ftl.gc_erases;
  into.ftl.gc_stale_copies += s.ftl.gc_stale_copies;
  into.txns += s.txns;
  into.gc_txns += s.gc_txns;
  into.read_preemptions += s.read_preemptions;
  into.write_hold_picks += s.write_hold_picks;
  into.peak_in_flight = std::max(into.peak_in_flight, s.peak_in_flight);
  into.free_blocks_min = std::min(into.free_blocks_min, s.free_blocks_min);
  into.die_busy_share += s.die_busy_share;
  into.channel_busy_share += s.channel_busy_share;
  into.end_us += s.end_us;
  into.ready_depth.Merge(s.ready_depth);
  into.phases.Merge(s.phases);
}

std::uint64_t LoopDigest(const LoopResult& r) {
  Digest d;
  d.Add(static_cast<std::uint64_t>(r.error.empty() ? 0 : 1));
  d.Add(r.submitted);
  d.Add(r.completed);
  d.Add(r.events);
  d.Add(r.read);
  d.Add(r.write);
  d.Add(r.host_stats.submitted);
  d.Add(r.host_stats.completed);
  d.Add(r.host_stats.transactions_completed);
  d.Add(r.ftl.host_write_pages);
  d.Add(r.ftl.gc_page_copies);
  d.Add(r.ftl.gc_erases);
  d.Add(r.ftl.gc_stale_copies);
  d.Add(r.txns);
  d.Add(r.gc_txns);
  d.Add(r.read_preemptions);
  d.Add(r.write_hold_picks);
  d.Add(r.peak_in_flight);
  d.Add(r.free_blocks_min);
  d.Add(static_cast<std::uint64_t>(r.end_us));
  return d.value();
}

}  // namespace

Outcome RunDeepQueue(const DeepQueueConfig& config, const RunOptions& options) {
  const Inputs inputs = MakeInputs(config, options.seed);
  Outcome out;
  SpanRecorder recorder;
  LoopResult first;
  LoopResult first_traced;
  bool have_traced = false;

  DriveRounds(options, recorder, out, [&](const RoundContext& context) {
    RoundResult round;
    LoopResult r;
    r.free_blocks_min = ~0ull;
    Digest digest;
    for (const std::vector<Request>& requests : inputs.streams) {
      const LoopResult s =
          RunStream(inputs, requests, config, context.recorder);
      round.AddPart(s.setup_s, s.timed_s, s.completed);
      round.attempted += requests.size();
      if (!s.error.empty()) round.failed += requests.size();
      digest.Add(LoopDigest(s));
      Merge(r, s);
    }
    r.die_busy_share /= static_cast<double>(inputs.streams.size());
    r.channel_busy_share /= static_cast<double>(inputs.streams.size());
    round.digest = digest.value();
    if (context.keep && context.recorder != nullptr) {
      first_traced = r;
      have_traced = true;
    } else if (context.keep) {
      first = r;
    }
    return round;
  });

  const LoopResult& r = first;
  out.Check(r.error.empty(), "deep_queue threw: " + r.error);
  out.Check(r.submitted == config.streams * config.requests_per_stream &&
                r.completed == r.submitted,
            "closed loop: submitted == completed");
  out.Check(r.host_stats.submitted == r.host_stats.completed,
            "host interface: submitted == completed");

  util::LatencyStats all = r.read;
  all.Merge(r.write);
  out.notes.push_back(
      "deep_queue: streams=" + std::to_string(config.streams) +
      " requests=" + std::to_string(r.completed) +
      " events=" + std::to_string(r.events) +
      " txns=" + std::to_string(r.txns) +
      " gc_txns=" + std::to_string(r.gc_txns) +
      " sim_us=" + std::to_string(r.end_us) +
      " read_p99_us=" + std::to_string(r.read.p99_us()) +
      " write_p99_us=" + std::to_string(r.write.p99_us()) +
      " waf=" + std::to_string(r.ftl.Waf()));

  out.SetLatency("device_read_mean_us", r.read.mean_us(), r.read.count());
  out.SetLatency("device_read_p99_us", r.read.p99_us(), r.read.count());
  out.SetLatency("device_read_p999_us", r.read.p999_us(), r.read.count());
  out.SetLatency("ftl.write_mean_us", r.write.mean_us(), r.write.count());
  out.SetLatency("ftl.write_p99_us", r.write.p99_us(), r.write.count());
  out.Set("device_waf", r.ftl.Waf());

  out.Set("ftl.gc_page_copies", static_cast<double>(r.ftl.gc_page_copies));
  out.Set("ftl.gc_erases", static_cast<double>(r.ftl.gc_erases));
  out.Set("ftl.gc_stale_copies", static_cast<double>(r.ftl.gc_stale_copies));
  out.Set("ftl.free_blocks_min", static_cast<double>(r.free_blocks_min));
  out.Set("nand.die_busy_share", r.die_busy_share);
  out.Set("nand.channel_busy_share", r.channel_busy_share);
  out.Set("sim.events", static_cast<double>(r.events));
  out.Set("sched.txns", static_cast<double>(r.txns));
  out.Set("sched.gc_txns", static_cast<double>(r.gc_txns));
  out.Set("sched.read_preemptions", static_cast<double>(r.read_preemptions));
  out.Set("sched.write_hold_picks", static_cast<double>(r.write_hold_picks));
  out.Set("sched.peak_in_flight", static_cast<double>(r.peak_in_flight));

  if (have_traced) {
    const LoopResult& t = first_traced;
    out.SetLatency("sched.ready_depth.p50", t.ready_depth.Quantile(0.50),
                   t.ready_depth.count());
    out.SetLatency("sched.ready_depth.p99", t.ready_depth.Quantile(0.99),
                   t.ready_depth.count());
    ReportPhases(t.phases, out);
  }
  return out;
}

}  // namespace perfbench
