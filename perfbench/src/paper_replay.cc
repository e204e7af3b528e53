// paper_replay: the paper's protocol.  A Table-1-shaped scaled device with
// service-time timing is prefilled sequentially, then the synthetic web and
// media traces replay closed-loop (each request issued at max(its trace
// time, the previous completion)) through Ssd::Read/Ssd::Write, once on the
// conventional FTL and once on PPB.  The device_* metrics come from the PPB
// arms; the conventional arms are the reference the paper's shape check
// compares against.
#include <algorithm>
#include <exception>
#include <string>
#include <vector>

#include "spans.h"
#include "ssd/experiment.h"
#include "ssd/ssd.h"
#include "trace/synthetic.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ctflash::Us;
namespace ssd = ctflash::ssd;
namespace trace = ctflash::trace;
namespace util = ctflash::util;

struct Arm {
  ssd::FtlKind kind;
  bool web;
  const char* name;
};

constexpr Arm kArms[] = {
    {ssd::FtlKind::kConventional, true, "conventional/web"},
    {ssd::FtlKind::kPpb, true, "ppb/web"},
    {ssd::FtlKind::kConventional, false, "conventional/media"},
    {ssd::FtlKind::kPpb, false, "ppb/media"},
};

constexpr std::uint32_t kPageSizeBytes = 16 * 1024;
constexpr double kSpeedRatio = 3.0;
constexpr std::uint64_t kPrefillPct = 80;

struct ArmResult {
  std::string error;  ///< non-empty when the arm threw
  std::uint64_t attempted = 0;
  util::LatencyStats read;
  util::LatencyStats write;
  ctflash::ftl::FtlStats ftl;
  ctflash::core::PpbStats ppb;
  std::uint64_t free_blocks_min = 0;
  double die_busy_share = 0.0;
  double channel_busy_share = 0.0;
  bool invariants_ok = true;
  Us end_us = 0;
  double setup_s = 0.0;
  double timed_s = 0.0;
};

struct Inputs {
  ssd::SsdConfig config[2];  ///< indexed by FtlKind
  std::uint64_t prefill_bytes[2] = {0, 0};
  std::vector<trace::TraceRecord> web;
  std::vector<trace::TraceRecord> media;
  /// Non-empty records of each trace: the requests a replay must complete.
  std::uint64_t web_ops = 0;
  std::uint64_t media_ops = 0;
};

std::uint64_t NonEmpty(const std::vector<trace::TraceRecord>& records) {
  std::uint64_t n = 0;
  for (const trace::TraceRecord& r : records) n += r.size_bytes > 0 ? 1 : 0;
  return n;
}

Inputs MakeInputs(const PaperReplayConfig& c, std::uint64_t seed) {
  Inputs in;
  std::uint64_t footprint = ~0ull;
  for (const ssd::FtlKind kind :
       {ssd::FtlKind::kConventional, ssd::FtlKind::kPpb}) {
    const auto k = static_cast<int>(kind);
    in.config[k] =
        ssd::ScaledConfig(kind, c.device_bytes, kPageSizeBytes, kSpeedRatio);
    const ssd::Ssd probe(in.config[k]);
    in.prefill_bytes[k] = probe.LogicalBytes() / 100 * kPrefillPct;
    footprint = std::min(footprint, in.prefill_bytes[k]);
  }
  in.web = trace::SyntheticTraceGenerator(
               trace::WebServerWorkload(footprint, c.web_requests,
                                        MixSeed(seed, 1)))
               .Generate();
  in.media = trace::SyntheticTraceGenerator(
                 trace::MediaServerWorkload(footprint, c.media_requests,
                                            MixSeed(seed, 2)))
                 .Generate();
  in.web_ops = NonEmpty(in.web);
  in.media_ops = NonEmpty(in.media);
  return in;
}

/// The closed-loop replay, with per-call spans when kTraced.  Offsets are
/// clipped into the logical space the way ssd::ExperimentRunner clips them.
template <bool kTraced>
void Replay(ssd::Ssd& ssd, Us base,
            const std::vector<trace::TraceRecord>& records,
            SpanRecorder* rec, ArmResult& out) {
  SpanRecorder::Kind read_kind = 0;
  SpanRecorder::Kind write_kind = 0;
  if constexpr (kTraced) {
    read_kind = rec->Register("ssd.read_call");
    write_kind = rec->Register("ssd.write_call");
  }
  const std::uint64_t logical = ssd.LogicalBytes();
  Us clock = base;
  for (const trace::TraceRecord& r : records) {
    std::uint64_t offset = r.offset_bytes;
    std::uint64_t size = r.size_bytes;
    if (offset >= logical) offset %= logical;
    if (offset + size > logical) size = logical - offset;
    if (size == 0) continue;
    const Us arrival = std::max(base + r.timestamp_us, clock);
    ctflash::ftl::RequestResult res;
    if (r.op == trace::OpType::kRead) {
      if constexpr (kTraced) rec->Begin(read_kind);
      res = ssd.Read(offset, size, arrival);
      if constexpr (kTraced) rec->End();
      out.read.Add(res.LatencyUs());
    } else {
      if constexpr (kTraced) rec->Begin(write_kind);
      res = ssd.Write(offset, size, arrival);
      if constexpr (kTraced) rec->End();
      out.write.Add(res.LatencyUs());
    }
    clock = std::max(clock, res.completion_us);
  }
  out.end_us = clock;
}

ArmResult RunArm(const Inputs& in, const Arm& arm, SpanRecorder* rec,
                 bool check_invariants) {
  const auto k = static_cast<int>(arm.kind);
  const auto& records = arm.web ? in.web : in.media;
  ArmResult out;
  out.attempted = records.size();
  try {
    const std::int64_t t0 = NowNs();
    ssd::Ssd ssd(in.config[k]);
    Us base = 0;
    {
      ScopedSpan span(rec, "ssd.prefill");
      base = ssd::ExperimentRunner(ssd).Prefill(in.prefill_bytes[k]);
    }
    ssd.ftl().ResetFreePoolWatermark();
    const Us die_busy = ssd.target().dies().TotalBusyTime();
    const Us channel_busy = ssd.target().channels().TotalBusyTime();
    const std::int64_t t1 = NowNs();
    out.setup_s = static_cast<double>(t1 - t0) / 1e9;
    if (rec != nullptr) {
      Replay<true>(ssd, base, records, rec, out);
    } else {
      Replay<false>(ssd, base, records, rec, out);
    }
    out.timed_s = static_cast<double>(NowNs() - t1) / 1e9;

    out.ftl = ssd.ftl().stats();
    out.free_blocks_min = ssd.ftl().blocks().MinFreeWatermark();
    out.die_busy_share =
        BusyShare(ssd.target().dies(), die_busy, out.end_us - base);
    out.channel_busy_share =
        BusyShare(ssd.target().channels(), channel_busy, out.end_us - base);
    if (const ctflash::core::PpbFtl* ppb = ssd.ppb()) {
      out.ppb = ppb->ppb_stats();
      if (check_invariants) out.invariants_ok = ppb->CheckInvariants();
    }
  } catch (const std::exception& e) {
    out.error = e.what();
    if (out.error.empty()) out.error = "unknown error";
  }
  return out;
}

std::uint64_t ArmDigest(const ArmResult& a) {
  Digest d;
  d.Add(static_cast<std::uint64_t>(a.error.empty() ? 0 : 1));
  d.Add(a.read);
  d.Add(a.write);
  d.Add(a.ftl.host_read_pages);
  d.Add(a.ftl.host_write_pages);
  d.Add(a.ftl.gc_page_copies);
  d.Add(a.ftl.gc_erases);
  d.Add(static_cast<std::uint64_t>(a.ftl.gc_time_us));
  d.Add(a.ppb.fast_reads);
  d.Add(a.ppb.slow_reads);
  d.Add(a.ppb.hot_area_writes);
  d.Add(a.ppb.iron_promotions);
  d.Add(a.ppb.cold_demotions);
  d.Add(a.ppb.gc_migrations);
  d.Add(a.free_blocks_min);
  d.Add(static_cast<std::uint64_t>(a.end_us));
  return d.value();
}

}  // namespace

Outcome RunPaperReplay(const PaperReplayConfig& config,
                       const RunOptions& options) {
  const Inputs inputs = MakeInputs(config, options.seed);
  Outcome out;
  SpanRecorder recorder;
  std::vector<ArmResult> first;  // every round simulates the same thing

  DriveRounds(options, recorder, out, [&](const RoundContext& context) {
    RoundResult round;
    std::vector<ArmResult> arms;
    Digest digest;
    for (const Arm& arm : kArms) {
      arms.push_back(RunArm(inputs, arm, context.recorder, context.keep));
      const ArmResult& a = arms.back();
      digest.Add(ArmDigest(a));
      round.AddPart(a.setup_s, a.timed_s, a.read.count() + a.write.count());
      round.attempted += a.attempted;
      if (!a.error.empty()) round.failed += a.attempted;
    }
    round.digest = digest.value();
    if (context.keep && context.recorder == nullptr) first = std::move(arms);
    return round;
  });

  util::LatencyStats ppb_read;
  util::LatencyStats ppb_write;
  std::uint64_t ppb_host_pages = 0;
  std::uint64_t ppb_gc_copies = 0;
  std::uint64_t fast_reads = 0;
  std::uint64_t slow_reads = 0;
  double die_share = 0.0;
  double channel_share = 0.0;
  std::uint64_t free_min = ~0ull;
  for (std::size_t i = 0; i < first.size(); ++i) {
    const Arm& arm = kArms[i];
    const ArmResult& a = first[i];
    out.Check(a.error.empty(), std::string(arm.name) + " threw: " + a.error);
    out.Check(a.read.count() + a.write.count() ==
                  (arm.web ? inputs.web_ops : inputs.media_ops),
              std::string(arm.name) + ": every trace request completed");
    out.Check(a.invariants_ok,
              std::string(arm.name) + ": PPB CheckInvariants()");
    out.notes.push_back(
        std::string(arm.name) + ": reads=" + std::to_string(a.read.count()) +
        " read_total_s=" + std::to_string(a.read.total_seconds()) +
        " read_p99_us=" + std::to_string(a.read.p99_us()) +
        " writes=" + std::to_string(a.write.count()) +
        " write_p99_us=" + std::to_string(a.write.p99_us()) +
        " waf=" + std::to_string(a.ftl.Waf()));
    out.values["ftl.gc_page_copies"] += static_cast<double>(a.ftl.gc_page_copies);
    out.values["ftl.gc_erases"] += static_cast<double>(a.ftl.gc_erases);
    out.values["ftl.gc_stale_copies"] +=
        static_cast<double>(a.ftl.gc_stale_copies);
    free_min = std::min(free_min, a.free_blocks_min);
    die_share += a.die_busy_share / static_cast<double>(first.size());
    channel_share += a.channel_busy_share / static_cast<double>(first.size());
    if (arm.kind != ssd::FtlKind::kPpb) continue;
    ppb_read.Merge(a.read);
    ppb_write.Merge(a.write);
    ppb_host_pages += a.ftl.host_write_pages;
    ppb_gc_copies += a.ftl.gc_page_copies;
    fast_reads += a.ppb.fast_reads;
    slow_reads += a.ppb.slow_reads;
    out.values["core.hot_area_writes"] += static_cast<double>(a.ppb.hot_area_writes);
    out.values["core.iron_promotions"] += static_cast<double>(a.ppb.iron_promotions);
    out.values["core.cold_demotions"] += static_cast<double>(a.ppb.cold_demotions);
    out.values["core.gc_migrations"] += static_cast<double>(a.ppb.gc_migrations);
  }
  // The paper's shape: PPB's total read latency beats conventional on both
  // traces (arms are conventional/PPB pairs per trace).
  for (std::size_t i = 0; i + 1 < first.size(); i += 2) {
    out.Check(first[i + 1].read.total_us() < first[i].read.total_us(),
              std::string("paper shape: ") + kArms[i + 1].name +
                  " total read latency < " + kArms[i].name);
  }

  out.SetLatency("device_read_mean_us", ppb_read.mean_us(), ppb_read.count());
  out.SetLatency("device_read_p99_us", ppb_read.p99_us(), ppb_read.count());
  out.SetLatency("device_read_p999_us", ppb_read.p999_us(), ppb_read.count());
  out.SetLatency("ftl.write_mean_us", ppb_write.mean_us(), ppb_write.count());
  out.SetLatency("ftl.write_p99_us", ppb_write.p99_us(), ppb_write.count());
  out.Set("device_waf",
          ppb_host_pages == 0
              ? 1.0
              : static_cast<double>(ppb_host_pages + ppb_gc_copies) /
                    static_cast<double>(ppb_host_pages));
  out.Set("core.fast_read_share",
          fast_reads + slow_reads == 0
              ? 0.0
              : static_cast<double>(fast_reads) /
                    static_cast<double>(fast_reads + slow_reads));
  out.Set("ftl.free_blocks_min", static_cast<double>(free_min));
  out.Set("nand.die_busy_share", die_share);
  out.Set("nand.channel_busy_share", channel_share);
  return out;
}

}  // namespace perfbench
