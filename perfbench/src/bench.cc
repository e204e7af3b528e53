#include "bench.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "spans.h"

namespace perfbench {

const std::vector<MetricDef>& MetricCatalog() {
  static const std::vector<MetricDef> catalog = {
      // End to end: host time unless the name starts with device_.
      {"req_per_s", "1/s", true},
      {"setup_s", "s", true},
      {"peak_rss_mb", "MiB", true},
      {"device_read_mean_us", "us", true},
      {"device_read_p99_us", "us", true},
      {"device_read_p999_us", "us", true},
      {"device_waf", "ratio", true},
      {"served_ratio", "ratio", true},
      // Per layer, from the traced run.
      {"ssd.read_call_ns.p50", "ns", false},
      {"ssd.read_call_ns.p99", "ns", false},
      {"ssd.read_calls", "count", false},
      {"ssd.write_call_ns.p50", "ns", false},
      {"ssd.write_call_ns.p99", "ns", false},
      {"ssd.write_calls", "count", false},
      {"ssd.prefill_s", "s", false},
      {"ssd.self_s", "s", false},
      {"ftl.gc_page_copies", "count", false},
      {"ftl.gc_erases", "count", false},
      {"ftl.gc_stale_copies", "count", false},
      {"ftl.free_blocks_min", "count", false},
      {"ftl.write_mean_us", "us", false},
      {"ftl.write_p99_us", "us", false},
      {"core.fast_read_share", "ratio", false},
      {"core.hot_area_writes", "count", false},
      {"core.iron_promotions", "count", false},
      {"core.cold_demotions", "count", false},
      {"core.gc_migrations", "count", false},
      {"nand.die_busy_share", "ratio", false},
      {"nand.channel_busy_share", "ratio", false},
      {"nand.read_retries", "count", false},
      {"nand.program_failures", "count", false},
      {"nand.erase_failures", "count", false},
      {"sim.events", "count", false},
      {"sim.step_ns.p50", "ns", false},
      {"sim.step_ns.p99", "ns", false},
      {"sim.self_s", "s", false},
      {"host.submit_ns.p50", "ns", false},
      {"host.submit_ns.p99", "ns", false},
      {"host.submits", "count", false},
      {"host.self_s", "s", false},
      {"sched.ready_depth.p50", "count", false},
      {"sched.ready_depth.p99", "count", false},
      {"sched.txns", "count", false},
      {"sched.gc_txns", "count", false},
      {"sched.read_preemptions", "count", false},
      {"sched.write_hold_picks", "count", false},
      {"sched.peak_in_flight", "count", false},
      {"obs.paced_share", "ratio", false},
      {"obs.queued_share", "ratio", false},
      {"obs.media_share", "ratio", false},
      {"obs.stall.die_busy_gc_us", "us", false},
      {"obs.stall.write_hold_us", "us", false},
      {"obs.trace_overhead_pct", "%", false},
      {"qos.throttled", "count", false},
      {"qos.throttle_wait_us", "us", false},
      {"cluster.run_s", "s", false},
      {"cluster.epoch_s", "s", false},
      {"cluster.timeouts", "count", false},
      {"cluster.shards_moved", "count", false},
      {"cluster.migration_ops", "count", false},
      {"cluster.drain_epoch", "epoch", false},
      {"cluster.self_s", "s", false},
      {"campaign.snapshot_bytes", "bytes", false},
      {"campaign.save_s", "s", false},
      {"campaign.restore_s", "s", false},
      {"campaign.self_s", "s", false},
      {"util.zipf_sample_ns", "ns", false},
      {"util.self_s", "s", false},
      {"bench.self_s", "s", false},
      {"bench.traced_wall_s", "s", false},
  };
  return catalog;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double BusyShare(const ctflash::sim::ResourcePool& pool,
                 ctflash::Us busy_before, ctflash::Us span_us) {
  if (span_us <= 0) return 0.0;
  return static_cast<double>(pool.TotalBusyTime() - busy_before) /
         (static_cast<double>(pool.Count()) * static_cast<double>(span_us));
}

void ReportPhases(const ctflash::obs::PhaseStats& phases, Outcome& out) {
  using ctflash::obs::StallCause;
  const ctflash::obs::PhaseBreakdown& read = phases.read;
  const double total = read.total.total_us();
  if (total > 0.0) {
    out.Set("obs.paced_share", read.paced.total_us() / total);
    out.Set("obs.queued_share", read.queued.total_us() / total);
    out.Set("obs.media_share", read.media.total_us() / total);
  }
  out.Set("obs.stall.die_busy_gc_us",
          static_cast<double>(
              read.stall_us[static_cast<std::size_t>(StallCause::kDieBusyGc)]));
  out.Set("obs.stall.write_hold_us",
          static_cast<double>(phases.write.stall_us[static_cast<std::size_t>(
              StallCause::kWriteHold)]));
}

namespace {

/// Per-call latency and call count of one span kind, per traced round.
void ReportCalls(const SpanRecorder& rec, const char* kind,
                 const std::string& latency_name, const char* count_name,
                 double rounds, Outcome& out) {
  const SpanRecorder::KindStats* k = rec.Find(kind);
  if (k == nullptr || k->count == 0) return;
  out.SetLatency(latency_name + ".p50", k->duration_ns.Quantile(0.50),
                 k->count);
  out.SetLatency(latency_name + ".p99", k->duration_ns.Quantile(0.99),
                 k->count);
  if (count_name != nullptr) {
    out.Set(count_name, static_cast<double>(k->count) / rounds);
  }
}

/// Mean wall seconds per traced round spent in spans of `kind`.
void ReportSeconds(const SpanRecorder& rec, const char* kind,
                   const char* name, double rounds, Outcome& out) {
  const SpanRecorder::KindStats* k = rec.Find(kind);
  if (k == nullptr || k->count == 0) return;
  out.Set(name, static_cast<double>(k->total_ns) / 1e9 / rounds);
}

void ReportSpans(const SpanRecorder& rec, double rounds, Outcome& out) {
  ReportCalls(rec, "ssd.read_call", "ssd.read_call_ns", "ssd.read_calls",
              rounds, out);
  ReportCalls(rec, "ssd.write_call", "ssd.write_call_ns", "ssd.write_calls",
              rounds, out);
  ReportCalls(rec, "host.submit", "host.submit_ns", "host.submits", rounds,
              out);
  ReportCalls(rec, "sim.step", "sim.step_ns", nullptr, rounds, out);
  ReportSeconds(rec, "ssd.prefill", "ssd.prefill_s", rounds, out);
  ReportSeconds(rec, "cluster.run", "cluster.run_s", rounds, out);
  ReportSeconds(rec, "campaign.save", "campaign.save_s", rounds, out);
  ReportSeconds(rec, "campaign.restore", "campaign.restore_s", rounds, out);
  ReportSeconds(rec, "bench.round", "bench.traced_wall_s", rounds, out);
  for (const std::string& layer : rec.Layers()) {
    out.Set(layer + ".self_s",
            static_cast<double>(rec.LayerSelfNs(layer)) / 1e9 / rounds);
  }
}

/// The rounds one thread ran.
struct RoundLog {
  std::vector<RoundResult> untraced;
  std::vector<RoundResult> traced;
  std::string error;  ///< what escaped a round, if anything did
  double clock_probe_ns = 1e300;  ///< fastest ClockProbeNs() seen
};

constexpr int kClockProbeSteps = 200'000;
/// ClockProbeNs() on a 3 GHz core: each step is a dependent 64-bit multiply
/// and add, 4 cycles on x86-64.
constexpr double kReferenceProbeNs = kClockProbeSteps * 4 / 3.0;

/// Wall time of a fixed chain of dependent multiply-adds.  It touches no
/// memory and leaves the core's other units idle, so it reads the core clock
/// and little else.
double ClockProbeNs() {
  const std::int64_t t0 = NowNs();
  std::uint64_t x = static_cast<std::uint64_t>(t0);
  for (int i = 0; i < kClockProbeSteps; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    asm volatile("" : "+r"(x));
  }
  return static_cast<double>(NowNs() - t0);
}

/// Per part, the fastest time across `rounds`, summed over parts.
double SumOfFastestParts(const std::vector<const RoundResult*>& rounds,
                         std::vector<double> RoundResult::*parts,
                         Outcome& out) {
  std::vector<double> best = rounds.front()->*parts;
  for (const RoundResult* r : rounds) {
    const std::vector<double>& p = r->*parts;
    out.Check(p.size() == best.size(), "every round runs the same parts");
    for (std::size_t i = 0; i < best.size() && i < p.size(); ++i) {
      best[i] = std::min(best[i], p[i]);
    }
  }
  double sum = 0.0;
  for (const double s : best) sum += s;
  return sum;
}

std::vector<double> TimedTotals(const std::vector<RoundResult>& rounds) {
  std::vector<double> totals;
  for (const RoundResult& r : rounds) totals.push_back(r.TimedTotal());
  return totals;
}

void Summarize(const RunOptions& options, const std::vector<RoundLog>& logs,
               const SpanRecorder& recorder, Outcome& out) {
  const RoundLog& lead = logs.front();
  const RoundResult& first = lead.untraced.front();
  out.sim_digest = first.digest;
  std::vector<const RoundResult*> untraced;
  for (const RoundLog& log : logs) {
    for (const RoundResult& r : log.untraced) {
      untraced.push_back(&r);
      out.attempted += r.attempted;
      out.failed += r.failed;
      out.Check(r.digest == out.sim_digest,
                "every round reproduces the first round's simulated results");
    }
    for (const RoundResult& r : log.traced) {
      out.attempted += r.attempted;
      out.failed += r.failed;
      out.Check(r.digest == out.sim_digest,
                "the traced run reproduces the untraced simulated results");
    }
  }
  // The machine's core clock steps between turbo bins over minutes and
  // moves every timing with it.  Host times are scaled to a 3 GHz core: the
  // fastest probe belongs to the fastest clock, as the fastest parts do.
  double probe_ns = lead.clock_probe_ns;
  for (const RoundLog& log : logs) {
    probe_ns = std::min(probe_ns, log.clock_probe_ns);
  }
  const double to_reference = kReferenceProbeNs / probe_ns;
  const double best_timed_s =
      SumOfFastestParts(untraced, &RoundResult::timed_s, out);
  const double best_setup_s =
      SumOfFastestParts(untraced, &RoundResult::setup_s, out);
  const double wall_req_per_s =
      best_timed_s > 0.0 ? static_cast<double>(first.requests) / best_timed_s
                         : 0.0;
  out.Set("req_per_s", wall_req_per_s / to_reference);
  out.Set("setup_s", best_setup_s * to_reference);
  out.Set("peak_rss_mb", PeakRssMb());
  out.notes.push_back(
      "core clock " + std::to_string(3.0 * to_reference) +
      " GHz-equivalent (probe " + std::to_string(probe_ns) +
      " ns); unscaled req_per_s=" + std::to_string(wall_req_per_s) +
      " setup_s=" + std::to_string(best_setup_s));

  if (!lead.traced.empty()) {
    out.traced_digest = lead.traced.front().digest;
    // Both medians come from the lead thread, so from the same CPU.
    out.Set("obs.trace_overhead_pct",
            (Median(TimedTotals(lead.traced)) /
                 Median(TimedTotals(lead.untraced)) -
             1.0) *
                100.0);
    ReportSpans(recorder, static_cast<double>(lead.traced.size()), out);
    if (!options.spans_out.empty() && !recorder.WriteJson(options.spans_out)) {
      out.notes.push_back("could not write spans to " + options.spans_out);
    }
  }
  out.Set("served_ratio",
          out.attempted == 0
              ? 0.0
              : static_cast<double>(out.attempted - out.failed) /
                    static_cast<double>(out.attempted));
}

/// One thread's share of DriveRounds; `recorder` is non-null only on the
/// lead thread of a traced run.
void RunRounds(const RunOptions& options, SpanRecorder* recorder, bool lead,
               const std::function<RoundResult(const RoundContext&)>& round,
               RoundLog& log) {
  double timed_s = 0.0;
  for (;;) {
    const bool traced =
        recorder != nullptr && log.traced.size() < log.untraced.size();
    if (timed_s >= options.seconds && !log.untraced.empty() &&
        (recorder == nullptr || !log.traced.empty())) {
      break;
    }
    log.clock_probe_ns = std::min(log.clock_probe_ns, ClockProbeNs());
    std::vector<RoundResult>& rounds = traced ? log.traced : log.untraced;
    const RoundContext context{traced ? recorder : nullptr,
                               lead && rounds.empty()};
    if (traced) recorder->Begin(recorder->Register("bench.round"));
    rounds.push_back(round(context));
    if (traced) recorder->End();
    timed_s += rounds.back().TimedTotal();
  }
}

/// The CPUs this process may run on, in order.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

}  // namespace

double RoundResult::TimedTotal() const {
  double sum = 0.0;
  for (const double s : timed_s) sum += s;
  return sum;
}

void DriveRounds(const RunOptions& options, SpanRecorder& recorder,
                 Outcome& out,
                 const std::function<RoundResult(const RoundContext&)>& round) {
  const std::vector<int> cpus = AllowedCpus();
  std::vector<RoundLog> logs(kRoundThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kRoundThreads; ++t) {
    threads.emplace_back([&, t] {
      if (!cpus.empty()) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus[t % cpus.size()], &set);
        // Unpinned is still correct, only noisier: ignore a refusal.
        pthread_setaffinity_np(pthread_self(), sizeof set, &set);
      }
      try {
        RunRounds(options, options.trace && t == 0 ? &recorder : nullptr,
                  t == 0, round, logs[t]);
      } catch (const std::exception& e) {
        logs[t].error = e.what();
        if (logs[t].error.empty()) logs[t].error = "unknown error";
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const RoundLog& log : logs) {
    if (!log.error.empty()) throw std::runtime_error(log.error);
  }
  Summarize(options, logs, recorder, out);
}

}  // namespace perfbench
