// GC/host QoS — the priority-transaction routing bench.
//
// Read tail latency during a GC-heavy mixed burst (closed-loop QD 16,
// 50 % reads, 16 KiB requests over a 60 % footprint after an 85 % prefill),
// comparing the two GC routings on the identical request stream:
//   * gc_routing = kInline     (seed behavior: relocations book the die
//     timelines inside the FTL, invisible to the scheduler — a read that
//     lands behind a victim relocation waits out the whole burst);
//   * gc_routing = kScheduled  (relocation copies and erases flow through
//     the IoScheduler as low-priority transactions: ready host reads
//     overtake queued GC on the die, aging + admission control keep GC
//     live and the pool above the trigger).
//
// Asserted shape (std::runtime_error on violation, the bench error idiom),
// for BOTH FTL variants:
//   * scheduled-mode read p99 is STRICTLY lower than inline-mode read p99;
//   * mean read latency does not regress;
//   * the routings do equal GC work: erase counts within 15 %, WAF within
//     10 % (scheduled mode may skip copies the host already rewrote).
//
// Results are also written as JSON (default BENCH_gc_qos.json, override
// with --json) so the numbers are diffable across PRs.
//
// Observability (obs/): --trace-out <file> attaches a lifecycle tracer to
// every run and writes the fleet's Chrome/Perfetto timeline there (one
// process per FTL x routing); the JSON rows then carry the phase
// breakdowns.  --trace-smoke runs a single small scheduled-GC burst with
// tracing on and asserts the contract instead: phase conservation on every
// request, die-busy-gc stall attribution present, and the exported trace
// re-parses as JSON (the CI smoke, sanitizer-friendly).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "host/host_interface.h"
#include "host/load_generator.h"
#include "obs/export.h"
#include "obs/tracer.h"
#include "util/table_printer.h"

namespace {

using namespace ctflash;

struct RoutingResult {
  std::string ftl;
  std::string routing;
  double read_p50_us = 0.0;
  double read_p95_us = 0.0;
  double read_p99_us = 0.0;
  double read_mean_us = 0.0;
  double write_p99_us = 0.0;
  double waf = 1.0;
  std::uint64_t gc_erases = 0;
  std::uint64_t gc_page_copies = 0;
  std::uint64_t gc_stale_copies = 0;
  std::uint64_t read_preemptions = 0;
  /// Set only under --trace-out: the run's lifecycle tracer (timeline
  /// spans + phase breakdowns).
  std::unique_ptr<obs::Tracer> tracer;
};

RoutingResult RunOne(ssd::FtlKind kind, ftl::GcRouting routing,
                     std::uint64_t device_bytes, std::uint64_t requests,
                     bench::PrefillSnapshotCache& prefills, bool trace,
                     Us metrics_epoch_us) {
  auto cfg = ssd::ScaledConfig(kind, device_bytes, 16 * 1024, 2.0);
  cfg.timing_mode = ftl::TimingMode::kQueued;
  cfg.ftl.gc_routing = routing;
  ssd::Ssd ssd(cfg);

  // Synchronous prefill before the host interface exists: the GC sink is
  // not attached yet, so inline GC keeps the pool healthy in both modes —
  // which also makes the prefilled state routing-independent, so the cache
  // prefills each FTL variant once and restores it for the other routing.
  const Us prefill_end =
      prefills.Prefill(ssd, ssd.LogicalBytes() / 100 * 85);
  ssd.ftl().ResetStats();

  host::HostInterface host(ssd, host::HostConfig{});
  host.AdvanceTo(prefill_end);

  std::unique_ptr<obs::Tracer> tracer;
  if (trace) {
    obs::TracerConfig tc;
    tc.record_spans = true;
    tc.metrics_epoch_us = metrics_epoch_us;
    tc.epoch_base_us = prefill_end;
    tracer = std::make_unique<obs::Tracer>(tc);
    host.AttachTracer(tracer.get());
  }

  host::TenantWorkload burst;
  burst.queue_depth = 16;
  burst.total_requests = requests;
  burst.read_fraction = 0.5;
  burst.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
  burst.seed = 99;
  const host::LoadStats load = host::LoadGenerator(host, {burst}).Run().total;

  RoutingResult r;
  r.ftl = ssd::FtlKindName(kind);
  r.routing = ftl::GcRoutingName(routing);
  r.read_p50_us = load.read_latency.p50_us();
  r.read_p95_us = load.read_latency.p95_us();
  r.read_p99_us = load.read_latency.p99_us();
  r.read_mean_us = load.read_latency.mean_us();
  r.write_p99_us = load.write_latency.p99_us();
  r.waf = ssd.ftl().stats().Waf();
  r.gc_erases = ssd.ftl().stats().gc_erases;
  r.gc_page_copies = ssd.ftl().stats().gc_page_copies;
  r.gc_stale_copies = ssd.ftl().stats().gc_stale_copies;
  r.read_preemptions = host.scheduler().ReadPreemptionsOfGc();
  r.tracer = std::move(tracer);
  return r;
}

void CheckPair(const RoutingResult& inline_r, const RoutingResult& sched_r) {
  std::ostringstream os;
  if (inline_r.gc_erases == 0) {
    os << inline_r.ftl << ": burst was expected to be GC-heavy";
    throw std::runtime_error(os.str());
  }
  if (!(sched_r.read_p99_us < inline_r.read_p99_us)) {
    os << sched_r.ftl << ": scheduled read p99 (" << sched_r.read_p99_us
       << " us) not strictly below inline (" << inline_r.read_p99_us << " us)";
    throw std::runtime_error(os.str());
  }
  if (sched_r.read_mean_us > inline_r.read_mean_us) {
    os << sched_r.ftl << ": scheduled mean read latency regressed ("
       << sched_r.read_mean_us << " > " << inline_r.read_mean_us << " us)";
    throw std::runtime_error(os.str());
  }
  const double erase_ratio = static_cast<double>(sched_r.gc_erases) /
                             static_cast<double>(inline_r.gc_erases);
  if (erase_ratio < 0.85 || erase_ratio > 1.15) {
    os << sched_r.ftl << ": erase counts diverged (scheduled "
       << sched_r.gc_erases << " vs inline " << inline_r.gc_erases << ")";
    throw std::runtime_error(os.str());
  }
  const double waf_ratio = sched_r.waf / inline_r.waf;
  if (waf_ratio < 0.90 || waf_ratio > 1.10) {
    os << sched_r.ftl << ": WAF diverged (scheduled " << sched_r.waf
       << " vs inline " << inline_r.waf << ")";
    throw std::runtime_error(os.str());
  }
}

void WriteJson(const std::string& path, std::uint64_t device_bytes,
               std::uint64_t requests,
               const std::vector<RoutingResult>& results,
               const ctflash::bench::PrefillSnapshotCache& prefills) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\n"
      << "  \"bench\": \"gc_qos\",\n"
      << "  \"workload\": \"closed-loop QD16, 50% reads, 16KiB, 60% "
         "footprint, 85% prefill\",\n"
      << "  \"device_bytes\": " << device_bytes << ",\n"
      << "  \"requests\": " << requests << ",\n"
      << "  \"prefill\": " << prefills.JsonObject() << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "    {\"ftl\": \"" << r.ftl << "\", \"gc_routing\": \"" << r.routing
        << "\", \"read_p50_us\": " << r.read_p50_us
        << ", \"read_p95_us\": " << r.read_p95_us
        << ", \"read_p99_us\": " << r.read_p99_us
        << ", \"read_mean_us\": " << r.read_mean_us
        << ", \"write_p99_us\": " << r.write_p99_us << ", \"waf\": " << r.waf
        << ", \"gc_erases\": " << r.gc_erases
        << ", \"gc_page_copies\": " << r.gc_page_copies
        << ", \"gc_stale_copies\": " << r.gc_stale_copies
        << ", \"read_preemptions\": " << r.read_preemptions;
    if (r.tracer != nullptr) {
      out << ", \"phases\": " << ctflash::obs::PhaseStatsJson(r.tracer->phases()).Dump();
    }
    out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

// --trace-smoke: one small scheduled-GC burst with full tracing on.  The
// asserted contract is the observability story itself, not the p99 shape:
// conservation holds per request, read tail time is attributable to GC
// holding dies by name, and the export round-trips through the JSON parser.
int RunTraceSmoke(const bench::BenchOptions& options) {
  auto cfg =
      ssd::ScaledConfig(ssd::FtlKind::kPpb, 256ull << 20, 16 * 1024, 2.0);
  cfg.timing_mode = ftl::TimingMode::kQueued;
  cfg.ftl.gc_routing = ftl::GcRouting::kScheduled;
  ssd::Ssd ssd(cfg);
  ssd::ExperimentRunner prefiller(ssd);
  const Us prefill_end = prefiller.Prefill(ssd.LogicalBytes() / 100 * 85);
  ssd.ftl().ResetStats();

  host::HostInterface host(ssd, host::HostConfig{});
  host.AdvanceTo(prefill_end);

  obs::TracerConfig tc;
  tc.record_spans = true;
  tc.record_requests = true;
  tc.metrics_epoch_us =
      options.metrics_epoch_us != 0 ? options.metrics_epoch_us : 10'000;
  tc.epoch_base_us = prefill_end;
  obs::Tracer tracer(tc);
  host.AttachTracer(&tracer);

  host::TenantWorkload burst;
  burst.queue_depth = 16;
  burst.total_requests = 20'000;
  burst.read_fraction = 0.5;
  burst.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
  burst.seed = 99;
  host::LoadGenerator(host, {burst}).Run();

  if (ssd.ftl().stats().gc_erases == 0) {
    throw std::runtime_error("trace-smoke: burst was expected to be GC-heavy");
  }
  if (tracer.requests().empty()) {
    throw std::runtime_error("trace-smoke: no requests recorded");
  }
  for (const obs::PhaseRecord& r : tracer.requests()) {
    if (r.PacedUs() + r.QueuedUs() + r.MediaUs() != r.TotalUs()) {
      throw std::runtime_error(
          "trace-smoke: phase conservation violated on request " +
          std::to_string(r.request_id));
    }
  }
  const auto& read = tracer.phases().read;
  const auto gc_idx = static_cast<std::size_t>(obs::StallCause::kDieBusyGc);
  if (read.stall_us[gc_idx] == 0) {
    throw std::runtime_error(
        "trace-smoke: no die-busy-gc stall attributed to reads");
  }
  if (tracer.PendingRequests() != 0) {
    throw std::runtime_error(
        "trace-smoke: requests left pending after drain");
  }

  const std::string trace = obs::ChromeTraceJson(tracer);
  const campaign::Json parsed = campaign::Json::Parse(trace);
  const campaign::Json* events = parsed.Get("traceEvents");
  if (events == nullptr || events->AsArray().empty()) {
    throw std::runtime_error("trace-smoke: exported trace has no events");
  }
  const std::string path = options.trace_out_path.empty()
                               ? "BENCH_gc_qos_trace.json"
                               : options.trace_out_path;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << trace;
  if (!options.metrics_out_path.empty()) {
    obs::MetricsRegistry registry;
    obs::ExportPhaseStats(tracer.phases(), "gc_qos", registry);
    registry.AddCounter("gc_qos.spans", tracer.spans().size());
    registry.AddCounter("gc_qos.requests", tracer.requests().size());
    std::ofstream mout(options.metrics_out_path);
    if (!mout) {
      throw std::runtime_error("cannot write " + options.metrics_out_path);
    }
    mout << registry.ToJson().Dump(2) << "\n";
    std::cout << "metrics written to " << options.metrics_out_path << "\n";
  }
  std::cout << "trace-smoke OK: " << events->AsArray().size()
            << " trace events (" << tracer.spans().size() << " spans, "
            << tracer.requests().size() << " requests, digest "
            << obs::TraceDigest(trace) << ")\n"
            << "read die-busy-gc stall: " << read.stall_us[gc_idx]
            << " us over " << read.stall_events[gc_idx] << " events\n"
            << "trace written to " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using ctflash::bench::BenchOptions;
  // --trace-smoke is this bench's own mode switch, peeled off before the
  // shared harness parser sees the argument list.
  bool trace_smoke = false;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--trace-smoke") {
      trace_smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  auto options =
      BenchOptions::FromArgs(static_cast<int>(args.size()), args.data());
  if (trace_smoke) return RunTraceSmoke(options);
  // This bench's own scale defaults (a small array GC cycles quickly),
  // applied only when the user did not pass the flag — the harness default
  // values are valid user choices, so detect presence, not value.
  bool user_device = false;
  bool user_requests = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--device") user_device = true;
    if (arg == "--qd-requests") user_requests = true;
  }
  if (!user_device) options.device_bytes = 512ull << 20;
  const std::uint64_t requests = user_requests ? options.qd_requests : 120'000;
  const std::string json_path =
      options.json_path.empty() ? "BENCH_gc_qos.json" : options.json_path;

  std::cout << "=== GC/host QoS: inline vs scheduled GC routing ===\n"
            << "Reads during a GC-heavy mixed burst (QD16, 50% reads); GC as\n"
            << "preemptible scheduler-visible transactions vs inline booking.\n"
            << "Device: " << (options.device_bytes >> 20)
            << " MiB scaled array; " << requests << " requests\n\n";

  // --metrics-out needs the tracers attached too: the registry is built
  // from their phase breakdowns.
  const bool trace =
      !options.trace_out_path.empty() || !options.metrics_out_path.empty();
  std::vector<RoutingResult> results;
  ctflash::bench::PrefillSnapshotCache prefills;
  for (const auto kind :
       {ctflash::ssd::FtlKind::kConventional, ctflash::ssd::FtlKind::kPpb}) {
    auto inline_r =
        RunOne(kind, ctflash::ftl::GcRouting::kInline, options.device_bytes,
               requests, prefills, trace, options.metrics_epoch_us);
    auto sched_r =
        RunOne(kind, ctflash::ftl::GcRouting::kScheduled, options.device_bytes,
               requests, prefills, trace, options.metrics_epoch_us);
    CheckPair(inline_r, sched_r);
    results.push_back(std::move(inline_r));
    results.push_back(std::move(sched_r));
  }

  ctflash::util::TablePrinter table(
      {"FTL", "GC routing", "read p50", "read p95", "read p99", "read mean",
       "WAF", "erases", "stale copies", "preemptions"});
  for (const auto& r : results) {
    table.AddRow({r.ftl, r.routing, ctflash::util::TablePrinter::FormatDouble(r.read_p50_us),
                  ctflash::util::TablePrinter::FormatDouble(r.read_p95_us), ctflash::util::TablePrinter::FormatDouble(r.read_p99_us),
                  ctflash::util::TablePrinter::FormatDouble(r.read_mean_us), ctflash::util::TablePrinter::FormatDouble(r.waf),
                  std::to_string(r.gc_erases), std::to_string(r.gc_stale_copies),
                  std::to_string(r.read_preemptions)});
  }
  table.Print();

  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    const auto& in = results[i];
    const auto& sc = results[i + 1];
    std::cout << "\n" << in.ftl << ": scheduled read p99 "
              << sc.read_p99_us << " us vs inline " << in.read_p99_us
              << " us (" << (1.0 - sc.read_p99_us / in.read_p99_us) * 100.0
              << "% lower) at erase parity " << sc.gc_erases << "/"
              << in.gc_erases;
  }
  if (!options.trace_out_path.empty()) {
    std::vector<std::pair<std::string, const ctflash::obs::Tracer*>> fleet;
    for (const auto& r : results) {
      fleet.emplace_back(r.ftl + "-" + r.routing, r.tracer.get());
    }
    const std::string trace_json = ctflash::obs::ChromeTraceJson(fleet);
    std::ofstream tout(options.trace_out_path);
    if (!tout) {
      throw std::runtime_error("cannot write " + options.trace_out_path);
    }
    tout << trace_json;
    std::cout << "\ntrace written to " << options.trace_out_path << " ("
              << trace_json.size() << " bytes, digest "
              << ctflash::obs::TraceDigest(trace_json) << ")";
  }
  if (!options.metrics_out_path.empty()) {
    // One registry over all arms, namespaced per (ftl, routing) pair.
    ctflash::obs::MetricsRegistry registry;
    for (const auto& r : results) {
      if (r.tracer == nullptr) continue;
      ctflash::obs::ExportPhaseStats(r.tracer->phases(),
                                     r.ftl + "." + r.routing, registry);
    }
    std::ofstream mout(options.metrics_out_path);
    if (!mout) {
      throw std::runtime_error("cannot write " + options.metrics_out_path);
    }
    mout << registry.ToJson().Dump(2) << "\n";
    std::cout << "\nmetrics written to " << options.metrics_out_path;
  }
  std::cout << "\n\nprefill snapshots: " << prefills.distinct_prefills()
            << " prefills, " << prefills.restores() << " restores, ~"
            << prefills.saved_wall_ms() << " ms saved";
  std::cout << "\nAll assertions passed; JSON written to " << json_path
            << "\n";
  WriteJson(json_path, options.device_bytes, requests, results, prefills);
  return 0;
}
