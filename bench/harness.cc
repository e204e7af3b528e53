#include "harness.h"

#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "replay/trace_source.h"
#include "util/config.h"
#include "util/table_printer.h"

namespace ctflash::bench {

Us PrefillSnapshotCache::Prefill(ssd::Ssd& ssd, std::uint64_t bytes,
                                 std::uint64_t chunk_bytes) {
  const std::string key = campaign::SnapshotShapeKey(ssd.config()) +
                          "|bytes=" + std::to_string(bytes) +
                          "|chunk=" + std::to_string(chunk_bytes);
  const auto t0 = std::chrono::steady_clock::now();
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ssd.Restore(it->second.state);
    const double restore_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    ++restores_;
    saved_wall_ms_ += it->second.wall_ms - restore_ms;
    return static_cast<Us>(it->second.state.clock_us);
  }
  ssd::ExperimentRunner runner(ssd);
  const Us end = runner.Prefill(bytes, chunk_bytes);
  Entry entry{ssd.Snapshot(end), 0.0};
  entry.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  prefill_wall_ms_ += entry.wall_ms;
  ++distinct_prefills_;
  cache_.emplace(key, std::move(entry));
  return end;
}

std::string PrefillSnapshotCache::JsonObject() const {
  std::ostringstream os;
  os << "{\"distinct_prefills\": " << distinct_prefills_
     << ", \"restores\": " << restores_
     << ", \"prefill_wall_ms\": " << prefill_wall_ms_
     << ", \"saved_wall_ms\": " << saved_wall_ms_ << "}";
  return os.str();
}

std::vector<std::string> AddTenantTraceSources(
    replay::ReplayPlan& plan, const std::vector<TenantTraceOption>& specs,
    std::uint64_t logical_bytes, std::size_t tenant_count) {
  std::vector<std::string> names;
  const std::uint64_t slice = logical_bytes / specs.size();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& spec = specs[i];
    if (spec.tenant >= tenant_count) {
      throw std::runtime_error("--tenant-trace: unknown tenant " +
                               std::to_string(spec.tenant));
    }
    replay::StreamingMsrCsvSource::Options source_opts;
    source_opts.hostname_filter = spec.hostname;
    replay::SourceOptions opts;
    opts.name = spec.hostname.empty() ? "tenant" + std::to_string(spec.tenant)
                                      : spec.hostname;
    opts.tenant = spec.tenant;
    opts.remap.policy = replay::RemapPolicy::kWrap;
    opts.remap.footprint_bytes = slice;
    opts.remap.base_bytes = slice * i;
    plan.AddSource(std::make_unique<replay::StreamingMsrCsvSource>(spec.path,
                                                                   source_opts),
                   opts);
    names.push_back(opts.name);
  }
  return names;
}

BenchOptions BenchOptions::FromArgs(int argc, char** argv) {
  BenchOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value after " + arg);
      }
      return argv[++i];
    };
    if (arg == "--device") {
      o.device_bytes = util::ParseByteSize(next());
    } else if (arg == "--requests") {
      const std::uint64_t n = std::stoull(next());
      o.web_requests = n;
      o.media_requests = n;
    } else if (arg == "--quick") {
      o.web_requests /= 10;
      o.media_requests /= 10;
    } else if (arg == "--media-trace") {
      o.media_trace_path = next();
    } else if (arg == "--web-trace") {
      o.web_trace_path = next();
    } else if (arg == "--trace-file") {
      o.trace_file = next();
      o.media_trace_path = o.trace_file;
      o.web_trace_path = o.trace_file;
    } else if (arg == "--tenant-trace") {
      // <tenant>=<csv>[@hostname]
      const std::string spec = next();
      const auto eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
        throw std::invalid_argument(
            "--tenant-trace: expected <tenant>=<csv>[@hostname], got '" +
            spec + "'");
      }
      const std::string tenant = util::Trim(spec.substr(0, eq));
      if (tenant.empty() ||
          tenant.find_first_not_of("0123456789") != std::string::npos ||
          tenant.size() > 6) {
        throw std::invalid_argument("--tenant-trace: bad tenant id '" +
                                    tenant + "'");
      }
      TenantTraceOption opt;
      opt.tenant = static_cast<std::uint32_t>(std::stoul(tenant));
      std::string rest = spec.substr(eq + 1);
      // The hostname separator is an '@' in the final path component only,
      // so directory names containing '@' don't silently truncate the path.
      const auto at = rest.rfind('@');
      const auto slash = rest.rfind('/');
      if (at != std::string::npos && at + 1 < rest.size() &&
          (slash == std::string::npos || at > slash)) {
        opt.hostname = rest.substr(at + 1);
        rest = rest.substr(0, at);
      }
      if (rest.empty()) {
        throw std::invalid_argument("--tenant-trace: empty CSV path in '" +
                                    spec + "'");
      }
      opt.path = rest;
      o.tenant_traces.push_back(opt);
    } else if (arg == "--qd-list") {
      o.qd_list.clear();
      std::istringstream list(next());
      std::string item;
      while (std::getline(list, item, ',')) {
        // Digits only: stoul would silently wrap "-1" and accept "8x".
        const std::string depth = util::Trim(item);
        const bool numeric =
            !depth.empty() &&
            depth.find_first_not_of("0123456789") == std::string::npos;
        if (!numeric || depth.size() > 9) {
          throw std::invalid_argument("--qd-list: bad queue depth '" + item +
                                      "'");
        }
        o.qd_list.push_back(static_cast<std::uint32_t>(std::stoul(depth)));
      }
      if (o.qd_list.empty()) {
        throw std::invalid_argument("--qd-list: no queue depths given");
      }
    } else if (arg == "--qd-requests") {
      o.qd_requests = std::stoull(next());
    } else if (arg == "--frontiers") {
      o.write_frontiers = static_cast<std::uint32_t>(std::stoul(next()));
      if (o.write_frontiers == 0) {
        throw std::invalid_argument("--frontiers must be >= 1");
      }
    } else if (arg == "--json") {
      o.json_path = next();
    } else if (arg == "--trace-out") {
      o.trace_out_path = next();
    } else if (arg == "--metrics-out") {
      o.metrics_out_path = next();
    } else if (arg == "--metrics-epoch-us") {
      o.metrics_epoch_us = static_cast<Us>(std::stoll(next()));
      if (o.metrics_epoch_us < 0) {
        throw std::invalid_argument("--metrics-epoch-us must be >= 0");
      }
    } else {
      throw std::invalid_argument("unknown bench option: " + arg);
    }
  }
  return o;
}

const char* WorkloadName(Workload w) {
  return w == Workload::kMediaServer ? "Media Server" : "Web SQL";
}

namespace {

/// The generated trace for `wl`, kept until a different config (compared
/// field by field) is asked for.  Both FTLs of a comparison, and every
/// speed ratio at one page size, replay the same trace, and bench_paper
/// runs those back to back, so each trace is generated once per process
/// while at most one is held in memory.  Single-threaded, like the benches;
/// the reference is valid until the next call.
const std::vector<trace::TraceRecord>& SyntheticTrace(
    const trace::SyntheticWorkloadConfig& wl) {
  static std::optional<trace::SyntheticWorkloadConfig> cached_config;
  static std::vector<trace::TraceRecord> cached;
  if (cached_config != wl) {
    cached_config.reset();
    cached = std::vector<trace::TraceRecord>();  // free it before the next
    cached = trace::SyntheticTraceGenerator(wl).Generate();
    cached_config = wl;
  }
  return cached;
}

}  // namespace

ssd::ExperimentResult RunOne(ssd::FtlKind kind, Workload workload,
                             std::uint32_t page_size_bytes, double speed_ratio,
                             const BenchOptions& options,
                             const std::optional<core::PpbConfig>& ppb_override) {
  auto cfg = ssd::ScaledConfig(kind, options.device_bytes, page_size_bytes,
                               speed_ratio);
  if (ppb_override && kind == ssd::FtlKind::kPpb) cfg.ppb = *ppb_override;
  ssd::Ssd probe(cfg);
  const std::uint64_t footprint = probe.LogicalBytes() / 10 * 8;
  const std::string& real_path = workload == Workload::kMediaServer
                                     ? options.media_trace_path
                                     : options.web_trace_path;
  if (!real_path.empty()) {
    const auto records = trace::ParseMsrCsvFile(real_path);
    return ssd::RunExperiment(cfg, records, footprint, real_path);
  }
  const auto wl = workload == Workload::kMediaServer
                      ? trace::MediaServerWorkload(footprint,
                                                   options.media_requests)
                      : trace::WebServerWorkload(footprint,
                                                 options.web_requests);
  return ssd::RunExperiment(cfg, SyntheticTrace(wl), footprint, wl.name);
}

ComparisonResult RunComparison(
    Workload workload, std::uint32_t page_size_bytes, double speed_ratio,
    const BenchOptions& options,
    const std::optional<core::PpbConfig>& ppb_override) {
  ComparisonResult out;
  out.conventional = RunOne(ssd::FtlKind::kConventional, workload,
                            page_size_bytes, speed_ratio, options);
  out.ppb = RunOne(ssd::FtlKind::kPpb, workload, page_size_bytes, speed_ratio,
                   options, ppb_override);
  return out;
}

ssd::SsdConfig QdDeviceConfig(std::uint32_t channels,
                              const BenchOptions& options) {
  nand::NandGeometry shape;  // Table 1
  shape.channels = channels;
  auto cfg = ssd::ScaledConfig(ssd::FtlKind::kConventional,
                               options.device_bytes, 16 * 1024,
                               /*speed_ratio=*/2.0, shape);
  cfg.timing_mode = ftl::TimingMode::kQueued;
  return cfg;
}

ssd::SsdConfig WriteDeviceConfig(std::uint32_t channels,
                                 std::uint32_t write_frontiers,
                                 const BenchOptions& options) {
  auto cfg = QdDeviceConfig(channels, options);
  cfg.ftl.write_frontiers = write_frontiers;
  // FtlBase requires spares for gc_threshold_high + one frontier set per
  // stream; keep a few extra so GC has reclaimable victims under churn.
  const double min_spare =
      static_cast<double>(cfg.ftl.gc_threshold_high) + 2.0 * write_frontiers +
      8.0;
  const double min_op =
      min_spare / static_cast<double>(cfg.geometry.TotalBlocks());
  if (min_op > cfg.ftl.op_ratio) cfg.ftl.op_ratio = min_op;
  return cfg;
}

std::vector<ssd::QdSweepPoint> RunQdSweep(const ssd::SsdConfig& config,
                                          const BenchOptions& options) {
  ssd::QdSweepOptions sweep;
  sweep.queue_depths = options.qd_list;
  sweep.requests_per_point = options.qd_requests;
  return ssd::RunQdSweep(config, sweep);
}

void PrintQdSweep(const std::string& label,
                  const std::vector<ssd::QdSweepPoint>& points) {
  std::cout << "--- " << label << " ---\n";
  util::TablePrinter table({"QD", "IOPS", "mean us", "p50 us", "p95 us",
                            "p99 us", "p99.9 us", "die util", "chan util"});
  for (const auto& p : points) {
    table.AddRow({std::to_string(p.queue_depth),
                  util::TablePrinter::FormatDouble(p.iops, 0),
                  util::TablePrinter::FormatDouble(p.mean_us, 1),
                  util::TablePrinter::FormatDouble(p.p50_us, 1),
                  util::TablePrinter::FormatDouble(p.p95_us, 1),
                  util::TablePrinter::FormatDouble(p.p99_us, 1),
                  util::TablePrinter::FormatDouble(p.p999_us, 1),
                  util::TablePrinter::FormatPercent(p.die_utilization),
                  util::TablePrinter::FormatPercent(p.channel_utilization)});
  }
  table.Print();
  std::cout << "\n";
}

void PrintHeader(const std::string& title, const std::string& paper_ref,
                 const BenchOptions& options) {
  std::cout << "=== " << title << " ===\n";
  std::cout << "Reproduces: " << paper_ref
            << " (Chen et al., DAC'17, PPB strategy)\n";
  std::cout << "Device: " << (options.device_bytes >> 20)
            << " MiB scaled array, Table 1 timing/shape; traces: media="
            << options.media_requests << " reqs, web=" << options.web_requests
            << " reqs\n\n";
}

}  // namespace ctflash::bench
