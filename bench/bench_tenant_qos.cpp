// Multi-tenant QoS — the noisy-neighbor bench.
//
// Scenario: a latency-sensitive paced tenant (open-loop reads every 2 ms
// over a private 20 % working-set slice) shares the device with a flooder
// (closed-loop QD 32 reads over the other 40 %).  Four arms per FTL
// variant, identical request streams:
//   * solo          — the paced tenant alone (its baseline p99);
//   * no-qos        — both streams through the tenant-less seed path
//                     (the interference the QoS engine exists to bound);
//   * weights       — tenants at 8:1 DRR weights in the paced tenant's
//                     favor;
//   * weights+limit — same weights plus an IOPS token bucket on the
//                     flooder.
//
// Asserted shape (std::runtime_error on violation, the bench error idiom),
// for BOTH FTL variants:
//   * no-qos degrades the paced tenant's read p99 strictly beyond the
//     weighted arms (the gap the engine closes);
//   * with weights (and with weights+limit) the paced tenant's read p99
//     stays within 2x of its solo baseline — the isolation bound;
//   * a separate two-saturating-tenant run at 2:1 weights serves 2:1
//     within +-10 % (dispatch ratio over the contention window).
//
// Also prints the per-queue latency/throughput breakdown of the weighted
// arm (util::TablePrinter) and writes BENCH_tenant_qos.json (--json
// overrides) so the numbers are diffable across PRs.
//
// With --tenant-trace <t>=<csv>[@host] (repeatable) the synthetic pair is
// replaced by real MSR CSV streams: each spec replays through the replay
// engine as that tenant under 8:1 DRR weights (tenant 0 favored), printing
// per-tenant latency/IOPS and asserting conservation only — a
// user-supplied trace carries no latency bounds.
#include <algorithm>
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
#include "qos/tenant.h"
#include "replay/replay_engine.h"
#include "replay/replay_plan.h"
#include "replay/trace_source.h"
#include "util/table_printer.h"

namespace {

using namespace ctflash;

constexpr std::uint64_t kRequestBytes = 16 * 1024;

// All arms of one FTL variant share a device shape and an 80 % prefill, so
// the snapshot cache prefills once per variant and restores everywhere
// else (restored state is bit-identical; bench_campaign asserts it).
bench::PrefillSnapshotCache g_prefills;

struct ArmResult {
  std::string ftl;
  std::string arm;
  double paced_p50_us = 0.0;
  double paced_p99_us = 0.0;
  double paced_mean_us = 0.0;
  double flooder_iops = 0.0;
  std::uint64_t flooder_throttled = 0;
};

ssd::SsdConfig DeviceConfig(ssd::FtlKind kind, std::uint64_t device_bytes) {
  auto cfg = ssd::ScaledConfig(kind, device_bytes, kRequestBytes, 2.0);
  cfg.timing_mode = ftl::TimingMode::kQueued;
  return cfg;
}

qos::QosConfig TwoTenants(std::uint32_t weight_paced,
                          std::uint32_t weight_flooder, double flooder_iops) {
  qos::QosConfig qos;
  qos.tenants.resize(2);
  qos.tenants[0].name = "paced";
  qos.tenants[0].weight = weight_paced;
  qos.tenants[0].queues = {0, 1};
  qos.tenants[1].name = "flooder";
  qos.tenants[1].weight = weight_flooder;
  qos.tenants[1].queues = {2, 3};
  qos.tenants[1].iops_limit = flooder_iops;  // 0 = uncapped
  return qos;
}

host::TenantWorkload PacedWorkload(const ssd::Ssd& ssd,
                                   std::uint64_t requests) {
  host::TenantWorkload paced;
  paced.tenant = 0;
  paced.interarrival_us = 2'000;
  paced.total_requests = requests;
  paced.read_fraction = 1.0;
  paced.request_bytes = kRequestBytes;
  paced.footprint_bytes = ssd.LogicalBytes() / 100 * 20;
  paced.seed = 31;
  return paced;
}

host::TenantWorkload FlooderWorkload(const ssd::Ssd& ssd,
                                     std::uint64_t requests) {
  host::TenantWorkload flooder;
  flooder.tenant = 1;
  flooder.queue_depth = 32;
  flooder.total_requests = requests;
  flooder.read_fraction = 1.0;
  flooder.request_bytes = kRequestBytes;
  flooder.footprint_base_bytes = ssd.LogicalBytes() / 100 * 20;
  flooder.footprint_bytes = ssd.LogicalBytes() / 100 * 40;
  flooder.seed = 32;
  return flooder;
}

/// One arm of the paced + flooder mix; `print_queues` dumps the per-queue
/// breakdown of a multi-tenant arm.  With an empty `qos` both streams run
/// as tenant 0 through the tenant-less seed path and nothing arbitrates
/// between them.
ArmResult RunArm(ssd::FtlKind kind, const std::string& arm,
                 std::uint64_t device_bytes, const qos::QosConfig& qos,
                 std::uint64_t paced_requests, std::uint64_t flooder_requests,
                 bool print_queues) {
  ssd::Ssd ssd(DeviceConfig(kind, device_bytes));
  const Us prefill_end =
      g_prefills.Prefill(ssd, ssd.LogicalBytes() / 100 * 80);

  host::HostConfig cfg;
  cfg.qos = qos;
  cfg.device_slots = 4;
  host::HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);

  std::vector<host::TenantWorkload> workloads = {
      PacedWorkload(ssd, paced_requests)};
  if (flooder_requests > 0) {
    workloads.push_back(FlooderWorkload(ssd, flooder_requests));
  }
  std::size_t paced = 0;
  if (!qos.Enabled()) {
    // Tenant-less: the flooder submits as tenant 0, and its closed loop
    // starts first, the submission order the no-qos rows were measured in.
    workloads.back().tenant = 0;
    std::swap(workloads.front(), workloads.back());
    paced = workloads.size() - 1;
  }
  const auto results = host::LoadGenerator(host, workloads).Run().streams;

  ArmResult r;
  r.ftl = ssd::FtlKindName(kind);
  r.arm = arm;
  r.paced_p50_us = results[paced].load.read_latency.p50_us();
  r.paced_p99_us = results[paced].load.read_latency.p99_us();
  r.paced_mean_us = results[paced].load.read_latency.mean_us();
  if (results.size() > 1) {
    r.flooder_iops = results[1 - paced].load.Iops();
    if (host.tenants() != nullptr) {
      r.flooder_throttled = host.tenants()->StatsOf(1).throttled;
    }
  }

  if (print_queues) {
    util::TablePrinter table({"queue", "tenant", "admitted", "completed",
                              "read p50", "read p99", "MiB"});
    for (std::size_t qid = 0; qid < host.stats().per_queue.size(); ++qid) {
      const auto& q = host.stats().per_queue[qid];
      table.AddRow(
          {std::to_string(qid),
           host.tenants()
               ->ConfigOf(host.tenants()->TenantOfQueue(
                   static_cast<std::uint32_t>(qid)))
               .name,
           std::to_string(q.admitted), std::to_string(q.completed),
           util::TablePrinter::FormatDouble(q.read_latency.p50_us()),
           util::TablePrinter::FormatDouble(q.read_latency.p99_us()),
           util::TablePrinter::FormatDouble(
               static_cast<double>(q.bytes_completed) / (1 << 20))});
    }
    std::cout << "\nPer-queue breakdown (" << r.ftl << ", " << arm
              << " arm):\n";
    table.Print();
  }
  return r;
}

/// Two identical saturating closed-loop tenants at 2:1 weights; returns
/// the per-tenant dispatch ratio over the contention window.
double RunWeightRatio(ssd::FtlKind kind, std::uint64_t device_bytes,
                      std::uint64_t requests) {
  ssd::Ssd ssd(DeviceConfig(kind, device_bytes));
  const Us prefill_end =
      g_prefills.Prefill(ssd, ssd.LogicalBytes() / 100 * 80);

  host::HostConfig cfg;
  cfg.qos = TwoTenants(2, 1, 0.0);
  cfg.device_slots = 4;
  host::HostInterface host(ssd, cfg);
  host.AdvanceTo(prefill_end);

  std::uint64_t dispatches[2] = {0, 0};
  bool counting = true;
  host.scheduler().OnDispatch([&](const host::FlashTransaction& txn) {
    if (!counting || txn.tenant == qos::kNoTenant) return;
    dispatches[txn.tenant]++;
    if (dispatches[txn.tenant] >= requests) counting = false;
  });

  host::TenantWorkload base;
  base.queue_depth = 16;
  base.total_requests = requests;
  base.read_fraction = 1.0;
  base.request_bytes = kRequestBytes;
  base.footprint_bytes = ssd.LogicalBytes() / 100 * 60;
  std::vector<host::TenantWorkload> workloads(2, base);
  workloads[0].tenant = 0;
  workloads[0].seed = 21;
  workloads[1].tenant = 1;
  workloads[1].seed = 22;
  host::LoadGenerator(host, workloads).Run();

  if (counting || dispatches[1] == 0) {
    throw std::runtime_error("weight-ratio run never reached saturation");
  }
  return static_cast<double>(dispatches[0]) /
         static_cast<double>(dispatches[1]);
}

void CheckArms(const ArmResult& solo, const ArmResult& no_qos,
               const ArmResult& weights, const ArmResult& weights_limit) {
  std::ostringstream os;
  if (!(no_qos.paced_p99_us > weights.paced_p99_us)) {
    os << weights.ftl << ": no-qos paced p99 (" << no_qos.paced_p99_us
       << " us) not above the weighted arm (" << weights.paced_p99_us
       << " us) — no interference to bound?";
    throw std::runtime_error(os.str());
  }
  for (const auto* arm : {&weights, &weights_limit}) {
    if (!(arm->paced_p99_us <= 2.0 * solo.paced_p99_us)) {
      os << arm->ftl << ": " << arm->arm << " paced p99 ("
         << arm->paced_p99_us << " us) breaks the 2x isolation bound (solo "
         << solo.paced_p99_us << " us)";
      throw std::runtime_error(os.str());
    }
  }
}

void WriteJson(const std::string& path, std::uint64_t device_bytes,
               const std::vector<ArmResult>& results,
               const std::vector<std::pair<std::string, double>>& ratios) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\n"
      << "  \"bench\": \"tenant_qos\",\n"
      << "  \"workload\": \"paced open-loop reads (2ms, 20% slice) vs "
         "closed-loop QD32 read flooder (40% slice), 80% prefill\",\n"
      << "  \"device_bytes\": " << device_bytes << ",\n"
      << "  \"arms\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "    {\"ftl\": \"" << r.ftl << "\", \"arm\": \"" << r.arm
        << "\", \"paced_read_p50_us\": " << r.paced_p50_us
        << ", \"paced_read_p99_us\": " << r.paced_p99_us
        << ", \"paced_read_mean_us\": " << r.paced_mean_us
        << ", \"flooder_iops\": " << r.flooder_iops
        << ", \"flooder_throttled\": " << r.flooder_throttled << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"weighted_dispatch_ratio_2to1\": {";
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    out << "\"" << ratios[i].first << "\": " << ratios[i].second
        << (i + 1 < ratios.size() ? ", " : "");
  }
  out << "},\n  \"prefill\": " << g_prefills.JsonObject() << "\n}\n";
}

/// --tenant-trace mode: replays real MSR CSV streams as the tenants (8:1
/// DRR weights, tenant 0 favored) through the replay engine instead of the
/// synthetic paced/flooder pair.
int RunTenantTraceMode(const bench::BenchOptions& options,
                       const std::string& json_path) {
  const auto& specs = options.tenant_traces;
  auto cfg = DeviceConfig(ssd::FtlKind::kConventional, options.device_bytes);
  cfg.ftl.gc_routing = ftl::GcRouting::kScheduled;
  ssd::Ssd ssd(cfg);

  host::HostConfig host_cfg;
  host_cfg.qos = TwoTenants(8, 1, 0.0);
  for (const auto& spec : specs) {
    if (spec.tenant < host_cfg.qos.tenants.size() && !spec.hostname.empty()) {
      host_cfg.qos.tenants[spec.tenant].name = spec.hostname;
    }
  }
  host_cfg.device_slots = 4;
  host::HostInterface host(ssd, host_cfg);

  replay::ReplayPlan plan;
  const auto source_names = bench::AddTenantTraceSources(
      plan, specs, ssd.LogicalBytes(), host_cfg.qos.tenants.size());
  // Tenant -> its sources (several specs may feed one tenant).
  std::vector<std::string> tenant_sources(host_cfg.qos.tenants.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto& joined = tenant_sources[specs[i].tenant];
    joined += (joined.empty() ? "" : "+") + source_names[i];
  }

  replay::ReplayEngineConfig engine_cfg;
  engine_cfg.window_us = 250'000;
  replay::ReplayEngine engine(host, engine_cfg);
  const auto result = engine.Run(plan);

  std::uint64_t emitted = 0;
  for (const auto& counters : result.sources) emitted += counters.emitted;
  if (result.completed != emitted || host.Outstanding() != 0) {
    std::ostringstream os;
    os << "tenant trace replay conservation violated: emitted " << emitted
       << ", completed " << result.completed;
    throw std::runtime_error(os.str());
  }

  std::cout << "\n--- tenant trace replay (8:1 weights, tenant 0 favored) "
               "---\n";
  util::TablePrinter table({"tenant", "source", "records", "read p50 (us)",
                            "read p99 (us)", "write p99 (us)", "IOPS"});
  for (const auto& tenant : result.tenants) {
    if (tenant.completed == 0) continue;
    table.AddRow(
        {tenant.name,
         tenant_sources[tenant.tenant].empty() ? "-"
                                               : tenant_sources[tenant.tenant],
         std::to_string(tenant.completed),
         util::TablePrinter::FormatDouble(tenant.read_latency.p50_us()),
         util::TablePrinter::FormatDouble(tenant.read_latency.p99_us()),
         util::TablePrinter::FormatDouble(tenant.write_latency.p99_us()),
         util::TablePrinter::FormatDouble(tenant.Iops(), 0)});
  }
  table.Print();

  std::ofstream out(json_path);
  if (!out) throw std::runtime_error("cannot write " + json_path);
  out << "{\n  \"bench\": \"tenant_qos\",\n  \"mode\": \"trace_replay\",\n"
      << "  \"device_bytes\": " << options.device_bytes << ",\n"
      << "  \"tenants\": [\n";
  for (std::size_t i = 0; i < result.tenants.size(); ++i) {
    const auto& tenant = result.tenants[i];
    out << "    {\"tenant\": " << tenant.tenant << ", \"name\": \""
        << tenant.name << "\", \"completed\": " << tenant.completed
        << ", \"read_p99_us\": " << tenant.read_latency.p99_us()
        << ", \"iops\": " << tenant.Iops() << "}"
        << (i + 1 < result.tenants.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nAll assertions passed; JSON written to " << json_path
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using ctflash::bench::BenchOptions;
  auto options = BenchOptions::FromArgs(argc, argv);
  bool user_device = false;
  bool user_requests = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--device") user_device = true;
    if (arg == "--qd-requests") user_requests = true;
  }
  if (!user_device) options.device_bytes = 256ull << 20;
  // --qd-requests scales the flooder; the paced tenant keeps its cadence
  // and shares the flooder's active window.
  const std::uint64_t flooder_requests =
      user_requests ? options.qd_requests : 40'000;
  const std::uint64_t paced_requests = 400;
  const std::uint64_t ratio_requests =
      std::max<std::uint64_t>(2'000, flooder_requests / 8);
  const std::string json_path =
      options.json_path.empty() ? "BENCH_tenant_qos.json" : options.json_path;

  if (!options.tenant_traces.empty()) {
    return RunTenantTraceMode(options, json_path);
  }

  std::cout << "=== Multi-tenant QoS: noisy neighbor vs paced tenant ===\n"
            << "Paced open-loop reads (every 2 ms, private 20% slice) vs a\n"
            << "closed-loop QD32 read flooder; weighted DRR + token-bucket\n"
            << "rate limits vs the tenant-less seed path.\n"
            << "Device: " << (options.device_bytes >> 20) << " MiB; flooder "
            << flooder_requests << " requests\n";

  std::vector<ArmResult> results;
  std::vector<std::pair<std::string, double>> ratios;
  for (const auto kind :
       {ctflash::ssd::FtlKind::kConventional, ctflash::ssd::FtlKind::kPpb}) {
    const auto solo =
        RunArm(kind, "solo", options.device_bytes, TwoTenants(8, 1, 0.0),
               paced_requests, 0, false);
    const auto no_qos =
        RunArm(kind, "no-qos", options.device_bytes, ctflash::qos::QosConfig{},
               paced_requests, flooder_requests, false);
    const auto weights =
        RunArm(kind, "weights", options.device_bytes, TwoTenants(8, 1, 0.0),
               paced_requests, flooder_requests,
               kind == ctflash::ssd::FtlKind::kConventional);
    const auto weights_limit = RunArm(
        kind, "weights+limit", options.device_bytes,
        TwoTenants(8, 1, 20'000.0), paced_requests, flooder_requests, false);
    CheckArms(solo, no_qos, weights, weights_limit);
    results.push_back(solo);
    results.push_back(no_qos);
    results.push_back(weights);
    results.push_back(weights_limit);

    const double ratio =
        RunWeightRatio(kind, options.device_bytes, ratio_requests);
    if (ratio < 1.8 || ratio > 2.2) {
      std::ostringstream os;
      os << ctflash::ssd::FtlKindName(kind)
         << ": 2:1 weighted dispatch ratio out of tolerance: " << ratio;
      throw std::runtime_error(os.str());
    }
    ratios.emplace_back(ctflash::ssd::FtlKindName(kind), ratio);
  }

  std::cout << "\n";
  ctflash::util::TablePrinter table({"FTL", "arm", "paced p50", "paced p99",
                                     "paced mean", "flooder IOPS",
                                     "throttled"});
  for (const auto& r : results) {
    table.AddRow({r.ftl, r.arm,
                  ctflash::util::TablePrinter::FormatDouble(r.paced_p50_us),
                  ctflash::util::TablePrinter::FormatDouble(r.paced_p99_us),
                  ctflash::util::TablePrinter::FormatDouble(r.paced_mean_us),
                  ctflash::util::TablePrinter::FormatDouble(r.flooder_iops),
                  std::to_string(r.flooder_throttled)});
  }
  table.Print();

  for (std::size_t i = 0; i + 3 < results.size(); i += 4) {
    const auto& solo = results[i];
    const auto& no_qos = results[i + 1];
    const auto& weights = results[i + 2];
    std::cout << "\n" << solo.ftl << ": paced read p99 " << weights.paced_p99_us
              << " us with QoS vs " << no_qos.paced_p99_us
              << " us unarbitrated (solo " << solo.paced_p99_us
              << " us; bound 2x solo)";
  }
  for (const auto& [ftl, ratio] : ratios) {
    std::cout << "\n" << ftl << ": 2:1 weights served at " << ratio << ":1";
  }
  std::cout << "\nprefill snapshots: " << g_prefills.distinct_prefills()
            << " prefills, " << g_prefills.restores() << " restores, ~"
            << g_prefills.saved_wall_ms() << " ms saved";
  std::cout << "\n\nAll assertions passed; JSON written to " << json_path
            << "\n";
  WriteJson(json_path, options.device_bytes, results, ratios);
  return 0;
}
