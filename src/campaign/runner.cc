#include "campaign/runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "host/host_interface.h"
#include "host/load_generator.h"
#include "obs/export.h"
#include "obs/tracer.h"
#include "replay/replay_engine.h"
#include "replay/replay_plan.h"
#include "replay/trace_source.h"
#include "ssd/experiment.h"
#include "ssd/ssd.h"
#include "trace/synthetic.h"
#include "util/parallel.h"
#include "util/stats.h"
#include "util/types.h"

namespace ctflash::campaign {

namespace {

double WallMs(std::chrono::steady_clock::time_point from,
              std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

using util::ParallelFor;

Json LatencyJson(const util::LatencyStats& stats) {
  Json out;
  out["count"] = stats.count();
  out["mean_us"] = stats.mean_us();
  out["p50_us"] = stats.p50_us();
  out["p95_us"] = stats.p95_us();
  out["p99_us"] = stats.p99_us();
  out["p999_us"] = stats.p999_us();
  out["max_us"] = stats.max_us();
  return out;
}

Json LoadStatsJson(const host::LoadStats& stats) {
  Json out;
  out["requests"] = stats.requests;
  out["makespan_us"] = stats.MakespanUs();
  out["iops"] = stats.Iops();
  out["read_latency"] = LatencyJson(stats.read_latency);
  out["write_latency"] = LatencyJson(stats.write_latency);
  out["die_utilization"] = stats.die_utilization;
  out["channel_utilization"] = stats.channel_utilization;
  return out;
}

Json RunClosedLoop(host::HostInterface& host, const Json& w,
                   std::uint64_t prefill_bytes, std::uint64_t seed) {
  host::TenantWorkload stream;
  stream.queue_depth = w.GetUint32Or("queue_depth", 8);
  stream.total_requests = w.GetUintOr("requests", 10'000);
  stream.read_fraction = w.GetDoubleOr("read_fraction", 1.0);
  stream.request_bytes = BytesOf(w, "request_bytes", 16 * kKiB);
  stream.footprint_bytes = BytesOf(w, "footprint", prefill_bytes);
  stream.seed = seed;
  return LoadStatsJson(host::LoadGenerator(host, {stream}).Run().total);
}

Json RunTenants(host::HostInterface& host, const Json& w,
                std::uint64_t prefill_bytes, std::uint64_t seed) {
  const Json* list = w.Get("tenants");
  if (list == nullptr || !list->IsArray() || list->AsArray().empty()) {
    throw std::runtime_error(
        "campaign: tenants workload needs a non-empty \"tenants\" array");
  }
  if (host.tenants() == nullptr) {
    throw std::runtime_error(
        "campaign: tenants workload needs a \"qos\" tenant list");
  }
  const std::size_t n = list->AsArray().size();
  // Default working sets: the prefilled space split evenly, tenant order.
  const std::uint64_t slice = prefill_bytes / n;
  std::vector<host::TenantWorkload> workloads;
  for (std::size_t i = 0; i < n; ++i) {
    const Json& t = list->AsArray()[i];
    host::TenantWorkload tw;
    tw.tenant = t.GetUint32Or("tenant", static_cast<qos::TenantId>(i));
    tw.queue_depth = t.GetUint32Or("queue_depth", 8);
    tw.interarrival_us = static_cast<Us>(t.GetUintOr("interarrival_us", 0));
    tw.total_requests = t.GetUintOr("requests", 1'000);
    tw.read_fraction = t.GetDoubleOr("read_fraction", 1.0);
    tw.request_bytes = BytesOf(t, "request_bytes", 16 * kKiB);
    tw.footprint_base_bytes = BytesOf(t, "footprint_base", i * slice);
    tw.footprint_bytes = BytesOf(t, "footprint", slice);
    tw.seed = t.GetUintOr("seed", seed + i);
    workloads.push_back(std::move(tw));
  }
  const host::LoadResult run =
      host::LoadGenerator(host, std::move(workloads)).Run();
  Json out;
  JsonArray tenants;
  std::uint64_t requests = 0;
  for (const host::TenantLoadStats& t : run.streams) {
    Json entry = LoadStatsJson(t.load);
    entry["tenant"] = static_cast<std::uint64_t>(t.tenant);
    requests += t.load.requests;
    tenants.push_back(std::move(entry));
  }
  out["requests"] = requests;
  out["tenants"] = Json(std::move(tenants));
  return out;
}

/// Replays one source open-loop through the host (replay::ReplayEngine):
/// the workload's `time_scale` stretches inter-arrival gaps (0.5 = twice
/// the offered load) and `limit` caps the records replayed (0 = all).
Json ReplaySource(host::HostInterface& host,
                  std::unique_ptr<replay::TraceSource> source, const Json& w,
                  std::uint64_t limit) {
  const double time_scale = w.GetDoubleOr("time_scale", 1.0);
  if (!std::isfinite(time_scale) || time_scale <= 0.0) {
    throw std::runtime_error("campaign: time_scale must be finite and > 0");
  }
  replay::SourceOptions options;
  options.warp.acceleration = 1.0 / time_scale;
  options.filter.max_records = limit;
  replay::ReplayPlan plan;
  plan.AddSource(std::move(source), options);

  host::LoadStats stats;
  host::UtilizationProbe probe(host.ssd().target());
  const replay::ReplayResult replayed =
      replay::ReplayEngine(host, replay::ReplayEngineConfig{}).Run(plan);
  stats.requests = replayed.completed;
  stats.start_us = replayed.start_us;
  stats.end_us = replayed.end_us;
  stats.read_latency = replayed.read_latency;
  stats.write_latency = replayed.write_latency;
  probe.Finish(stats);
  return LoadStatsJson(stats);
}

Json RunSynthetic(host::HostInterface& host, const Json& w,
                  std::uint64_t prefill_bytes, std::uint64_t seed) {
  const std::string preset = w.GetStringOr("preset", "web");
  const std::uint64_t requests = w.GetUintOr("requests", 20'000);
  const std::uint64_t footprint = BytesOf(w, "footprint", prefill_bytes);
  trace::SyntheticWorkloadConfig cfg;
  if (preset == "web") {
    cfg = trace::WebServerWorkload(footprint, requests, seed);
  } else if (preset == "media") {
    cfg = trace::MediaServerWorkload(footprint, requests, seed);
  } else {
    throw std::runtime_error("campaign: unknown synthetic preset \"" + preset +
                             "\" (expected \"web\" or \"media\")");
  }
  return ReplaySource(host, std::make_unique<replay::SyntheticTraceSource>(cfg),
                      w, /*limit=*/0);
}

Json RunTraceFile(host::HostInterface& host, const Json& w) {
  const Json* path = w.Get("path");
  if (path == nullptr || !path->IsString()) {
    throw std::runtime_error(
        "campaign: trace workload needs a \"path\" string");
  }
  return ReplaySource(
      host, std::make_unique<replay::StreamingMsrCsvSource>(path->AsString()),
      w, w.GetUintOr("limit", 0));
}

Json DeviceCountersJson(const ssd::Ssd& ssd) {
  const ftl::FtlStats& stats = ssd.ftl().stats();
  Json out;
  out["host_read_pages"] = stats.host_read_pages;
  out["host_write_pages"] = stats.host_write_pages;
  out["gc_page_copies"] = stats.gc_page_copies;
  out["gc_erases"] = stats.gc_erases;
  out["gc_stale_copies"] = stats.gc_stale_copies;
  out["waf"] = stats.Waf();
  return out;
}

Json ReadErrorStatsJson(const ftl::ReadErrorStats& s) {
  Json out;
  out["sampled_reads"] = s.sampled_reads;
  out["uncorrectable_reads"] = s.uncorrectable_reads;
  out["retried_reads"] = s.retried_reads;
  out["retry_rungs"] = s.retry_rungs;
  out["recovered_reads"] = s.recovered_reads;
  out["unrecovered_reads"] = s.unrecovered_reads;
  out["lost_reads"] = s.lost_reads;
  return out;
}

Json FaultMetricsJson(const ssd::Ssd& ssd) {
  const ftl::FaultStats& fs = ssd.ftl().fault_stats();
  Json out;
  out["program_failures"] = fs.program_failures;
  out["erase_failures"] = fs.erase_failures;
  out["host_unreadable_pages"] = fs.host_unreadable_pages;
  out["gc_lost_pages"] = fs.gc_lost_pages;
  out["lost_pages"] = fs.LostPages();
  out["blocks_retired"] = ssd.ftl().blocks().RetiredCount();
  out["host_reads"] = ReadErrorStatsJson(ssd.target().read_error_stats());
  out["gc_reads"] = ReadErrorStatsJson(ssd.target().gc_read_error_stats());
  return out;
}

/// Per-arm outcome taxonomy (see ArmResult::outcome).
std::string ClassifyFaultOutcome(const ssd::Ssd& ssd) {
  const ftl::FaultStats& fs = ssd.ftl().fault_stats();
  if (fs.LostPages() > 0) return "data-loss";
  const ftl::ReadErrorStats& h = ssd.target().read_error_stats();
  const ftl::ReadErrorStats& g = ssd.target().gc_read_error_stats();
  const bool recovery_ran = fs.program_failures > 0 || fs.erase_failures > 0 ||
                            h.recovered_reads > 0 || g.recovered_reads > 0 ||
                            ssd.ftl().blocks().RetiredCount() > 0;
  return recovery_ran ? "recovered" : "masked";
}

/// Shared-prefill key: device shape + prefill parameters.  gc_routing is
/// deliberately absent from the shape key (see campaign/snapshot.h) so
/// inline- and scheduled-GC arms share one prefill.
std::string PrefillKey(const ArmSpec& arm) {
  return SnapshotShapeKey(arm.device) +
         "|pct=" + std::to_string(arm.prefill_pct) +
         "|chunk=" + std::to_string(arm.prefill_chunk_bytes);
}

}  // namespace

obs::HealthSample CollectHealthSample(const ssd::Ssd& ssd,
                                      const obs::Tracer* tracer) {
  obs::HealthSample s;
  const ftl::FtlBase& f = ssd.ftl();
  s.free_blocks = f.blocks().FreeCount();
  s.retired_blocks = f.blocks().RetiredCount();
  s.total_blocks = f.blocks().total_blocks();
  s.gc_floor_blocks = f.config().gc_threshold_low;
  const nand::NandDevice& nand = ssd.target().nand();
  s.total_erases = nand.Wear().total_erases;
  s.endurance_pe_cycles = nand.endurance_pe_cycles();
  const ftl::ReadErrorStats& host_err = ssd.target().read_error_stats();
  const ftl::ReadErrorStats& gc_err = ssd.target().gc_read_error_stats();
  s.sampled_reads = host_err.sampled_reads + gc_err.sampled_reads;
  s.retried_reads = host_err.retried_reads + gc_err.retried_reads;
  s.unrecovered_reads = host_err.unrecovered_reads + gc_err.unrecovered_reads;
  s.lost_pages = f.fault_stats().LostPages();
  s.program_pages = f.stats().host_write_pages + f.stats().gc_page_copies;
  s.program_failures = f.fault_stats().program_failures;
  if (tracer != nullptr) {
    const obs::PhaseBreakdown& read = tracer->phases().read;
    s.read_stall_gc_us =
        read.stall_us[static_cast<std::size_t>(obs::StallCause::kDieBusyGc)];
    s.read_media_us = static_cast<std::uint64_t>(read.media.total_us());
  }
  return s;
}

ArmResult RunCampaignArm(const ArmSpec& arm, const DeviceState* shared) {
  ArmResult out;
  out.name = arm.name;
  out.index = arm.index;
  out.config = arm.ConfigSummary();
  try {
    ssd::Ssd ssd(arm.device);
    const std::uint64_t prefill_bytes =
        ssd.LogicalBytes() * arm.prefill_pct / 100;
    Us prefill_end = 0;
    if (shared != nullptr) {
      ssd.Restore(*shared);
      prefill_end = shared->clock_us;
    } else if (prefill_bytes > 0) {
      ssd::ExperimentRunner prefiller(ssd);
      prefill_end = prefiller.Prefill(prefill_bytes, arm.prefill_chunk_bytes);
    }
    // Faults arm after the restore/prefill: the aged snapshot is shared by
    // every fault plan, and the prefill itself must stay fault-free so the
    // arms diverge only through their injected schedules.
    if (arm.inject_faults) {
      ssd.target().ArmFaults(arm.fault_plan, arm.fault_handling,
                             arm.fault_seed);
    }
    host::HostInterface host(ssd, arm.host);
    host.AdvanceTo(prefill_end);

    // Phase tracing covers the measured workload only (aggregate mode, no
    // spans): attached after the prefill/restore so its epochs anchor at
    // the measurement start.
    std::unique_ptr<obs::Tracer> tracer;
    if (arm.trace_phases) {
      obs::TracerConfig tc;
      tc.record_spans = false;
      tc.metrics_epoch_us = arm.metrics_epoch_us;
      tc.epoch_base_us = prefill_end;
      tracer = std::make_unique<obs::Tracer>(tc);
      host.AttachTracer(tracer.get());
    }

    // Health evaluation windows the whole measured workload: baseline
    // sampled here (post-restore, pre-traffic), final sample after the run.
    std::unique_ptr<obs::HealthMonitor> health;
    if (arm.eval_health) {
      health = std::make_unique<obs::HealthMonitor>(arm.health);
      health->Observe(CollectHealthSample(ssd, tracer.get()));
    }

    const Json& w = *arm.merged.Get("workload");
    const std::string kind = w.GetStringOr("kind", "closed_loop");
    if (kind == "closed_loop") {
      out.metrics = RunClosedLoop(host, w, prefill_bytes, arm.seed);
    } else if (kind == "tenants") {
      out.metrics = RunTenants(host, w, prefill_bytes, arm.seed);
    } else if (kind == "synthetic") {
      out.metrics = RunSynthetic(host, w, prefill_bytes, arm.seed);
    } else if (kind == "trace") {
      out.metrics = RunTraceFile(host, w);
    } else {
      throw std::runtime_error("campaign: unknown workload kind \"" + kind +
                               "\"");
    }
    out.metrics["device"] = DeviceCountersJson(ssd);
    if (tracer != nullptr) {
      out.metrics["phases"] = obs::PhaseStatsJson(tracer->phases());
      if (arm.metrics_epoch_us > 0) {
        JsonArray epochs;
        for (const obs::PhaseStats& e : tracer->epoch_phases()) {
          epochs.push_back(obs::PhaseStatsJson(e));
        }
        out.metrics["phase_epochs"] = Json(std::move(epochs));
      }
    }
    if (arm.inject_faults) {
      out.metrics["faults"] = FaultMetricsJson(ssd);
      out.outcome = ClassifyFaultOutcome(ssd);
    }
    if (health != nullptr) {
      health->Observe(CollectHealthSample(ssd, tracer.get()));
      out.metrics["health"] = health->ToJson();
    }
    out.ok = true;
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
    out.metrics = Json();
    // An arm that dies mid-run on an unrecoverable media error (e.g. the
    // spare pool retired away) is a data-loss outcome, not a campaign bug.
    if (arm.inject_faults) out.outcome = "data-loss";
  }
  return out;
}

CampaignRunner::CampaignRunner(CampaignSpec spec) : spec_(std::move(spec)) {}

CampaignResult CampaignRunner::Run(std::uint32_t workers_override) {
  const std::uint32_t workers =
      workers_override != 0 ? workers_override : spec_.workers;
  CampaignResult result;
  result.campaign = spec_.name;
  result.workers = workers;
  result.share_prefill = spec_.share_prefill;
  result.arms.resize(spec_.arms.size());

  const auto t0 = std::chrono::steady_clock::now();

  // Phase 1: one prefill snapshot per (shape, prefill) group.
  struct PrefillGroup {
    const ArmSpec* representative = nullptr;
    std::unique_ptr<DeviceState> state;
    std::exception_ptr error;
  };
  std::vector<PrefillGroup> groups;
  std::vector<std::size_t> arm_group(spec_.arms.size(), 0);
  if (spec_.share_prefill) {
    std::map<std::string, std::size_t> group_of;
    for (std::size_t i = 0; i < spec_.arms.size(); ++i) {
      const std::string key = PrefillKey(spec_.arms[i]);
      auto [it, inserted] = group_of.emplace(key, groups.size());
      if (inserted) {
        groups.push_back(PrefillGroup{&spec_.arms[i], nullptr, nullptr});
      }
      arm_group[i] = it->second;
    }
    ParallelFor(groups.size(), workers, [&](std::size_t g) {
      PrefillGroup& group = groups[g];
      try {
        const ArmSpec& arm = *group.representative;
        ssd::Ssd ssd(arm.device);
        const std::uint64_t bytes = ssd.LogicalBytes() * arm.prefill_pct / 100;
        Us end = 0;
        if (bytes > 0) {
          ssd::ExperimentRunner prefiller(ssd);
          end = prefiller.Prefill(bytes, arm.prefill_chunk_bytes);
        }
        group.state = std::make_unique<DeviceState>(ssd.Snapshot(end));
      } catch (...) {
        group.error = std::current_exception();
      }
    });
    for (const PrefillGroup& group : groups) {
      if (group.error) std::rethrow_exception(group.error);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();

  // Phase 2: arms.
  ParallelFor(spec_.arms.size(), workers, [&](std::size_t i) {
    const DeviceState* shared =
        spec_.share_prefill ? groups[arm_group[i]].state.get() : nullptr;
    result.arms[i] = RunCampaignArm(spec_.arms[i], shared);
  });
  const auto t2 = std::chrono::steady_clock::now();

  result.prefill_wall_ms = WallMs(t0, t1);
  result.arms_wall_ms = WallMs(t1, t2);
  result.total_wall_ms = WallMs(t0, t2);
  result.prefill_groups = groups.size();
  result.prefill_restores =
      spec_.share_prefill ? spec_.arms.size() : 0;
  return result;
}

Json CampaignResult::DeterministicJson() const {
  Json out;
  out["campaign"] = campaign;
  JsonArray arm_array;
  for (const ArmResult& arm : arms) {
    Json entry;
    entry["name"] = arm.name;
    entry["index"] = arm.index;
    entry["ok"] = arm.ok;
    if (!arm.ok) entry["error"] = arm.error;
    if (!arm.outcome.empty()) entry["outcome"] = arm.outcome;
    entry["config"] = arm.config;
    entry["metrics"] = arm.metrics;
    arm_array.push_back(std::move(entry));
  }
  out["arms"] = Json(std::move(arm_array));
  return out;
}

Json CampaignResult::Report() const {
  Json out = DeterministicJson();
  Json timing;
  timing["workers"] = static_cast<std::uint64_t>(workers);
  timing["share_prefill"] = share_prefill;
  timing["total_wall_ms"] = total_wall_ms;
  timing["prefill_wall_ms"] = prefill_wall_ms;
  timing["arms_wall_ms"] = arms_wall_ms;
  timing["prefill_groups"] = prefill_groups;
  timing["prefill_restores"] = prefill_restores;
  out["timing"] = std::move(timing);
  return out;
}

std::string CsvField(const std::string& value) {
  if (value.find_first_of(",\"\r\n") == std::string::npos) return value;
  std::string out;
  out.reserve(value.size() + 2);
  out += '"';
  for (const char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string CampaignResult::Csv() const {
  std::string csv =
      "arm,ok,requests,iops,read_mean_us,read_p99_us,write_mean_us,"
      "write_p99_us,waf,read_paced_us,read_queued_us,read_media_us,"
      "write_paced_us,write_queued_us,write_media_us,health_state,"
      "health_score\n";
  auto field = [](const Json& metrics, const char* a, const char* b) {
    const Json* section = metrics.Get(a);
    if (section == nullptr) return std::string("0");
    const Json* v = section->Get(b);
    return v == nullptr ? std::string("0") : v->Dump();
  };
  // Mean of one phase series from the arm's "phases" breakdown ("0" when
  // the arm ran without observability).
  auto phase = [](const Json& metrics, const char* side, const char* which) {
    const Json* phases = metrics.Get("phases");
    if (phases == nullptr) return std::string("0");
    const Json* s = phases->Get(side);
    if (s == nullptr) return std::string("0");
    const Json* p = s->Get(which);
    if (p == nullptr) return std::string("0");
    const Json* mean = p->Get("mean_us");
    return mean == nullptr ? std::string("0") : mean->Dump();
  };
  for (const ArmResult& arm : arms) {
    csv += CsvField(arm.name) + "," + (arm.ok ? "1" : "0") + ",";
    if (arm.ok) {
      const Json* requests = arm.metrics.Get("requests");
      const Json* iops = arm.metrics.Get("iops");
      csv += (requests ? requests->Dump() : "0") + ",";
      csv += (iops ? iops->Dump() : "0") + ",";
      csv += field(arm.metrics, "read_latency", "mean_us") + ",";
      csv += field(arm.metrics, "read_latency", "p99_us") + ",";
      csv += field(arm.metrics, "write_latency", "mean_us") + ",";
      csv += field(arm.metrics, "write_latency", "p99_us") + ",";
      csv += field(arm.metrics, "device", "waf") + ",";
      csv += phase(arm.metrics, "read", "paced") + ",";
      csv += phase(arm.metrics, "read", "queued") + ",";
      csv += phase(arm.metrics, "read", "media") + ",";
      csv += phase(arm.metrics, "write", "paced") + ",";
      csv += phase(arm.metrics, "write", "queued") + ",";
      csv += phase(arm.metrics, "write", "media") + ",";
      // Health columns ("" / 0 when the arm ran without evaluation).
      const Json* health = arm.metrics.Get("health");
      const Json* state = health ? health->Get("state") : nullptr;
      const Json* score = health ? health->Get("score") : nullptr;
      csv += (state ? CsvField(state->AsString()) : std::string()) + ",";
      csv += score ? score->Dump() : std::string("0");
    } else {
      csv += "0,0,0,0,0,0,0,0,0,0,0,0,0,,0";
    }
    csv += "\n";
  }
  return csv;
}

}  // namespace ctflash::campaign
