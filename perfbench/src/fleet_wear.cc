// fleet_wear: a storage cluster under ClusterSim.  Eight devices plus one
// spare restore from one prefill snapshot; a million Zipf-skewed users
// arrive open-loop; one device runs a wear ramp (verify failures retire its
// blocks at GC erases) under the on_observed rebalance policy, so the
// health/SLO monitors, the in-program phase tracer, the rebuild tenant's
// QoS pacing and the director all run.  The fleet is built inside
// ClusterSim::Run, so from outside the set-up is spec parse + construction
// and the timed phase is the whole Run.
//
// The traced run adds probes the simulation itself does not expose: Zipf
// sampling over the fleet's user population, snapshot save/restore on the
// fleet's device shape, and one fleet-shape device driven with the wear plan
// armed (its program/erase verify-failure counts).
#include <algorithm>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "campaign/json.h"
#include "campaign/snapshot.h"
#include "cluster/cluster_sim.h"
#include "cluster/spec.h"
#include "host/host_interface.h"
#include "spans.h"
#include "ssd/experiment.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ctflash::Us;
using ctflash::campaign::Json;
using ctflash::campaign::JsonArray;
namespace cluster = ctflash::cluster;
namespace obs = ctflash::obs;
namespace ssd = ctflash::ssd;
namespace util = ctflash::util;

constexpr std::uint64_t kPrefillPct = 95;
constexpr std::uint64_t kPagesPerBlock = 32;
/// Verify-failure probabilities of the wear-ramp device.
constexpr double kProgramFailProb = 0.06;
constexpr double kEraseFailProb = 0.15;

/// bench_cluster's fleet with its wear-ramp device reshaping, at the full
/// 40k IOPS arrival rate, with scheduled GC so the in-program tracer sees
/// (and counts) every GC transaction.
Json FleetSpec(const FleetWearConfig& c, std::uint64_t seed) {
  Json spec;
  spec["cluster"] = std::string("fleet-wear");
  // Json numbers are doubles: keep the seed exactly representable.
  spec["seed"] = std::uint64_t{MixSeed(seed, 4) & ((1ull << 52) - 1)};
  spec["workers"] = static_cast<std::uint64_t>(c.workers);
  Json fleet;
  fleet["devices"] = static_cast<std::uint64_t>(c.devices);
  fleet["spares"] = std::uint64_t{1};
  spec["fleet"] = fleet;
  Json router;
  router["shards"] = std::uint64_t{16} * c.devices;
  router["replicas"] = std::uint64_t{2};
  router["vnodes"] = std::uint64_t{64};
  spec["router"] = router;
  Json device;
  device["device_bytes"] = c.device_bytes;
  device["prefill_pct"] = kPrefillPct;
  device["pages_per_block"] = kPagesPerBlock;
  device["gc_routing"] = std::string("scheduled");
  spec["device"] = device;
  Json users;
  users["count"] = c.users;
  users["zipf_theta"] = 0.9;
  spec["users"] = users;
  Json workload;
  workload["rate_iops"] = c.rate_iops;
  workload["read_fraction"] = 0.9;
  workload["request_bytes"] = std::uint64_t{16} * 1024;
  workload["epochs"] = static_cast<std::uint64_t>(c.epochs);
  workload["epoch_us"] = static_cast<std::uint64_t>(c.epoch_us);
  workload["timeout_us"] = std::uint64_t{1'000'000};
  spec["workload"] = workload;
  Json fault;
  fault["device"] = std::uint64_t{1};
  fault["kind"] = std::string("wear");
  fault["erase_fail_prob"] = kEraseFailProb;
  fault["program_fail_prob"] = kProgramFailProb;
  JsonArray faults;
  faults.push_back(std::move(fault));
  spec["faults"] = Json(std::move(faults));
  Json rebalance;
  rebalance["policy"] = std::string("on_observed");
  rebalance["migration_chunk"] = std::uint64_t{16} * 1024;
  rebalance["rebuild_bytes_per_sec"] = static_cast<double>(c.device_bytes) / 8.0;
  Json health;
  health["spare_fail_frac"] = 0.3;
  health["program_fail_rate"] = 0.025;
  health["gc_stall_fail_share"] = 0.95;
  health["retry_fail_rate"] = 0.95;
  health["ewma_alpha"] = 0.6;
  rebalance["health"] = health;
  Json slo;
  slo["read_p99_target_us"] = std::uint64_t{900'000};
  rebalance["slo"] = slo;
  spec["rebalance"] = rebalance;
  return spec;
}

/// Fleet-wide counters summed from the in-program tracer's per-epoch
/// counter tracks (the only per-device GC/retry view ClusterSim exports).
struct FleetCounters {
  std::uint64_t writes_completed = 0;
  std::uint64_t gc_copies = 0;
  std::uint64_t gc_erases = 0;
  std::uint64_t retry_rungs = 0;
};

FleetCounters CountersFromTrace(const std::string& chrome_trace) {
  FleetCounters c;
  const Json trace = Json::Parse(chrome_trace);
  const Json* events = trace.Get("traceEvents");
  if (events == nullptr) return c;
  for (const Json& e : events->AsArray()) {
    if (e.GetStringOr("ph", "") != "C") continue;
    const std::string name = e.GetStringOr("name", "");
    const Json* args = e.Get("args");
    if (args == nullptr) continue;
    if (name == "completions") {
      c.writes_completed += args->GetUintOr("write", 0);
    } else if (name == "gc") {
      c.gc_copies += args->GetUintOr("copies", 0);
      c.gc_erases += args->GetUintOr("erases", 0);
    } else if (name == "retry_rungs") {
      c.retry_rungs += args->GetUintOr("rungs", 0);
    }
  }
  return c;
}

/// A round's fleets merged: the end-to-end view of the workload.
struct FleetTotals {
  std::string error;  ///< non-empty when a fleet's Run threw
  std::uint64_t arrivals = 0;
  std::uint64_t completed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t lost = 0;  ///< lost pages + unrecoverable shards
  std::uint64_t shards_moved = 0;
  std::uint64_t migration_ops = 0;
  std::uint64_t drained = 0;
  std::uint64_t failed_devices = 0;
  std::vector<std::int64_t> drain_epochs;  ///< per fleet; -1 = no drain
  util::LatencyStats read;
  std::vector<util::LatencyStats> fleet_reads;  ///< per fleet
  util::LatencyStats write;
  obs::PhaseStats phases;
  FleetCounters counters;

  void Add(const cluster::ClusterResult& r, const FleetCounters& c) {
    util::LatencyStats fleet_read;
    for (const cluster::EpochSummary& e : r.epochs) {
      arrivals += e.arrivals;
      timeouts += e.timeouts;
      fleet_read.Merge(e.read);
      write.Merge(e.write);
    }
    read.Merge(fleet_read);
    fleet_reads.push_back(std::move(fleet_read));
    for (const cluster::DeviceSummary& d : r.devices) {
      completed += d.completed;
      lost += d.lost_pages;
      phases.Merge(d.phases);
    }
    lost += r.unrecoverable_shards;
    shards_moved += r.shards_moved;
    migration_ops += r.migration_ops;
    drained += r.devices_drained;
    failed_devices += r.devices_failed;
    std::int64_t drain_epoch = -1;
    for (const Json& event : r.events) {
      if (event.GetStringOr("action", "") == "drained") {
        drain_epoch = static_cast<std::int64_t>(event.GetUintOr("epoch", 0));
        break;
      }
    }
    drain_epochs.push_back(drain_epoch);
    counters.writes_completed += c.writes_completed;
    counters.gc_copies += c.gc_copies;
    counters.gc_erases += c.gc_erases;
    counters.retry_rungs += c.retry_rungs;
  }
};

/// Outputs of the traced-only probes.
struct Probes {
  double zipf_sample_ns = 0.0;
  std::uint64_t zipf_rank_sum = 0;  ///< consumed so the draws stay live
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t program_failures = 0;
  std::uint64_t erase_failures = 0;
  std::string wear_probe_error;
};

void ZipfProbe(const FleetWearConfig& c, std::uint64_t seed,
               SpanRecorder& rec, Probes& probes) {
  constexpr std::uint64_t kBatch = 1000;
  const util::ZipfSampler zipf(c.users, 0.9);
  util::Xoshiro256StarStar rng(MixSeed(seed, 5));
  const SpanRecorder::Kind kind = rec.Register("util.zipf_batch");
  std::vector<double> batch_ns;
  for (std::uint64_t done = 0; done < c.zipf_probe_samples; done += kBatch) {
    const std::int64_t t0 = NowNs();
    rec.Begin(kind);
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      probes.zipf_rank_sum += zipf.Sample(rng);
    }
    rec.End();
    batch_ns.push_back(static_cast<double>(NowNs() - t0));
  }
  probes.zipf_sample_ns = Median(batch_ns) / static_cast<double>(kBatch);
}

/// Snapshot save/restore on the fleet's device shape, then one restored
/// device with device 1's wear plan armed, fed one device's share of the
/// arrival rate for the run's simulated length.
void DeviceProbes(const cluster::ClusterSpec& spec, const FleetWearConfig& c,
                  std::uint64_t seed, SpanRecorder& rec, Probes& probes) {
  const ssd::SsdConfig& config = spec.device.device;
  ssd::Ssd source(config);
  const std::uint64_t prefill_bytes =
      source.LogicalBytes() * spec.device.prefill_pct / 100;
  Us clock = 0;
  {
    ScopedSpan span(&rec, "ssd.prefill");
    clock = ssd::ExperimentRunner(source).Prefill(
        prefill_bytes, spec.device.prefill_chunk_bytes != 0
                           ? spec.device.prefill_chunk_bytes
                           : 256 * ctflash::kKiB);
  }
  ctflash::campaign::DeviceState state;
  {
    ScopedSpan span(&rec, "campaign.save");
    state = source.Snapshot(clock);
    probes.snapshot_bytes = state.Serialize().size();
  }
  ssd::Ssd device(config);
  {
    ScopedSpan span(&rec, "campaign.restore");
    device.Restore(state);
  }

  device.target().ArmFaults(spec.FaultPlanFor(1, clock), spec.fault_handling,
                            MixSeed(seed, 6));
  ctflash::host::HostInterface hi(device, spec.device.host);
  hi.AdvanceTo(clock);
  util::Xoshiro256StarStar rng(MixSeed(seed, 7));
  const double period_us = 1e6 * c.devices / c.rate_iops;
  const Us horizon = static_cast<Us>(c.epochs) * c.epoch_us;
  const std::uint64_t slots = prefill_bytes / spec.request_bytes;
  try {
    ScopedSpan span(&rec, "host.wear_probe");
    for (double at = 0.0; at < static_cast<double>(horizon); at += period_us) {
      const auto op = rng.Bernoulli(spec.read_fraction)
                          ? ctflash::trace::OpType::kRead
                          : ctflash::trace::OpType::kWrite;
      hi.SubmitAtAs(clock + static_cast<Us>(at), cluster::kUserTenant, op,
                    rng.UniformBelow(slots) * spec.request_bytes,
                    spec.request_bytes);
    }
    hi.Run();
  } catch (const std::exception& e) {
    // The ramp can exhaust the spare pool: the probe device died, which is
    // the outcome the fleet's drain exists to pre-empt.
    probes.wear_probe_error = e.what();
  }
  probes.program_failures = device.ftl().fault_stats().program_failures;
  probes.erase_failures = device.ftl().fault_stats().erase_failures;
}

}  // namespace

Outcome RunFleetWear(const FleetWearConfig& config, const RunOptions& options) {
  std::vector<std::string> specs;
  for (std::uint32_t f = 0; f < config.fleets; ++f) {
    specs.push_back(FleetSpec(config, MixSeed(options.seed, 100 + f)).Dump());
  }
  const std::uint64_t expected_arrivals = static_cast<std::uint64_t>(
      config.rate_iops * static_cast<double>(config.epochs) *
      static_cast<double>(config.epoch_us) / 1e6);
  Outcome out;
  SpanRecorder recorder;
  FleetTotals first;
  Probes probes;
  bool have_probes = false;

  DriveRounds(options, recorder, out, [&](const RoundContext& context) {
    SpanRecorder* rec = context.recorder;
    RoundResult round;
    Digest digest;
    FleetTotals totals;
    const bool keep = context.keep && rec == nullptr;
    for (const std::string& spec_text : specs) {
      const std::int64_t t0 = NowNs();
      std::unique_ptr<cluster::ClusterSim> sim;
      {
        ScopedSpan span(rec, "cluster.setup");
        sim = std::make_unique<cluster::ClusterSim>(
            cluster::ClusterSpec::Parse(spec_text));
      }
      const std::int64_t t1 = NowNs();
      cluster::ClusterResult result;
      std::string error;
      try {
        ScopedSpan span(rec, "cluster.run");
        result = sim->Run(config.workers);
      } catch (const std::exception& e) {
        error = e.what();
        if (error.empty()) error = "unknown error";
      }
      const std::int64_t t2 = NowNs();
      const double setup_s = static_cast<double>(t1 - t0) / 1e9;
      const double timed_s = static_cast<double>(t2 - t1) / 1e9;

      if (error.empty()) {
        FleetTotals one;
        one.Add(result, FleetCounters{});
        round.AddPart(setup_s, timed_s, one.completed);
        round.attempted += one.arrivals;
        round.failed += one.timeouts + one.lost;
        digest.Add(result.DeterministicJson().Dump());
        if (keep) totals.Add(result, CountersFromTrace(sim->FleetChromeTrace()));
      } else {
        round.AddPart(setup_s, timed_s, 0);
        round.attempted += expected_arrivals;
        round.failed += expected_arrivals;
        digest.Add(error);
        totals.error = error;
      }
      // Every traced round probes once, so per-round span sums stay
      // comparable across traced rounds.
      if (rec != nullptr && &spec_text == &specs.front()) {
        probes = Probes{};
        ZipfProbe(config, options.seed, *rec, probes);
        DeviceProbes(sim->spec(), config, options.seed, *rec, probes);
        have_probes = true;
      }
    }
    round.digest = digest.value();
    if (keep) first = std::move(totals);
    return round;
  });

  const FleetTotals& t = first;
  out.Check(t.error.empty(), "ClusterSim::Run threw: " + t.error);
  out.Check(t.arrivals == t.completed + t.timeouts,
            "cluster: arrivals == completed + timeouts");
  // Mean epoch of the fleets' drains; -1 when no fleet drained.
  double drain_sum = 0.0;
  std::uint64_t drains = 0;
  for (const std::int64_t e : t.drain_epochs) {
    if (e < 0) continue;
    drain_sum += static_cast<double>(e);
    ++drains;
  }
  const double drain_epoch =
      drains == 0 ? -1.0 : drain_sum / static_cast<double>(drains);
  std::string epochs;
  for (const std::int64_t e : t.drain_epochs) {
    epochs += (epochs.empty() ? "" : ",") + std::to_string(e);
  }
  out.notes.push_back(
      "fleet_wear: fleets=" + std::to_string(config.fleets) +
      " arrivals=" + std::to_string(t.arrivals) +
      " completed=" + std::to_string(t.completed) +
      " timeouts=" + std::to_string(t.timeouts) +
      " lost=" + std::to_string(t.lost) +
      " drained=" + std::to_string(t.drained) +
      " failed_devices=" + std::to_string(t.failed_devices) +
      " drain_epochs=" + epochs +
      " read_p99_us=" + std::to_string(t.read.p99_us()) +
      " write_p99_us=" + std::to_string(t.write.p99_us()));

  // Read statistics are the median over fleets of each fleet's own value.
  // A placement that puts too many hot users on one device saturates it and
  // multiplies its fleet's tail; the merged tail would follow that one fleet.
  std::vector<double> means, p99s, p999s;
  std::string fleet_p99s;
  for (const util::LatencyStats& r : t.fleet_reads) {
    means.push_back(r.mean_us());
    p99s.push_back(r.p99_us());
    p999s.push_back(r.p999_us());
    fleet_p99s += (fleet_p99s.empty() ? "" : ",") + std::to_string(r.p99_us());
  }
  out.notes.push_back("fleet_wear: per-fleet read_p99_us=" + fleet_p99s);
  const auto median_or_zero = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : Median(v);
  };
  out.SetLatency("device_read_mean_us", median_or_zero(means), t.read.count());
  out.SetLatency("device_read_p99_us", median_or_zero(p99s), t.read.count());
  out.SetLatency("device_read_p999_us", median_or_zero(p999s), t.read.count());
  out.SetLatency("ftl.write_mean_us", t.write.mean_us(), t.write.count());
  out.SetLatency("ftl.write_p99_us", t.write.p99_us(), t.write.count());
  const FleetCounters& counters = t.counters;
  out.Set("device_waf",
          counters.writes_completed == 0
              ? 1.0
              : static_cast<double>(counters.writes_completed +
                                    counters.gc_copies) /
                    static_cast<double>(counters.writes_completed));

  out.Set("ftl.gc_page_copies", static_cast<double>(counters.gc_copies));
  out.Set("ftl.gc_erases", static_cast<double>(counters.gc_erases));
  out.Set("nand.read_retries", static_cast<double>(counters.retry_rungs));
  out.Set("cluster.timeouts", static_cast<double>(t.timeouts));
  out.Set("cluster.shards_moved", static_cast<double>(t.shards_moved));
  out.Set("cluster.migration_ops", static_cast<double>(t.migration_ops));
  out.Set("cluster.drain_epoch", drain_epoch);

  const obs::PhaseStats& phases = t.phases;
  const auto token = static_cast<std::size_t>(obs::StallCause::kTokenBucket);
  out.Set("qos.throttled",
          static_cast<double>(phases.read.stall_events[token] +
                              phases.write.stall_events[token]));
  out.Set("qos.throttle_wait_us",
          static_cast<double>(phases.read.stall_us[token] +
                              phases.write.stall_us[token]));
  ReportPhases(phases, out);

  if (have_probes) {
    // cluster.run_s covers every fleet of a traced round.
    out.Set("cluster.epoch_s", out.values["cluster.run_s"] /
                                   static_cast<double>(config.epochs) /
                                   static_cast<double>(config.fleets));
    out.Set("util.zipf_sample_ns", probes.zipf_sample_ns);
    out.notes.push_back("zipf probe rank sum: " +
                        std::to_string(probes.zipf_rank_sum));
    out.Set("campaign.snapshot_bytes",
            static_cast<double>(probes.snapshot_bytes));
    out.Set("nand.program_failures",
            static_cast<double>(probes.program_failures));
    out.Set("nand.erase_failures", static_cast<double>(probes.erase_failures));
    if (!probes.wear_probe_error.empty()) {
      out.notes.push_back("wear probe device died: " + probes.wear_probe_error);
    }
  }
  return out;
}

}  // namespace perfbench
