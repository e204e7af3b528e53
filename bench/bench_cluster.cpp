// Storage-cluster scenario bench: a shard router over a simulated device
// fleet, with failure-driven rebalancing.  Three arms over the same fleet
// shape, all fed by the same Zipf-skewed million-user population:
//
//   healthy    no faults — reports cluster p50/p99 vs the per-device p99
//              spread under skew and checks placement keeps load bounded;
//   rebalance  one device dies mid-run, the director detects it, a spare
//              adopts its shards, and rebuild traffic re-replicates them
//              through the low-weight rebuild tenant;
//   control    same failure, policy "none" — the router keeps routing to
//              the corpse and every such request burns the SLA timeout.
//   wear       one device on a progressive wear ramp (verify-fail
//              probabilities eat its spare pool), twice: policy
//              "on_failure" waits for the death, policy "on_observed"
//              watches the health telemetry and drains the device while it
//              is still serving.
//
// SELF-ASSERTS the cluster subsystem's core claims:
//
//   1. Determinism — the deterministic report is byte-identical across
//      worker counts (epoch-lockstep contract).
//   2. Balance — under Zipf skew, no ring device serves more than
//      --imbalance x the fair share of completed requests.
//   3. Healthy service — the fault-free arm completes every arrival with
//      zero timeouts.
//   4. Bounded failover — with rebalancing, cluster read p99 over the
//      epochs after detection stays within --p99-factor (default 3x) of
//      the pre-failure epoch's p99, and the rebuild is not vacuous
//      (spare adopted, shards moved, rebuild tenant dispatched real I/O).
//   5. Control blowout — without rebalancing the final epoch's read p99
//      exceeds the same bound (the timeouts dominate the tail).
//   6. Predictive drain — under the wear ramp, on_observed drains the sick
//      device (health-failing) STRICTLY BEFORE the epoch where the same
//      ramp kills it under on_failure, and the drained device is never
//      fatal; the on_observed report is byte-identical across worker
//      counts; its health/SLO sections are populated.
//   7. Observation pays — post-incident cluster read p99 under on_observed
//      is <= the death-driven on_failure arm's (draining beats waiting).
//

// Options:
//   --devices <n>     ring devices                  (default 8)
//   --device <sz>     device bytes                  (default 64 MiB)
//   --rate <iops>     cluster arrival rate          (default 40000)
//   --epochs <n>      epochs per arm                (default 8)
//   --epoch-us <us>   epoch length                  (default 250000)
//   --users <n>       user population               (default 1000000)
//   --theta <t>       Zipf skew                     (default 0.9)
//   --workers <n>     worker count                  (default min(8, hw))
//   --p99-factor <x>  failover tail bound           (default 3.0)
//   --imbalance <x>   per-device load bound         (default 2.5)
//   --quick           4 devices, 32 MiB, 6 x 100 ms epochs, 100k users
//   --json <path>     result file (default BENCH_cluster.json)
//   --trace-out <p>   Perfetto trace of the on_observed fleet (phase +
//                     health-score counter tracks per device)
//   --metrics-out <p> MetricsRegistry JSON for the on_observed arm
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/json.h"
#include "cluster/cluster_sim.h"
#include "cluster/spec.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "util/config.h"

namespace {

using ctflash::campaign::Json;
using ctflash::campaign::JsonArray;
using ctflash::cluster::ClusterResult;
using ctflash::cluster::ClusterSim;
using ctflash::cluster::ClusterSpec;
using ctflash::cluster::DeviceSummary;
using ctflash::cluster::EpochSummary;

struct Options {
  std::uint64_t devices = 8;
  std::uint64_t device_bytes = 64ull << 20;
  double rate_iops = 40'000.0;
  std::uint64_t epochs = 8;
  std::uint64_t epoch_us = 250'000;
  std::uint64_t users = 1'000'000;
  double theta = 0.9;
  std::uint32_t workers = 0;  // 0 = min(8, hw_concurrency)
  double p99_factor = 3.0;
  double imbalance = 2.5;
  std::string json_path = "BENCH_cluster.json";
  std::string trace_out_path;
  std::string metrics_out_path;
};

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value after " + arg);
      }
      return argv[++i];
    };
    if (arg == "--devices") {
      o.devices = std::stoull(next());
      if (o.devices < 3) throw std::invalid_argument("--devices must be >= 3");
    } else if (arg == "--device") {
      o.device_bytes = ctflash::util::ParseByteSize(next());
    } else if (arg == "--rate") {
      o.rate_iops = std::stod(next());
    } else if (arg == "--epochs") {
      o.epochs = std::stoull(next());
      if (o.epochs < 4) throw std::invalid_argument("--epochs must be >= 4");
    } else if (arg == "--epoch-us") {
      o.epoch_us = std::stoull(next());
    } else if (arg == "--users") {
      o.users = std::stoull(next());
    } else if (arg == "--theta") {
      o.theta = std::stod(next());
    } else if (arg == "--workers") {
      o.workers = static_cast<std::uint32_t>(std::stoul(next()));
      if (o.workers == 0) throw std::invalid_argument("--workers must be >= 1");
    } else if (arg == "--p99-factor") {
      o.p99_factor = std::stod(next());
    } else if (arg == "--imbalance") {
      o.imbalance = std::stod(next());
    } else if (arg == "--quick") {
      o.devices = 4;
      o.device_bytes = 32ull << 20;
      o.rate_iops = 8'000.0;
      o.epochs = 6;
      o.epoch_us = 100'000;
      o.users = 100'000;
    } else if (arg == "--json") {
      o.json_path = next();
    } else if (arg == "--trace-out") {
      o.trace_out_path = next();
    } else if (arg == "--metrics-out") {
      o.metrics_out_path = next();
    } else {
      throw std::invalid_argument("unknown bench option: " + arg);
    }
  }
  return o;
}

/// The shared fleet scenario; the fault + policy differ per arm.
Json BaseSpec(const Options& o, const std::string& name) {
  Json spec;
  spec["cluster"] = name;
  spec["seed"] = std::uint64_t{17};
  Json fleet;
  fleet["devices"] = o.devices;
  fleet["spares"] = std::uint64_t{1};
  spec["fleet"] = fleet;
  Json router;
  router["shards"] = std::uint64_t{16} * o.devices;
  router["replicas"] = std::uint64_t{2};
  router["vnodes"] = std::uint64_t{64};
  spec["router"] = router;
  Json device;
  device["device_bytes"] = o.device_bytes;
  device["prefill_pct"] = std::uint64_t{75};
  spec["device"] = device;
  Json users;
  users["count"] = o.users;
  users["zipf_theta"] = o.theta;
  spec["users"] = users;
  Json workload;
  workload["rate_iops"] = o.rate_iops;
  workload["read_fraction"] = 0.9;
  workload["request_bytes"] = std::uint64_t{16} * 1024;
  workload["epochs"] = o.epochs;
  workload["epoch_us"] = o.epoch_us;
  workload["timeout_us"] = std::uint64_t{1'000'000};
  spec["workload"] = workload;
  return spec;
}

/// Kill one mid-ring device a bit into epoch 1 (epoch 0 stays the clean
/// pre-failure baseline).
Json WithDeviceLoss(Json spec, const Options& o, const std::string& policy) {
  Json fault;
  fault["device"] = std::uint64_t{1};
  fault["kind"] = "device";
  fault["at_us"] = o.epoch_us + o.epoch_us / 5;
  JsonArray faults;
  faults.push_back(std::move(fault));
  spec["faults"] = Json(std::move(faults));
  Json rebalance;
  rebalance["policy"] = policy;
  // Small chunks avoid head-of-line blocking behind multi-page rebuild
  // transactions; the byte cap keeps rebuild-driven GC on the adopting
  // spare from owning the serving tail.
  rebalance["migration_chunk"] = std::uint64_t{16} * 1024;
  rebalance["rebuild_bytes_per_sec"] =
      static_cast<double>(o.device_bytes) / 8.0;
  spec["rebalance"] = rebalance;
  return spec;
}

/// Puts one mid-ring device on a progressive wear ramp from the start of
/// the run: GC erases retire blocks probabilistically until the spare pool
/// is gone — unobserved, the device eventually dies mid-epoch on an
/// unrecoverable media error.
///
/// Block retirement only happens at GC erases, so the arm reshapes the
/// shared scenario until GC actually churns at bench scale: short blocks
/// (many small blocks, so the spare pool drains in fine steps while the
/// per-page program cost stays put), a deep prefill, a write-heavy
/// workload paced so each device sees a steady ~2.5 MiB of new writes per
/// epoch, and a doubled epoch horizon for the ramp to play out.  Both
/// wear arms share the reshape, so the on_observed-vs-on_failure
/// comparison stays apples to apples.
Json WithWearRamp(Json spec, const Options& o, const std::string& policy) {
  Json& device = spec["device"];
  device["pages_per_block"] = std::uint64_t{32};
  device["prefill_pct"] = std::uint64_t{95};
  Json& workload = spec["workload"];
  const double read_fraction = 0.5;
  const std::uint64_t write_bytes_per_device_epoch = 1792ull * 1024;
  const std::uint64_t request_bytes = std::uint64_t{16} * 1024;
  const double writes_per_sec =
      static_cast<double>(write_bytes_per_device_epoch) /
      static_cast<double>(request_bytes) * static_cast<double>(o.devices) *
      1e6 / static_cast<double>(o.epoch_us);
  workload["rate_iops"] = writes_per_sec / (1.0 - read_fraction);
  workload["read_fraction"] = read_fraction;
  workload["epochs"] = o.epochs * 3;
  Json fault;
  fault["device"] = std::uint64_t{1};
  fault["kind"] = "wear";
  fault["erase_fail_prob"] = 0.15;
  fault["program_fail_prob"] = 0.02;
  JsonArray faults;
  faults.push_back(std::move(fault));
  spec["faults"] = Json(std::move(faults));
  Json rebalance;
  rebalance["policy"] = policy;
  rebalance["migration_chunk"] = std::uint64_t{16} * 1024;
  rebalance["rebuild_bytes_per_sec"] =
      static_cast<double>(o.device_bytes) / 8.0;
  if (policy == "on_observed") {
    // The drain decision rides the ramp's own symptoms: the program
    // verify-fail trend (visible from the first sick write) holds the
    // score just under failing, and the first spare-pool burn tips it
    // over.  The shared-workload GC and retry signals are parked high so
    // they cannot drain healthy devices seeing the same churn.
    Json health;
    health["spare_fail_frac"] = 0.3;
    health["program_fail_rate"] = 0.025;
    health["gc_stall_fail_share"] = 0.95;
    health["retry_fail_rate"] = 0.95;
    health["ewma_alpha"] = 0.6;
    rebalance["health"] = health;
    // A deliberately loose SLO: present in the report (exercising the SLO
    // leg end-to-end) but only breached by timeout-scale tails the drain
    // exists to prevent.
    Json slo;
    slo["read_p99_target_us"] = std::uint64_t{900'000};
    rebalance["slo"] = slo;
  }
  spec["rebalance"] = rebalance;
  return spec;
}

int Fail(const std::string& what) {
  std::cerr << "SELF-ASSERT FAILED: " << what << "\n";
  return 1;
}

ClusterResult RunArm(const Json& spec_json, std::uint32_t workers) {
  ClusterSim sim(ClusterSpec::Parse(spec_json));
  return sim.Run(workers);
}

/// Epoch the director logged the (first) failure in; -1 when none.
std::int64_t DetectionEpoch(const ClusterResult& r) {
  if (r.events.empty()) return -1;
  return static_cast<std::int64_t>(r.events[0].GetUintOr("epoch", 0));
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::uint32_t workers =
      options.workers != 0 ? options.workers : std::min(8u, hw);

  std::cout << "=== Cluster scenario: shard router over a device fleet ===\n";
  std::cout << "fleet: " << options.devices << " devices + 1 spare x "
            << (options.device_bytes >> 20) << " MiB, "
            << options.users << " users (zipf " << options.theta << "), "
            << options.rate_iops << " IOPS, " << options.epochs << " x "
            << options.epoch_us << " us epochs, " << workers << " workers\n";

  // Assert 1: worker count must not change a single report byte.  The
  // failure arm exercises every code path (faults, director, migration).
  {
    const Json det_spec =
        WithDeviceLoss(BaseSpec(options, "cluster-det"), options, "on_failure");
    const std::string one = RunArm(det_spec, 1).DeterministicJson().Dump(2);
    const std::string many =
        RunArm(det_spec, std::max(2u, std::min(4u, hw)))
            .DeterministicJson()
            .Dump(2);
    std::cout << "deterministic report across worker counts: "
              << (one == many ? "IDENTICAL" : "DIFFER") << " (" << one.size()
              << " bytes)\n";
    if (one != many) {
      return Fail("worker count changed the deterministic cluster report");
    }
  }

  // --- healthy arm ---------------------------------------------------------
  const ClusterResult healthy =
      RunArm(BaseSpec(options, "cluster-healthy"), workers);
  std::uint64_t arrivals = 0, timeouts = 0;
  for (const EpochSummary& e : healthy.epochs) {
    arrivals += e.arrivals;
    timeouts += e.timeouts;
  }
  std::uint64_t completed = 0, ring_devices = 0, max_load = 0;
  double worst_device_p99 = 0.0;
  for (const DeviceSummary& d : healthy.devices) {
    completed += d.completed;
    if (d.primary_shards == 0) continue;  // idle spare
    ++ring_devices;
    max_load = std::max(max_load, d.completed);
    worst_device_p99 = std::max(worst_device_p99, d.read.p99_us());
  }
  const double cluster_p50 = healthy.epochs[0].read.p50_us();
  const double cluster_p99 = healthy.epochs[0].read.p99_us();
  const double mean_load =
      static_cast<double>(completed) / static_cast<double>(ring_devices);
  std::cout << "\nhealthy: " << arrivals << " arrivals, " << completed
            << " completed, cluster read p50/p99 " << cluster_p50 << "/"
            << cluster_p99 << " us, worst device p99 " << worst_device_p99
            << " us, load max/mean " << (static_cast<double>(max_load) /
                                         mean_load)
            << "\n";
  if (healthy.devices_failed != 0 || timeouts != 0) {
    return Fail("healthy arm saw failures/timeouts");
  }
  if (completed != arrivals) {
    return Fail("healthy arm dropped requests: " + std::to_string(arrivals) +
                " arrivals vs " + std::to_string(completed) + " completed");
  }
  if (cluster_p99 <= 0.0) return Fail("healthy cluster read p99 is zero");
  // Assert 2: placement keeps Zipf load bounded across the ring.
  if (static_cast<double>(max_load) > options.imbalance * mean_load) {
    return Fail("device load imbalance " +
                std::to_string(static_cast<double>(max_load) / mean_load) +
                " exceeds bound " + std::to_string(options.imbalance));
  }

  // --- device-loss arms ----------------------------------------------------
  const ClusterResult rebalanced = RunArm(
      WithDeviceLoss(BaseSpec(options, "cluster-rebalance"), options,
                     "on_failure"),
      workers);
  const ClusterResult control = RunArm(
      WithDeviceLoss(BaseSpec(options, "cluster-control"), options, "none"),
      workers);

  auto epoch_tails = [](const ClusterResult& r) {
    std::string line;
    for (const EpochSummary& e : r.epochs) {
      if (!line.empty()) line += " ";
      line += std::to_string(static_cast<std::uint64_t>(e.read.p99_us()));
    }
    return line;
  };
  std::cout << "per-epoch read p99 (us): rebalance [" << epoch_tails(rebalanced)
            << "], control [" << epoch_tails(control) << "]\n";

  const std::int64_t detect = DetectionEpoch(rebalanced);
  if (detect < 0) return Fail("rebalance arm never detected the failure");
  const double pre_p99 = rebalanced.epochs[0].read.p99_us();
  if (pre_p99 <= 0.0) return Fail("pre-failure read p99 is zero");
  double post_p99 = 0.0;
  for (std::size_t e = static_cast<std::size_t>(detect) + 1;
       e < rebalanced.epochs.size(); ++e) {
    post_p99 = std::max(post_p99, rebalanced.epochs[e].read.p99_us());
  }
  std::uint64_t rebuild_io = 0;
  for (const DeviceSummary& d : rebalanced.devices) {
    rebuild_io += d.rebuild_reads + d.rebuild_writes;
  }
  const double bound = options.p99_factor * pre_p99;
  std::cout << "rebalance: detected epoch " << detect << ", "
            << rebalanced.shards_moved << " shards -> spare, "
            << rebalanced.migration_bytes << " rebuild bytes ("
            << rebuild_io << " rebuild dispatches), post-failover read p99 "
            << post_p99 << " us (bound " << bound << " = "
            << options.p99_factor << "x pre-failure " << pre_p99 << ")\n";

  // Assert 4: rebalancing restores the tail and actually did work.
  if (rebalanced.devices_failed != 1 || rebalanced.spares_used != 1) {
    return Fail("rebalance arm did not fail+adopt exactly one device");
  }
  if (rebalanced.shards_moved == 0 || rebalanced.migration_ops == 0 ||
      rebuild_io == 0) {
    return Fail("rebalance arm moved no shards / issued no rebuild I/O");
  }
  if (post_p99 > bound) {
    return Fail("post-failover read p99 " + std::to_string(post_p99) +
                " us exceeds " + std::to_string(bound) + " us");
  }

  // Assert 5: the un-rebalanced control blows through the same bound.
  const double control_final_p99 = control.epochs.back().read.p99_us();
  std::uint64_t control_timeouts = 0;
  for (const EpochSummary& e : control.epochs) control_timeouts += e.timeouts;
  std::cout << "control: " << control_timeouts
            << " timeouts, final-epoch read p99 " << control_final_p99
            << " us\n";
  if (control.shards_moved != 0 || control.migration_ops != 0) {
    return Fail("control arm must not rebalance");
  }
  if (control_timeouts == 0) {
    return Fail("control arm never timed out (device loss vacuous?)");
  }
  if (control_final_p99 <= bound) {
    return Fail("control final read p99 " + std::to_string(control_final_p99) +
                " us did not exceed the bound " + std::to_string(bound) +
                " us — the failure arm is not stressing the router");
  }

  // --- wear-ramp arms: observed drain vs death-driven rebalance ------------
  const Json wear_failure_spec = WithWearRamp(
      BaseSpec(options, "cluster-wear"), options, "on_failure");
  const Json wear_observed_spec = WithWearRamp(
      BaseSpec(options, "cluster-wear"), options, "on_observed");
  const ClusterResult wear_failure = RunArm(wear_failure_spec, workers);
  ClusterSim observed_sim(ClusterSpec::Parse(wear_observed_spec));
  const ClusterResult observed = observed_sim.Run(workers);

  // Assert 6 (determinism leg): the observed policy's monitors live in the
  // serial director phase, so its report must also be worker-invariant.
  {
    const std::string one =
        RunArm(wear_observed_spec, 1).DeterministicJson().Dump(2);
    const std::string many = RunArm(wear_observed_spec,
                                    std::max(2u, std::min(4u, hw)))
                                 .DeterministicJson()
                                 .Dump(2);
    if (one != many) {
      return Fail("worker count changed the on_observed cluster report");
    }
  }

  const std::int64_t death_epoch = DetectionEpoch(wear_failure);
  const std::int64_t drain_epoch = DetectionEpoch(observed);
  std::cout << "\nwear ramp: on_failure death epoch " << death_epoch
            << ", on_observed drain epoch " << drain_epoch << "\n";
  std::cout << "device 1 health: " << observed.devices[1].health.Dump()
            << "\n";
  std::cout << "per-epoch read p99 (us): on_failure ["
            << epoch_tails(wear_failure) << "], on_observed ["
            << epoch_tails(observed) << "]\n";

  // Assert 6: the ramp must actually kill the unobserved device, and the
  // observed policy must drain it strictly earlier, while still alive.
  if (death_epoch < 0 || wear_failure.devices_failed != 1 ||
      !wear_failure.devices[1].fatal) {
    return Fail("wear ramp did not kill device 1 under on_failure");
  }
  if (drain_epoch < 0 || observed.devices_drained != 1 ||
      !observed.devices[1].drained) {
    return Fail("on_observed never drained the wearing device");
  }
  if (observed.devices[1].fatal || observed.devices_failed != 0) {
    return Fail("on_observed drain came too late: the device still died");
  }
  if (drain_epoch >= death_epoch) {
    return Fail("drain epoch " + std::to_string(drain_epoch) +
                " is not before the on_failure death epoch " +
                std::to_string(death_epoch));
  }
  const std::string drain_cause =
      observed.events[0].GetStringOr("cause", "");
  if (observed.events[0].GetStringOr("action", "") != "drained") {
    return Fail("first on_observed event is not a drain");
  }

  // Assert 7: over the incident window (the epochs where the unobserved
  // arm is dying/dead), observation keeps the cluster tail no worse.
  double failure_post_p99 = 0.0, observed_post_p99 = 0.0;
  for (std::size_t e = static_cast<std::size_t>(death_epoch);
       e < wear_failure.epochs.size(); ++e) {
    failure_post_p99 =
        std::max(failure_post_p99, wear_failure.epochs[e].read.p99_us());
    observed_post_p99 =
        std::max(observed_post_p99, observed.epochs[e].read.p99_us());
  }
  std::cout << "post-incident read p99: on_observed " << observed_post_p99
            << " us vs on_failure " << failure_post_p99 << " us (cause: "
            << drain_cause << ")\n";
  if (observed_post_p99 > failure_post_p99) {
    return Fail("on_observed post-incident read p99 " +
                std::to_string(observed_post_p99) +
                " us exceeds on_failure's " +
                std::to_string(failure_post_p99) + " us");
  }

  // The health/SLO report sections must be populated end to end.
  const std::string observed_dump = observed.DeterministicJson().Dump(2);
  if (observed_dump.find("\"health\"") == std::string::npos ||
      observed_dump.find("\"slo\"") == std::string::npos ||
      observed_dump.find("\"devices_failing\"") == std::string::npos) {
    return Fail("on_observed report is missing health/SLO sections");
  }
  const Json* dev1_health = observed.devices[1].health.Get("state");
  if (dev1_health == nullptr || dev1_health->AsString() == "healthy") {
    return Fail("drained device's health snapshot still reads healthy");
  }

  // Perfetto export must carry the per-device health counter tracks.
  const std::string fleet_trace = observed_sim.FleetChromeTrace();
  if (fleet_trace.find("health_score") == std::string::npos) {
    return Fail("fleet trace has no health_score counter track");
  }
  if (!options.trace_out_path.empty()) {
    std::ofstream tout(options.trace_out_path);
    if (!tout) {
      std::cerr << "cannot write " << options.trace_out_path << "\n";
      return 1;
    }
    tout << fleet_trace;
    std::cout << "fleet trace written to " << options.trace_out_path << " ("
              << fleet_trace.size() << " bytes, digest "
              << ctflash::obs::TraceDigest(fleet_trace) << ")\n";
  }

  // Metrics registry over the observed fleet's phase breakdowns.
  ctflash::obs::MetricsRegistry registry;
  for (std::size_t d = 0; d < observed.devices.size(); ++d) {
    ctflash::obs::ExportPhaseStats(observed.devices[d].phases,
                                   "device-" + std::to_string(d), registry);
  }
  registry.AddCounter("cluster.devices_drained", observed.devices_drained);
  registry.AddCounter("cluster.devices_failed", observed.devices_failed);
  if (!options.metrics_out_path.empty()) {
    std::ofstream mout(options.metrics_out_path);
    if (!mout) {
      std::cerr << "cannot write " << options.metrics_out_path << "\n";
      return 1;
    }
    mout << registry.ToJson().Dump(2) << "\n";
    std::cout << "metrics written to " << options.metrics_out_path << "\n";
  }

  Json report;
  report["bench"] = std::string("cluster");
  report["healthy"] = healthy.Report();
  report["rebalance"] = rebalanced.Report();
  report["control"] = control.Report();
  report["wear_failure"] = wear_failure.Report();
  report["wear_observed"] = observed.Report();
  Json checks;
  checks["arrivals"] = arrivals;
  checks["completed"] = completed;
  checks["cluster_read_p50_us"] = cluster_p50;
  checks["cluster_read_p99_us"] = cluster_p99;
  checks["worst_device_read_p99_us"] = worst_device_p99;
  checks["load_max_over_mean"] = static_cast<double>(max_load) / mean_load;
  checks["imbalance_bound"] = options.imbalance;
  checks["detect_epoch"] = static_cast<std::uint64_t>(detect);
  checks["pre_failure_read_p99_us"] = pre_p99;
  checks["post_failover_read_p99_us"] = post_p99;
  checks["p99_factor_bound"] = options.p99_factor;
  checks["shards_moved"] = rebalanced.shards_moved;
  checks["rebuild_dispatches"] = rebuild_io;
  checks["rebuild_bytes"] = rebalanced.migration_bytes;
  checks["control_timeouts"] = control_timeouts;
  checks["control_final_read_p99_us"] = control_final_p99;
  checks["wear_death_epoch"] = static_cast<std::uint64_t>(death_epoch);
  checks["wear_drain_epoch"] = static_cast<std::uint64_t>(drain_epoch);
  checks["wear_drain_cause"] = drain_cause;
  checks["wear_failure_post_p99_us"] = failure_post_p99;
  checks["wear_observed_post_p99_us"] = observed_post_p99;
  report["self_check"] = checks;
  std::ofstream out(options.json_path);
  out << report.Dump(2) << "\n";
  std::cout << "\nall self-asserts passed; wrote " << options.json_path
            << "\n";
  return 0;
}
