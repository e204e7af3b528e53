#include "cluster/cluster_sim.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "campaign/runner.h"
#include "obs/export.h"
#include "ssd/experiment.h"
#include "util/parallel.h"

namespace ctflash::cluster {

namespace {

/// splitmix64 finalizer (serial-phase hashing: offsets, per-device seeds).
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

campaign::Json LatencyJson(const util::LatencyStats& s) {
  campaign::Json out;
  out["count"] = s.count();
  out["mean_us"] = s.mean_us();
  out["p50_us"] = s.p50_us();
  out["p99_us"] = s.p99_us();
  out["max_us"] = s.max_us();
  return out;
}

}  // namespace

ClusterSim::ClusterSim(ClusterSpec spec) : spec_(std::move(spec)) {
  spec_.Validate();
  router_ = std::make_unique<ShardRouter>(spec_.router);
  rng_.Reseed(Mix64(spec_.seed ^ 0xC105'7E2Dull));
  zipf_ = std::make_unique<util::ZipfSampler>(spec_.user_count,
                                              spec_.zipf_theta);
}

std::uint32_t ClusterSim::EpochOf(Us at) const {
  if (at <= run_start_us_) return 0;
  const std::uint64_t idx =
      static_cast<std::uint64_t>(at - run_start_us_) /
      static_cast<std::uint64_t>(spec_.epoch_us);
  return static_cast<std::uint32_t>(
      idx >= spec_.epochs ? spec_.epochs - 1 : idx);
}

std::uint64_t ClusterSim::UserOffset(std::uint64_t user) const {
  // A user's data lives at a stable slot inside the prefilled region, so
  // reads hit mapped pages and hot users create hot overwrite ranges.
  const std::uint64_t slot =
      Mix64(spec_.seed ^ 0x0FF5'E7ull ^ user) % offset_slots_;
  return slot * spec_.request_bytes;
}

void ClusterSim::BuildFleet(ClusterResult& result) {
  const std::uint32_t total = spec_.router.TotalDevices();
  devices_.resize(total);

  // One prefill for the whole fleet: device 0 runs it, everyone else
  // restores the snapshot (bit-identical to having run it directly).
  devices_[0].ssd = std::make_unique<ssd::Ssd>(spec_.device.device);
  prefill_bytes_ =
      devices_[0].ssd->LogicalBytes() * spec_.device.prefill_pct / 100;
  if (prefill_bytes_ > 0) {
    ssd::ExperimentRunner prefiller(*devices_[0].ssd);
    run_start_us_ =
        prefiller.Prefill(prefill_bytes_, spec_.device.prefill_chunk_bytes);
  }
  const campaign::DeviceState snapshot =
      devices_[0].ssd->Snapshot(run_start_us_);
  offset_slots_ = prefill_bytes_ / spec_.request_bytes;
  if (offset_slots_ == 0) {
    offset_slots_ = std::max<std::uint64_t>(
        1, devices_[0].ssd->LogicalBytes() / spec_.request_bytes);
  }

  for (std::uint32_t d = 0; d < total; ++d) {
    Device& dev = devices_[d];
    if (d != 0) {
      dev.ssd = std::make_unique<ssd::Ssd>(spec_.device.device);
      dev.ssd->Restore(snapshot);
    }
    // Faults arm after restore, exactly like campaign arms: the shared
    // snapshot stays fault-free and devices diverge only via their
    // schedules.
    const nand::FaultPlanConfig plan = spec_.FaultPlanFor(d, run_start_us_);
    if (plan.Armed()) {
      dev.ssd->target().ArmFaults(plan, spec_.fault_handling,
                                  Mix64(spec_.seed ^ 0xFA17'0000ull ^ d));
    }
    dev.host =
        std::make_unique<host::HostInterface>(*dev.ssd, spec_.device.host);
    dev.host->AdvanceTo(run_start_us_);
    if (spec_.trace_phases) {
      // Aggregate-only tracing: per-epoch phase rows on the cluster's own
      // epoch grid, no span recording (the fleet would dwarf the span cap).
      obs::TracerConfig tc;
      tc.record_spans = false;
      tc.metrics_epoch_us = spec_.epoch_us;
      tc.epoch_base_us = run_start_us_;
      tc.max_epochs = spec_.epochs;
      dev.tracer = std::make_unique<obs::Tracer>(tc);
      dev.host->AttachTracer(dev.tracer.get());
    }
    dev.epoch_read.resize(spec_.epochs);
    dev.epoch_write.resize(spec_.epochs);
  }
  if (spec_.policy == RebalancePolicy::kOnObserved) {
    health_.reserve(total);
    slo_.reserve(total);
    for (std::uint32_t d = 0; d < total; ++d) {
      health_.emplace_back(spec_.health);
      slo_.emplace_back(spec_.slo);
    }
  }
  result.epochs.resize(spec_.epochs);
}

void ClusterSim::GenerateEpoch(std::uint32_t epoch, ClusterResult& result) {
  const Us start = run_start_us_ + static_cast<Us>(epoch) * spec_.epoch_us;
  const double period_us = 1e6 / spec_.rate_iops;
  const auto count = static_cast<std::uint64_t>(
      static_cast<double>(spec_.epoch_us) / period_us);
  EpochSummary& summary = result.epochs[epoch];
  for (std::uint64_t i = 0; i < count; ++i) {
    const Us at = start + static_cast<Us>(static_cast<double>(i) * period_us);
    const std::uint64_t user = zipf_->Sample(rng_);
    const bool is_read = rng_.Bernoulli(spec_.read_fraction);
    const DeviceId target = router_->PrimaryOf(router_->ShardOfUser(user));
    ++summary.arrivals;
    if (devices_[target].fatal) {
      // A dead primary cannot serve; the request burns the SLA timeout.
      // Under "on_failure" this lasts at most one detection epoch, under
      // the "none" control it is the steady state.
      ++summary.timeouts;
      (is_read ? summary.read : summary.write)
          .Add(static_cast<Us>(spec_.timeout_us));
      if (spec_.trace_phases) {
        summary.phases.AddTimeout(is_read, static_cast<Us>(spec_.timeout_us));
      }
      continue;
    }
    devices_[target].bucket.push_back(PendingOp{
        at, kUserTenant, is_read, UserOffset(user), spec_.request_bytes});
  }
}

void ClusterSim::RunDeviceEpoch(Device& dev, std::uint32_t epoch, Us until) {
  if (dev.fatal) {
    dev.bucket.clear();
    return;
  }
  try {
    for (const PendingOp& op : dev.bucket) {
      const trace::OpType kind =
          op.is_read ? trace::OpType::kRead : trace::OpType::kWrite;
      if (op.tenant == kUserTenant) {
        if (op.is_read) {
          ++dev.submitted_reads;
        } else {
          ++dev.submitted_writes;
        }
        // Two pointers: the callback stays in std::function's small buffer.
        dev.host->SubmitAtAs(
            op.at, kUserTenant, kind, op.offset, op.bytes,
            [this, &dev](const host::HostCompletion& c) {
              const std::uint32_t e = EpochOf(c.completion_us);
              const Us lat = c.LatencyUs();
              if (c.request.op == trace::OpType::kRead) {
                dev.epoch_read[e].Add(lat);
                dev.run_read.Add(lat);
                ++dev.completed_reads;
              } else {
                dev.epoch_write[e].Add(lat);
                ++dev.completed_writes;
              }
              ++dev.completed;
            });
      } else {
        dev.host->SubmitAtAs(op.at, kRebuildTenant, kind, op.offset, op.bytes);
      }
    }
    dev.bucket.clear();
    dev.host->AdvanceTo(until);
  } catch (const std::exception&) {
    // Unrecoverable media error (e.g. spare blocks exhausted mid-GC).
    // `until - 1` keeps the tracer's charge inside THIS epoch's row (it
    // would file `until` itself under the next one).
    ChargeDeadDevice(dev, epoch, until - 1);
  }
}

void ClusterSim::ChargeDeadDevice(Device& dev, std::uint32_t epoch,
                                  Us charge_at) {
  // The device is gone.  Its in-flight user requests never complete —
  // charge them the SLA timeout in the epoch the device died.
  dev.fatal = true;
  dev.bucket.clear();
  const std::uint64_t reads = dev.submitted_reads - dev.completed_reads;
  const std::uint64_t writes = dev.submitted_writes - dev.completed_writes;
  const auto timeout = static_cast<Us>(spec_.timeout_us);
  for (std::uint64_t i = 0; i < reads; ++i) {
    dev.epoch_read[epoch].Add(timeout);
    dev.run_read.Add(timeout);
  }
  for (std::uint64_t i = 0; i < writes; ++i) {
    dev.epoch_write[epoch].Add(timeout);
  }
  dev.epoch_timeouts += reads + writes;
  dev.completed_reads = dev.submitted_reads;
  dev.completed_writes = dev.submitted_writes;
  if (dev.tracer != nullptr) {
    dev.tracer->ChargeDeadDevice(reads, writes, timeout, charge_at);
  }
}

void ClusterSim::RebalanceDevice(std::uint32_t d, std::uint32_t epoch,
                                 ClusterResult& result,
                                 campaign::Json& event) {
  const std::uint32_t spares_before = router_->SparesLeft();
  const std::vector<ShardMove> moves = router_->MarkFailed(d);
  const bool spare_adopted = router_->SparesLeft() < spares_before;
  if (spare_adopted) ++result.spares_used;
  result.shards_moved += moves.size();
  event["shards_moved"] = static_cast<std::uint64_t>(moves.size());
  event["spare_adopted"] = spare_adopted;

  // Turn each displaced shard into rebuild traffic over the next epoch:
  // chunk reads on a surviving replica, chunk writes on the new holder,
  // both as the low-weight rebuild tenant through the normal host path.
  std::uint64_t unrecoverable = 0;
  const std::uint32_t next = epoch + 1;
  if (next < spec_.epochs) {
    const Us next_start =
        run_start_us_ + static_cast<Us>(next) * spec_.epoch_us;
    const std::uint64_t shard_bytes =
        spec_.shard_bytes != 0
            ? spec_.shard_bytes
            : std::max<std::uint64_t>(prefill_bytes_ /
                                          spec_.router.num_shards,
                                      spec_.migration_chunk_bytes);
    const std::uint64_t chunk = spec_.migration_chunk_bytes;
    const std::uint64_t chunks_per_shard = (shard_bytes + chunk - 1) / chunk;
    const std::uint64_t chunk_slots =
        std::max<std::uint64_t>(1, prefill_bytes_ / chunk);
    // Pace the whole rebuild over the repair window (rebuild_epochs, or
    // everything left of the run): repair speed must not buy its
    // bandwidth out of the serving tail.
    std::uint32_t window = spec_.epochs - next;
    if (spec_.rebuild_epochs != 0) {
      window = std::min(window, spec_.rebuild_epochs);
    }
    const Us window_us = static_cast<Us>(window) * spec_.epoch_us;
    std::uint64_t total_chunks = 0;
    for (const ShardMove& move : moves) {
      if (move.source != kNoDevice && !devices_[move.source].fatal &&
          !devices_[move.to].fatal) {
        total_chunks += chunks_per_shard;
      }
    }
    std::uint64_t chunk_index = 0;
    for (const ShardMove& move : moves) {
      if (move.source == kNoDevice) {
        // No surviving replica: with replicas=1 the shard's data is gone.
        ++unrecoverable;
        continue;
      }
      if (devices_[move.source].fatal || devices_[move.to].fatal) continue;
      for (std::uint64_t c = 0; c < chunks_per_shard; ++c) {
        const Us at =
            next_start +
            static_cast<Us>((static_cast<std::uint64_t>(window_us) *
                             chunk_index) /
                            total_chunks);
        ++chunk_index;
        const std::uint64_t offset =
            (Mix64(spec_.seed ^ (static_cast<std::uint64_t>(move.shard)
                                 << 20) ^
                   c) %
             chunk_slots) *
            chunk;
        devices_[move.source].bucket.push_back(
            PendingOp{at, kRebuildTenant, true, offset, chunk});
        devices_[move.to].bucket.push_back(
            PendingOp{at, kRebuildTenant, false, offset, chunk});
        result.migration_ops += 2;
        result.migration_bytes += chunk;
      }
    }
  } else {
    // Failure detected in the final epoch: the remap still happened but
    // there is no simulated time left to carry the rebuild traffic.
    event["rebuild_deferred"] = true;
  }
  result.unrecoverable_shards += unrecoverable;
  event["unrecoverable"] = unrecoverable;
}

void ClusterSim::DirectorStep(std::uint32_t epoch, ClusterResult& result) {
  const bool observed = spec_.policy == RebalancePolicy::kOnObserved;
  for (std::uint32_t d = 0; d < devices_.size(); ++d) {
    Device& dev = devices_[d];
    result.epochs[epoch].timeouts += dev.epoch_timeouts;
    dev.epoch_timeouts = 0;

    // Observation leg: feed every live device's cumulative counters to its
    // monitors each epoch (serial phase, so byte-deterministic), and decide
    // whether the signals warrant a predictive drain.  A drained device is
    // out of service: its monitors freeze at the drain-time snapshot
    // instead of decaying back to healthy on idle windows.
    bool drain = false;
    const char* drain_cause = nullptr;
    if (observed && !dev.fatal && !dev.drained) {
      obs::HealthMonitor& health = health_[d];
      obs::SloMonitor& slo = slo_[d];
      health.Observe(
          campaign::CollectHealthSample(*dev.ssd, dev.tracer.get()));
      slo.ObserveWindow(dev.epoch_read[epoch].quantiles());
      const obs::HealthState state = health.state();
      if (state == obs::HealthState::kDegraded) {
        ++result.epochs[epoch].devices_degraded;
      } else if (state == obs::HealthState::kFailing) {
        ++result.epochs[epoch].devices_failing;
      }
      if (slo.last_window_breached()) ++result.epochs[epoch].slo_breaches;
      if (dev.router_alive) {
        if (state == obs::HealthState::kFailing) {
          drain = true;
          drain_cause = "health-failing";
        } else if (slo.alerting()) {
          drain = true;
          drain_cause = "slo-burn";
        }
      }
    }

    const std::uint64_t lost = dev.ssd->ftl().fault_stats().LostPages();
    const bool unhealthy =
        dev.fatal || lost >= spec_.fail_on_lost_pages;
    if ((!unhealthy && !drain) || !dev.router_alive) continue;
    dev.router_alive = false;

    campaign::Json event;
    event["epoch"] = static_cast<std::uint64_t>(epoch);
    event["device"] = static_cast<std::uint64_t>(d);
    if (unhealthy) {
      // Reactive leg: the device is already lost (or has lost data).
      ++result.devices_failed;
      event["cause"] = std::string(dev.fatal ? "media-fatal" : "lost-pages");
      event["lost_pages"] = lost;
    } else {
      // Predictive leg: the device is still serving — evacuate it before
      // the observed ramp kills it for real.
      ++result.devices_drained;
      dev.drained = true;
      event["cause"] = std::string(drain_cause);
      event["health_score"] = health_[d].score();
      event["slo_burn_rate"] = slo_[d].burn_rate();
    }

    if (spec_.policy == RebalancePolicy::kNone) {
      event["action"] = std::string("none");
      result.events.push_back(std::move(event));
      continue;
    }

    event["action"] = std::string(unhealthy ? "rebalanced" : "drained");
    RebalanceDevice(d, epoch, result, event);
    result.events.push_back(std::move(event));
  }
}

ClusterResult ClusterSim::Run(std::uint32_t workers_override) {
  const std::uint32_t workers =
      workers_override != 0 ? workers_override : spec_.workers;
  const auto t0 = std::chrono::steady_clock::now();

  ClusterResult result;
  result.name = spec_.name;
  result.config = spec_.ConfigSummary();
  BuildFleet(result);

  for (std::uint32_t e = 0; e < spec_.epochs; ++e) {
    GenerateEpoch(e, result);
    const Us until = run_start_us_ + static_cast<Us>(e + 1) * spec_.epoch_us;
    util::ParallelFor(devices_.size(), workers, [&](std::size_t d) {
      RunDeviceEpoch(devices_[d], e, until);
    });
    DirectorStep(e, result);
  }
  // Drain whatever is still in flight; completions land in the last epoch.
  const std::uint32_t last = spec_.epochs - 1;
  util::ParallelFor(devices_.size(), workers, [&](std::size_t d) {
    Device& dev = devices_[d];
    if (dev.fatal) return;
    try {
      dev.host->Run();
    } catch (const std::exception&) {
      ChargeDeadDevice(
          dev, last,
          run_start_us_ + static_cast<Us>(spec_.epochs) * spec_.epoch_us - 1);
    }
  });

  // Merge device-local epoch stats into the cluster view, in device order.
  for (std::uint32_t e = 0; e < spec_.epochs; ++e) {
    for (Device& dev : devices_) {
      result.epochs[e].read.Merge(dev.epoch_read[e]);
      result.epochs[e].write.Merge(dev.epoch_write[e]);
      if (dev.tracer != nullptr && e < dev.tracer->epoch_phases().size()) {
        result.epochs[e].phases.Merge(dev.tracer->epoch_phases()[e]);
      }
    }
  }
  result.has_phases = spec_.trace_phases;
  result.has_health = spec_.policy == RebalancePolicy::kOnObserved;
  for (Device& dev : devices_) {
    result.epochs[last].timeouts += dev.epoch_timeouts;
    dev.epoch_timeouts = 0;
  }
  result.devices.resize(devices_.size());
  for (std::uint32_t d = 0; d < devices_.size(); ++d) {
    Device& dev = devices_[d];
    DeviceSummary& out = result.devices[d];
    out.alive = dev.router_alive;
    out.fatal = dev.fatal;
    out.in_ring = router_->IsAlive(d) && router_->PlacementSlotsOn(d) != 0;
    out.completed = dev.completed;
    out.lost_pages = dev.ssd->ftl().fault_stats().LostPages();
    out.read = dev.run_read;
    out.primary_shards = router_->PrimaryShardsOn(d);
    if (const qos::TenantTable* tenants = dev.host->tenants()) {
      const auto& stats = tenants->StatsOf(kRebuildTenant);
      out.rebuild_reads = stats.read_dispatches;
      out.rebuild_writes = stats.write_dispatches;
    }
    out.drained = dev.drained;
    if (dev.tracer != nullptr) out.phases = dev.tracer->phases();
    if (d < health_.size()) {
      out.health = health_[d].ToJson();
      out.slo = slo_[d].ToJson();
    }
  }

  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return result;
}

std::string ClusterSim::FleetChromeTrace() const {
  std::vector<obs::FleetDeviceExport> fleet(devices_.size());
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    fleet[d].name = "device-" + std::to_string(d);
    fleet[d].tracer = devices_[d].tracer.get();
    if (d < health_.size()) {
      obs::CounterSeries health;
      health.name = "health_score";
      health.key = "permille";
      for (const double s : health_[d].score_series()) {
        health.values.push_back(
            static_cast<std::uint64_t>(s * 1000.0 + 0.5));
      }
      fleet[d].counters.push_back(std::move(health));
      obs::CounterSeries slo;
      slo.name = "slo_window_p99";
      slo.key = "us";
      for (const double q : slo_[d].quantile_series()) {
        slo.values.push_back(static_cast<std::uint64_t>(q + 0.5));
      }
      fleet[d].counters.push_back(std::move(slo));
    }
  }
  return obs::ChromeTraceJson(fleet);
}

campaign::Json ClusterResult::DeterministicJson() const {
  campaign::Json out;
  out["cluster"] = name;
  out["config"] = config;
  campaign::JsonArray epoch_list;
  for (const EpochSummary& e : epochs) {
    campaign::Json row;
    row["arrivals"] = e.arrivals;
    row["timeouts"] = e.timeouts;
    row["read"] = LatencyJson(e.read);
    row["write"] = LatencyJson(e.write);
    if (has_phases) row["phases"] = obs::PhaseStatsJson(e.phases);
    if (has_health) {
      campaign::Json health;
      health["devices_degraded"] = e.devices_degraded;
      health["devices_failing"] = e.devices_failing;
      health["slo_breaches"] = e.slo_breaches;
      row["health"] = std::move(health);
    }
    epoch_list.push_back(std::move(row));
  }
  out["epochs"] = campaign::Json(std::move(epoch_list));
  campaign::JsonArray device_list;
  for (const DeviceSummary& d : devices) {
    campaign::Json row;
    row["alive"] = d.alive;
    row["fatal"] = d.fatal;
    row["completed"] = d.completed;
    row["lost_pages"] = d.lost_pages;
    row["read"] = LatencyJson(d.read);
    row["primary_shards"] = d.primary_shards;
    row["rebuild_reads"] = d.rebuild_reads;
    row["rebuild_writes"] = d.rebuild_writes;
    if (has_phases) row["phases"] = obs::PhaseStatsJson(d.phases);
    if (has_health) {
      row["drained"] = d.drained;
      row["health"] = d.health;
      row["slo"] = d.slo;
    }
    device_list.push_back(std::move(row));
  }
  out["devices"] = campaign::Json(std::move(device_list));
  campaign::JsonArray event_list;
  for (const campaign::Json& e : events) event_list.push_back(e);
  out["events"] = campaign::Json(std::move(event_list));
  campaign::Json totals;
  totals["devices_failed"] = devices_failed;
  totals["devices_drained"] = devices_drained;
  totals["shards_moved"] = shards_moved;
  totals["spares_used"] = spares_used;
  totals["unrecoverable_shards"] = unrecoverable_shards;
  totals["migration_ops"] = migration_ops;
  totals["migration_bytes"] = migration_bytes;
  out["totals"] = totals;
  return out;
}

campaign::Json ClusterResult::Report() const {
  campaign::Json out = DeterministicJson();
  out["wall_ms"] = wall_ms;
  return out;
}

std::string ClusterResult::Csv() const {
  std::string csv =
      "cluster,epoch,arrivals,timeouts,read_count,read_p50_us,read_p99_us,"
      "write_count,write_p50_us,write_p99_us,read_paced_mean_us,"
      "read_queued_mean_us,read_media_mean_us,devices_degraded,"
      "devices_failing,slo_breaches\n";
  const auto phase_mean = [&](const util::LatencyStats& s) {
    return has_phases ? std::to_string(s.mean_us()) : std::string("0");
  };
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    const EpochSummary& row = epochs[e];
    csv += campaign::CsvField(name) + "," + std::to_string(e) + "," +
           std::to_string(row.arrivals) + "," + std::to_string(row.timeouts) +
           "," + std::to_string(row.read.count()) + "," +
           std::to_string(row.read.p50_us()) + "," +
           std::to_string(row.read.p99_us()) + "," +
           std::to_string(row.write.count()) + "," +
           std::to_string(row.write.p50_us()) + "," +
           std::to_string(row.write.p99_us()) + "," +
           phase_mean(row.phases.read.paced) + "," +
           phase_mean(row.phases.read.queued) + "," +
           phase_mean(row.phases.read.media) + "," +
           std::to_string(row.devices_degraded) + "," +
           std::to_string(row.devices_failing) + "," +
           std::to_string(row.slo_breaches) + "\n";
  }
  return csv;
}

}  // namespace ctflash::cluster
