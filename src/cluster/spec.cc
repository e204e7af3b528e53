#include "cluster/spec.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ctflash::cluster {

namespace {

RebalancePolicy ParsePolicy(const std::string& s) {
  if (s == "on_failure") return RebalancePolicy::kOnFailure;
  if (s == "none") return RebalancePolicy::kNone;
  if (s == "on_observed") return RebalancePolicy::kOnObserved;
  throw std::runtime_error(
      "cluster: unknown rebalance policy \"" + s +
      "\" (expected \"on_failure\", \"on_observed\" or \"none\")");
}

/// The fleet-wide two-tenant QoS table: user traffic on all but the last
/// queue, rebuild traffic alone on the last so migration never starves
/// serving I/O of submission slots.
qos::QosConfig DefaultQos(std::uint32_t num_queues, std::uint32_t user_weight,
                          std::uint32_t rebuild_weight) {
  if (num_queues < 2) {
    throw std::runtime_error(
        "cluster: device host.num_queues must be >= 2 (user + rebuild "
        "tenants need disjoint queues)");
  }
  qos::QosConfig qos;
  qos::TenantConfig users;
  users.name = "users";
  users.weight = user_weight;
  for (std::uint32_t q = 0; q + 1 < num_queues; ++q) users.queues.push_back(q);
  qos::TenantConfig rebuild;
  rebuild.name = "rebuild";
  rebuild.weight = rebuild_weight;
  rebuild.queues.push_back(num_queues - 1);
  qos.tenants.push_back(std::move(users));
  qos.tenants.push_back(std::move(rebuild));
  return qos;
}

}  // namespace

const char* RebalancePolicyName(RebalancePolicy policy) {
  switch (policy) {
    case RebalancePolicy::kOnFailure:
      return "on_failure";
    case RebalancePolicy::kNone:
      return "none";
    case RebalancePolicy::kOnObserved:
      return "on_observed";
  }
  return "?";
}

ClusterSpec ClusterSpec::Parse(const std::string& json_text) {
  return Parse(Json::Parse(json_text));
}

ClusterSpec ClusterSpec::Parse(const Json& root) {
  if (!root.IsObject()) {
    throw std::runtime_error("cluster: spec must be a JSON object");
  }
  ClusterSpec spec;
  spec.name = root.GetStringOr("cluster", "cluster");
  spec.workers = root.GetUint32Or("workers", 1);
  spec.seed = root.GetUintOr("seed", 1);

  if (const Json* fleet = root.Get("fleet"); fleet != nullptr) {
    spec.router.num_devices = fleet->GetUint32Or("devices", 8);
    spec.router.spare_devices = fleet->GetUint32Or("spares", 0);
  }
  if (const Json* r = root.Get("router"); r != nullptr) {
    spec.router.num_shards = r->GetUint32Or("shards", 256);
    spec.router.replicas = r->GetUint32Or("replicas", 2);
    spec.router.vnodes = r->GetUint32Or("vnodes", 64);
    spec.router.seed = r->GetUintOr("seed", spec.seed);
  } else {
    spec.router.seed = spec.seed;
  }

  // Device template (campaign-style section shared by the whole fleet).
  spec.device_json = Json(campaign::JsonObject{});
  if (const Json* d = root.Get("device"); d != nullptr && !d->IsNull()) {
    if (!d->IsObject()) {
      throw std::runtime_error("cluster: device must be an object");
    }
    spec.device_json = *d;
  }
  spec.device = campaign::ResolveDeviceSection(spec.device_json);

  std::uint32_t user_weight = 8;
  std::uint32_t rebuild_weight = 1;
  if (const Json* q = root.Get("qos"); q != nullptr) {
    user_weight = q->GetUint32Or("user_weight", 8);
    rebuild_weight = q->GetUint32Or("rebuild_weight", 1);
  }
  spec.user_weight = user_weight;
  spec.rebuild_weight = rebuild_weight;
  // A qos list inside the device template wins; otherwise install the
  // standard users/rebuild split.
  if (spec.device.host.qos.tenants.empty()) {
    spec.device.host.qos =
        DefaultQos(spec.device.host.num_queues, user_weight, rebuild_weight);
    spec.device.host.Validate();
  } else if (spec.device.host.qos.tenants.size() < 2) {
    throw std::runtime_error(
        "cluster: a device-template qos list needs >= 2 tenants "
        "(user + rebuild)");
  }

  if (const Json* u = root.Get("users"); u != nullptr) {
    spec.user_count = u->GetUint32Or("count", 1'000'000);
    spec.zipf_theta = u->GetDoubleOr("zipf_theta", 0.9);
  }
  if (const Json* w = root.Get("workload"); w != nullptr) {
    spec.rate_iops = w->GetDoubleOr("rate_iops", 20'000.0);
    spec.read_fraction = w->GetDoubleOr("read_fraction", 0.9);
    spec.request_bytes = campaign::BytesOf(*w, "request_bytes", 16 * kKiB);
    spec.epochs = w->GetUint32Or("epochs", 6);
    spec.epoch_us = static_cast<Us>(w->GetUintOr("epoch_us", 250'000));
    spec.timeout_us = static_cast<Us>(w->GetUintOr("timeout_us", 1'000'000));
  }
  if (const Json* r = root.Get("rebalance"); r != nullptr) {
    spec.policy = ParsePolicy(r->GetStringOr("policy", "on_failure"));
    spec.fail_on_lost_pages = r->GetUintOr("fail_on_lost_pages", 1);
    spec.migration_chunk_bytes =
        campaign::BytesOf(*r, "migration_chunk", 64 * kKiB);
    spec.rebuild_epochs = r->GetUint32Or("rebuild_epochs", 0);
    spec.rebuild_bytes_per_sec = r->GetDoubleOr("rebuild_bytes_per_sec", 0.0);
    if (spec.rebuild_bytes_per_sec < 0.0) {
      throw std::runtime_error(
          "cluster: rebalance.rebuild_bytes_per_sec must be >= 0");
    }
    if (spec.rebuild_bytes_per_sec > 0.0) {
      spec.device.host.qos.tenants[kRebuildTenant].bytes_per_sec_limit =
          spec.rebuild_bytes_per_sec;
    }
    if (const Json* sb = r->Get("shard_bytes");
        sb != nullptr && !(sb->IsString() && sb->AsString() == "auto")) {
      spec.shard_bytes = campaign::BytesOf(*r, "shard_bytes", 0);
    }
    if (const Json* h = r->Get("health"); h != nullptr && !h->IsNull()) {
      spec.health = obs::HealthConfig::FromJson(*h);
    }
    if (const Json* s = r->Get("slo"); s != nullptr && !s->IsNull()) {
      spec.slo.target_us =
          static_cast<Us>(s->GetUintOr("read_p99_target_us", 0));
      spec.slo.quantile = s->GetDoubleOr("quantile", spec.slo.quantile);
      spec.slo.min_samples =
          s->GetUintOr("min_samples", spec.slo.min_samples);
      spec.slo.burn_windows =
          s->GetUint32Or("burn_windows", spec.slo.burn_windows);
      spec.slo.burn_threshold =
          s->GetDoubleOr("burn_threshold", spec.slo.burn_threshold);
    }
  }
  if (const Json* o = root.Get("observability");
      o != nullptr && !o->IsNull()) {
    spec.trace_phases = o->GetBoolOr("phases", false);
  }
  // The observed policy reads the tracer's die-busy-gc attribution; the
  // per-epoch phase rows come along for free.
  if (spec.policy == RebalancePolicy::kOnObserved) spec.trace_phases = true;
  if (const Json* faults = root.Get("faults"); faults != nullptr &&
                                               !faults->IsNull()) {
    for (const Json& f : faults->AsArray()) {
      DeviceFaultSpec fault;
      fault.device = f.GetUint32Or("device", 0);
      fault.kind = f.GetStringOr("kind", "channel");
      fault.at_us = static_cast<Us>(f.GetUintOr("at_us", 0));
      if (fault.kind == "wear") {
        fault.program_fail_prob = f.GetDoubleOr("program_fail_prob", 0.0);
        fault.erase_fail_prob = f.GetDoubleOr("erase_fail_prob", 0.0);
        fault.read_disturb_per_read =
            f.GetDoubleOr("read_disturb_per_read", 0.0);
        fault.retention_rber_multiplier =
            f.GetDoubleOr("retention_rber_multiplier", 1.0);
        if (fault.program_fail_prob == 0.0 && fault.erase_fail_prob == 0.0 &&
            fault.read_disturb_per_read == 0.0 &&
            fault.retention_rber_multiplier <= 1.0) {
          throw std::runtime_error(
              "cluster: a wear fault needs at least one ramp knob "
              "(program_fail_prob / erase_fail_prob / "
              "read_disturb_per_read / retention_rber_multiplier)");
        }
      } else if (fault.kind != "die" && fault.kind != "channel" &&
                 fault.kind != "device") {
        throw std::runtime_error("cluster: unknown fault kind \"" +
                                 fault.kind +
                                 "\" (expected die/channel/device/wear)");
      }
      spec.faults.push_back(std::move(fault));
    }
  }
  spec.Validate();
  return spec;
}

void ClusterSpec::Validate() const {
  router.Validate();
  if (workers == 0) throw std::runtime_error("cluster: workers must be >= 1");
  if (user_count == 0) {
    throw std::runtime_error("cluster: users.count must be >= 1");
  }
  if (zipf_theta < 0.0) {
    throw std::runtime_error("cluster: users.zipf_theta must be >= 0");
  }
  if (rate_iops <= 0.0) {
    throw std::runtime_error("cluster: workload.rate_iops must be > 0");
  }
  if (read_fraction < 0.0 || read_fraction > 1.0) {
    throw std::runtime_error(
        "cluster: workload.read_fraction must be in [0, 1]");
  }
  if (request_bytes == 0) {
    throw std::runtime_error("cluster: workload.request_bytes must be > 0");
  }
  if (epochs == 0) throw std::runtime_error("cluster: epochs must be >= 1");
  if (epoch_us <= 0) throw std::runtime_error("cluster: epoch_us must be > 0");
  if (timeout_us <= 0) {
    throw std::runtime_error("cluster: timeout_us must be > 0");
  }
  health.Validate();
  slo.Validate();
  for (const DeviceFaultSpec& f : faults) {
    if (f.device >= router.TotalDevices()) {
      throw std::runtime_error("cluster: fault device " +
                               std::to_string(f.device) +
                               " outside the fleet");
    }
  }
}

nand::FaultPlanConfig ClusterSpec::FaultPlanFor(DeviceId device,
                                                Us run_start_us) const {
  nand::FaultPlanConfig plan;
  bool any = false;
  for (const DeviceFaultSpec& f : faults) {
    if (f.device != device) continue;
    if (f.kind == "wear") {
      // A progressive ramp, active from the run's start (at_us is the
      // hard-loss schedule and does not apply here).
      plan.program_fail_prob =
          std::max(plan.program_fail_prob, f.program_fail_prob);
      plan.erase_fail_prob = std::max(plan.erase_fail_prob, f.erase_fail_prob);
      plan.read_disturb_per_read =
          std::max(plan.read_disturb_per_read, f.read_disturb_per_read);
      plan.retention_rber_multiplier = std::max(
          plan.retention_rber_multiplier, f.retention_rber_multiplier);
      continue;
    }
    if (f.kind == "die") {
      plan.fail_dies.push_back(0);
    } else if (f.kind == "channel") {
      plan.fail_channels.push_back(0);
    } else {  // "device": every channel goes dark
      for (std::uint32_t c = 0; c < this->device.device.geometry.channels;
           ++c) {
        plan.fail_channels.push_back(c);
      }
    }
    // One schedule per injector: overlapping faults hit at the earliest.
    const Us at = run_start_us + f.at_us;
    plan.fail_at_us = any ? std::min(plan.fail_at_us, at) : at;
    any = true;
  }
  if (plan.Armed()) plan.Validate();
  return plan;
}

Json ClusterSpec::ConfigSummary() const {
  Json summary;
  summary["cluster"] = name;
  summary["devices"] = static_cast<std::uint64_t>(router.num_devices);
  summary["spares"] = static_cast<std::uint64_t>(router.spare_devices);
  summary["shards"] = static_cast<std::uint64_t>(router.num_shards);
  summary["replicas"] = static_cast<std::uint64_t>(router.replicas);
  summary["vnodes"] = static_cast<std::uint64_t>(router.vnodes);
  summary["seed"] = seed;
  summary["users"] = user_count;
  summary["zipf_theta"] = zipf_theta;
  summary["rate_iops"] = rate_iops;
  summary["read_fraction"] = read_fraction;
  summary["request_bytes"] = request_bytes;
  summary["epochs"] = static_cast<std::uint64_t>(epochs);
  summary["epoch_us"] = static_cast<std::uint64_t>(epoch_us);
  summary["timeout_us"] = static_cast<std::uint64_t>(timeout_us);
  summary["policy"] = std::string(RebalancePolicyName(policy));
  if (policy == RebalancePolicy::kOnObserved) {
    summary["health"] = health.ToJson();
    if (slo.enabled()) {
      Json s;
      s["read_p99_target_us"] = static_cast<std::uint64_t>(slo.target_us);
      s["quantile"] = slo.quantile;
      s["min_samples"] = slo.min_samples;
      s["burn_windows"] = static_cast<std::uint64_t>(slo.burn_windows);
      s["burn_threshold"] = slo.burn_threshold;
      summary["slo"] = std::move(s);
    }
  }
  summary["user_weight"] = static_cast<std::uint64_t>(user_weight);
  summary["rebuild_weight"] = static_cast<std::uint64_t>(rebuild_weight);
  summary["device"] = device_json;
  if (trace_phases) summary["trace_phases"] = true;
  if (!faults.empty()) {
    campaign::JsonArray list;
    for (const DeviceFaultSpec& f : faults) {
      Json entry;
      entry["device"] = static_cast<std::uint64_t>(f.device);
      entry["kind"] = f.kind;
      entry["at_us"] = static_cast<std::uint64_t>(f.at_us);
      if (f.kind == "wear") {
        if (f.program_fail_prob > 0.0) {
          entry["program_fail_prob"] = f.program_fail_prob;
        }
        if (f.erase_fail_prob > 0.0) {
          entry["erase_fail_prob"] = f.erase_fail_prob;
        }
        if (f.read_disturb_per_read > 0.0) {
          entry["read_disturb_per_read"] = f.read_disturb_per_read;
        }
        if (f.retention_rber_multiplier > 1.0) {
          entry["retention_rber_multiplier"] = f.retention_rber_multiplier;
        }
      }
      list.push_back(std::move(entry));
    }
    summary["faults"] = Json(std::move(list));
  }
  return summary;
}

}  // namespace ctflash::cluster
