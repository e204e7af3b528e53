#include "campaign/spec.h"

#include <limits>
#include <stdexcept>
#include <utility>

#include "util/config.h"

namespace ctflash::campaign {

std::uint64_t BytesOf(const Json& parent, const std::string& key,
                      std::uint64_t fallback) {
  const Json* v = parent.Get(key);
  if (v == nullptr || v->IsNull()) return fallback;
  if (v->IsNumber()) return v->AsUint();
  return util::ParseByteSize(v->AsString());
}

namespace {

ssd::FtlKind ParseFtlKind(const std::string& s) {
  if (s == "conventional") return ssd::FtlKind::kConventional;
  if (s == "ppb") return ssd::FtlKind::kPpb;
  throw std::runtime_error("campaign: unknown ftl kind \"" + s +
                           "\" (expected \"conventional\" or \"ppb\")");
}

ftl::GcRouting ParseGcRouting(const std::string& s) {
  if (s == "inline") return ftl::GcRouting::kInline;
  if (s == "scheduled") return ftl::GcRouting::kScheduled;
  throw std::runtime_error("campaign: unknown gc_routing \"" + s +
                           "\" (expected \"inline\" or \"scheduled\")");
}

ftl::TimingMode ParseTimingMode(const std::string& s) {
  if (s == "queued") return ftl::TimingMode::kQueued;
  if (s == "service_time") return ftl::TimingMode::kServiceTime;
  throw std::runtime_error("campaign: unknown timing_mode \"" + s +
                           "\" (expected \"queued\" or \"service_time\")");
}

ftl::StripePolicy ParseStripePolicy(const std::string& s) {
  if (s == "round_robin") return ftl::StripePolicy::kRoundRobin;
  if (s == "least_busy") return ftl::StripePolicy::kLeastBusy;
  throw std::runtime_error("campaign: unknown stripe_policy \"" + s +
                           "\" (expected \"round_robin\" or \"least_busy\")");
}

qos::QosConfig ParseQos(const Json& arm) {
  qos::QosConfig qos;
  const Json* list = arm.Get("qos");
  if (list == nullptr || list->IsNull()) return qos;
  for (const Json& t : list->AsArray()) {
    qos::TenantConfig tenant;
    tenant.name = t.GetStringOr("name", "tenant" + std::to_string(qos.tenants.size()));
    tenant.weight = t.GetUint32Or("weight", 1);
    if (const Json* queues = t.Get("queues")) {
      for (const Json& q : queues->AsArray()) {
        tenant.queues.push_back(q.AsUint32("queues"));
      }
    }
    tenant.iops_limit = t.GetDoubleOr("iops_limit", 0.0);
    tenant.iops_burst = t.GetDoubleOr("iops_burst", 0.0);
    tenant.bytes_per_sec_limit = t.GetDoubleOr("bytes_per_sec_limit", 0.0);
    tenant.bytes_burst = t.GetDoubleOr("bytes_burst", 0.0);
    tenant.min_share = t.GetDoubleOr("min_share", 0.0);
    qos.tenants.push_back(std::move(tenant));
  }
  return qos;
}

ArmSpec ResolveArm(const Json& merged, std::uint64_t index,
                   const std::string& name, std::uint64_t default_seed,
                   bool seed_overridden) {
  ArmSpec arm;
  arm.name = name;
  arm.index = index;
  arm.merged = merged;

  DeviceSectionSpec section = ResolveDeviceSection(merged);
  arm.device = std::move(section.device);
  arm.host = std::move(section.host);
  arm.prefill_pct = section.prefill_pct;
  arm.prefill_chunk_bytes = section.prefill_chunk_bytes;
  arm.seed = seed_overridden ? merged.GetUintOr("seed", default_seed)
                             : default_seed + index;

  // Per-arm fault-injection plan + handling policy (armed after restore;
  // NOT part of the snapshot shape key, unlike "error_model" above).
  if (const Json* f = merged.Get("faults"); f != nullptr && !f->IsNull()) {
    arm.inject_faults = true;
    nand::FaultPlanConfig& p = arm.fault_plan;
    p.program_fail_prob = f->GetDoubleOr("program_fail_prob", 0.0);
    p.erase_fail_prob = f->GetDoubleOr("erase_fail_prob", 0.0);
    p.read_disturb_per_read = f->GetDoubleOr("read_disturb_per_read", 0.0);
    p.retention_rber_multiplier =
        f->GetDoubleOr("retention_rber_multiplier", 1.0);
    if (const Json* dies = f->Get("fail_dies"); dies != nullptr) {
      for (const Json& d : dies->AsArray()) p.fail_dies.push_back(d.AsUint());
    }
    if (const Json* chans = f->Get("fail_channels"); chans != nullptr) {
      for (const Json& c : chans->AsArray()) {
        p.fail_channels.push_back(c.AsUint32("fail_channels"));
      }
    }
    p.fail_at_us = static_cast<Us>(f->GetUintOr("fail_at_us", 0));
    p.Validate();
    ftl::FaultHandlingConfig& h = arm.fault_handling;
    h.max_read_retries = f->GetUint32Or("max_read_retries", h.max_read_retries);
    h.retry_rber_scale = f->GetDoubleOr("retry_rber_scale", h.retry_rber_scale);
    h.max_program_retries =
        f->GetUint32Or("max_program_retries", h.max_program_retries);
    h.Validate();
    // Golden-ratio mix keeps replica arms (seed + index) on well-separated
    // fault streams even though their seeds differ by 1.
    arm.fault_seed =
        f->GetUintOr("seed", arm.seed * 0x9E3779B97F4A7C15ull + 0xFA17ull);
  }

  // Observability: phase tracing is an overlay on the measured run, not
  // device configuration — like faults it never affects the snapshot key.
  if (const Json* o = merged.Get("observability");
      o != nullptr && !o->IsNull()) {
    arm.trace_phases = o->GetBoolOr("phases", false);
    arm.metrics_epoch_us = static_cast<Us>(o->GetUintOr("metrics_epoch_us", 0));
    // "health": true enables the default thresholds; an object enables and
    // overrides them.
    if (const Json* h = o->Get("health"); h != nullptr && !h->IsNull()) {
      if (h->IsObject()) {
        arm.eval_health = true;
        arm.health = obs::HealthConfig::FromJson(*h);
      } else {
        arm.eval_health = h->AsBool();
      }
      arm.health.Validate();
    }
  }

  const Json* workload = merged.Get("workload");
  if (workload == nullptr || !workload->IsObject()) {
    throw std::runtime_error("campaign: arm \"" + name +
                             "\" has no workload object");
  }
  return arm;
}

}  // namespace

DeviceSectionSpec ResolveDeviceSection(const Json& merged) {
  DeviceSectionSpec out;

  const std::uint64_t device_bytes = BytesOf(merged, "device_bytes", 256 * kMiB);
  const std::uint64_t page_bytes = BytesOf(merged, "page_size", 16 * kKiB);
  if (page_bytes > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("campaign: page_size must be below 4 GiB, "
                                "found " + std::to_string(page_bytes) +
                                " bytes");
  }
  const auto page_size = static_cast<std::uint32_t>(page_bytes);
  const double speed_ratio = merged.GetDoubleOr("speed_ratio", 2.0);
  const auto channels = merged.GetUint32Or("channels", 0);
  // Shorter blocks shrink the GC/retirement granularity without touching
  // per-page program cost — wear scenarios use this to make small scaled
  // devices churn like big ones.
  const auto pages_per_block = merged.GetUint32Or("pages_per_block", 0);

  nand::NandGeometry base_shape;  // defaults = the paper's Table 1 shape
  if (channels != 0) base_shape.channels = channels;
  if (pages_per_block != 0) {
    base_shape.pages_per_block = pages_per_block;
    // Every gate-stack layer must hold at least one page.
    if (base_shape.num_layers > pages_per_block) {
      base_shape.num_layers = pages_per_block;
    }
  }
  const ssd::FtlKind kind = ParseFtlKind(merged.GetStringOr("ftl", "conventional"));
  out.device = ssd::ScaledConfig(kind, device_bytes, page_size, speed_ratio,
                                 base_shape);
  out.device.timing_mode =
      ParseTimingMode(merged.GetStringOr("timing_mode", "queued"));
  out.device.ftl.gc_routing =
      ParseGcRouting(merged.GetStringOr("gc_routing", "inline"));
  out.device.ftl.write_frontiers = merged.GetUint32Or("write_frontiers", 1);
  out.device.ftl.stripe_policy =
      ParseStripePolicy(merged.GetStringOr("stripe_policy", "round_robin"));
  if (const Json* ppb = merged.Get("ppb")) {
    out.device.ppb.vb_split =
        ppb->GetUint32Or("vb_split", out.device.ppb.vb_split);
    out.device.ppb.max_open_fast_vbs =
        ppb->GetUint32Or("max_open_fast_vbs", out.device.ppb.max_open_fast_vbs);
    out.device.ppb.migrate_on_update =
        ppb->GetBoolOr("migrate_on_update", out.device.ppb.migrate_on_update);
    out.device.ppb.migrate_on_gc =
        ppb->GetBoolOr("migrate_on_gc", out.device.ppb.migrate_on_gc);
  }
  out.device.Validate();

  if (const Json* h = merged.Get("host")) {
    out.host.num_queues = h->GetUint32Or("num_queues", out.host.num_queues);
    out.host.queue_capacity =
        h->GetUint32Or("queue_capacity", out.host.queue_capacity);
    out.host.device_slots =
        h->GetUint32Or("device_slots", out.host.device_slots);
    out.host.gc_aging_limit =
        h->GetUint32Or("gc_aging_limit", out.host.gc_aging_limit);
    out.host.write_aging_limit =
        h->GetUint32Or("write_aging_limit", out.host.write_aging_limit);
  }
  out.host.qos = ParseQos(merged);
  out.host.Validate();

  const std::uint64_t prefill_pct = merged.GetUintOr("prefill_pct", 85);
  if (prefill_pct > 100) {
    throw std::runtime_error("campaign: prefill_pct must be <= 100, got " +
                             std::to_string(prefill_pct));
  }
  out.prefill_pct = static_cast<std::uint32_t>(prefill_pct);
  out.prefill_chunk_bytes = BytesOf(merged, "prefill_chunk", 256 * kKiB);

  // "error_model" arms the synthetic layer error model on the device
  // (device configuration: part of the snapshot shape key).
  if (const Json* em = merged.Get("error_model"); em != nullptr && !em->IsNull()) {
    out.device.model_read_errors = true;
    nand::ErrorModelConfig& m = out.device.error_model;
    m.base_rber = em->GetDoubleOr("base_rber", m.base_rber);
    m.layer_skew = em->GetDoubleOr("layer_skew", m.layer_skew);
    m.pe_scale = em->GetDoubleOr("pe_scale", m.pe_scale);
    m.codeword_bytes = em->GetUint32Or("codeword_bytes", m.codeword_bytes);
    m.correctable_bits_per_codeword =
        em->GetUint32Or("correctable_bits_per_codeword",
                        m.correctable_bits_per_codeword);
    m.Validate();
    out.device.error_model_seed =
        em->GetUintOr("seed", out.device.error_model_seed);
  }
  return out;
}

Json ArmSpec::ConfigSummary() const {
  Json summary;
  summary["name"] = name;
  summary["ftl"] = merged.GetStringOr("ftl", "conventional");
  summary["gc_routing"] = merged.GetStringOr("gc_routing", "inline");
  summary["timing_mode"] = merged.GetStringOr("timing_mode", "queued");
  summary["device_bytes"] = BytesOf(merged, "device_bytes", 256 * kMiB);
  summary["page_size"] = BytesOf(merged, "page_size", 16 * kKiB);
  summary["write_frontiers"] = merged.GetUintOr("write_frontiers", 1);
  summary["seed"] = seed;
  if (const Json* w = merged.Get("workload")) {
    summary["workload"] = *w;
  }
  if (const Json* em = merged.Get("error_model"); em != nullptr && !em->IsNull()) {
    summary["error_model"] = *em;
  }
  if (const Json* f = merged.Get("faults"); f != nullptr && !f->IsNull()) {
    summary["faults"] = *f;
    // As a string: the derived seed is a full 64-bit mix, beyond the 2^53
    // integers Json numbers (doubles) represent exactly.
    summary["fault_seed"] = std::to_string(fault_seed);
  }
  if (const Json* o = merged.Get("observability");
      o != nullptr && !o->IsNull()) {
    summary["observability"] = *o;
  }
  return summary;
}

Json MergePatch(const Json& base, const Json& patch) {
  if (!patch.IsObject() || !base.IsObject()) return patch;
  Json out = base;
  for (const auto& [key, value] : patch.AsObject()) {
    if (value.IsNull()) {
      out.AsObject().erase(key);
    } else if (const Json* existing = out.Get(key)) {
      Json merged = MergePatch(*existing, value);
      out.AsObject()[key] = std::move(merged);
    } else {
      out.AsObject()[key] = value;
    }
  }
  return out;
}

void SetJsonPath(Json& root, const std::string& path, const Json& value) {
  Json* node = &root;
  std::size_t start = 0;
  while (true) {
    const std::size_t dot = path.find('.', start);
    const std::string part = path.substr(start, dot - start);
    if (part.empty()) {
      throw std::runtime_error("campaign: empty segment in path \"" + path + "\"");
    }
    if (dot == std::string::npos) {
      (*node)[part] = value;
      return;
    }
    node = &(*node)[part];
    start = dot + 1;
  }
}

std::string JsonValueLabel(const Json& value) {
  if (value.IsString()) return value.AsString();
  return value.Dump();
}

CampaignSpec CampaignSpec::Parse(const std::string& json_text) {
  return Parse(Json::Parse(json_text));
}

CampaignSpec CampaignSpec::Parse(const Json& root) {
  if (!root.IsObject()) {
    throw std::runtime_error("campaign: spec must be a JSON object");
  }
  CampaignSpec spec;
  spec.name = root.GetStringOr("campaign", "campaign");
  spec.workers = root.GetUint32Or("workers", 1);
  if (spec.workers == 0) {
    throw std::runtime_error("campaign: workers must be >= 1");
  }
  spec.share_prefill = root.GetBoolOr("share_prefill", true);

  Json defaults;
  if (const Json* d = root.Get("defaults")) {
    if (!d->IsObject()) {
      throw std::runtime_error("campaign: defaults must be an object");
    }
    defaults = *d;
  } else {
    defaults = Json(JsonObject{});
  }
  const std::uint64_t default_seed = defaults.GetUintOr("seed", 1);

  // Expand the grid into (path, value) assignment lists, cartesian product
  // in sorted-key odometer order (first key varies slowest).
  struct Axis {
    std::string path;
    JsonArray values;
  };
  std::vector<Axis> axes;
  if (const Json* grid = root.Get("grid")) {
    for (const auto& [path, values] : grid->AsObject()) {
      if (!values.IsArray() || values.AsArray().empty()) {
        throw std::runtime_error("campaign: grid axis \"" + path +
                                 "\" must be a non-empty array");
      }
      axes.push_back(Axis{path, values.AsArray()});
    }
  }

  std::vector<Json> explicit_arms;
  if (const Json* arms = root.Get("arms")) {
    for (const Json& a : arms->AsArray()) {
      if (!a.IsObject()) {
        throw std::runtime_error("campaign: every arms[] entry must be an object");
      }
      explicit_arms.push_back(a);
    }
  }
  if (explicit_arms.empty()) explicit_arms.emplace_back(JsonObject{});

  std::vector<std::size_t> odometer(axes.size(), 0);
  std::uint64_t index = 0;
  while (true) {
    // One grid combination: apply the axis assignments over the defaults.
    Json grid_patch = Json(JsonObject{});
    std::string grid_label;
    for (std::size_t i = 0; i < axes.size(); ++i) {
      SetJsonPath(grid_patch, axes[i].path, axes[i].values[odometer[i]]);
      if (!grid_label.empty()) grid_label += ",";
      grid_label += axes[i].path + "=" + JsonValueLabel(axes[i].values[odometer[i]]);
    }
    for (const Json& arm_patch : explicit_arms) {
      Json merged = MergePatch(defaults, grid_patch);
      merged = MergePatch(merged, arm_patch);
      std::string name = arm_patch.GetStringOr("name", "");
      if (!name.empty() && !grid_label.empty()) {
        name += ":" + grid_label;
      } else if (name.empty()) {
        name = grid_label.empty() ? "arm" + std::to_string(index) : grid_label;
      }
      // A seed set anywhere in the overrides pins the arm; otherwise arms
      // decorrelate via defaults.seed + index.
      const bool seed_overridden =
          grid_patch.Get("seed") != nullptr || arm_patch.Get("seed") != nullptr;
      spec.arms.push_back(
          ResolveArm(merged, index, name, default_seed, seed_overridden));
      ++index;
    }
    // Advance the odometer (last axis fastest).
    std::size_t pos = axes.size();
    while (pos > 0) {
      --pos;
      if (++odometer[pos] < axes[pos].values.size()) break;
      odometer[pos] = 0;
      if (pos == 0) return spec;
    }
    if (axes.empty()) return spec;
  }
}

}  // namespace ctflash::campaign
