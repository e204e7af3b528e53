#include "replay/replay_plan.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace ctflash::replay {

const char* RemapPolicyName(RemapPolicy policy) {
  switch (policy) {
    case RemapPolicy::kNone: return "none";
    case RemapPolicy::kWrap: return "wrap";
    case RemapPolicy::kLinearScale: return "linear-scale";
    case RemapPolicy::kHashScatter: return "hash-scatter";
  }
  return "?";
}

void RemapConfig::Validate() const {
  if (policy == RemapPolicy::kNone) return;
  if (alignment_bytes == 0) {
    throw std::invalid_argument("RemapConfig: alignment_bytes must be > 0");
  }
  if (footprint_bytes < alignment_bytes) {
    throw std::invalid_argument(
        "RemapConfig: footprint_bytes must hold at least one alignment unit");
  }
}

namespace {
/// splitmix64 finalizer: a full-avalanche 64-bit mix, the same primitive
/// util::Xoshiro256StarStar seeds from.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}
}  // namespace

bool RemapRecord(const RemapConfig& config, trace::TraceRecord& record) {
  if (config.policy == RemapPolicy::kNone) return record.size_bytes > 0;
  const std::uint64_t align = config.alignment_bytes;
  const std::uint64_t units = config.footprint_bytes / align;
  const std::uint64_t unit = record.offset_bytes / align;
  const std::uint64_t intra = record.offset_bytes % align;

  std::uint64_t new_unit = 0;
  switch (config.policy) {
    case RemapPolicy::kWrap:
      new_unit = unit % units;
      break;
    case RemapPolicy::kLinearScale: {
      if (config.source_span_bytes == 0) {
        throw std::invalid_argument(
            "RemapRecord: kLinearScale needs source_span_bytes (profile the "
            "trace or set it explicitly)");
      }
      // Scale in the unit domain with a double (spans can overflow the
      // 64-bit product); clamp into range for offsets at/past the span.
      const std::uint64_t source_units =
          (config.source_span_bytes + align - 1) / align;
      const double scaled = static_cast<double>(unit) *
                            static_cast<double>(units) /
                            static_cast<double>(source_units);
      new_unit = static_cast<std::uint64_t>(scaled);
      if (new_unit >= units) new_unit %= units;
      break;
    }
    case RemapPolicy::kHashScatter:
      new_unit = Mix64(unit ^ config.hash_seed) % units;
      break;
    case RemapPolicy::kNone:
      break;  // unreachable
  }

  record.offset_bytes = config.base_bytes + new_unit * align + intra;
  // Footprint clipping: the request must end inside [base, base+footprint).
  const std::uint64_t end = config.base_bytes + config.footprint_bytes;
  if (record.offset_bytes >= end) return false;
  if (record.offset_bytes + record.size_bytes > end) {
    record.size_bytes = end - record.offset_bytes;
  }
  return record.size_bytes > 0;
}

void TimeWarpConfig::Validate() const {
  // An infinite acceleration warps every timestamp to 0 and a NaN one to
  // INT64_MIN; both must be refused here, not discovered mid-replay.
  if (!std::isfinite(acceleration) || acceleration <= 0.0) {
    throw std::invalid_argument(
        "TimeWarpConfig: acceleration must be finite and > 0");
  }
  if (!std::isfinite(target_iops) || target_iops < 0.0) {
    throw std::invalid_argument(
        "TimeWarpConfig: target_iops must be finite and >= 0");
  }
  if (start_offset_us < 0) {
    throw std::invalid_argument("TimeWarpConfig: start_offset_us must be >= 0");
  }
}

void TimeWarpConfig::ResolveRateTarget(std::uint64_t records, Us duration_us) {
  Validate();
  if (target_iops == 0.0) return;
  if (records == 0) {
    throw std::invalid_argument("ResolveRateTarget: empty source");
  }
  // A zero-duration source (all arrivals at t=0) is already infinitely
  // fast; leave it unwarped.
  double resolved = 1.0;
  if (duration_us > 0) {
    const double native_iops = static_cast<double>(records) * 1e6 /
                               static_cast<double>(duration_us);
    resolved = target_iops / native_iops;
  }
  // A rate ratio that overflows or underflows must not reach Warp().
  if (!std::isfinite(resolved) || resolved <= 0.0) {
    throw std::invalid_argument(
        "ResolveRateTarget: target_iops resolves to an infinite or zero "
        "acceleration");
  }
  acceleration = resolved;
  target_iops = 0.0;  // resolved
}

Us TimeWarpConfig::Warp(Us ts) const {
  // A tiny finite acceleration (campaign time_scale 1e8 on a week-long
  // trace) puts the quotient past INT64_MAX, where llround's result is
  // unspecified; check it, and the offset addition, before either happens.
  // Doubles this large are integers, so rounding cannot leave the range.
  constexpr double kLimit = 9223372036854775808.0;  // 2^63
  const double warped = static_cast<double>(ts) / acceleration;
  if (!(warped > -kLimit && warped < kLimit)) {
    throw std::out_of_range("TimeWarpConfig: timestamp " + std::to_string(ts) +
                            " us warped by acceleration " +
                            std::to_string(acceleration) +
                            " does not fit the simulated clock");
  }
  const Us rounded = static_cast<Us>(std::llround(warped));
  using Limits = std::numeric_limits<Us>;
  if (start_offset_us >= 0 ? rounded > Limits::max() - start_offset_us
                           : rounded < Limits::min() - start_offset_us) {
    throw std::out_of_range("TimeWarpConfig: timestamp " + std::to_string(ts) +
                            " us warped and offset by " +
                            std::to_string(start_offset_us) +
                            " us does not fit the simulated clock");
  }
  return start_offset_us + rounded;
}

bool FilterConfig::Accepts(const trace::TraceRecord& record) const {
  if (record.op == trace::OpType::kRead ? !keep_reads : !keep_writes) {
    return false;
  }
  if (record.size_bytes < min_size_bytes ||
      record.size_bytes > max_size_bytes) {
    return false;
  }
  if (record.offset_bytes + record.size_bytes <= offset_lo_bytes ||
      record.offset_bytes >= offset_hi_bytes) {
    return false;
  }
  if (max_time_us > 0 && record.timestamp_us > max_time_us) return false;
  return true;
}

std::uint32_t ReplayPlan::AddSource(std::unique_ptr<TraceSource> source,
                                    const SourceOptions& options) {
  if (source == nullptr) {
    throw std::invalid_argument("ReplayPlan: null source");
  }
  options.remap.Validate();
  options.warp.Validate();
  PlanSource src;
  src.source = std::move(source);
  src.options = options;
  if (src.options.name.empty()) {
    src.options.name = "source" + std::to_string(sources_.size());
  }
  src.counters.name = src.options.name;
  sources_.push_back(std::move(src));
  return static_cast<std::uint32_t>(sources_.size() - 1);
}

void ReplayPlan::Advance(PlanSource& src, std::uint32_t index) {
  src.head.reset();
  auto& counters = src.counters;
  const auto& opt = src.options;
  while (true) {
    if (opt.filter.max_records > 0 &&
        counters.emitted >= opt.filter.max_records) {
      return;
    }
    auto record = src.source->Next();
    if (!record) return;
    counters.pulled++;
    if (!opt.filter.Accepts(*record)) {
      counters.filtered++;
      continue;
    }
    trace::TraceRecord r = *record;
    if (!RemapRecord(opt.remap, r)) {
      counters.clipped++;
      continue;
    }
    if (opt.warp.target_iops > 0.0) {
      throw std::logic_error(
          "ReplayPlan: unresolved rate-targeted warp on " + opt.name +
          " (call TimeWarpConfig::ResolveRateTarget first)");
    }
    try {
      r.timestamp_us = opt.warp.Warp(r.timestamp_us);
    } catch (const std::out_of_range& e) {
      throw std::out_of_range("ReplayPlan: source " + opt.name + ": " +
                              e.what());
    }
    counters.emitted++;
    src.head = TaggedRecord{r, opt.tenant, index};
    return;
  }
}

std::optional<TaggedRecord> ReplayPlan::Next() {
  // Prime lazily so warp configs can be resolved between AddSource and the
  // first pull.
  for (std::uint32_t i = 0; i < sources_.size(); ++i) {
    if (!sources_[i].primed) {
      Advance(sources_[i], i);
      sources_[i].primed = true;
    }
  }
  // K is small (tenants); a linear scan beats a heap and keeps the
  // tie-break (lowest source index) explicit.
  PlanSource* best = nullptr;
  std::uint32_t best_index = 0;
  for (std::uint32_t i = 0; i < sources_.size(); ++i) {
    PlanSource& src = sources_[i];
    if (!src.head) continue;
    if (best == nullptr ||
        src.head->record.timestamp_us < best->head->record.timestamp_us) {
      best = &src;
      best_index = i;
    }
  }
  if (best == nullptr) return std::nullopt;
  const TaggedRecord out = *best->head;
  Advance(*best, best_index);
  return out;
}

void ReplayPlan::Reset() {
  for (auto& src : sources_) {
    src.source->Reset();
    src.counters = SourceCounters{};
    src.counters.name = src.options.name;
    src.head.reset();
    src.primed = false;
  }
}

}  // namespace ctflash::replay
