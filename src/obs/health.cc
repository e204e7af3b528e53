#include "obs/health.h"

#include <algorithm>
#include <stdexcept>

namespace ctflash::obs {

namespace {

/// Signals may exceed their failing threshold (score > 1) so the EWMA can
/// actually cross 1.0 under a sustained ramp — an EWMA of values capped AT
/// 1 converges to 1 from below and never reaches it.  The cap bounds how
/// hard one wild window can yank the smoothed score.
constexpr double kSignalCap = 4.0;

/// Value scaled so that hitting `fail_at` scores 1.0; capped at kSignalCap.
double Normalized(double value, double fail_at) {
  if (fail_at <= 0.0) return 0.0;
  return std::min(kSignalCap, std::max(0.0, value / fail_at));
}

}  // namespace

void HealthConfig::Validate() const {
  if (ewma_alpha <= 0.0 || ewma_alpha > 1.0) {
    throw std::runtime_error("health: ewma_alpha must be in (0, 1]");
  }
  if (degraded_frac <= 0.0 || degraded_frac >= 1.0) {
    throw std::runtime_error("health: degraded_frac must be in (0, 1)");
  }
  if (spare_fail_frac <= 0.0 || spare_fail_frac > 1.0) {
    throw std::runtime_error("health: spare_fail_frac must be in (0, 1]");
  }
  if (wear_fail_frac <= 0.0 || wear_fail_frac > 1.0) {
    throw std::runtime_error("health: wear_fail_frac must be in (0, 1]");
  }
  if (retry_fail_rate <= 0.0 || retry_fail_rate > 1.0) {
    throw std::runtime_error("health: retry_fail_rate must be in (0, 1]");
  }
  if (program_fail_rate <= 0.0 || program_fail_rate > 1.0) {
    throw std::runtime_error("health: program_fail_rate must be in (0, 1]");
  }
  if (gc_stall_fail_share <= 0.0 || gc_stall_fail_share > 1.0) {
    throw std::runtime_error("health: gc_stall_fail_share must be in (0, 1]");
  }
}

HealthConfig HealthConfig::FromJson(const campaign::Json& json) {
  HealthConfig c;
  c.ewma_alpha = json.GetDoubleOr("ewma_alpha", c.ewma_alpha);
  c.degraded_frac = json.GetDoubleOr("degraded_frac", c.degraded_frac);
  c.spare_fail_frac = json.GetDoubleOr("spare_fail_frac", c.spare_fail_frac);
  c.wear_fail_frac = json.GetDoubleOr("wear_fail_frac", c.wear_fail_frac);
  c.retry_fail_rate = json.GetDoubleOr("retry_fail_rate", c.retry_fail_rate);
  c.program_fail_rate =
      json.GetDoubleOr("program_fail_rate", c.program_fail_rate);
  c.gc_stall_fail_share =
      json.GetDoubleOr("gc_stall_fail_share", c.gc_stall_fail_share);
  return c;
}

campaign::Json HealthConfig::ToJson() const {
  campaign::Json out;
  out["ewma_alpha"] = ewma_alpha;
  out["degraded_frac"] = degraded_frac;
  out["spare_fail_frac"] = spare_fail_frac;
  out["wear_fail_frac"] = wear_fail_frac;
  out["retry_fail_rate"] = retry_fail_rate;
  out["program_fail_rate"] = program_fail_rate;
  out["gc_stall_fail_share"] = gc_stall_fail_share;
  return out;
}

double HealthSignals::Worst() const {
  return std::max(std::max(std::max(spare, wear), std::max(media, gc)),
                  program);
}

HealthMonitor::HealthMonitor(const HealthConfig& config) : config_(config) {
  config_.Validate();
}

HealthState HealthMonitor::state() const {
  if (score_ >= 1.0) return HealthState::kFailing;
  if (score_ >= config_.degraded_frac) return HealthState::kDegraded;
  return HealthState::kHealthy;
}

void HealthMonitor::Observe(const HealthSample& s) {
  if (windows_ == 0) baseline_ = s;

  // Spare pool: the device needs its data blocks plus the GC floor to keep
  // operating, so the spendable spare budget is the baseline free count
  // above the floor.  Every block retired since baseline burns one unit.
  const std::uint64_t budget =
      baseline_.free_blocks > s.gc_floor_blocks
          ? baseline_.free_blocks - s.gc_floor_blocks
          : 1;
  const std::uint64_t retired_delta =
      s.retired_blocks > baseline_.retired_blocks
          ? s.retired_blocks - baseline_.retired_blocks
          : 0;
  // A free pool already squeezed below the floor is the budget fully spent
  // regardless of how it got there.
  double spare_used = static_cast<double>(retired_delta) /
                      static_cast<double>(std::max<std::uint64_t>(budget, 1));
  if (s.free_blocks < s.gc_floor_blocks) spare_used = 1.0;
  signals_.spare = Normalized(spare_used, config_.spare_fail_frac);

  // Wear: mean P/E consumed vs the endurance budget.
  if (s.endurance_pe_cycles > 0 && s.total_blocks > 0) {
    const double mean_pe =
        static_cast<double>(s.total_erases) /
        static_cast<double>(s.total_blocks);
    signals_.wear = Normalized(
        mean_pe / static_cast<double>(s.endurance_pe_cycles),
        config_.wear_fail_frac);
  }

  // Media trend: this window's retry rate; any unrecovered read or lost
  // page is an instant fail for the signal.
  const HealthSample& ref = windows_ == 0 ? baseline_ : prev_;
  const std::uint64_t dsampled = s.sampled_reads - ref.sampled_reads;
  const std::uint64_t dretried = s.retried_reads - ref.retried_reads;
  double media = 0.0;
  if (dsampled > 0) {
    media = Normalized(
        static_cast<double>(dretried) / static_cast<double>(dsampled),
        config_.retry_fail_rate);
  }
  if (s.unrecovered_reads > ref.unrecovered_reads ||
      s.lost_pages > ref.lost_pages) {
    // Data loss is an instant fail: pin the signal at the cap so the EWMA
    // crosses 1.0 within a window or two even from a healthy score.
    media = kSignalCap;
  }
  signals_.media = media;

  // Program-verify trend: this window's verify-fail rate.  Failing
  // programs are the wear ramp's earliest symptom — they show up on the
  // first sick write, epochs before the flagged blocks reach a GC erase
  // and register as spare-pool burn.
  const std::uint64_t dprog = s.program_pages - ref.program_pages;
  const std::uint64_t dpfail = s.program_failures - ref.program_failures;
  signals_.program =
      dprog == 0 ? 0.0
                 : Normalized(static_cast<double>(dpfail) /
                                  static_cast<double>(dprog),
                              config_.program_fail_rate);

  // GC pressure: die-busy-gc stall share of this window's read media time.
  const std::uint64_t dmedia = s.read_media_us - ref.read_media_us;
  const std::uint64_t dstall = s.read_stall_gc_us - ref.read_stall_gc_us;
  signals_.gc =
      dmedia == 0
          ? 0.0
          : Normalized(static_cast<double>(dstall) /
                           static_cast<double>(dmedia),
                       config_.gc_stall_fail_share);

  const double raw = signals_.Worst();
  score_ = windows_ == 0
               ? raw
               : config_.ewma_alpha * raw +
                     (1.0 - config_.ewma_alpha) * score_;
  score_series_.push_back(score_);
  prev_ = s;
  ++windows_;
}

campaign::Json HealthMonitor::ToJson() const {
  campaign::Json out;
  out["state"] = std::string(HealthStateName(state()));
  out["score"] = score_;
  out["windows"] = windows_;
  campaign::Json sig;
  sig["spare"] = signals_.spare;
  sig["wear"] = signals_.wear;
  sig["media"] = signals_.media;
  sig["gc"] = signals_.gc;
  sig["program"] = signals_.program;
  out["signals"] = std::move(sig);
  return out;
}

}  // namespace ctflash::obs
