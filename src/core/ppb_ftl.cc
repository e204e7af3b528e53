#include "core/ppb_ftl.h"

#include <stdexcept>

namespace ctflash::core {

void PpbConfig::Validate() const {
  if (vb_split < 2 || vb_split % 2 != 0) {
    throw std::invalid_argument("PpbConfig: vb_split must be even and >= 2");
  }
  if (cold_promote_threshold == 0) {
    throw std::invalid_argument("PpbConfig: cold_promote_threshold must be > 0");
  }
}

namespace {
std::uint64_t AutoSize(std::uint64_t configured, std::uint64_t logical_pages,
                       double fraction) {
  if (configured != 0) return configured;
  const auto v = static_cast<std::uint64_t>(
      static_cast<double>(logical_pages) * fraction);
  return v == 0 ? 1 : v;
}

/// Livelock guard for striped list growth (VbStripingConfig::max_open_blocks):
/// open blocks must never absorb the whole spare pool, or FULL blocks end up
/// 100 % valid and GC cannot reclaim anything.  Cap the population at
/// spare - gc_threshold_low - 2 (1, i.e. effectively no growth, on devices
/// too small to afford it).
std::uint64_t OpenBlockCap(std::uint64_t total_blocks,
                           std::uint64_t logical_pages,
                           std::uint32_t pages_per_block,
                           const ftl::FtlConfig& cfg) {
  const std::uint64_t logical_blocks =
      (logical_pages + pages_per_block - 1) / pages_per_block;
  const std::uint64_t spare = total_blocks - logical_blocks;
  const std::uint64_t floor = cfg.gc_threshold_low + 2;
  return spare > floor + 1 ? spare - floor : 1;
}
}  // namespace

PpbFtl::PpbFtl(ftl::FlashTarget& target, const ftl::FtlConfig& ftl_config,
               const PpbConfig& ppb_config,
               std::unique_ptr<FirstStageClassifier> classifier)
    : FtlBase(target, ftl_config),
      vbm_(blocks_, target.geometry().pages_per_block, ppb_config.vb_split,
           ppb_config.max_open_fast_vbs,
           VbStripingConfig{
               ftl::WriteAllocatorConfig{ftl_config.write_frontiers,
                                         ftl_config.stripe_policy},
               [this](BlockId b) { return target_.nand().LocationOf(b).die; },
               [this](BlockId b) { return target_.DieFreeAt(b); },
               target.geometry().TotalDies(),
               ftl_config.gc_threshold_low,
               /*gc_claim_reserve_blocks=*/2,
               OpenBlockCap(target.geometry().TotalBlocks(), logical_pages_,
                            target.geometry().pages_per_block, ftl_config)}),
      lru_(AutoSize(ppb_config.hot_lru_capacity, logical_pages_, 0.08),
           AutoSize(ppb_config.iron_lru_capacity, logical_pages_, 0.04),
           logical_pages_),
      freq_(ppb_config.cold_promote_threshold,
            AutoSize(ppb_config.freq_table_capacity, logical_pages_, 0.25),
            logical_pages_),
      classifier_(std::move(classifier)),
      ppb_config_(ppb_config) {
  ppb_config_.Validate();
  if (config_.wear.Enabled()) {
    blocks_.SetWearProvider(
        [this](BlockId b) { return target_.nand().PeCycles(b); });
  }
  if (!classifier_) {
    const std::uint64_t threshold =
        ppb_config_.hot_size_threshold_bytes != 0
            ? ppb_config_.hot_size_threshold_bytes
            : target.geometry().page_size_bytes;
    classifier_ = MakeSizeCheckClassifier(threshold);
  }
}

HotnessLevel PpbFtl::LevelOf(Lpn lpn) const {
  return LevelOf(lpn, lru_.TierOf(lpn));
}

HotnessLevel PpbFtl::LevelOf(Lpn lpn, TwoLevelLru::Tier tier) const {
  switch (tier) {
    case TwoLevelLru::Tier::kIronHot:
      return HotnessLevel::kIronHot;
    case TwoLevelLru::Tier::kHot:
      return HotnessLevel::kHot;
    case TwoLevelLru::Tier::kNone:
      break;
  }
  return freq_.IsCold(lpn) ? HotnessLevel::kCold : HotnessLevel::kIcyCold;
}

HotnessLevel PpbFtl::ClassifyWrite(Lpn lpn, std::uint64_t request_bytes) {
  const std::uint64_t offset = lpn * PageSize();
  if (classifier_->IsHotWrite(offset, request_bytes)) {
    // Hot area: two-level LRU decides iron-hot vs hot.
    freq_.Erase(lpn);  // leaving the cold area
    const auto out = lru_.OnWrite(lpn);
    if (out.demoted_to_cold) {
      freq_.OnWrite(*out.demoted_to_cold);
      ppb_stats_.cold_demotions++;
    }
    if (!ppb_config_.migrate_on_update) return HotnessLevel::kHot;
    return out.tier == TwoLevelLru::Tier::kIronHot ? HotnessLevel::kIronHot
                                                   : HotnessLevel::kHot;
  }
  // Cold area: fresh content, popularity unknown again -> icy-cold; reads
  // promote it to cold progressively (Figure 6 "promote if read").
  if (lru_.Contains(lpn)) {
    lru_.Erase(lpn);
    ppb_stats_.cold_demotions++;
  }
  freq_.OnWrite(lpn);
  return HotnessLevel::kIcyCold;
}

HotnessLevel PpbFtl::RelocationLevel(Lpn lpn, Area src_area) {
  if (src_area == Area::kHot) {
    switch (lru_.TierOf(lpn)) {
      case TwoLevelLru::Tier::kIronHot:
        // Still in the iron-hot LRU -> actively read; GC moves it onto the
        // fast pages of the hot area (progressive migration, Fig. 6).
        return HotnessLevel::kIronHot;
      case TwoLevelLru::Tier::kHot:
        // Survived a full GC cycle without modification -> not hot after
        // all; "demote if not modified" sends it to the icy-cold area.
        lru_.Erase(lpn);
        ppb_stats_.cold_demotions++;
        freq_.OnWrite(lpn);
        return HotnessLevel::kIcyCold;
      case TwoLevelLru::Tier::kNone:
        break;  // already LRU-evicted; fall through to the frequency table
    }
  }
  // Cold-area re-ranking: the GC-time icy-cold <-> cold movement.
  return freq_.IsCold(lpn) ? HotnessLevel::kCold : HotnessLevel::kIcyCold;
}

PpbFtl::ProgramOutcome PpbFtl::ProgramWithRetry(Ppn ppn, Area area,
                                                HotnessLevel level,
                                                bool gc_stream, Us earliest) {
  ftl::MediaOpResult pr = target_.ProgramPageChecked(ppn, earliest);
  for (std::uint32_t attempt = 1; pr.failed; ++attempt) {
    OnProgramFailure(ppn, pr.die_lost);
    if (attempt >= target_.MaxProgramAttempts()) {
      throw ftl::MediaError("PpbFtl: page program failed " +
                            std::to_string(attempt) + " times");
    }
    auto alloc = vbm_.AllocatePage(area, level, gc_stream);
    if (!alloc.has_value()) {
      throw ftl::MediaError(
          "PpbFtl: spare pool exhausted while retrying a failed program");
    }
    if (alloc->diverted) ppb_stats_.diverted_writes++;
    if (alloc->fast_class) {
      ppb_stats_.fast_class_writes++;
    } else {
      ppb_stats_.slow_class_writes++;
    }
    ppn = alloc->ppn;
    pr = target_.ProgramPageChecked(ppn, pr.done);
  }
  return {ppn, pr.done};
}

Us PpbFtl::PlacePage(Lpn lpn, HotnessLevel level, Us earliest) {
  const Area area = AreaOf(level);
  auto alloc = vbm_.AllocatePage(area, level);
  if (!alloc.has_value()) {
    // GC thresholds keep the free pool alive in the fault-free device;
    // running dry means retirement ate the spare pool (e.g. a lost die).
    throw ftl::MediaError("PpbFtl: spare pool exhausted on host write");
  }
  if (alloc->diverted) ppb_stats_.diverted_writes++;
  if (alloc->fast_class) {
    ppb_stats_.fast_class_writes++;
  } else {
    ppb_stats_.slow_class_writes++;
  }
  const ProgramOutcome out =
      ProgramWithRetry(alloc->ppn, area, level, /*gc_stream=*/false, earliest);
  const Ppn old = map_.Update(lpn, out.ppn);
  if (old != kInvalidPpn) blocks_.RemoveValid(target_.geometry().BlockOf(old));
  blocks_.AddValid(target_.geometry().BlockOf(out.ppn));
  return out.done;
}

void PpbFtl::OnGcVictimChosen(BlockId victim) {
  const auto area_idx = static_cast<std::size_t>(vbm_.AreaOfBlock(victim));
  ppb_stats_.gc_victims_by_area[area_idx]++;
  ppb_stats_.gc_victim_valid_by_area[area_idx] += blocks_.ValidCount(victim);
}

Us PpbFtl::RelocatePageForGc(Lpn lpn, Ppn src, BlockId victim, Us earliest) {
  const auto& geo = target_.geometry();
  const std::uint32_t p = geo.PageOf(src);
  HotnessLevel level;
  if (ppb_config_.migrate_on_gc) {
    level = RelocationLevel(lpn, vbm_.AreaOfBlock(victim));
  } else {
    const Area src_area = vbm_.AreaOfBlock(victim);
    const bool src_fast = vbm_.IsFastClassPage(p);
    level = src_area == Area::kHot
                ? (src_fast ? HotnessLevel::kIronHot : HotnessLevel::kHot)
                : (src_fast ? HotnessLevel::kCold : HotnessLevel::kIcyCold);
  }
  auto alloc = vbm_.AllocatePage(AreaOf(level), level, /*gc_stream=*/true);
  if (!alloc.has_value()) {
    throw ftl::MediaError("PpbFtl: spare pool exhausted on GC relocation");
  }
  const bool class_changed = alloc->fast_class != vbm_.IsFastClassPage(p) ||
                             AreaOf(level) != vbm_.AreaOfBlock(victim);
  if (class_changed) ppb_stats_.gc_migrations++;
  if (alloc->fast_class) {
    ppb_stats_.fast_class_writes++;
  } else {
    ppb_stats_.slow_class_writes++;
  }
  const ftl::MediaReadResult rr =
      target_.ReadPageChecked(src, earliest, 0, ftl::ReadKind::kGc);
  // The destination page is programmed even when the source read failed:
  // the VB fill pointer already advanced and NAND forbids holes in the
  // program order.  A lost source just relocates garbage.
  const ProgramOutcome out =
      ProgramWithRetry(alloc->ppn, AreaOf(level), level, /*gc_stream=*/true,
                       rr.done);
  if (rr.DataLost()) {
    OnGcReadLost(lpn, victim);
  } else {
    map_.ReleasePpn(src);
    map_.Update(lpn, out.ppn);
    blocks_.RemoveValid(victim);
    blocks_.AddValid(geo.BlockOf(out.ppn));
  }
  stats_.gc_page_copies++;
  return out.done;
}

Us PpbFtl::DoWrite(Lpn lpn_first, std::uint32_t pages,
                   std::uint64_t request_bytes, Us earliest) {
  const Us gc_done = MaybeRunGc(earliest);
  const Us start = config_.charge_gc_to_write ? gc_done : earliest;
  Us completion = start;
  for (std::uint32_t i = 0; i < pages; ++i) {
    const Lpn lpn = lpn_first + i;
    const HotnessLevel level = ClassifyWrite(lpn, request_bytes);
    if (AreaOf(level) == Area::kHot) {
      ppb_stats_.hot_area_writes++;
    } else {
      ppb_stats_.cold_area_writes++;
    }
    const Us done = PlacePage(lpn, level, start);
    if (done > completion) completion = done;
  }
  return completion;
}

Us PpbFtl::DoRead(Lpn lpn_first, std::uint32_t pages,
                  std::uint64_t offset_bytes, std::uint64_t size_bytes,
                  Us earliest) {
  Us completion = earliest;
  for (std::uint32_t i = 0; i < pages; ++i) {
    const Lpn lpn = lpn_first + i;
    const Ppn ppn = map_.Lookup(lpn);
    if (ppn == kInvalidPpn) continue;
    const std::uint32_t page_in_block = target_.geometry().PageOf(ppn);
    if (vbm_.IsFastClassPage(page_in_block)) {
      ppb_stats_.fast_reads++;
    } else {
      ppb_stats_.slow_reads++;
    }
    const TwoLevelLru::Tier tier = lru_.TierOf(lpn);
    const auto level_idx = static_cast<std::size_t>(LevelOf(lpn, tier));
    ppb_stats_.reads_at_level[level_idx]++;
    ppb_stats_.read_factor_sum[level_idx] +=
        target_.latency_model().SpeedFactor(page_in_block);
    const ftl::MediaReadResult rr = target_.ReadPageChecked(
        ppn, earliest, TransferBytesFor(lpn, offset_bytes, size_bytes));
    if (rr.DataLost()) OnHostReadLost(lpn);
    if (rr.done > completion) completion = rr.done;

    // Progressive bookkeeping (no physical movement here).
    if (tier != TwoLevelLru::Tier::kNone) {
      const auto out = lru_.OnRead(lpn);
      if (tier == TwoLevelLru::Tier::kHot) ppb_stats_.iron_promotions++;
      if (out.demoted_to_cold) {
        freq_.OnWrite(*out.demoted_to_cold);
        ppb_stats_.cold_demotions++;
      }
    } else {
      freq_.OnRead(lpn);
    }
  }
  return completion;
}

bool PpbFtl::CheckInvariants() const {
  if (!map_.CheckConsistent()) return false;
  if (!vbm_.CheckInvariants()) return false;
  if (!lru_.CheckInvariants()) return false;
  // The frequency table's live count matches its tracked pages and stays
  // within capacity, untracked pages count 0, and no page is tracked by
  // both the hot and the cold area.
  std::uint64_t cold_tracked = 0;
  for (Lpn lpn = 0; lpn < logical_pages_; ++lpn) {
    if (!freq_.Contains(lpn)) {
      if (freq_.FrequencyOf(lpn) != 0) return false;
      continue;
    }
    if (lru_.Contains(lpn)) return false;
    ++cold_tracked;
  }
  if (cold_tracked != freq_.Size() || cold_tracked > freq_.capacity()) {
    return false;
  }
  const auto& geo = target_.geometry();
  std::vector<std::uint32_t> valid(geo.TotalBlocks(), 0);
  for (Lpn lpn = 0; lpn < map_.logical_pages(); ++lpn) {
    const Ppn ppn = map_.Lookup(lpn);
    if (ppn == kInvalidPpn) continue;
    if (!target_.nand().IsPageProgrammed(ppn)) return false;
    valid[geo.BlockOf(ppn)]++;
  }
  for (BlockId b = 0; b < geo.TotalBlocks(); ++b) {
    if (valid[b] != blocks_.ValidCount(b)) return false;
    // The VBM fill pointer must agree with the NAND program pointer.
    if (vbm_.FillOf(b) != target_.nand().NextProgramPage(b)) return false;
    // Pairing invariant: any block holding data belongs to exactly one area.
    if (vbm_.FillOf(b) > 0 && vbm_.AreaOfBlock(b) == Area::kNone) return false;
  }
  return true;
}

void PpbFtl::SaveVariantState(util::StateWriter& w) const {
  w.Tag("PPBF");
  vbm_.SaveState(w);
  lru_.SaveState(w);
  freq_.SaveState(w);
  w.PutU64(ppb_stats_.hot_area_writes);
  w.PutU64(ppb_stats_.cold_area_writes);
  w.PutU64(ppb_stats_.iron_promotions);
  w.PutU64(ppb_stats_.cold_demotions);
  w.PutU64(ppb_stats_.diverted_writes);
  w.PutU64(ppb_stats_.fast_class_writes);
  w.PutU64(ppb_stats_.slow_class_writes);
  w.PutU64(ppb_stats_.gc_migrations);
  w.PutU64(ppb_stats_.fast_reads);
  w.PutU64(ppb_stats_.slow_reads);
  for (std::uint64_t v : ppb_stats_.reads_at_level) w.PutU64(v);
  for (double v : ppb_stats_.read_factor_sum) w.PutDouble(v);
  for (std::uint64_t v : ppb_stats_.gc_victims_by_area) w.PutU64(v);
  for (std::uint64_t v : ppb_stats_.gc_victim_valid_by_area) w.PutU64(v);
}

void PpbFtl::LoadVariantState(util::StateReader& r) {
  r.ExpectTag("PPBF");
  vbm_.LoadState(r);
  lru_.LoadState(r);
  freq_.LoadState(r);
  ppb_stats_.hot_area_writes = r.GetU64();
  ppb_stats_.cold_area_writes = r.GetU64();
  ppb_stats_.iron_promotions = r.GetU64();
  ppb_stats_.cold_demotions = r.GetU64();
  ppb_stats_.diverted_writes = r.GetU64();
  ppb_stats_.fast_class_writes = r.GetU64();
  ppb_stats_.slow_class_writes = r.GetU64();
  ppb_stats_.gc_migrations = r.GetU64();
  ppb_stats_.fast_reads = r.GetU64();
  ppb_stats_.slow_reads = r.GetU64();
  for (std::uint64_t& v : ppb_stats_.reads_at_level) v = r.GetU64();
  for (double& v : ppb_stats_.read_factor_sum) v = r.GetDouble();
  for (std::uint64_t& v : ppb_stats_.gc_victims_by_area) v = r.GetU64();
  for (std::uint64_t& v : ppb_stats_.gc_victim_valid_by_area) v = r.GetU64();
}

}  // namespace ctflash::core
