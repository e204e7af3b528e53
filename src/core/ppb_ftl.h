// The Progressive Performance Booster FTL (the paper's contribution).
//
// Write path: the first-stage classifier (size check by default) routes the
// request to the hot or cold area.  Hot-area placement follows the two-level
// LRU (iron-hot updates go to fast VBs), cold-area placement follows the
// access-frequency table (read-popular data goes to fast VBs).  Placement is
// PROGRESSIVE: metadata promotions take effect physically only when data is
// rewritten by the host or relocated by GC — the strategy itself never adds
// copy traffic, which is why write latency and erase counts stay at the
// conventional baseline (paper Figures 15-18).
//
// Read path: lookup + NAND read; bookkeeping promotes hot->iron-hot
// (two-level LRU) or bumps the cold-area frequency counter.
//
// GC: greedy min-valid victim among FULL physical blocks; each valid page is
// relocated to the virtual block matching its CURRENT hotness level — this
// is the "conduct during GC" migration edge of Figure 6.
//
// ftl::FtlBase runs the read, write, GC-copy and program-retry loops; this
// class supplies where each page goes (area, level, fast/slow class) and
// its per-read hotness bookkeeping.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/access_frequency_table.h"
#include "core/classifier.h"
#include "core/hotness.h"
#include "core/two_level_lru.h"
#include "core/virtual_block.h"
#include "ftl/block_manager.h"
#include "ftl/ftl_base.h"
#include "ftl/mapping_table.h"

namespace ctflash::core {

struct PpbConfig {
  /// Virtual blocks per physical block (even, >= 2; paper uses 2).
  std::uint32_t vb_split = 2;
  /// Entry budgets for the hot-area LRU lists; 0 = auto-size from the
  /// logical capacity (hot 8 %, iron-hot 4 % of logical pages).
  std::uint64_t hot_lru_capacity = 0;
  std::uint64_t iron_lru_capacity = 0;
  /// Cold-area frequency table: reads needed to rank as cold
  /// (write-once-read-many), and the table's entry budget (0 = auto 25 %).
  std::uint32_t cold_promote_threshold = 2;
  std::uint64_t freq_table_capacity = 0;
  /// First-stage size-check threshold; 0 = one page (the paper's setting).
  std::uint64_t hot_size_threshold_bytes = 0;
  /// Per-area bound on open fast-class VBs (see VirtualBlockManager); 0 is
  /// the strict Algorithm-1 literal mode (ablation).
  std::uint32_t max_open_fast_vbs = 4;
  /// Ablation knobs: apply hotness-aware placement on host updates / GC.
  bool migrate_on_update = true;
  bool migrate_on_gc = true;

  void Validate() const;
};

/// PPB-specific counters (on top of ftl::FtlStats).
struct PpbStats {
  std::uint64_t hot_area_writes = 0;   ///< pages routed hot/iron-hot
  std::uint64_t cold_area_writes = 0;  ///< pages routed cold/icy-cold
  std::uint64_t iron_promotions = 0;   ///< hot -> iron-hot (on read)
  std::uint64_t cold_demotions = 0;    ///< evicted from hot area to cold area
  std::uint64_t diverted_writes = 0;   ///< Algorithm 1 rule I/II diversions
  std::uint64_t fast_class_writes = 0; ///< pages physically placed in fast VBs
  std::uint64_t slow_class_writes = 0;
  std::uint64_t gc_migrations = 0;     ///< GC relocations that changed class
  std::uint64_t fast_reads = 0;        ///< host reads served from fast VBs
  std::uint64_t slow_reads = 0;

  /// Per-hotness-level read diagnostics: page counts and accumulated layer
  /// speed factors (1.0 = slowest top layer), indexed by HotnessLevel.
  std::uint64_t reads_at_level[4] = {0, 0, 0, 0};
  double read_factor_sum[4] = {0.0, 0.0, 0.0, 0.0};

  /// GC victim diagnostics, indexed by Area (kNone unused).
  std::uint64_t gc_victims_by_area[3] = {0, 0, 0};
  std::uint64_t gc_victim_valid_by_area[3] = {0, 0, 0};

  double MeanReadFactor(HotnessLevel level) const {
    const auto i = static_cast<std::size_t>(level);
    return reads_at_level[i] == 0 ? 0.0
                                  : read_factor_sum[i] / reads_at_level[i];
  }
};

class PpbFtl : public ftl::FtlBase {
 public:
  PpbFtl(ftl::FlashTarget& target, const ftl::FtlConfig& ftl_config,
         const PpbConfig& ppb_config,
         std::unique_ptr<FirstStageClassifier> classifier = nullptr);

  std::string Name() const override { return "ppb-ftl"; }

  std::optional<Us> ProbeWriteFreeAt() const override {
    return vbm_.EarliestHostFrontierFreeAt();
  }

  const PpbConfig& ppb_config() const { return ppb_config_; }
  const PpbStats& ppb_stats() const { return ppb_stats_; }
  void ResetPpbStats() { ppb_stats_ = PpbStats{}; }

  const VirtualBlockManager& vbm() const { return vbm_; }
  const TwoLevelLru& hot_area() const { return lru_; }
  const AccessFrequencyTable& cold_area() const { return freq_; }
  const FirstStageClassifier& classifier() const { return *classifier_; }

  /// Current metadata hotness of an lpn (what GC relocation would use).
  HotnessLevel LevelOf(Lpn lpn) const;

  /// Scheduled-GC write-admission lead: one victim's relocations fan out
  /// across up to four lists (hot/cold area x fast/GC-slow class), each of
  /// which may have to claim up to `write_frontiers` fresh blocks
  /// mid-relocation, plus one fill-up claim of slack — wider than the
  /// conventional single-stream lead, so the pool still bottoms out at the
  /// GC trigger.
  std::uint64_t GcScheduleLead() const override {
    return 4ull * config().write_frontiers + 1;
  }

  /// Deep structural check: the base audit plus VB lists, fill pointers,
  /// area pairing and both hotness tables (no page tracked by both areas).
  bool CheckInvariants() const override;

 protected:
  /// Per-read bookkeeping: fast/slow and per-level read counts, then the
  /// progressive promotions (hot -> iron-hot, cold-area frequency).
  Us DoRead(Lpn lpn_first, std::uint32_t pages, std::uint64_t offset_bytes,
            std::uint64_t size_bytes, Us earliest) override;

  /// Host page: ClassifyWrite picks the level (and so the area); the VB
  /// allocation counts diverted and fast/slow writes.
  Placement PlaceHostPage(Lpn lpn, std::uint64_t request_bytes) override;
  /// GC copy: RelocationLevel (or the source class without migrate_on_gc)
  /// picks the level on the area's GC stream; a class change counts as a
  /// GC migration.
  Placement PlaceGcPage(Lpn lpn, Ppn src, BlockId victim) override;
  /// Retry on the same area, level and stream as the failed program,
  /// counting diverted and fast/slow writes (GC retries included).
  Ppn PlaceAgain(std::uint32_t stream) override;

  void OnGcVictimChosen(BlockId victim) override;
  void OnGcBlockErased(BlockId victim) override { vbm_.OnBlockErased(victim); }

  void SaveVariantState(util::StateWriter& w) const override;
  void LoadVariantState(util::StateReader& r) override;

 private:
  /// Placement stream of a page: its level (which fixes the area) plus the
  /// GC-stream bit.
  static constexpr std::uint32_t kGcStreamBit = 4;
  static std::uint32_t StreamOf(HotnessLevel level, bool gc_stream) {
    return static_cast<std::uint32_t>(level) | (gc_stream ? kGcStreamBit : 0);
  }

  /// Allocates a page at `level` in its area and counts its class; throws
  /// MediaError ("spare pool exhausted <context>") when no block is left.
  VbAllocation Allocate(HotnessLevel level, bool gc_stream,
                        const char* context);

  /// LevelOf for a page whose hot-area tier the caller already read.
  HotnessLevel LevelOf(Lpn lpn, TwoLevelLru::Tier tier) const;

  /// Metadata updates for a host write; returns the placement level.
  HotnessLevel ClassifyWrite(Lpn lpn, std::uint64_t request_bytes);

  /// Placement level for a page relocated by GC.  Hot-area survivors were
  /// not modified since they were written, so they are demoted out of the
  /// hot area (Fig. 6 "demote if not modified", conducted during GC):
  /// read-popular iron-hot survivors become cold (stay on fast pages),
  /// everything else becomes icy-cold; cold-area survivors are re-ranked by
  /// the frequency table (the GC-time icy-cold -> cold promotion).
  HotnessLevel RelocationLevel(Lpn lpn, Area src_area);

  VirtualBlockManager vbm_;
  TwoLevelLru lru_;
  AccessFrequencyTable freq_;
  std::unique_ptr<FirstStageClassifier> classifier_;
  PpbConfig ppb_config_;
  PpbStats ppb_stats_;
};

}  // namespace ctflash::core
